// Value model of the SODEE stack machine.
//
// The VM is a JVM-like *typed* stack machine.  We keep three runtime value
// kinds: 64-bit integers, 64-bit floats, and heap references.  (The paper's
// JVM distinguishes int/long and float/double; collapsing each pair loses
// nothing the migration machinery cares about and keeps frames compact.)
#pragma once

#include <cstdint>
#include <string>

#include "support/panic.h"

namespace sod::bc {

/// Static type of a local variable, field, parameter or stack slot.
enum class Ty : uint8_t {
  Void = 0,  ///< only valid as a return type
  I64 = 1,
  F64 = 2,
  Ref = 3,
};

/// True for the three value kinds: not Void, not an out-of-range byte.
inline bool is_value_type(Ty t) { return t == Ty::I64 || t == Ty::F64 || t == Ty::Ref; }

inline const char* ty_name(Ty t) {
  switch (t) {
    case Ty::Void: return "void";
    case Ty::I64: return "i64";
    case Ty::F64: return "f64";
    case Ty::Ref: return "ref";
  }
  return "?";
}

/// Heap reference; 0 is the null reference.
using Ref = uint32_t;
inline constexpr Ref kNull = 0;

/// A runtime value: tagged union of the three kinds.
struct Value {
  Ty tag = Ty::I64;
  union {
    int64_t i;
    double d;
    Ref r;
  };

  Value() : i(0) {}
  static Value of_i64(int64_t v) {
    Value x;
    x.tag = Ty::I64;
    x.i = v;
    return x;
  }
  static Value of_f64(double v) {
    Value x;
    x.tag = Ty::F64;
    x.d = v;
    return x;
  }
  static Value of_ref(Ref v) {
    Value x;
    x.tag = Ty::Ref;
    x.r = v;
    return x;
  }
  static Value null() { return of_ref(kNull); }
  static Value zero_of(Ty t) {
    switch (t) {
      case Ty::I64: return of_i64(0);
      case Ty::F64: return of_f64(0.0);
      case Ty::Ref: return null();
      case Ty::Void: break;
    }
    SOD_UNREACHABLE("zero_of(void)");
  }

  int64_t as_i64() const {
    SOD_CHECK(tag == Ty::I64, "value is not i64");
    return i;
  }
  double as_f64() const {
    SOD_CHECK(tag == Ty::F64, "value is not f64");
    return d;
  }
  Ref as_ref() const {
    SOD_CHECK(tag == Ty::Ref, "value is not ref");
    return r;
  }

  std::string str() const;
};

inline std::string Value::str() const {
  switch (tag) {
    case Ty::I64: return std::to_string(i);
    case Ty::F64: return std::to_string(d);
    case Ty::Ref: return r == kNull ? "null" : "@" + std::to_string(r);
    case Ty::Void: return "void";
  }
  return "?";
}

}  // namespace sod::bc
