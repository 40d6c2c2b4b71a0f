#include "sod/state.h"

namespace sod::mig {

namespace {

void write_value(ByteWriter& w, const Value& v, bool home_refs) {
  w.u8(static_cast<uint8_t>(v.tag));
  switch (v.tag) {
    case Ty::I64: w.i64(v.i); break;
    case Ty::F64: w.f64(v.d); break;
    case Ty::Ref:
      // Captured-at-home states only record null vs "remote" (one byte);
      // checkpoint states carry the real home-heap id.
      if (home_refs) {
        w.u32(v.r);
      } else {
        w.u8(v.r != bc::kNull ? 1 : 0);
      }
      break;
    case Ty::Void: SOD_UNREACHABLE("void value");
  }
}

Value read_value(ByteReader& r, bool home_refs) {
  Ty t = static_cast<Ty>(r.u8());
  switch (t) {
    case Ty::I64: return Value::of_i64(r.i64());
    case Ty::F64: return Value::of_f64(r.f64());
    case Ty::Ref:
      if (home_refs) {
        Ref id = r.u32();
        return id != bc::kNull ? Value::of_ref(id) : Value::null();
      }
      return r.u8() ? Value::of_ref(kRemoteMark) : Value::null();
    case Ty::Void: break;
  }
  SOD_UNREACHABLE("bad value tag");
}

}  // namespace

void CapturedState::serialize(ByteWriter& w) const {
  w.u8(home_refs ? 1 : 0);
  w.u16(static_cast<uint16_t>(frames.size()));
  for (const auto& f : frames) {
    w.u16(f.method);
    w.u32(f.pc);
    w.u16(f.pending_callee);
    w.u16(static_cast<uint16_t>(f.locals.size()));
    for (const auto& v : f.locals) write_value(w, v, home_refs);
  }
  w.u16(static_cast<uint16_t>(statics.size()));
  for (const auto& s : statics) {
    w.u16(s.cls);
    w.u16(static_cast<uint16_t>(s.values.size()));
    for (const auto& v : s.values) write_value(w, v, home_refs);
  }
}

CapturedState CapturedState::deserialize(ByteReader& r) {
  CapturedState cs;
  cs.home_refs = r.u8() != 0;
  uint16_t nf = r.u16();
  cs.frames.resize(nf);
  for (auto& f : cs.frames) {
    f.method = r.u16();
    f.pc = r.u32();
    f.pending_callee = r.u16();
    uint16_t nl = r.u16();
    f.locals.resize(nl);
    for (auto& v : f.locals) v = read_value(r, cs.home_refs);
  }
  uint16_t ns = r.u16();
  cs.statics.resize(ns);
  for (auto& s : cs.statics) {
    s.cls = r.u16();
    uint16_t nv = r.u16();
    s.values.resize(nv);
    for (auto& v : s.values) v = read_value(r, cs.home_refs);
  }
  return cs;
}

std::vector<uint8_t> CapturedState::wire() const {
  ByteWriter w;
  serialize(w);
  return w.take();
}

CapturedState CapturedState::from_wire(std::span<const uint8_t> bytes) {
  ByteReader r(bytes);
  return deserialize(r);
}

}  // namespace sod::mig
