// Code image of a SODEE application: classes, methods, fields, string pool
// and native-function names.  A Program is immutable shared *code*; runtime
// state (heap, statics, threads) lives in svm::VM instances that load
// classes from a Program — mirroring how the paper's worker JVMs load
// transferred class files.
//
// Methods carry the metadata the migration machinery relies on:
//   - var_table:    the local-variable table exposed through the tool
//                   interface (JVMTI's GetLocalVariableTable equivalent)
//   - stmt_starts:  statement-start pcs.  After preprocessing these are the
//                   migration-safe points (MSPs): the operand stack is
//                   provably empty at each of them.
//   - ex_table:     try/catch ranges (used both by guest code and by the
//                   injected restoration / object-fault handlers)
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bytecode/ops.h"
#include "bytecode/types.h"

namespace sod::bc {

/// Catch-all marker in ExEntry::ex_class.
inline constexpr uint16_t kAnyClass = 0xFFFF;
/// "No such id" marker.
inline constexpr uint16_t kNoId = 0xFFFF;

/// Built-in exception classes; ProgramBuilder registers these first so the
/// ids are stable across every program.
namespace builtin {
inline constexpr uint16_t kNullPointer = 0;    ///< java.lang.NullPointerException
inline constexpr uint16_t kInvalidState = 1;   ///< the restoration trigger
inline constexpr uint16_t kOutOfMemory = 2;    ///< for exception-driven offload
inline constexpr uint16_t kClassNotFound = 3;  ///< for exception-driven offload
inline constexpr uint16_t kArithmetic = 4;
inline constexpr uint16_t kIndexOutOfBounds = 5;
inline constexpr uint16_t kCount = 6;
}  // namespace builtin

struct LocalVar {
  std::string name;
  Ty type = Ty::I64;
  uint16_t slot = 0;
};

struct ExEntry {
  uint32_t from_pc = 0;    ///< inclusive
  uint32_t to_pc = 0;      ///< exclusive
  uint32_t handler_pc = 0;
  uint16_t ex_class = kAnyClass;
};

struct Method {
  uint16_t id = kNoId;
  uint16_t owner = kNoId;  ///< owning class id
  std::string name;        ///< qualified "Class.method"
  std::vector<Ty> params;  ///< parameter types (locals 0..k-1)
  Ty ret = Ty::Void;
  uint16_t num_locals = 0;
  uint16_t max_stack = 0;  ///< computed by the verifier
  std::vector<uint8_t> code;
  std::vector<LocalVar> var_table;
  std::vector<ExEntry> ex_table;
  std::vector<uint32_t> stmt_starts;  ///< sorted; MSPs after preprocessing

  /// Largest statement start <= pc (statement containing pc).
  uint32_t stmt_at_or_before(uint32_t pc) const;
  /// True if pc is a registered statement start / migration-safe point.
  bool is_stmt_start(uint32_t pc) const;
};

struct Field {
  uint16_t id = kNoId;
  uint16_t owner = kNoId;
  std::string name;  ///< qualified "Class.field"
  Ty type = Ty::I64;
  bool is_static = false;
  uint16_t slot = 0;  ///< instance-slot or static-slot index within owner
};

struct Class {
  uint16_t id = kNoId;
  std::string name;
  std::vector<uint16_t> method_ids;
  std::vector<uint16_t> field_ids;
  uint16_t num_inst_slots = 0;
  uint16_t num_static_slots = 0;
  bool is_exception = false;  ///< throwable
  /// Byte size of its class image; set by prep::preprocess_program, after
  /// which images do not change (read it through class_image_size).
  size_t image_bytes = 0;
};

/// Declared signature of a native (host) function; natives run inline in
/// the caller's frame — the SODEE equivalents of JNI / helper runtime calls.
struct NativeDecl {
  std::string name;
  std::vector<Ty> params;
  Ty ret = Ty::Void;
};

/// One decoded instruction (for analysis and rewriting passes).
struct Instr {
  Op op = Op::NOP;
  uint32_t pc = 0;
  uint32_t size = 1;
  int64_t imm_i = 0;   ///< ICONST immediate
  double imm_d = 0;    ///< DCONST immediate
  uint32_t arg = 0;    ///< u8/u16 operand or branch target
};

/// Decoded LOOKUPSWITCH payload.
struct SwitchInfo {
  uint32_t default_target = 0;
  std::vector<std::pair<int64_t, uint32_t>> pairs;
};

Instr decode(std::span<const uint8_t> code, uint32_t pc);
SwitchInfo decode_switch(std::span<const uint8_t> code, uint32_t pc);

/// The one encoder: appends `op` and its operand (immediate, local slot,
/// id, element type or branch target; a DCONST passes its f64 bit
/// pattern) and returns the operand's offset, where a fixup patches.
size_t emit(std::vector<uint8_t>& code, Op op, int64_t operand = 0);
/// Appends a LOOKUPSWITCH and returns the offsets of its targets: the
/// default first, then one per pair.
std::vector<size_t> emit_switch(std::vector<uint8_t>& code, uint32_t default_target,
                                std::span<const std::pair<int64_t, uint32_t>> pairs);

class Program {
 public:
  std::vector<Class> classes;
  std::vector<Method> methods;
  std::vector<Field> fields;
  std::vector<std::string> strings;     ///< LDC_STR pool
  std::vector<NativeDecl> natives;      ///< INVOKENATIVE pool

  const Class& cls(uint16_t id) const;
  const Method& method(uint16_t id) const;
  const Field& field(uint16_t id) const;
  Method& method_mut(uint16_t id);

  uint16_t find_class(std::string_view name) const;    ///< kNoId if absent
  uint16_t find_method(std::string_view name) const;   ///< qualified name
  uint16_t find_field(std::string_view name) const;    ///< qualified name
  uint16_t find_native(std::string_view name) const;

  uint16_t intern_string(std::string_view s);

  /// Serialized "class file" image of one class (class metadata + its
  /// fields + its methods with code).  Its byte size is what class
  /// transfer costs in the experiments (cf. Fig. 5 class-file sizes and
  /// the Table VII class-transfer column).
  std::vector<uint8_t> class_image(uint16_t class_id) const;
  /// class_image(class_id).size(), computed once by preprocessing: what
  /// shipping or fetching the class costs.
  size_t class_image_size(uint16_t class_id) const;

  /// Total image size of all classes (whole-program code size).
  size_t total_image_size() const;
};

/// What one instruction pops and pushes.
struct StackEffect {
  std::span<const Ty> pops;  ///< bottom of the stack first; Void = any value
  Ty push = Ty::Void;        ///< Void = nothing
};

/// Stack signature of `in` (a Dup or Swap reorders, and reports nothing).
/// Declared kinds read the field, callee or native the operand names,
/// which must exist.  Allocates nothing: the pops view the op table, a
/// static type list or the callee's parameter list, so they stay valid
/// while `p`'s declarations are unchanged.
StackEffect stack_effect(const Program& p, const Instr& in);

}  // namespace sod::bc
