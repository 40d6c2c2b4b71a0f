// Instruction set of the SODEE stack machine.
//
// Encoding: one opcode byte followed by a fixed-width operand (little
// endian), except LOOKUPSWITCH which is variable length:
//   LOOKUPSWITCH  u16 npairs, u32 default_target, npairs x (i64 key, u32 target)
// Branch targets are absolute bytecode indices (the preprocessor remaps
// them when it rewrites code).
//
// The op table (op_info) is the one description of each opcode: its
// operand layout, its stack signature and its control flags.  The
// verifier, the flattener and the fault scanner read stack signatures
// through bc::stack_effect; decode and bc::emit read operand layouts.
#pragma once

#include <cstdint>
#include <span>

#include "bytecode/types.h"
#include "support/panic.h"

namespace sod::bc {

enum class Op : uint8_t {
  NOP = 0,

  // Constants
  ICONST,       // i64 imm
  DCONST,       // f64 imm
  ACONST_NULL,  //
  LDC_STR,      // u16 string-pool index -> pushes ref to interned string

  // Locals
  ILOAD,   // u16 slot
  DLOAD,   // u16 slot
  ALOAD,   // u16 slot
  ISTORE,  // u16 slot
  DSTORE,  // u16 slot
  ASTORE,  // u16 slot

  // Operand stack
  POP,
  DUP,
  SWAP,

  // Integer arithmetic (i64)
  IADD,
  ISUB,
  IMUL,
  IDIV,  // throws ArithmeticException on /0
  IREM,
  INEG,
  ISHL,
  ISHR,
  IAND,
  IOR,
  IXOR,

  // Float arithmetic (f64)
  DADD,
  DSUB,
  DMUL,
  DDIV,
  DNEG,

  // Conversions / comparison
  I2D,
  D2I,
  DCMP,  // pushes -1/0/1 as i64

  // Control flow (u32 absolute target)
  GOTO,
  IFEQ,
  IFNE,
  IFLT,
  IFLE,
  IFGT,
  IFGE,
  IF_ICMPEQ,
  IF_ICMPNE,
  IF_ICMPLT,
  IF_ICMPLE,
  IF_ICMPGT,
  IF_ICMPGE,
  IFNULL,
  IFNONNULL,
  LOOKUPSWITCH,  // variable length, see header comment

  // Fields (u16 field id)
  GETFIELD,   // pops ref, pushes value; null -> NullPointerException
  PUTFIELD,   // pops value, ref
  GETSTATIC,  // pushes value
  PUTSTATIC,  // pops value

  // Objects and arrays
  NEW,       // u16 class id -> pushes ref
  NEWARRAY,  // u8 element Ty; pops length -> pushes ref
  IALOAD,
  IASTORE,
  DALOAD,
  DASTORE,
  AALOAD,
  AASTORE,
  ARRAYLEN,

  // Calls (static dispatch; instance methods pass `this` as first param)
  INVOKE,        // u16 method id
  INVOKENATIVE,  // u16 native id (runs inline; no guest frame pushed)
  RETURN,
  IRETURN,
  DRETURN,
  ARETURN,

  // Exceptions
  THROW,  // pops ref to exception object

  kOpCount_,
};

inline constexpr int kNumOps = static_cast<int>(Op::kOpCount_);

/// Operand layout classes.
enum class OperKind : uint8_t {
  None,
  I64,     // 8-byte immediate
  F64,     // 8-byte immediate
  U8,      // 1 byte
  U16,     // 2 bytes
  Target,  // u32 absolute branch target
  Switch,  // variable: u16 npairs, u32 default, pairs
};

/// Where an instruction's stack types come from.
enum class StackKind : uint8_t {
  Fixed,     ///< the row's pops and push
  Declared,  ///< GET/PUTFIELD, GET/PUTSTATIC, INVOKE, INVOKENATIVE: the
             ///< field, callee or native the operand names
  Dup,       ///< pushes a copy of the top value
  Swap,      ///< exchanges the top two values
};

struct OpInfo {
  const char* name;
  OperKind operands;
  StackKind stack = StackKind::Fixed;
  /// Fixed: popped types, bottom of the stack first (Void = any value).
  Ty pops[3] = {};
  uint8_t npops = 0;
  Ty push = Ty::Void;       ///< Fixed: pushed type (Void = nothing)
  bool branch = false;      ///< has a single Target operand
  bool terminator = false;  ///< never falls through
  bool effect = false;      ///< allocates or calls: a rewrite never re-executes it
};

const OpInfo& op_info(Op op);

/// Total encoded size (opcode + operands) of the instruction at `pc`.
uint32_t instr_size(std::span<const uint8_t> code, uint32_t pc);

/// True if `op` unconditionally leaves the instruction (no fallthrough).
inline bool is_terminator(Op op) { return op_info(op).terminator; }

/// True for conditional/unconditional branches with a single Target operand.
inline bool is_branch(Op op) { return op_info(op).branch; }

/// The load (ILOAD/DLOAD/ALOAD) and store opcode for a local of type `t`.
Op load_op(Ty t);
Op store_op(Ty t);

}  // namespace sod::bc
