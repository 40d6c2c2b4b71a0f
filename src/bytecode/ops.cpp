#include "bytecode/ops.h"

#include <cstring>
#include <initializer_list>

namespace sod::bc {

namespace {

enum : unsigned { kBranch = 1, kTerm = 2, kEffect = 4 };

constexpr OpInfo row(const char* name, OperKind operands, std::initializer_list<Ty> pops = {},
                     Ty push = Ty::Void, unsigned flags = 0,
                     StackKind stack = StackKind::Fixed) {
  OpInfo o{};
  o.name = name;
  o.operands = operands;
  o.stack = stack;
  for (Ty t : pops) o.pops[o.npops++] = t;
  o.push = push;
  o.branch = (flags & kBranch) != 0;
  o.terminator = (flags & kTerm) != 0;
  o.effect = (flags & kEffect) != 0;
  return o;
}

constexpr OpInfo declared(const char* name, unsigned flags = 0) {
  return row(name, OperKind::U16, {}, Ty::Void, flags, StackKind::Declared);
}

constexpr Ty I = Ty::I64, D = Ty::F64, A = Ty::Ref, V = Ty::Void;
using enum OperKind;

constexpr OpInfo kTable[] = {
    row("nop", None),

    row("iconst", I64, {}, I),
    row("dconst", F64, {}, D),
    row("aconst_null", None, {}, A),
    row("ldc_str", U16, {}, A),

    row("iload", U16, {}, I),
    row("dload", U16, {}, D),
    row("aload", U16, {}, A),
    row("istore", U16, {I}),
    row("dstore", U16, {D}),
    row("astore", U16, {A}),

    row("pop", None, {V}),
    row("dup", None, {}, V, 0, StackKind::Dup),
    row("swap", None, {}, V, 0, StackKind::Swap),

    row("iadd", None, {I, I}, I),
    row("isub", None, {I, I}, I),
    row("imul", None, {I, I}, I),
    row("idiv", None, {I, I}, I),
    row("irem", None, {I, I}, I),
    row("ineg", None, {I}, I),
    row("ishl", None, {I, I}, I),
    row("ishr", None, {I, I}, I),
    row("iand", None, {I, I}, I),
    row("ior", None, {I, I}, I),
    row("ixor", None, {I, I}, I),

    row("dadd", None, {D, D}, D),
    row("dsub", None, {D, D}, D),
    row("dmul", None, {D, D}, D),
    row("ddiv", None, {D, D}, D),
    row("dneg", None, {D}, D),

    row("i2d", None, {I}, D),
    row("d2i", None, {D}, I),
    row("dcmp", None, {D, D}, I),

    row("goto", Target, {}, V, kBranch | kTerm),
    row("ifeq", Target, {I}, V, kBranch),
    row("ifne", Target, {I}, V, kBranch),
    row("iflt", Target, {I}, V, kBranch),
    row("ifle", Target, {I}, V, kBranch),
    row("ifgt", Target, {I}, V, kBranch),
    row("ifge", Target, {I}, V, kBranch),
    row("if_icmpeq", Target, {I, I}, V, kBranch),
    row("if_icmpne", Target, {I, I}, V, kBranch),
    row("if_icmplt", Target, {I, I}, V, kBranch),
    row("if_icmple", Target, {I, I}, V, kBranch),
    row("if_icmpgt", Target, {I, I}, V, kBranch),
    row("if_icmpge", Target, {I, I}, V, kBranch),
    row("ifnull", Target, {A}, V, kBranch),
    row("ifnonnull", Target, {A}, V, kBranch),
    row("lookupswitch", Switch, {I}, V, kTerm),

    declared("getfield"),
    declared("putfield"),
    declared("getstatic"),
    declared("putstatic"),

    row("new", U16, {}, A, kEffect),
    row("newarray", U8, {I}, A, kEffect),
    row("iaload", None, {A, I}, I),
    row("iastore", None, {A, I, I}),
    row("daload", None, {A, I}, D),
    row("dastore", None, {A, I, D}),
    row("aaload", None, {A, I}, A),
    row("aastore", None, {A, I, A}),
    row("arraylen", None, {A}, I),

    declared("invoke", kEffect),
    declared("invokenative", kEffect),
    row("return", None, {}, V, kTerm),
    row("ireturn", None, {I}, V, kTerm),
    row("dreturn", None, {D}, V, kTerm),
    row("areturn", None, {A}, V, kTerm),

    row("throw", None, {A}, V, kTerm),
};

static_assert(sizeof(kTable) / sizeof(kTable[0]) == kNumOps, "op table out of sync");

}  // namespace

const OpInfo& op_info(Op op) {
  auto idx = static_cast<size_t>(op);
  SOD_CHECK(idx < static_cast<size_t>(kNumOps), "bad opcode");
  return kTable[idx];
}

uint32_t instr_size(std::span<const uint8_t> code, uint32_t pc) {
  SOD_CHECK(pc < code.size(), "pc out of range");
  Op op = static_cast<Op>(code[pc]);
  switch (op_info(op).operands) {
    case OperKind::None: return 1;
    case OperKind::U8: return 2;
    case OperKind::U16: return 3;
    case OperKind::Target: return 5;
    case OperKind::I64:
    case OperKind::F64: return 9;
    case OperKind::Switch: {
      SOD_CHECK(pc + 3 <= code.size(), "truncated lookupswitch");
      uint16_t npairs;
      std::memcpy(&npairs, code.data() + pc + 1, 2);
      return 1 + 2 + 4 + static_cast<uint32_t>(npairs) * 12;
    }
  }
  SOD_UNREACHABLE("bad operand kind");
}

Op load_op(Ty t) {
  switch (t) {
    case Ty::I64: return Op::ILOAD;
    case Ty::F64: return Op::DLOAD;
    case Ty::Ref: return Op::ALOAD;
    case Ty::Void: break;
  }
  SOD_UNREACHABLE("load_op(void)");
}

Op store_op(Ty t) {
  switch (t) {
    case Ty::I64: return Op::ISTORE;
    case Ty::F64: return Op::DSTORE;
    case Ty::Ref: return Op::ASTORE;
    case Ty::Void: break;
  }
  SOD_UNREACHABLE("store_op(void)");
}

}  // namespace sod::bc
