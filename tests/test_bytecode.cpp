// Bytecode layer: encoding, decoding, program serialization, verifier
// acceptance and rejection, disassembler sanity.
#include <gtest/gtest.h>

#include "bytecode/disasm.h"
#include "bytecode/verifier.h"
#include "testlib.h"

namespace sod {
namespace {

using namespace sod::testing;
using bc::Op;

TEST(Ops, InstrSizes) {
  std::vector<uint8_t> code;
  code.push_back(static_cast<uint8_t>(Op::ICONST));
  code.insert(code.end(), 8, 0);
  EXPECT_EQ(bc::instr_size(code, 0), 9u);

  code.clear();
  code.push_back(static_cast<uint8_t>(Op::ILOAD));
  code.insert(code.end(), 2, 0);
  EXPECT_EQ(bc::instr_size(code, 0), 3u);

  code.clear();
  code.push_back(static_cast<uint8_t>(Op::GOTO));
  code.insert(code.end(), 4, 0);
  EXPECT_EQ(bc::instr_size(code, 0), 5u);

  // lookupswitch with 2 pairs: 1 + 2 + 4 + 2*12 = 31
  code.clear();
  code.push_back(static_cast<uint8_t>(Op::LOOKUPSWITCH));
  code.push_back(2);
  code.push_back(0);
  code.insert(code.end(), 4 + 24, 0);
  EXPECT_EQ(bc::instr_size(code, 0), 31u);
}

TEST(Ops, Predicates) {
  EXPECT_TRUE(bc::is_terminator(Op::GOTO));
  EXPECT_TRUE(bc::is_terminator(Op::THROW));
  EXPECT_TRUE(bc::is_terminator(Op::IRETURN));
  EXPECT_FALSE(bc::is_terminator(Op::IFEQ));
  EXPECT_TRUE(bc::is_branch(Op::IFEQ));
  EXPECT_FALSE(bc::is_branch(Op::LOOKUPSWITCH));
  EXPECT_FALSE(bc::is_branch(Op::IADD));
}

TEST(Decode, RoundTripThroughBuilder) {
  auto p = fib_program();
  const bc::Method& m = p.method(p.find_method("Main.fib"));
  // Walk all instructions; decode must cover the code exactly.
  uint32_t pc = 0;
  int count = 0;
  while (pc < m.code.size()) {
    bc::Instr in = bc::decode(m.code, pc);
    EXPECT_EQ(in.pc, pc);
    pc += in.size;
    ++count;
  }
  EXPECT_EQ(pc, m.code.size());
  EXPECT_GT(count, 10);
}

TEST(Program, ClassImageSizeIsPositiveAndStable) {
  auto p = fib_program();
  uint16_t cid = p.find_class("Main");
  auto img1 = p.class_image(cid);
  auto img2 = p.class_image(cid);
  EXPECT_EQ(img1, img2);
  EXPECT_GT(img1.size(), 50u);
  EXPECT_GT(p.total_image_size(), img1.size() - 1);
}

TEST(Program, StmtLookup) {
  auto p = fib_program();
  const bc::Method& m = p.method(p.find_method("Main.fib"));
  ASSERT_GE(m.stmt_starts.size(), 3u);
  EXPECT_EQ(m.stmt_at_or_before(m.stmt_starts[1]), m.stmt_starts[1]);
  EXPECT_EQ(m.stmt_at_or_before(m.stmt_starts[1] + 1), m.stmt_starts[1]);
  EXPECT_TRUE(m.is_stmt_start(m.stmt_starts[0]));
  EXPECT_FALSE(m.is_stmt_start(m.stmt_starts[1] + 1));
}

TEST(Verifier, ComputesMaxStack) {
  auto p = fib_program();
  const bc::Method& m = p.method(p.find_method("Main.fib"));
  EXPECT_GE(m.max_stack, 2);
  EXPECT_LE(m.max_stack, 8);
}

TEST(Verifier, RejectsStackUnderflow) {
  bc::ProgramBuilder pb;
  auto& f = pb.cls("M").method("bad", {}, Ty::I64);
  f.stmt().iadd().iret();  // nothing on the stack
  EXPECT_THROW(pb.build(), Error);
}

TEST(Verifier, RejectsTypeMismatch) {
  bc::ProgramBuilder pb;
  auto& f = pb.cls("M").method("bad", {}, Ty::I64);
  f.stmt().dconst(1.0).iret();  // f64 where i64 expected
  EXPECT_THROW(pb.build(), Error);
}

TEST(Verifier, RejectsFallOffEnd) {
  bc::ProgramBuilder pb;
  auto& f = pb.cls("M").method("bad", {}, Ty::I64);
  f.stmt().iconst(1).pop();  // no return
  EXPECT_THROW(pb.build(), Error);
}

TEST(Verifier, RejectsWrongLocalType) {
  bc::ProgramBuilder pb;
  auto& f = pb.cls("M").method("bad", {{"x", Ty::I64}}, Ty::I64);
  f.stmt().dconst(0.5).dstore(0).iconst(1).iret();  // dstore into i64 slot
  EXPECT_THROW(pb.build(), Error);
}

TEST(Verifier, RejectsNonEmptyStackAtStmtStart) {
  bc::ProgramBuilder pb;
  auto& f = pb.cls("M").method("bad", {}, Ty::I64);
  f.iconst(1);
  f.stmt();  // stack depth is 1 here: violates the MSP invariant
  f.iconst(2).iadd().iret();
  EXPECT_THROW(pb.build(), Error);
}

TEST(Verifier, RejectsInconsistentMergeDepth) {
  bc::ProgramBuilder pb;
  auto& f = pb.cls("M").method("bad", {{"k", Ty::I64}}, Ty::I64);
  bc::Label a = f.label(), join = f.label();
  f.iload("k").ifeq(a);
  f.iconst(1).iconst(2).go(join);  // depth 2 on this path
  f.bind(a).iconst(3);             // depth 1 on this path
  f.bind(join).iadd().iret();
  EXPECT_THROW(pb.build(), Error);
}

TEST(Verifier, RejectsReturnTypeMismatch) {
  bc::ProgramBuilder pb;
  auto& f = pb.cls("M").method("bad", {}, Ty::Void);
  f.stmt().iconst(1).iret();  // ireturn from void method
  EXPECT_THROW(pb.build(), Error);
}

TEST(Verifier, AcceptsExceptionHandlerStack) {
  bc::ProgramBuilder pb;
  auto& f = pb.cls("M").method("ok", {}, Ty::I64);
  bc::Label h = f.label();
  uint32_t from = f.here();
  f.stmt().iconst(1).iret();
  uint32_t to = f.here();
  f.bind(h).pop().stmt().iconst(2).iret();
  f.ex_entry(from, to, h, bc::kAnyClass);
  EXPECT_NO_THROW(pb.build());
}

TEST(Builder, DuplicateClassRejected) {
  bc::ProgramBuilder pb;
  pb.cls("A");
  EXPECT_DEATH(pb.cls("A"), "duplicate class");
}

TEST(Builder, UnknownMethodNameFailsAtBuild) {
  bc::ProgramBuilder pb;
  auto& f = pb.cls("M").method("f", {}, Ty::I64);
  f.stmt().invoke("M.missing").iret();
  EXPECT_DEATH(pb.build(), "unknown method");
}

TEST(Disasm, ListsInstructionsAndMsps) {
  auto p = fib_program();
  const bc::Method& m = p.method(p.find_method("Main.fib"));
  std::string text = bc::disasm_method(p, m);
  EXPECT_NE(text.find("invoke"), std::string::npos);
  EXPECT_NE(text.find("Main.fib"), std::string::npos);
  EXPECT_NE(text.find("*"), std::string::npos);  // MSP marker
}

TEST(Builtins, StableIds) {
  bc::ProgramBuilder pb;
  auto p = pb.build();
  EXPECT_EQ(p.find_class("NullPointerException"), bc::builtin::kNullPointer);
  EXPECT_EQ(p.find_class("InvalidStateException"), bc::builtin::kInvalidState);
  EXPECT_EQ(p.find_class("OutOfMemoryException"), bc::builtin::kOutOfMemory);
  EXPECT_EQ(p.find_class("ClassNotFoundException"), bc::builtin::kClassNotFound);
  EXPECT_EQ(p.find_class("ArithmeticException"), bc::builtin::kArithmetic);
  EXPECT_EQ(p.find_class("IndexOutOfBoundsException"), bc::builtin::kIndexOutOfBounds);
  for (uint16_t c = 0; c < bc::builtin::kCount; ++c) EXPECT_TRUE(p.cls(c).is_exception);
}

}  // namespace
}  // namespace sod
