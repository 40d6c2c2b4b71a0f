// Interpreter semantics: arithmetic, control flow, locals, recursion,
// arrays, objects, statics, strings, natives, budget/pause behaviour.
#include <gtest/gtest.h>

#include "testlib.h"

namespace sod {
namespace {

using namespace sod::testing;
using bc::Op;
using svm::StopReason;
using svm::ThreadStatus;

bc::Program arith_program() {
  ProgramBuilder pb;
  auto& c = pb.cls("M");
  // iops(a, b) = ((a+b)*(a-b)) % (b|1) + (a/(b|1)) - (-a ^ (a&b)) + (a<<1) + (b>>1)
  auto& f = c.method("iops", {{"a", Ty::I64}, {"b", Ty::I64}}, Ty::I64);
  f.stmt()
      .iload("a").iload("b").iadd()
      .iload("a").iload("b").isub()
      .imul()
      .iload("b").iconst(1).ior()
      .irem()
      .iload("a").iload("b").iconst(1).ior().idiv()
      .iadd()
      .iload("a").ineg()
      .iload("a").iload("b").iand()
      .ixor()
      .isub()
      .iload("a").iconst(1).ishl().iadd()
      .iload("b").iconst(1).ishr().iadd()
      .iret();
  // dops(x, y) = (x+y)*(x-y)/(y) - (-x)
  auto& g = c.method("dops", {{"x", Ty::F64}, {"y", Ty::F64}}, Ty::F64);
  g.stmt()
      .dload("x").dload("y").dadd()
      .dload("x").dload("y").dsub()
      .dmul()
      .dload("y").ddiv()
      .dload("x").dneg()
      .dsub()
      .dret();
  // conv(a) = (i64)((f64)a * 1.5)
  auto& h = c.method("conv", {{"a", Ty::I64}}, Ty::I64);
  h.stmt().iload("a").i2d().dconst(1.5).dmul().d2i().iret();
  return pb.build();
}

int64_t iops_ref(int64_t a, int64_t b) {
  return ((a + b) * (a - b)) % (b | 1) + a / (b | 1) - ((-a) ^ (a & b)) + (a << 1) + (b >> 1);
}

TEST(Interp, IntegerArithmetic) {
  auto p = arith_program();
  for (auto [a, b] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 0}, {1, 2}, {17, 5}, {-9, 4}, {1000000, 3}, {-7, -13}}) {
    EXPECT_EQ(run1(p, "M.iops", {Value::of_i64(a), Value::of_i64(b)}).as_i64(), iops_ref(a, b))
        << "a=" << a << " b=" << b;
  }
}

TEST(Interp, FloatArithmetic) {
  auto p = arith_program();
  double x = 3.5, y = 2.0;
  double want = (x + y) * (x - y) / y - (-x);
  EXPECT_DOUBLE_EQ(run1(p, "M.dops", {Value::of_f64(x), Value::of_f64(y)}).as_f64(), want);
}

TEST(Interp, Conversions) {
  auto p = arith_program();
  EXPECT_EQ(run1(p, "M.conv", {Value::of_i64(7)}).as_i64(), 10);
  EXPECT_EQ(run1(p, "M.conv", {Value::of_i64(-8)}).as_i64(), -12);
}

TEST(Interp, DivisionByZeroThrows) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("div", {{"a", Ty::I64}, {"b", Ty::I64}}, Ty::I64);
  f.stmt().iload("a").iload("b").idiv().iret();
  auto p = pb.build();
  svm::VM vm(p, nullptr);
  int tid = vm.spawn(p.find_method("M.div"), std::vector<Value>{Value::of_i64(1), Value::of_i64(0)});
  auto rr = vm.run(tid);
  EXPECT_EQ(rr.reason, StopReason::Crashed);
  EXPECT_EQ(vm.class_of(vm.thread(tid).uncaught), bc::builtin::kArithmetic);
}

TEST(Interp, Int64MinDivMinusOne) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("div", {{"a", Ty::I64}, {"b", Ty::I64}}, Ty::I64);
  f.stmt().iload("a").iload("b").idiv().iret();
  auto p = pb.build();
  EXPECT_EQ(run1(p, "M.div", {Value::of_i64(INT64_MIN), Value::of_i64(-1)}).as_i64(), INT64_MIN);
}

TEST(Interp, RecursionFib) {
  auto p = fib_program();
  for (int64_t n : {0, 1, 2, 5, 10, 20}) {
    EXPECT_EQ(run1(p, "Main.fib", {Value::of_i64(n)}).as_i64(), fib_ref(n)) << n;
  }
}

TEST(Interp, LoopsViaBranches) {
  // sum 1..n with a while loop
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("sum", {{"n", Ty::I64}}, Ty::I64);
  uint16_t i = f.local("i", Ty::I64);
  uint16_t s = f.local("s", Ty::I64);
  Label head = f.label(), done = f.label();
  f.stmt().iconst(1).istore(i);
  f.stmt().iconst(0).istore(s);
  f.bind(head).stmt().iload(i).iload("n").if_icmpgt(done);
  f.stmt().iload(s).iload(i).iadd().istore(s);
  f.stmt().iload(i).iconst(1).iadd().istore(i);
  f.stmt().go(head);
  f.bind(done).stmt().iload(s).iret();
  auto p = pb.build();
  EXPECT_EQ(run1(p, "M.sum", {Value::of_i64(100)}).as_i64(), 5050);
  EXPECT_EQ(run1(p, "M.sum", {Value::of_i64(0)}).as_i64(), 0);
}

TEST(Interp, LookupSwitch) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("sw", {{"k", Ty::I64}}, Ty::I64);
  Label c1 = f.label(), c2 = f.label(), dflt = f.label();
  f.stmt().iload("k").lookupswitch(dflt, {{10, c1}, {20, c2}});
  f.bind(c1).stmt().iconst(111).iret();
  f.bind(c2).stmt().iconst(222).iret();
  f.bind(dflt).stmt().iconst(-1).iret();
  auto p = pb.build();
  EXPECT_EQ(run1(p, "M.sw", {Value::of_i64(10)}).as_i64(), 111);
  EXPECT_EQ(run1(p, "M.sw", {Value::of_i64(20)}).as_i64(), 222);
  EXPECT_EQ(run1(p, "M.sw", {Value::of_i64(99)}).as_i64(), -1);
}

TEST(Interp, ArraysAndBoundsChecks) {
  ProgramBuilder pb;
  auto& c = pb.cls("M");
  // rev_sum(n): fill arr[i]=i*i, then sum in reverse
  auto& f = c.method("rev_sum", {{"n", Ty::I64}}, Ty::I64);
  uint16_t a = f.local("a", Ty::Ref);
  uint16_t i = f.local("i", Ty::I64);
  uint16_t s = f.local("s", Ty::I64);
  Label h1 = f.label(), d1 = f.label(), h2 = f.label(), d2 = f.label();
  f.stmt().iload("n").newarray(Ty::I64).astore(a);
  f.stmt().iconst(0).istore(i);
  f.bind(h1).stmt().iload(i).iload("n").if_icmpge(d1);
  f.stmt().aload(a).iload(i).iload(i).iload(i).imul().iastore();
  f.stmt().iload(i).iconst(1).iadd().istore(i);
  f.stmt().go(h1);
  f.bind(d1).stmt().iload("n").iconst(1).isub().istore(i);
  f.stmt().iconst(0).istore(s);
  f.bind(h2).stmt().iload(i).iconst(0).if_icmplt(d2);
  f.stmt().iload(s).aload(a).iload(i).iaload().iadd().istore(s);
  f.stmt().iload(i).iconst(1).isub().istore(i);
  f.stmt().go(h2);
  f.bind(d2).stmt().iload(s).iret();
  // oob(): read past the end
  auto& g = c.method("oob", {}, Ty::I64);
  uint16_t b = g.local("b", Ty::Ref);
  g.stmt().iconst(3).newarray(Ty::I64).astore(b);
  g.stmt().aload(b).iconst(3).iaload().iret();
  auto p = pb.build();

  EXPECT_EQ(run1(p, "M.rev_sum", {Value::of_i64(10)}).as_i64(), 285);

  svm::VM vm(p, nullptr);
  int tid = vm.spawn(p.find_method("M.oob"), {});
  EXPECT_EQ(vm.run(tid).reason, StopReason::Crashed);
  EXPECT_EQ(vm.class_of(vm.thread(tid).uncaught), bc::builtin::kIndexOutOfBounds);
}

TEST(Interp, DoubleArrays) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("dsum", {{"n", Ty::I64}}, Ty::F64);
  uint16_t a = f.local("a", Ty::Ref);
  uint16_t i = f.local("i", Ty::I64);
  uint16_t s = f.local("s", Ty::F64);
  Label h = f.label(), d = f.label(), h2 = f.label(), d2 = f.label();
  f.stmt().iload("n").newarray(Ty::F64).astore(a);
  f.stmt().iconst(0).istore(i);
  f.bind(h).stmt().iload(i).iload("n").if_icmpge(d);
  f.stmt().aload(a).iload(i).iload(i).i2d().dconst(0.5).dmul().dastore();
  f.stmt().iload(i).iconst(1).iadd().istore(i);
  f.stmt().go(h);
  f.bind(d).stmt().dconst(0).dstore(s);
  f.stmt().iconst(0).istore(i);
  f.bind(h2).stmt().iload(i).iload("n").if_icmpge(d2);
  f.stmt().dload(s).aload(a).iload(i).daload().dadd().dstore(s);
  f.stmt().iload(i).iconst(1).iadd().istore(i);
  f.stmt().go(h2);
  f.bind(d2).stmt().dload(s).dret();
  auto p = pb.build();
  EXPECT_DOUBLE_EQ(run1(p, "M.dsum", {Value::of_i64(10)}).as_f64(), 22.5);
}

bc::Program object_program() {
  ProgramBuilder pb;
  auto& pt = pb.cls("Point");
  pt.field("x", Ty::I64);
  pt.field("y", Ty::I64);
  auto& gx = pt.method("getX", {{"this", Ty::Ref}}, Ty::I64);
  gx.stmt().aload("this").getfield("Point.x").iret();

  auto& m = pb.cls("M");
  m.field("count", Ty::I64, /*is_static=*/true);
  auto& f = m.method("use", {{"a", Ty::I64}}, Ty::I64);
  uint16_t pslot = f.local("p", Ty::Ref);
  uint16_t t = f.local("t", Ty::I64);
  f.stmt().new_("Point").astore(pslot);
  f.stmt().aload(pslot).iload("a").putfield("Point.x");
  f.stmt().aload(pslot).iconst(7).putfield("Point.y");
  f.stmt().aload(pslot).invoke("Point.getX").istore(t);
  f.stmt().getstatic("M.count").iconst(1).iadd().putstatic("M.count");
  f.stmt().iload(t).aload(pslot).getfield("Point.y").iadd().getstatic("M.count").iadd().iret();
  return pb.build();
}

TEST(Interp, ObjectsFieldsAndStatics) {
  auto p = object_program();
  svm::VM vm(p, nullptr);
  // First call: count becomes 1 -> 5 + 7 + 1
  EXPECT_EQ(vm.call("M.use", std::vector<Value>{Value::of_i64(5)}).as_i64(), 13);
  // Statics persist within the VM: second call sees count == 2.
  EXPECT_EQ(vm.call("M.use", std::vector<Value>{Value::of_i64(5)}).as_i64(), 14);
}

TEST(Interp, GetfieldOnNullThrowsNPE) {
  ProgramBuilder pb;
  auto& pt = pb.cls("Point");
  pt.field("x", Ty::I64);
  auto& f = pb.cls("M").method("npe", {}, Ty::I64);
  uint16_t pslot = f.local("p", Ty::Ref);
  f.stmt().aconst_null().astore(pslot);
  f.stmt().aload(pslot).getfield("Point.x").iret();
  auto p = pb.build();
  svm::VM vm(p, nullptr);
  int tid = vm.spawn(p.find_method("M.npe"), {});
  EXPECT_EQ(vm.run(tid).reason, StopReason::Crashed);
  EXPECT_EQ(vm.class_of(vm.thread(tid).uncaught), bc::builtin::kNullPointer);
  EXPECT_EQ(vm.exception_message(vm.thread(tid).uncaught), "Point.x");
}

TEST(Interp, GuestTryCatch) {
  // try { throw ArithmeticException (via 1/0) } catch -> return 42
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("t", {}, Ty::I64);
  uint16_t tmp = f.local("tmp", Ty::I64);
  Label handler = f.label(), end = f.label();
  uint32_t from = f.here();
  f.stmt().iconst(1).iconst(0).idiv().istore(tmp);
  f.stmt().iload(tmp).iret();
  uint32_t to = f.here();
  f.bind(handler);
  f.pop().stmt().iconst(42).iret();
  f.bind(end);
  f.ex_entry(from, to, handler, bc::builtin::kArithmetic);
  auto p = pb.build();
  EXPECT_EQ(run1(p, "M.t", {}).as_i64(), 42);
}

TEST(Interp, ExceptionPropagatesThroughFrames) {
  // inner() divides by zero; outer catches.
  ProgramBuilder pb;
  auto& c = pb.cls("M");
  auto& inner = c.method("inner", {}, Ty::I64);
  inner.stmt().iconst(1).iconst(0).idiv().iret();
  auto& outer = c.method("outer", {}, Ty::I64);
  uint16_t t = outer.local("t", Ty::I64);
  Label h = outer.label();
  uint32_t from = outer.here();
  outer.stmt().invoke("M.inner").istore(t);
  outer.stmt().iload(t).iret();
  uint32_t to = outer.here();
  outer.bind(h).pop().stmt().iconst(-5).iret();
  outer.ex_entry(from, to, h, bc::kAnyClass);
  auto p = pb.build();
  EXPECT_EQ(run1(p, "M.outer", {}).as_i64(), -5);
}

TEST(Interp, ThrowAndCatchGuestObject) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("t", {{"k", Ty::I64}}, Ty::I64);
  Label h = f.label(), nothrow = f.label();
  uint32_t from = f.here();
  f.stmt().iload("k").ifeq(nothrow);
  f.stmt().new_("ArithmeticException").throw_();
  f.bind(nothrow).stmt().iconst(1).iret();
  uint32_t to = f.here();
  f.bind(h).pop().stmt().iconst(2).iret();
  f.ex_entry(from, to, h, bc::builtin::kArithmetic);
  auto p = pb.build();
  EXPECT_EQ(run1(p, "M.t", {Value::of_i64(0)}).as_i64(), 1);
  EXPECT_EQ(run1(p, "M.t", {Value::of_i64(1)}).as_i64(), 2);
}

TEST(Interp, NativesAndStrings) {
  ProgramBuilder pb;
  svm::declare_stdlib(pb);
  auto& f = pb.cls("M").method("go", {}, Ty::I64);
  uint16_t s = f.local("s", Ty::Ref);
  uint16_t at = f.local("at", Ty::I64);
  f.stmt().ldc_str("hello world").astore(s);
  f.stmt().aload(s).invokenative("sys.print_str");
  f.stmt().iconst(42).invokenative("sys.print_i64");
  f.stmt().aload(s).ldc_str("world").iconst(0).invokenative("str.find").istore(at);
  f.stmt().iload(at).iret();
  auto p = pb.build();

  svm::NativeRegistry reg;
  svm::StdLib lib;
  lib.install(reg);
  svm::VM vm(p, &reg);
  EXPECT_EQ(vm.call("M.go", {}).as_i64(), 6);
  EXPECT_EQ(lib.out(), "hello world\n42\n");
}

TEST(Interp, BudgetPausesAndResumes) {
  auto p = fib_program();
  svm::VM vm(p, nullptr);
  int tid = vm.spawn(p.find_method("Main.fib"), std::vector<Value>{Value::of_i64(18)});
  int pauses = 0;
  while (true) {
    auto rr = vm.run(tid, 100);
    if (rr.reason == StopReason::Done) break;
    ASSERT_EQ(rr.reason, StopReason::Budget);
    ++pauses;
    ASSERT_LT(pauses, 1000000);
  }
  EXPECT_GT(pauses, 10);
  EXPECT_EQ(vm.thread(tid).result.as_i64(), fib_ref(18));
}

TEST(Interp, BreakpointFiresOnlyInDebugMode) {
  auto p = fib_program();
  uint16_t mid = p.find_method("Main.fib");
  {
    svm::VM vm(p, nullptr);
    vm.add_breakpoint(mid, 0);
    int tid = vm.spawn(mid, std::vector<Value>{Value::of_i64(10)});
    EXPECT_EQ(vm.run(tid).reason, StopReason::Done);  // fast mode ignores bps
  }
  {
    svm::VM vm(p, nullptr);
    vm.set_debug_mode(true);
    vm.add_breakpoint(mid, 0);
    int tid = vm.spawn(mid, std::vector<Value>{Value::of_i64(10)});
    auto rr = vm.run(tid);
    EXPECT_EQ(rr.reason, StopReason::Breakpoint);
    EXPECT_EQ(vm.thread(tid).frames.back().pc, 0u);
    // Resuming skips the breakpoint we stopped on, then hits it again on
    // the next recursive call.
    rr = vm.run(tid);
    EXPECT_EQ(rr.reason, StopReason::Breakpoint);
    EXPECT_EQ(vm.thread(tid).frames.size(), 2u);
    // Remove and finish.
    vm.remove_breakpoint(mid, 0);
    EXPECT_EQ(vm.run(tid).reason, StopReason::Done);
    EXPECT_EQ(vm.thread(tid).result.as_i64(), fib_ref(10));
  }
}

TEST(Interp, SafepointPause) {
  auto p = fib_program();
  uint16_t mid = p.find_method("Main.fib");
  svm::VM vm(p, nullptr);
  vm.set_debug_mode(true);
  int tid = vm.spawn(mid, std::vector<Value>{Value::of_i64(12)});
  // Run a little, then request a safepoint pause.
  auto rr = vm.run(tid, 50);
  ASSERT_EQ(rr.reason, StopReason::Budget);
  vm.request_safepoint(true);
  rr = vm.run(tid);
  ASSERT_EQ(rr.reason, StopReason::SafePoint);
  const auto& f = vm.thread(tid).frames.back();
  EXPECT_TRUE(p.method(f.method).is_stmt_start(f.pc));
  EXPECT_TRUE(f.ostack.empty());
  // Clear the request; execution completes normally.
  vm.request_safepoint(false);
  EXPECT_EQ(vm.run(tid).reason, StopReason::Done);
  EXPECT_EQ(vm.thread(tid).result.as_i64(), fib_ref(12));
}

TEST(Interp, RaiseInThreadTriggersHandler) {
  // Method with a catch-all handler that returns 77; raise an exception
  // externally at entry (the restore driver's mechanism).
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("t", {}, Ty::I64);
  Label h = f.label();
  uint32_t from = f.here();
  f.stmt().iconst(1).iret();
  uint32_t to = f.here();
  f.bind(h).pop().stmt().iconst(77).iret();
  f.ex_entry(from, to, h, bc::builtin::kInvalidState);
  auto p = pb.build();
  svm::VM vm(p, nullptr);
  int tid = vm.spawn(p.find_method("M.t"), {});
  vm.raise_in_thread(tid, bc::builtin::kInvalidState, "restore");
  EXPECT_EQ(vm.run(tid).reason, StopReason::Done);
  EXPECT_EQ(vm.thread(tid).result.as_i64(), 77);
}

TEST(Interp, HeapLimitTriggersOutOfMemory) {
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("big", {}, Ty::I64);
  uint16_t a = f.local("a", Ty::Ref);
  f.stmt().iconst(1 << 20).newarray(Ty::I64).astore(a);
  f.stmt().aload(a).arraylen().iret();
  auto p = pb.build();
  svm::VM vm(p, nullptr, /*heap_limit_bytes=*/1024);  // tiny device heap
  int tid = vm.spawn(p.find_method("M.big"), {});
  EXPECT_EQ(vm.run(tid).reason, StopReason::Crashed);
  EXPECT_EQ(vm.class_of(vm.thread(tid).uncaught), bc::builtin::kOutOfMemory);
}

TEST(Interp, FullHeapRaisesOutOfMemoryNotAnAbort) {
  // The array fills the 48-byte heap: the string literal cannot be
  // interned, and the OutOfMemory object has no room either, yet the guest
  // still gets the exception.
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("s", {}, Ty::Ref);
  uint16_t a = f.local("a", Ty::Ref);
  f.stmt().iconst(4).newarray(Ty::I64).astore(a);
  f.stmt().ldc_str("hello").aret();
  auto p = pb.build();
  svm::VM vm(p, nullptr, /*heap_limit_bytes=*/48);
  int tid = vm.spawn(p.find_method("M.s"), {});
  EXPECT_EQ(vm.run(tid).reason, StopReason::Crashed);
  EXPECT_EQ(vm.class_of(vm.thread(tid).uncaught), bc::builtin::kOutOfMemory);
  EXPECT_EQ(vm.heap().used_bytes(), 48u + 16);  // the array + the OutOfMemory object
}

TEST(Interp, InstructionCounting) {
  auto p = fib_program();
  svm::VM vm(p, nullptr);
  uint64_t before = vm.instr_count();
  vm.call("Main.fib", std::vector<Value>{Value::of_i64(10)});
  EXPECT_GT(vm.instr_count(), before + 100);
}

}  // namespace
}  // namespace sod
