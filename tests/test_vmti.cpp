// Tool interface: stack walking, local access, statics, breakpoints,
// ForceEarlyReturn/PopFrame, and the per-call cost accounting.
#include <gtest/gtest.h>

#include "testlib.h"
#include "vmti/vmti.h"

namespace sod {
namespace {

using namespace sod::testing;
using svm::StopReason;

struct Fixture {
  bc::Program p = fib_program();
  svm::VM vm{p, nullptr};
  vmti::ToolInterface ti{vm};
  uint16_t fib = p.find_method("Main.fib");

  int paused_at_depth(int depth, int64_t n = 18) {
    int tid = vm.spawn(fib, std::vector<Value>{Value::of_i64(n)});
    vm.set_debug_mode(true);
    vm.add_breakpoint(fib, 0);
    while (true) {
      auto rr = vm.run(tid);
      SOD_CHECK(rr.reason == StopReason::Breakpoint, "expected bp");
      if (static_cast<int>(vm.thread(tid).frames.size()) >= depth) break;
    }
    vm.remove_breakpoint(fib, 0);
    return tid;
  }
};

TEST(Vmti, StackWalkAndFrameLocations) {
  Fixture fx;
  int tid = fx.paused_at_depth(6);
  EXPECT_EQ(fx.ti.get_stack_depth(tid), 6);
  // Depth 0 is the top frame, paused at the method entry.
  auto top = fx.ti.get_frame_location(tid, 0);
  EXPECT_EQ(top.method, fx.fib);
  EXPECT_EQ(top.pc, 0u);
  // Deeper frames are suspended at return addresses (inside the body).
  auto below = fx.ti.get_frame_location(tid, 1);
  EXPECT_EQ(below.method, fx.fib);
  EXPECT_GT(below.pc, 0u);
}

TEST(Vmti, GetLocalReadsTheRightFrames) {
  Fixture fx;
  int tid = fx.paused_at_depth(5, 18);
  // Leftmost descent: n decreases by 1 per frame: 18,17,16,15,14 top-down.
  for (int d = 0; d < 5; ++d)
    EXPECT_EQ(fx.ti.get_local(tid, d, 0).as_i64(), 14 + d) << "depth " << d;
}

TEST(Vmti, PopFrameDiscardsTop) {
  Fixture fx;
  int tid = fx.paused_at_depth(4, 15);
  size_t before = fx.vm.thread(tid).frames.size();
  fx.ti.pop_frame(tid);
  EXPECT_EQ(fx.vm.thread(tid).frames.size(), before - 1);
}

TEST(Vmti, ForceEarlyReturnDeliversValue) {
  Fixture fx;
  int tid = fx.paused_at_depth(4, 15);
  // Complete the top call (fib(12)'s subtree) with 1000.
  fx.ti.force_early_return(tid, Value::of_i64(1000));
  fx.vm.set_debug_mode(false);
  ASSERT_EQ(fx.vm.run(tid).reason, StopReason::Done);
  EXPECT_EQ(fx.vm.thread(tid).result.as_i64(), fib_ref(15) - fib_ref(12) + 1000);
}

TEST(Vmti, ForceEarlyReturnOnLastFrameFinishesThread) {
  Fixture fx;
  int tid = fx.vm.spawn(fx.fib, std::vector<Value>{Value::of_i64(10)});
  fx.ti.force_early_return(tid, Value::of_i64(42));
  EXPECT_EQ(fx.vm.thread(tid).status, svm::ThreadStatus::Done);
  EXPECT_EQ(fx.vm.thread(tid).result.as_i64(), 42);
}

TEST(Vmti, StaticAccess) {
  bc::ProgramBuilder pb;
  auto& m = pb.cls("M");
  m.field("s", bc::Ty::I64, /*is_static=*/true);
  auto& f = m.method("get", {}, bc::Ty::I64);
  f.stmt().getstatic("M.s").iret();
  auto p = pb.build();
  svm::VM vm(p, nullptr);
  vmti::ToolInterface ti(vm);
  uint16_t fid = p.find_field("M.s");
  vm.set_static(fid, Value::of_i64(77));
  EXPECT_EQ(ti.get_static_field(fid).as_i64(), 77);
  EXPECT_EQ(vm.call("M.get", {}).as_i64(), 77);
}

TEST(Vmti, CostAccountingFollowsTheModel) {
  Fixture fx;
  int tid = fx.paused_at_depth(4, 15);
  fx.ti.reset_spent();
  fx.ti.get_frame_location(tid, 0);  // 1 us
  fx.ti.get_local(tid, 0, 0);        // 30 us
  fx.ti.get_local(tid, 1, 0);        // 30 us
  EXPECT_DOUBLE_EQ(fx.ti.spent().us(), 61.0);
  fx.ti.reset_spent();
  EXPECT_EQ(fx.ti.spent().ns, 0);
}

TEST(Vmti, FreeCostModelChargesNothing) {
  bc::Program p = fib_program();
  svm::VM vm(p, nullptr);
  vmti::ToolInterface ti(vm, vmti::CostModel::free());
  int tid = vm.spawn(p.find_method("Main.fib"), std::vector<Value>{Value::of_i64(5)});
  ti.get_stack_depth(tid);
  ti.get_local(tid, 0, 0);
  EXPECT_EQ(ti.spent().ns, 0);
}

TEST(Vmti, GetLocalVariableTableMatchesMethod) {
  Fixture fx;
  const auto& vt = fx.ti.get_local_variable_table(fx.fib);
  ASSERT_EQ(vt.size(), 3u);  // n, a, b
  EXPECT_EQ(vt[0].name, "n");
  EXPECT_EQ(vt[0].type, bc::Ty::I64);
}

}  // namespace
}  // namespace sod
