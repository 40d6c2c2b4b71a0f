// Exception-driven offload (paper Section II.B) and prefetch policies
// (paper Section VI): the optional / future-work features.
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "prep/prep.h"
#include "sod/migrate.h"
#include "testlib.h"

namespace sod {
namespace {

using namespace sod::testing;
using mig::SodNode;
using svm::StopReason;

/// A device with a `heap` byte budget, an unlimited cloud, and the
/// offload guard + object manager run_elastic needs on the device.
struct ElasticPair {
  ElasticPair(const bc::Program& p, size_t heap)
      : device("device", p, device_config(heap)), cloud("cloud", p, {}) {
    guard.install(device);
    om.install(device);  // keeps objman.* bound for fault handlers
  }
  static SodNode::Config device_config(size_t heap) {
    SodNode::Config cfg;
    cfg.heap_limit_bytes = heap;
    return cfg;
  }
  int spawn(const bc::Program& p, const std::string& entry, std::vector<Value> args) {
    return device.vm().spawn(p.find_method(entry), args);
  }
  mig::ElasticOutcome run(int tid) {
    return mig::run_elastic(device, tid, cloud, sim::Link::gigabit(), guard);
  }

  SodNode device;
  SodNode cloud;
  mig::OffloadGuard guard;
  mig::ObjectManager om;
};

bc::Program offload_prepped(bc::Program p) {
  prep::PrepOptions opts;
  opts.offload_handlers = true;
  prep::preprocess_program(p, opts);
  return p;
}

TEST(Elastic, OomOffloadsToCloudAndSucceeds) {
  bc::Program p = apps::build_bigsum();
  prep::PrepOptions opts;
  opts.offload_handlers = true;
  prep::PrepReport rep = prep::preprocess_program(p, opts);
  EXPECT_GE(rep.offload_handlers, 1);

  ElasticPair nodes(p, 64 << 10);  // 64 KB device heap
  // n = 64k elements = 512 KB array: cannot fit on the device.
  const int64_t n = 64 << 10;
  auto out = nodes.run(nodes.spawn(p, "Big.sum", {Value::of_i64(n)}));
  EXPECT_TRUE(out.offloaded);
  EXPECT_FALSE(out.shortfall);  // the array died in the cloud
  EXPECT_EQ(out.result.as_i64(), n * (n - 1) / 2);
}

TEST(Elastic, SmallAllocationStaysOnDevice) {
  bc::Program p = offload_prepped(apps::build_bigsum());
  ElasticPair nodes(p, 64 << 10);
  auto out = nodes.run(nodes.spawn(p, "Big.sum", {Value::of_i64(100)}));
  EXPECT_FALSE(out.offloaded);  // fits locally: no migration
  EXPECT_EQ(out.result.as_i64(), 100 * 99 / 2);
}

TEST(Elastic, WriteBackThatDoesNotFitTheDeviceIsRefusedWhole) {
  // FFT's arrays outgrow a 4 KB device.  The cloud finishes the run, but
  // the arrays it made would not fit the device heap: the device applies
  // none of the write-back and reports the shortfall.
  apps::AppSpec fft = apps::fft_app();
  bc::Program p = offload_prepped(fft.build());
  const int64_t expected = SodNode("ref", p, {}).call_guest(fft.entry, fft.bench_args).as_i64();

  // The device's heap as the trap left it, from an identical run stopped there.
  ElasticPair at_trap(p, 4 << 10);
  int t0 = at_trap.spawn(p, fft.entry, fft.bench_args);
  ASSERT_EQ(at_trap.device.run_guest(t0).reason, StopReason::SafePoint);
  ASSERT_TRUE(at_trap.guard.trapped());
  const size_t used_at_trap = at_trap.device.vm().heap().used_bytes();

  ElasticPair nodes(p, 4 << 10);
  int tid = nodes.spawn(p, fft.entry, fft.bench_args);
  auto out = nodes.run(tid);
  EXPECT_TRUE(out.offloaded);
  ASSERT_TRUE(out.shortfall);
  EXPECT_GT(out.shortfall->needed, out.shortfall->free);
  EXPECT_EQ(nodes.device.vm().heap().used_bytes(), used_at_trap);
  EXPECT_NE(nodes.device.vm().thread(tid).status, svm::ThreadStatus::Done);
  EXPECT_EQ(out.result.as_i64(), expected);
}

TEST(Elastic, FullHeapRaisesOutOfMemoryForTheOffloadHandler) {
  // TSP on a 700 B device fills the heap so far that even the exception
  // object has no room: the guest still gets OutOfMemory, its handler
  // traps, and the cloud computes the reference result.
  apps::AppSpec tsp = apps::tsp_app();
  bc::Program p = offload_prepped(tsp.build());
  const int64_t expected = SodNode("ref", p, {}).call_guest(tsp.entry, tsp.bench_args).as_i64();
  ElasticPair nodes(p, 700);
  auto out = nodes.run(nodes.spawn(p, tsp.entry, tsp.bench_args));
  EXPECT_TRUE(out.offloaded);
  EXPECT_EQ(out.result.as_i64(), expected);
  // The row the cloud built cannot come back to a device that is already full.
  EXPECT_TRUE(out.shortfall);
}

TEST(Elastic, UnguardedOomStillCrashes) {
  // Without offload handlers, the OOM is a plain crash (no silent magic).
  bc::Program p = apps::build_bigsum();
  prep::preprocess_program(p);  // no offload handlers
  SodNode::Config dev_cfg;
  dev_cfg.heap_limit_bytes = 64 << 10;
  SodNode device("device", p, dev_cfg);
  mig::ObjectManager om;
  om.install(device);
  int tid = device.vm().spawn(p.find_method("Big.sum"),
                              std::vector<Value>{Value::of_i64(64 << 10)});
  auto rr = device.run_guest(tid);
  EXPECT_EQ(rr.reason, StopReason::Crashed);
  EXPECT_EQ(device.vm().class_of(device.vm().thread(tid).uncaught),
            bc::builtin::kOutOfMemory);
}

// ---------------------------------------------------------------- prefetch

bc::Program list_walk_program() {
  ProgramBuilder pb;
  auto& nd = pb.cls("Node");
  nd.field("val", Ty::I64);
  nd.field("next", Ty::Ref);
  auto& m = pb.cls("M");
  auto& bld = m.method("build", {{"n", Ty::I64}}, Ty::Ref);
  uint16_t head = bld.local("head", Ty::Ref);
  uint16_t node = bld.local("node", Ty::Ref);
  uint16_t i = bld.local("i", Ty::I64);
  Label loop = bld.label(), done = bld.label();
  bld.stmt().aconst_null().astore(head);
  bld.stmt().iload("n").istore(i);
  bld.bind(loop).stmt().iload(i).iconst(1).if_icmplt(done);
  bld.stmt().new_("Node").astore(node);
  bld.stmt().aload(node).iload(i).putfield("Node.val");
  bld.stmt().aload(node).aload(head).putfield("Node.next");
  bld.stmt().aload(node).astore(head);
  bld.stmt().iload(i).iconst(1).isub().istore(i);
  bld.stmt().go(loop);
  bld.bind(done).stmt().aload(head).aret();

  auto& sum = m.method("sum", {{"head", Ty::Ref}}, Ty::I64);
  uint16_t cur = sum.local("cur", Ty::Ref);
  uint16_t s = sum.local("s", Ty::I64);
  Label sl = sum.label(), sd = sum.label();
  sum.stmt().aload("head").astore(cur);
  sum.stmt().iconst(0).istore(s);
  sum.bind(sl).stmt().aload(cur).ifnull(sd);
  sum.stmt().iload(s).aload(cur).getfield("Node.val").iadd().istore(s);
  sum.stmt().aload(cur).getfield("Node.next").astore(cur);
  sum.stmt().go(sl);
  sum.bind(sd).stmt().iload(s).iret();
  return pb.build();
}

class PrefetchSweep : public ::testing::TestWithParam<int> {};

TEST_P(PrefetchSweep, ReducesRoundTripsPreservesResult) {
  int depth = GetParam();
  bc::Program p = list_walk_program();
  prep::preprocess_program(p);
  const int kN = 64;

  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  Value head = home.call_guest("M.build", std::vector<Value>{Value::of_i64(kN)});
  int tid = home.vm().spawn(p.find_method("M.sum"), std::vector<Value>{head});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, p.find_method("M.sum"), 1));

  // offload_and_return builds its own Segment; set the policy through a
  // manual protocol instead.
  auto cs = mig::capture_segment(home, tid, mig::SegmentSpec{0, 1});
  home.ti().set_debug_enabled(false);
  mig::Segment seg(dest);
  seg.objman().set_prefetch_depth(depth);
  seg.objman().bind_home(&home, tid, 1, sim::Link::gigabit());
  seg.restore(cs);
  Value result = seg.run_to_completion();
  EXPECT_EQ(result.as_i64(), kN * (kN + 1) / 2);

  const auto& st = seg.objman().stats();
  if (depth == 0) {
    EXPECT_EQ(st.faults, kN);
    EXPECT_EQ(st.prefetched, 0);
  } else {
    // Each round trip brings ~depth+1 nodes: round trips shrink.
    EXPECT_LE(st.faults, kN / (depth + 1) + 2) << "depth " << depth;
    EXPECT_GT(st.prefetched, 0);
    EXPECT_EQ(st.faults + st.prefetched, kN);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, PrefetchSweep, ::testing::Values(0, 1, 2, 4, 8));

TEST(Prefetch, BindHomeResetsNothingItShouldNot) {
  bc::Program p = list_walk_program();
  prep::preprocess_program(p);
  SodNode dest("dest", p, {});
  mig::Segment seg(dest);
  seg.objman().set_prefetch_depth(3);
  EXPECT_EQ(seg.objman().prefetch_depth(), 3);
}

}  // namespace
}  // namespace sod
