// Integration tests over the experiment drivers: every paper table's
// qualitative shape must hold (who wins, where the crossovers are), plus
// baseline-system semantics.
#include <gtest/gtest.h>

#include "prep/prep.h"
#include "sodee/experiment.h"
#include "testlib.h"

namespace sod {
namespace {

using mig::SodNode;
using bc::Value;

TEST(Baselines, ProcessMigrationPreservesExecution) {
  auto p = testing::fib_program();
  prep::preprocess_program(p);
  uint16_t fib = p.find_method("Main.fib");
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(16)});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, 5));
  home.ti().set_debug_enabled(false);
  int dtid = -1;
  auto t = baselines::process_migrate(home, tid, dest, sim::Link::gigabit(), &dtid);
  EXPECT_GT(t.state_bytes, 0u);
  auto rr = dest.run_guest(dtid);
  ASSERT_EQ(rr.reason, svm::StopReason::Done);
  EXPECT_EQ(dest.vm().thread(dtid).result.as_i64(), testing::fib_ref(16));
}

TEST(Baselines, ProcessMigrationCarriesHeapEagerly) {
  // A list-heavy thread: the whole heap ships; execution at dest needs no
  // home contact at all.
  bc::ProgramBuilder pb;
  auto& nd = pb.cls("N");
  nd.field("v", bc::Ty::I64);
  nd.field("nx", bc::Ty::Ref);
  auto& m = pb.cls("M");
  auto& bld = m.method("mk", {{"n", bc::Ty::I64}}, bc::Ty::Ref);
  {
    uint16_t h = bld.local("h", bc::Ty::Ref);
    uint16_t node = bld.local("node", bc::Ty::Ref);
    uint16_t i = bld.local("i", bc::Ty::I64);
    bc::Label l = bld.label(), d = bld.label();
    bld.stmt().aconst_null().astore(h);
    bld.stmt().iload("n").istore(i);
    bld.bind(l).stmt().iload(i).iconst(1).if_icmplt(d);
    bld.stmt().new_("N").astore(node);
    bld.stmt().aload(node).iload(i).putfield("N.v");
    bld.stmt().aload(node).aload(h).putfield("N.nx");
    bld.stmt().aload(node).astore(h);
    bld.stmt().iload(i).iconst(1).isub().istore(i);
    bld.stmt().go(l);
    bld.bind(d).stmt().aload(h).aret();
  }
  auto& sum = m.method("sum", {{"n", bc::Ty::I64}}, bc::Ty::I64);
  {
    uint16_t h = sum.local("h", bc::Ty::Ref);
    uint16_t s = sum.local("s", bc::Ty::I64);
    bc::Label l = sum.label(), d = sum.label();
    sum.stmt().iload("n").invoke("M.mk").astore(h);
    sum.stmt().iconst(0).istore(s);
    sum.bind(l).stmt().aload(h).ifnull(d);
    sum.stmt().iload(s).aload(h).getfield("N.v").iadd().istore(s);
    sum.stmt().aload(h).getfield("N.nx").astore(h);
    sum.stmt().go(l);
    sum.bind(d).stmt().iload(s).iret();
  }
  auto p = pb.build();
  prep::preprocess_program(p);
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  uint16_t sum_m = p.find_method("M.sum");
  // Dry run to learn the total instruction count, then stop 3/4 through
  // (inside the sum loop, after the list is fully built).
  uint64_t total;
  {
    SodNode dry("dry", p, {});
    int dtid = dry.vm().spawn(sum_m, std::vector<Value>{Value::of_i64(200)});
    uint64_t before = dry.vm().instr_count();
    dry.run_guest(dtid);
    total = dry.vm().instr_count() - before;
  }
  int tid = home.vm().spawn(sum_m, std::vector<Value>{Value::of_i64(200)});
  home.run_guest(tid, total / 2);
  ASSERT_TRUE(testing::pause_at_next_msp(home, tid));
  home.ti().set_debug_enabled(false);
  int dtid = -1;
  auto t = baselines::process_migrate(home, tid, dest, sim::Link::gigabit(), &dtid);
  // The reachable closure travelled eagerly: at the halfway point that is
  // dozens of list nodes in one message (vs SOD's per-object faults).
  EXPECT_GT(t.state_bytes, 1500u);
  auto rr = dest.run_guest(dtid);
  ASSERT_EQ(rr.reason, svm::StopReason::Done);
  EXPECT_EQ(dest.vm().thread(dtid).result.as_i64(), 200 * 201 / 2);
}

TEST(Baselines, ThreadMigrationPreservesExecution) {
  auto p = testing::fib_program();
  prep::preprocess_program(p);
  uint16_t fib = p.find_method("Main.fib");
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(15)});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, 4));
  home.ti().set_debug_enabled(false);
  int dtid = -1;
  mig::ObjectManager om;
  auto t = baselines::thread_migrate(home, tid, dest, sim::Link::gigabit(), &dtid, &om);
  EXPECT_LT(t.capture.ms(), 1.0);  // in-VM capture is nearly free
  auto rr = dest.run_guest(dtid);
  ASSERT_EQ(rr.reason, svm::StopReason::Done);
  EXPECT_EQ(dest.vm().thread(dtid).result.as_i64(), testing::fib_ref(15));
}

TEST(Baselines, XenModelShape) {
  auto t = baselines::xen_live_migrate({}, sim::Link::gigabit());
  // Seconds-scale latency, sub-second freeze, more bytes than the image.
  EXPECT_GT(t.total_latency.sec(), 1.0);
  EXPECT_LT(t.freeze.sec(), 1.0);
  EXPECT_GE(t.bytes, (256ull << 20));
  // Narrower link, longer migration.
  sim::Link slow(100e6, VDur::micros(100));
  auto t2 = baselines::xen_live_migrate({}, slow);
  EXPECT_GT(t2.total_latency.ns, t.total_latency.ns);
}

TEST(Experiments, Table4Shape) {
  // SOD latency flat and small; G-JavaMPI scales with frames/heap;
  // JESSICA2 capture cheapest; its FFT restore pays the 64 MB allocation.
  auto apps = apps::table1_apps();
  sodee::MeasuredApp fib = sodee::measure_app(apps[0]);
  sodee::MeasuredApp fft = sodee::measure_app(apps[2]);

  EXPECT_LT(fib.sod.latency().ms(), fib.gj.latency().ms());
  EXPECT_LT(fib.j2.capture.ns, fib.sod.capture.ns);
  // SOD's latency unaffected by FFT's 64 MB statics (within 5x of Fib's).
  EXPECT_LT(fft.sod.latency().ns, 5 * fib.sod.latency().ns);
  // G-JavaMPI's FFT latency dominated by the heap: much larger than SOD's.
  EXPECT_GT(fft.gj.latency().ns, 100 * fft.sod.latency().ns);
  // JESSICA2's FFT restore blow-up.
  EXPECT_GT(fft.j2.restore.ms(), 10.0);
}

TEST(Experiments, Table3TspCrossover) {
  auto apps = apps::table1_apps();
  sodee::MeasuredApp fib = sodee::measure_app(apps[0]);
  sodee::MeasuredApp tsp = sodee::measure_app(apps[3]);
  sodee::OverheadRow fib_row = sodee::overhead_row(fib);
  sodee::OverheadRow tsp_row = sodee::overhead_row(tsp);
  // SODEE beats eager copy on Fib...
  EXPECT_LT(fib_row.sodee_overhead_ms(), fib_row.gj_overhead_ms());
  // ...but loses on TSP, where the migrated frame touches everything.
  EXPECT_GT(tsp_row.sodee_overhead_ms(), tsp_row.gj_overhead_ms());
  // TSP generated real object faults.
  EXPECT_GE(tsp.faults.faults, 3);
}

TEST(Experiments, Table6LocalityShape) {
  auto rows = sodee::run_locality_experiment();
  ASSERT_EQ(rows.size(), 3u);
  const auto& sodee_row = rows[0];
  const auto& j2_row = rows[1];
  const auto& xen_row = rows[2];
  EXPECT_EQ(sodee_row.system, "SODEE");
  // SODEE's gain dominates; everything stays above the on-server floor.
  EXPECT_GT(sodee_row.gain(), 0.15);
  EXPECT_GT(sodee_row.gain(), j2_row.gain());
  EXPECT_GT(sodee_row.gain(), xen_row.gain());
  EXPECT_GE(sodee_row.mig_s, sodee_row.on_server_s * 0.99);
}

TEST(Experiments, Table7BandwidthShape) {
  auto rows = sodee::run_bandwidth_experiment({50, 384});
  ASSERT_EQ(rows.size(), 2u);
  // Lower bandwidth -> longer transfer; capture/restore flat.
  EXPECT_GT(rows[0].state_ms + rows[0].class_ms, rows[1].state_ms + rows[1].class_ms);
  EXPECT_NEAR(rows[0].capture_ms, rows[1].capture_ms, 0.5);
  EXPECT_NEAR(rows[0].restore_ms, rows[1].restore_ms, 2.0);
  // Device restore far exceeds cluster restore (sub-ms): tens of ms.
  EXPECT_GT(rows[0].restore_ms, 10.0);
}

TEST(Experiments, RoamingSpeedup) {
  auto res = sodee::run_roaming_grid(4, 1 << 20, 1.0);
  EXPECT_GT(res.speedup(), 1.5);
}

}  // namespace
}  // namespace sod
