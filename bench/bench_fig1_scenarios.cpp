// Fig. 1 — the three SOD execution paths, with per-node virtual-time
// timelines demonstrating freeze-time hiding in the workflow case:
//   (a) top frame migrates, executes remotely, control returns home
//   (b) total migration: residual stack follows; execution continues away
//   (c) multi-domain workflow: segments on different nodes; the lower
//       segment restores while the upper one is still executing.
#include <cstdio>

#include "cli/scenario.h"
#include "prep/prep.h"
#include "sod/migrate.h"
#include "support/table.h"
#include "testlib.h"

using namespace sod;
using bc::Value;
using mig::SodNode;

namespace {

bc::Program prepped_fib() {
  auto p = sod::testing::fib_program();
  prep::preprocess_program(p);
  return p;
}

void scenario_a(Table& summary) {
  std::printf("--- Fig 1(a): migrate top frame, execute, return to home ---\n");
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  SodNode home("node1", p, {});
  SodNode dest("node2", p, {});
  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(20)});
  mig::pause_at_depth(home, tid, fib, 4);
  VDur t0 = home.node().clock.now();
  auto out = mig::offload_and_return(home, tid, 1, dest, sim::Link::gigabit());
  home.ti().set_debug_enabled(false);
  home.node().clock.wait_until(dest.node().clock.now());
  home.run_guest(tid);
  std::printf("  latency: capture %.3f ms, transfer %.3f ms, restore %.3f ms\n",
              out.timing.capture.ms(), out.timing.transfer.ms(), out.timing.restore.ms());
  std::printf("  result at home: fib(20) = %lld (expected %lld)\n",
              static_cast<long long>(home.vm().thread(tid).result.as_i64()),
              static_cast<long long>(sod::testing::fib_ref(20)));
  std::printf("  home time %.3f ms, dest time %.3f ms\n", (home.node().clock.now() - t0).ms(),
              dest.node().clock.now().ms());
  summary.row({"1a top-frame offload", std::to_string(home.vm().thread(tid).result.as_i64()),
               std::to_string(sod::testing::fib_ref(20)),
               fmt("%.3f", out.timing.latency().ms())});
}

void scenario_b(Table& summary) {
  std::printf("--- Fig 1(b): total migration (residual frames pushed after the top) ---\n");
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  SodNode home("node1", p, {});
  SodNode dest("node2", p, {});
  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(20)});
  mig::pause_at_depth(home, tid, fib, 4);
  auto wireTop = mig::capture_segment(home, tid, mig::SegmentSpec{0, 1}).wire();
  auto wireRest = mig::capture_segment(home, tid, mig::SegmentSpec{1, 4}).wire();
  home.ti().set_debug_enabled(false);

  mig::Segment segTop(dest);
  mig::hop(home, tid, 1, wireTop, segTop, sim::Link::gigabit(), /*ship_class=*/false);
  mig::Segment segRest(dest);
  mig::hop(home, tid, 4, wireRest, segRest, sim::Link::gigabit(), /*ship_class=*/false);
  Value top = segTop.run_to_completion();
  segRest.deliver(top);
  Value final = segRest.run_to_completion();
  std::printf("  final result at node2 (no return to node1): %lld (expected %lld)\n",
              static_cast<long long>(final.as_i64()),
              static_cast<long long>(sod::testing::fib_ref(20)));
  summary.row({"1b total migration", std::to_string(final.as_i64()),
               std::to_string(sod::testing::fib_ref(20)),
               fmt("%.3f", dest.node().clock.now().ms())});
}

void scenario_c(Table& summary) {
  std::printf("--- Fig 1(c): workflow — segments on node2 and node3, control 1->2->3 ---\n");
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  SodNode n1("node1", p, {});
  SodNode n2("node2", p, {});
  SodNode n3("node3", p, {});
  sim::Link link = sim::Link::gigabit();

  int tid = n1.vm().spawn(fib, std::vector<Value>{Value::of_i64(22)});
  mig::pause_at_depth(n1, tid, fib, 3);
  auto wireTop = mig::capture_segment(n1, tid, mig::SegmentSpec{0, 1}).wire();
  auto wireRest = mig::capture_segment(n1, tid, mig::SegmentSpec{1, 3}).wire();
  n1.ti().set_debug_enabled(false);

  // The lower segment ships first.  node1 serves every on-demand class
  // fetch on its one timeline, so a second send would leave only after
  // node2's fetch; shipped first, node3's restore (fetch included)
  // overlaps the top segment's trip and execution.
  mig::Segment segRest(n3);
  mig::hop(n1, tid, 3, wireRest, segRest, link, /*ship_class=*/false);
  VDur n3_restored = n3.node().clock.now();

  mig::Segment segTop(n2);
  mig::hop(n1, tid, 1, wireTop, segTop, link, /*ship_class=*/false);
  VDur n2_restored = n2.node().clock.now();

  Value top = segTop.run_to_completion();
  VDur n2_done = n2.node().clock.now();
  // Forward the result 2 -> 3; node3's restore already happened while
  // node2 was executing: its latency is hidden.
  n3.node().clock.wait_until(n2_done + link.transfer_time(16));
  segRest.deliver(top);
  Value final = segRest.run_to_completion();

  std::printf("  node2 restored at %.3f ms, executed until %.3f ms\n", n2_restored.ms(),
              n2_done.ms());
  std::printf("  node3 restored at %.3f ms (%s node2's execution window)\n", n3_restored.ms(),
              n3_restored < n2_done ? "hidden inside" : "after");
  std::printf("  final result at node3: %lld (expected %lld)\n",
              static_cast<long long>(final.as_i64()),
              static_cast<long long>(sod::testing::fib_ref(22)));
  summary.row({"1c multi-domain workflow", std::to_string(final.as_i64()),
               std::to_string(sod::testing::fib_ref(22)),
               fmt("%.3f", n3.node().clock.now().ms())});
}

int run(const cli::ScenarioOptions& opt) {
  std::printf("=== Fig. 1: elastic live migration with flexible execution paths ===\n");
  Table summary({"Scenario", "result", "expected", "node time (ms)"});
  scenario_a(summary);
  scenario_b(summary);
  scenario_c(summary);
  std::printf("\n");
  summary.print();
  bool ok = true;
  for (const auto& r : summary.rows()) ok = ok && r[1] == r[2];
  if (!ok) std::fprintf(stderr, "fig1: scenario result mismatch\n");
  return (ok && cli::maybe_write_json(opt, "fig1", summary)) ? 0 : 1;
}

SOD_REGISTER_SCENARIO("fig1", cli::ScenarioKind::Bench,
                      "Fig. 1 — the three SOD execution paths", run);

}  // namespace
