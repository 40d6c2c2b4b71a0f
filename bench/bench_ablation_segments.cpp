// Ablation — segment-size sweep: migrate the top k frames of a deep Fib
// stack for k = 1..10 and watch capture cost and state size grow linearly
// while SOD's k=1 stays minimal (the design choice behind "export only the
// top segment").
#include <cstdint>
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

int run(const cli::ScenarioOptions& opt) {
  const int kDepth = opt.smoke ? 12 : 20;
  const int kMaxSeg = opt.smoke ? 3 : 10;
  const int64_t kFibArg = opt.smoke ? 22 : 30;
  std::printf("=== Ablation: migrated segment size (top-k frames of a depth-%d stack) ===\n",
              kDepth);
  auto p = sod::testing::fib_program();
  prep::preprocess_program(p);
  uint16_t fib = p.find_method("Main.fib");

  Table t({"k frames", "state bytes", "capture (ms)", "transfer (ms)", "restore (ms)",
           "latency (ms)"});
  for (int k = 1; k <= kMaxSeg; ++k) {
    SodNode home("home", p, {});
    SodNode dest("dest", p, {});
    int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(kFibArg)});
    SOD_CHECK(mig::pause_at_depth(home, tid, fib, kDepth), "depth");

    VDur t0 = home.node().clock.now();
    auto cs = mig::capture_segment(home, tid, mig::SegmentSpec{0, k});
    home.ti().set_debug_enabled(false);
    const std::vector<uint8_t> wire = cs.wire();
    home.node().charge_host(home.serde().cost(wire.size(), k));
    VDur cap = home.node().clock.now() - t0;

    uint16_t top_cls = p.method(cs.frames.back().method).owner;
    dest.mark_class_shipped(top_cls);
    dest.enable_class_fetch(&home, sim::Link::gigabit());
    VDur sent = home.node().clock.now();
    sim::deliver(home.node(), dest.node(), sim::Link::gigabit(),
                 wire.size() + p.class_image(top_cls).size());
    VDur xfer = dest.node().clock.now() - sent;

    VDur t2 = dest.node().clock.now();
    mig::Segment seg(dest);
    seg.objman().bind_home(&home, tid, k, sim::Link::gigabit());
    seg.restore(mig::CapturedState::from_wire(wire));
    VDur rest = dest.node().clock.now() - t2;

    t.row({std::to_string(k), std::to_string(wire.size()), fmt("%.3f", cap.ms()),
           fmt("%.3f", xfer.ms()), fmt("%.3f", rest.ms()), fmt("%.3f", (cap + xfer + rest).ms())});
  }
  t.print();
  std::printf("\nShape: every component grows with k; shipping only the top frame is the\n"
              "lightest migration, at the cost of later return-to-home hops.\n");
  return cli::maybe_write_json(opt, "ablation_segments", t) ? 0 : 1;
}

SOD_REGISTER_SCENARIO("ablation_segments", cli::ScenarioKind::Bench,
                      "Ablation — migrated segment size sweep (top-k frames)", run);

}  // namespace
