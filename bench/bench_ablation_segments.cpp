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

    mig::Segment seg(dest);
    auto hop = mig::migrate(home, tid, mig::SegmentSpec{0, k}, seg, sim::Link::gigabit(),
                            /*ship_class=*/true);
    t.row({std::to_string(k), std::to_string(hop.state_bytes), fmt("%.3f", hop.capture.ms()),
           fmt("%.3f", hop.transfer.ms()), fmt("%.3f", hop.restore.ms()),
           fmt("%.3f", hop.latency().ms())});
  }
  t.print();
  std::printf("\nShape: every component grows with k; shipping only the top frame is the\n"
              "lightest migration, at the cost of later return-to-home hops.\n");
  return cli::maybe_write_json(opt, "ablation_segments", t) ? 0 : 1;
}

SOD_REGISTER_SCENARIO("ablation_segments", cli::ScenarioKind::Bench,
                      "Ablation — migrated segment size sweep (top-k frames)", run);

}  // namespace
