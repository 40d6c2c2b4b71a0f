// Wall-clock engine: the Fib workload on a heterogeneous all-wifi
// topology — a Xeon, a 2x-slower edge box, and a 25x-slower device, each
// behind a different-grade wifi link — run on the WallClockEngine thread
// pool at 1, 2, and 4 pool threads, with the virtual-time Scheduler as the
// deterministic reference row.
//
// Each round ships three segments whose restore sleeps (5-9 ms of modelled
// wifi transfer each) serialize on a 1-thread pool but overlap on >= 3
// threads, so the 4-thread wall mean must land strictly below the 1-thread
// wall mean — measured freeze-time hiding on real cores.  Meanwhile the
// virtual columns are the determinism gate: every thread count must
// reproduce the Scheduler's virtual completion times bit-identically, the
// same write-back payload bytes, the same application result, and an
// attempt-aware exactly-once event log.
//
// The wall_* and *_ns columns are wall-clock measurements and vary run to
// run, so this bench's golden case checks only its exit code and JSON
// header (tests/golden/cases.txt).
// Each engine row also reports the home stripe-lock telemetry (lock_acq
// is deterministic for a failure-free run; the wait-side counters are
// wall-side) — see the home_shards bench for the full sweep.
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "cli/scenario.h"
#include "cluster/drive.h"
#include "cluster/placement.h"
#include "prep/prep.h"
#include "support/table.h"

using namespace sod;

namespace {

constexpr int kSegmentsPerRound = 3;

struct RunRec {
  cluster::Tally rounds;
  cluster::Finish fin;
  std::vector<int64_t> virt_completed_ns;  // per segment, all rounds, in order
  double virt_total_ms = 0;
  double wall_mean_ms = 0;   // wall engine only; 0 for the virtual reference
  double wall_total_ms = 0;
  mig::ShardContention lock;  // home stripe telemetry, wall engine only
};

/// Runs the fib rounds once: threads == 0 on the virtual-time Scheduler,
/// threads > 0 on a WallClockEngine pool of that size.
RunRec run_once(int threads, int rounds) {
  const apps::AppSpec spec = apps::fib_app();
  bc::Program p = spec.build();
  prep::preprocess_program(p);

  cluster::Cluster c(p);
  mig::SodNode::Config edge;
  edge.cpu_scale = 2.0;
  mig::SodNode::Config dev;
  dev.cpu_scale = 25.0;  // iPhone-3G-like device profile
  c.add_worker({"xeon", {}, sim::Link::wifi_kbps(8000)});
  c.add_worker({"edge", edge, sim::Link::wifi_kbps(4000)});
  c.add_worker({"device", dev, sim::Link::wifi_kbps(2000)});

  auto policy = cluster::make_policy(cluster::PolicyKind::LeastLoaded);
  std::optional<cluster::WallClockOptions> wopt;
  if (threads > 0) wopt = cluster::WallClockOptions{.threads = threads};
  auto engine = cluster::make_engine(c, *policy, {}, wopt);
  auto* wall = dynamic_cast<cluster::WallClockEngine*>(engine.get());

  uint16_t trigger = p.find_method(spec.trigger_method);
  int tid = c.home().vm().spawn(p.find_method(spec.entry), spec.bench_args);

  RunRec rec;
  double wall_sum_ms = 0;
  std::vector<int> plan(static_cast<size_t>(rounds), kSegmentsPerRound);
  rec.rounds = cluster::run_rounds(
      *engine, tid, trigger, kSegmentsPerRound + 4, plan, [&](int, const cluster::Round& round) {
        for (const auto& pl : round.out.placements)
          rec.virt_completed_ns.push_back(pl.completed_at.ns);
        if (wall) {
          for (double w : wall->last_completed_wall_ms()) wall_sum_ms += w;
          rec.wall_total_ms += wall->last_round_wall_ms();
        }
      });
  if (rec.rounds.segments > 0) rec.wall_mean_ms = wall_sum_ms / rec.rounds.segments;
  rec.fin = cluster::finish(*engine, tid, spec.bench_expected);
  if (wall) rec.lock = wall->total_contention();
  rec.virt_total_ms = c.home_now().ms();
  return rec;
}

int run(const cli::ScenarioOptions& opt) {
  int rounds = opt.smoke ? 3 : 5;
  std::printf("=== wallclock: Xeon + edge + device behind wifi, %d segment(s)/round ===\n",
              kSegmentsPerRound);

  Table t({"mode", "segments", "virt_mean_ms", "virt_total_ms", "wall_mean_ms",
           "wall_total_ms", "lock_acq", "wall_contended", "lock_wait_ns",
           "lock_max_wait_ns", "wall_max_queue"});
  RunRec ref = run_once(0, rounds);
  t.row({"virtual", std::to_string(ref.rounds.segments),
         fmt("%.3f", ref.rounds.mean_completion_ms()), fmt("%.3f", ref.virt_total_ms), "-", "-",
         "-", "-", "-", "-", "-"});

  bool all_ok = ref.fin.ok && ref.fin.exactly_once;
  if (!ref.fin.ok) std::fprintf(stderr, "wallclock: virtual reference run failed\n");

  double wall_mean_1 = -1;
  double wall_mean_4 = -1;
  for (int threads : {1, 2, 4}) {
    RunRec r = run_once(threads, rounds);
    t.row({"threads-" + std::to_string(threads), std::to_string(r.rounds.segments),
           fmt("%.3f", r.rounds.mean_completion_ms()), fmt("%.3f", r.virt_total_ms),
           fmt("%.3f", r.wall_mean_ms), fmt("%.3f", r.wall_total_ms),
           std::to_string(r.lock.acquisitions), std::to_string(r.lock.contended),
           std::to_string(r.lock.wait_ns), std::to_string(r.lock.max_wait_ns),
           std::to_string(r.lock.max_queue)});
    if (!r.fin.ok) {
      std::fprintf(stderr, "wallclock: threads-%d run failed\n", threads);
      all_ok = false;
    }
    if (!r.fin.exactly_once) {
      std::fprintf(stderr, "wallclock: threads-%d log violates exactly-once\n", threads);
      all_ok = false;
    }
    // The determinism contract: the wall run's virtual columns must be
    // bit-identical to the single-threaded virtual scheduler's.
    if (r.virt_completed_ns != ref.virt_completed_ns ||
        r.rounds.writeback_bytes != ref.rounds.writeback_bytes ||
        r.rounds.segments != ref.rounds.segments) {
      std::fprintf(stderr,
                   "wallclock: threads-%d diverged from the virtual scheduler "
                   "(virtual completions or write-back bytes differ)\n",
                   threads);
      all_ok = false;
    }
    if (threads == 1) wall_mean_1 = r.wall_mean_ms;
    if (threads == 4) wall_mean_4 = r.wall_mean_ms;
  }
  t.print();

  // The point of the pool: with enough threads the per-round restore
  // sleeps overlap instead of serializing, so wall completion must drop.
  bool faster = wall_mean_4 >= 0 && wall_mean_1 >= 0 && wall_mean_4 < wall_mean_1;
  if (!faster)
    std::fprintf(stderr,
                 "wallclock: 4-thread wall mean (%.3f ms) not below 1-thread wall "
                 "mean (%.3f ms)\n",
                 wall_mean_4, wall_mean_1);
  return (all_ok && faster && cli::maybe_write_json(opt, "wallclock", t)) ? 0 : 1;
}

SOD_REGISTER_SCENARIO("wallclock", cli::ScenarioKind::Bench,
                      "wall-clock thread-pool execution vs the virtual-time scheduler: "
                      "overlap speedup with bit-identical virtual columns",
                      run);

}  // namespace
