// Home-shard scaling on the wall-clock engine: the multi-tenant trace
// (two Xeons on gigabit plus the 25x-slower wifi device) replayed through
// the thread-pool engine while sweeping --home-shards x pool threads.
// Home-side service windows — ship/restore/write-back serde, class
// fetches, object faults — sleep their wall twin on the owning shard's
// stripe lock, so a single shard serializes every window cluster-wide
// while four shards let windows on different refs/classes/segments
// overlap.  Home service sleeps are amplified (home_dilation) and
// communication sleeps dialed down so the home mutex is the measured
// bottleneck, not the simulated network.
//
// Acceptance: every cell's session results, virtual completion
// percentiles, and virtual total are bit-identical (sharding never
// reschedules virtual time) and stripe acquisitions are identical across
// cells (the service-window set is a property of the replay, not the
// interleaving); at 4 pool threads the 4-shard wall-clock completion mean
// is strictly below the 1-shard mean (full run; smoke prints the sweep
// without the wall gate — tiny traces leave too little contention to
// gate on a loaded CI box).
//
// Columns: virtual percentiles and lock_acq are deterministic; wall_* /
// *_ns columns are real wall-clock measurements, so this bench's golden
// case checks only its exit code and JSON header (tests/golden/cases.txt).
//
// Flags: --sessions N, --seed S, --smoke.
#include <cstdio>
#include <string>
#include <vector>

#include "cli/scenario.h"
#include "cluster/drive.h"
#include "cluster/loadgen.h"
#include "cluster/placement.h"
#include "support/table.h"

using namespace sod;

namespace {

/// Amplifies the microsecond-scale home serde costs (SerdeModel: ~2.5 us
/// per KB of segment state) into millisecond-scale stripe-held sleeps, so
/// the 1-shard serialization is measurable above scheduler noise.
constexpr double kHomeDilation = 400.0;
/// Shrinks the simulated-network sleeps (wifi transfers are tens of
/// virtual ms) so transfer time does not drown the home-side signal.
constexpr double kCommDilation = 0.02;

int run(const cli::ScenarioOptions& opt) {
  cluster::TraceConfig cfg;
  cfg.sessions = opt.sessions > 0 ? opt.sessions : (opt.smoke ? 6 : 24);
  cfg.tenants = 4;
  cfg.apps = 2;  // fib + nqueens load mix
  cfg.seed = opt.seed >= 0 ? static_cast<uint64_t>(opt.seed) : 1;
  cfg.mean_gap = VDur::millis(25);
  cfg.churn = 0;     // membership churn and losses would re-dispatch work;
  cfg.failures = 0;  // the sweep needs the failure-free determinism contract

  std::vector<int> shard_counts = opt.smoke ? std::vector<int>{1, 4}
                                            : std::vector<int>{1, 2, 4};
  std::vector<int> thread_counts = opt.smoke ? std::vector<int>{2}
                                             : std::vector<int>{1, 4};

  cluster::Trace trace = cluster::make_trace(cfg);
  std::printf("=== home_shards: %d session(s), seed %llu, 2x Xeon + wifi device, "
              "home_dilation %.0fx ===\n",
              cfg.sessions, static_cast<unsigned long long>(cfg.seed), kHomeDilation);

  Table t({"config", "shards", "threads", "sessions", "completed", "p50 ms", "p95 ms",
           "p99 ms", "total ms", "lock_acq", "wall_mean_ms", "wall_p99_ms", "wall_total_ms",
           "wall_contended", "lock_wait_ns", "lock_max_wait_ns", "wall_max_queue"});
  bool all_ok = true;
  bool have_ref = false;
  cluster::LoadGenResult ref;                 // first cell: virtual-side baseline
  double wall_mean[2] = {-1, -1};             // threads=4: {1-shard, 4-shard} means
  for (int threads : thread_counts) {
    for (int shards : shard_counts) {
      cluster::LoadGenOptions lg;
      lg.policy = cluster::PolicyKind::LeastLoaded;
      lg.workers = cluster::straggler_topology();
      lg.segments_per_round = 3;  // the third placement must pick the device
      lg.wallclock = true;
      lg.threads = threads;
      lg.home_shards = shards;
      lg.dilation = kCommDilation;
      lg.home_dilation = kHomeDilation;
      auto r = cluster::run_loadgen(trace, lg);
      std::string label = fmt("s%d/t%d", shards, threads);
      if (!r.all_ok || !r.exactly_once) {
        std::fprintf(stderr, "home_shards: %s replay failed (%d/%d ok, exactly-once %s)\n",
                     label.c_str(), r.completed, r.sessions,
                     r.exactly_once ? "OK" : "VIOLATED");
        all_ok = false;
      }
      if (!have_ref) {
        ref = r;
        have_ref = true;
      } else {
        // Sharding may only change wall-clock interleaving: the virtual
        // side of every cell must match the first cell bit for bit, and
        // the stripe-acquisition count is replay-determined.
        if (r.results != ref.results || r.total_ms != ref.total_ms ||
            r.completion_ms.p50() != ref.completion_ms.p50() ||
            r.completion_ms.p95() != ref.completion_ms.p95() ||
            r.completion_ms.p99() != ref.completion_ms.p99()) {
          std::fprintf(stderr, "home_shards: %s diverged from the virtual baseline\n",
                       label.c_str());
          all_ok = false;
        }
        if (r.lock_acq != ref.lock_acq) {
          std::fprintf(stderr,
                       "home_shards: %s stripe acquisitions %llu != baseline %llu\n",
                       label.c_str(), static_cast<unsigned long long>(r.lock_acq),
                       static_cast<unsigned long long>(ref.lock_acq));
          all_ok = false;
        }
      }
      std::printf("%s: wall mean %.3f ms (virtual %.3f), %llu stripe acq, "
                  "%llu contended, max wait %.3f ms\n",
                  label.c_str(), r.wall_completion_ms.mean(), r.completion_ms.mean(),
                  static_cast<unsigned long long>(r.lock_acq),
                  static_cast<unsigned long long>(r.wall_contended),
                  static_cast<double>(r.lock_max_wait_ns) / 1e6);
      if (threads == 4 && shards == 1) wall_mean[0] = r.wall_completion_ms.mean();
      if (threads == 4 && shards == 4) wall_mean[1] = r.wall_completion_ms.mean();
      t.row({label, std::to_string(shards), std::to_string(threads),
             std::to_string(r.sessions), std::to_string(r.completed),
             fmt("%.3f", r.completion_ms.p50()), fmt("%.3f", r.completion_ms.p95()),
             fmt("%.3f", r.completion_ms.p99()), fmt("%.3f", r.total_ms),
             std::to_string(r.lock_acq), fmt("%.3f", r.wall_completion_ms.mean()),
             fmt("%.3f", r.wall_completion_ms.p99()), fmt("%.3f", r.wall_total_ms),
             std::to_string(r.wall_contended), std::to_string(r.lock_wait_ns),
             std::to_string(r.lock_max_wait_ns), std::to_string(r.wall_max_queue)});
    }
  }
  // The scaling claim: with 4 pool threads contending for home service,
  // 4 stripes must beat the single serialized home mutex on the wall
  // clock.  Smoke traces are too small to assert this on a shared runner.
  if (!opt.smoke && wall_mean[0] >= 0 && wall_mean[1] >= 0 && wall_mean[1] >= wall_mean[0]) {
    std::fprintf(stderr,
                 "home_shards: 4-shard wall mean %.3f ms not below 1-shard %.3f ms at 4 "
                 "threads\n",
                 wall_mean[1], wall_mean[0]);
    all_ok = false;
  }

  t.print();
  if (!all_ok) std::fprintf(stderr, "home_shards: sweep failed\n");
  return (all_ok && cli::maybe_write_json(opt, "home_shards", t)) ? 0 : 1;
}

SOD_REGISTER_SCENARIO("home_shards", cli::ScenarioKind::Bench,
                      "home-shard sweep on the wall-clock engine: stripe contention vs shards",
                      run);

}  // namespace
