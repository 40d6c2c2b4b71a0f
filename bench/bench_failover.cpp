// Failover under worker loss: the Fib workload of the elastic bench on
// the same heterogeneous topology — two cluster Xeons on gigabit plus an
// iPhone-class device behind wifi — replayed in three modes:
//
//   fixed           the original membership, no failure (baseline)
//   fail_redispatch the wifi device is lost mid-run; the scheduler
//                   re-dispatches its queued + in-flight segments to the
//                   surviving Xeons
//   fail_autoscale  same loss, plus the queue-depth autoscaler with one
//                   standby Xeon that joins when the post-loss queue
//                   depth crosses the high-water mark
//
// least_loaded's inflight-count primary key parks one segment per round
// on the 25x-slower device, so losing the device and backfilling from the
// standby pool must not cost throughput: the bench fails unless the
// fail_autoscale mean completion time is <= the fixed-membership mean,
// and unless every mode's trace shows each segment executed exactly once.
#include <cstdio>
#include <memory>
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

enum class Mode { Fixed, FailRedispatch, FailAutoscale };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::Fixed: return "fixed";
    case Mode::FailRedispatch: return "fail_redispatch";
    case Mode::FailAutoscale: return "fail_autoscale";
  }
  return "?";
}

struct ModeResult {
  cluster::Tally rounds;
  cluster::Finish fin;
  int redispatched = 0;
  int auto_joins = 0;
  double total_ms = 0;
};

ModeResult run_mode(Mode mode, int rounds, int fail_at, const cli::ScenarioOptions& opt) {
  const apps::AppSpec spec = apps::fib_app();
  bc::Program p = spec.build();
  prep::preprocess_program(p);

  cluster::Cluster c(p);
  for (const cluster::WorkerSpec& ws : cluster::straggler_topology()) c.add_worker(ws);
  const int device_id = c.size() - 1;

  auto policy = cluster::make_policy(cluster::PolicyKind::LeastLoaded);
  cluster::Scheduler sched(c, *policy, cli::dispatch_options(opt));
  if (mode != Mode::Fixed) sched.fail_after(fail_at, device_id);
  if (mode == Mode::FailAutoscale) {
    std::vector<cluster::WorkerSpec> standby{{"standby1", {}, sim::Link::gigabit()}};
    sched.set_autoscaler(std::make_unique<cluster::Autoscaler>(standby));
  }

  uint16_t trigger = p.find_method(spec.trigger_method);
  int tid = c.home().vm().spawn(p.find_method(spec.entry), spec.bench_args);

  ModeResult res;
  std::vector<int> plan(static_cast<size_t>(rounds), kSegmentsPerRound);
  res.rounds = cluster::run_rounds(sched, tid, trigger, kSegmentsPerRound + 4, plan);
  res.fin = cluster::finish(sched, tid, spec.bench_expected);
  res.redispatched = sched.redispatches();
  if (sched.autoscaler()) res.auto_joins = sched.autoscaler()->joins();
  res.total_ms = c.home_now().ms();
  return res;
}

int run(const cli::ScenarioOptions& opt) {
  int rounds = opt.smoke ? 4 : 8;
  int fail_at = opt.fail_at >= 0 ? opt.fail_at : 5;
  std::printf("=== failover: 2x Xeon + wifi device, device lost after %d completion(s) ===\n",
              fail_at);

  Table t({"mode", "segments", "redispatched", "autoscale joins", "mean completion ms",
           "total ms"});
  bool all_ok = true;
  double fixed_mean = -1;
  double autoscale_mean = -1;
  for (Mode mode : {Mode::Fixed, Mode::FailRedispatch, Mode::FailAutoscale}) {
    ModeResult r = run_mode(mode, rounds, fail_at, opt);
    all_ok = all_ok && r.fin.ok;
    if (!r.fin.exactly_once) {
      std::fprintf(stderr, "failover: %s trace violates exactly-once execution\n",
                   mode_name(mode));
      all_ok = false;
    }
    if (mode != Mode::Fixed && r.redispatched == 0) {
      std::fprintf(stderr, "failover: %s run lost no in-flight work (fail-at too late?)\n",
                   mode_name(mode));
      all_ok = false;
    }
    if (mode == Mode::FailAutoscale && r.auto_joins == 0) {
      std::fprintf(stderr, "failover: autoscaler never joined the standby worker\n");
      all_ok = false;
    }
    t.row({mode_name(mode), std::to_string(r.rounds.segments), std::to_string(r.redispatched),
           std::to_string(r.auto_joins), fmt("%.3f", r.rounds.mean_completion_ms()),
           fmt("%.3f", r.total_ms)});
    if (mode == Mode::Fixed) fixed_mean = r.rounds.mean_completion_ms();
    if (mode == Mode::FailAutoscale) autoscale_mean = r.rounds.mean_completion_ms();
  }
  t.print();
  if (!all_ok) std::fprintf(stderr, "failover: a mode run failed\n");
  // Losing the slow device and backfilling from the standby pool must not
  // cost completion time against the original fixed membership.
  bool ordered = autoscale_mean >= 0 && fixed_mean >= 0 && autoscale_mean <= fixed_mean;
  if (!ordered)
    std::fprintf(stderr,
                 "failover: autoscale+re-dispatch mean completion (%.3f ms) above "
                 "fixed-membership mean (%.3f ms)\n",
                 autoscale_mean, fixed_mean);
  return (all_ok && ordered && cli::maybe_write_json(opt, "failover", t)) ? 0 : 1;
}

SOD_REGISTER_SCENARIO("failover", cli::ScenarioKind::Bench,
                      "completion time with/without worker-failure re-dispatch and the "
                      "queue-depth autoscaler",
                      run);

}  // namespace
