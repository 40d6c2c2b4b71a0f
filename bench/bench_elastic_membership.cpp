// Elastic membership under worker churn: the same Table-I-style workload
// (multi-round concurrent segment dispatch of the Fib app) replayed on a
// heterogeneous topology — two cluster Xeons on gigabit plus an
// iPhone-class device behind wifi — while ephemeral Boxer-style workers
// join and drain on a deterministic schedule derived from --churn.  The
// rounds run through one persistent cluster Scheduler, so --fail-at N
// injects a worker loss after N segment completions (the scheduler
// re-dispatches the lost worker's segments) and --autoscale attaches the
// queue-depth autoscaler with a two-Xeon standby pool.
//
// Three segments per round on two fast workers force the third placement
// decision to matter: least_loaded's inflight-count primary key pushes it
// onto the slow device, while the learned policy's per-class EWMA of
// observed execution times predicts the device's 25x completion cost and
// routes around it.  Without an injected failure the bench fails unless
// the learned policy's mean completion virtual time is <= least_loaded's;
// with one, it instead verifies the exactly-once trace invariant: every
// dispatched segment completes exactly once despite the loss.
#include <algorithm>
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
/// Rounds an ephemeral joiner stays before it is drained.
constexpr int kEphemeralLife = 2;

struct ChurnSchedule {
  std::vector<int> join_round;   ///< per joiner, the round it is added before
  std::vector<int> drain_round;  ///< per joiner, the round it is drained before
};

/// Deterministic join/drain schedule: `churn` is the fraction of rounds
/// that start a membership event, joins spread evenly across the run and
/// each joiner drained kEphemeralLife rounds later (clamped into the run
/// so every joiner also leaves mid-run).
ChurnSchedule make_schedule(double churn, int rounds) {
  ChurnSchedule s;
  if (churn <= 0 || rounds < 2) return s;
  int joins = std::max(1, static_cast<int>(churn * rounds + 0.5));
  for (int j = 0; j < joins; ++j) {
    int at = (j + 1) * rounds / (joins + 1);
    at = std::max(1, std::min(at, rounds - 2));
    s.join_round.push_back(at);
    s.drain_round.push_back(std::min(at + kEphemeralLife, rounds - 1));
  }
  return s;
}

struct ElasticResult {
  cluster::Tally rounds;
  cluster::Finish fin;
  int device_segments = 0;
  int joins = 0;
  int leaves = 0;
  int redispatched = 0;
  int workers_lost = 0;
  int auto_joins = 0;
  int checkpoints = 0;
  double total_ms = 0;
};

ElasticResult run_policy(cluster::PolicyKind kind, const ChurnSchedule& sched, int rounds,
                         const cli::ScenarioOptions& opt) {
  const apps::AppSpec spec = apps::fib_app();
  bc::Program p = spec.build();
  prep::preprocess_program(p);

  cluster::Cluster c(p);
  for (const cluster::WorkerSpec& ws : cluster::straggler_topology()) c.add_worker(ws);
  const int device_id = c.size() - 1;

  auto policy = cluster::make_policy(kind);
  cluster::Scheduler sched_loop(c, *policy, cli::dispatch_options(opt));
  if (opt.fail_at >= 0) sched_loop.fail_after(opt.fail_at);
  if (opt.autoscale) {
    std::vector<cluster::WorkerSpec> standby{{"standby1", {}, sim::Link::gigabit()},
                                             {"standby2", {}, sim::Link::gigabit()}};
    sched_loop.set_autoscaler(std::make_unique<cluster::Autoscaler>(standby));
  }

  uint16_t trigger = p.find_method(spec.trigger_method);
  int tid = c.home().vm().spawn(p.find_method(spec.entry), spec.bench_args);

  ElasticResult res;
  std::vector<int> joiner_ids(sched.join_round.size(), -1);
  for (int r = 0; r < rounds; ++r) {
    // Membership events fire between dispatch rounds: drains first (the
    // worker finished its queued work inside the previous dispatch), then
    // this round's joins.  A joiner the scheduler already failed is left
    // alone (drain of a lost worker is a no-op).
    for (size_t j = 0; j < sched.drain_round.size(); ++j) {
      if (sched.drain_round[j] != r || joiner_ids[j] < 0) continue;
      // A joiner the scheduler already failed crashed — it never leaves
      // gracefully, so it must not count as a churn departure.
      if (c.state(joiner_ids[j]) == cluster::WorkerState::Lost) continue;
      c.drain_worker(joiner_ids[j]);
      ++res.leaves;
    }
    for (size_t j = 0; j < sched.join_round.size(); ++j) {
      if (sched.join_round[j] != r) continue;
      joiner_ids[j] =
          c.add_worker({"boxer" + std::to_string(j + 1), {}, sim::Link::gigabit()});
      ++res.joins;
    }
    // Pause four frames deeper than the split so residual recursion
    // survives the round and the next pause can fire again.
    auto round = cluster::run_round(sched_loop, tid, trigger, kSegmentsPerRound + 4,
                                    kSegmentsPerRound);
    if (!round) break;
    res.rounds.add(*round);
    for (const auto& pl : round->out.placements)
      if (pl.worker == device_id) ++res.device_segments;
  }
  res.fin = cluster::finish(sched_loop, tid, spec.bench_expected);
  res.redispatched = sched_loop.redispatches();
  res.workers_lost = sched_loop.workers_lost();
  res.checkpoints = sched_loop.checkpoints();
  if (sched_loop.autoscaler()) res.auto_joins = sched_loop.autoscaler()->joins();
  res.total_ms = c.home_now().ms();
  return res;
}

int run(const cli::ScenarioOptions& opt) {
  double churn = opt.churn >= 0 ? opt.churn : 0.2;
  int rounds = opt.smoke ? 4 : 8;
  ChurnSchedule sched = make_schedule(churn, rounds);
  std::printf("=== elastic membership: 2x Xeon + wifi device, churn %.2f (%zu joiner(s))",
              churn, sched.join_round.size());
  if (opt.fail_at >= 0) std::printf(", fail-at %d", opt.fail_at);
  if (opt.autoscale) std::printf(", autoscale");
  std::printf(" ===\n");

  std::vector<cluster::PolicyKind> kinds;
  if (!opt.policy.empty()) {
    auto k = cluster::parse_policy(opt.policy);
    if (!k) {
      std::fprintf(stderr, "elastic: unknown placement policy '%s'\n", opt.policy.c_str());
      return 2;
    }
    kinds.push_back(*k);
  } else {
    kinds = cluster::all_policies();
  }

  Table t({"policy", "segments", "device segs", "joins", "leaves", "mean completion ms",
           "total ms", "redispatched"});
  bool all_ok = true;
  double least_mean = -1;
  double learned_mean = -1;
  for (cluster::PolicyKind kind : kinds) {
    ElasticResult r = run_policy(kind, sched, rounds, opt);
    all_ok = all_ok && r.fin.ok;
    // With an injected failure a joiner may crash instead of leaving
    // gracefully, so zero leaves is legitimate there.
    if (churn > 0 && (r.joins == 0 || (r.leaves == 0 && opt.fail_at < 0))) {
      std::fprintf(stderr, "elastic: %s run saw no churn (joins %d, leaves %d)\n",
                   cluster::policy_name(kind), r.joins, r.leaves);
      all_ok = false;
    }
    if (!r.fin.exactly_once) {
      std::fprintf(stderr, "elastic: %s trace violates exactly-once execution\n",
                   cluster::policy_name(kind));
      all_ok = false;
    }
    if (opt.fail_at >= 0 && r.workers_lost == 0) {
      std::fprintf(stderr, "elastic: %s run never fired the injected failure\n",
                   cluster::policy_name(kind));
      all_ok = false;
    }
    // Speculation launches no backup attempts; "0 speculation(s)" stays so
    // that this line reads as it always has.
    std::printf("%s trace: %d segment(s), %d re-dispatch(es), %d worker(s) lost, "
                "%d autoscale join(s), %d checkpoint(s), 0 speculation(s) — "
                "exactly-once %s\n",
                cluster::policy_name(kind), r.rounds.segments, r.redispatched, r.workers_lost,
                r.auto_joins, r.checkpoints, r.fin.exactly_once ? "OK" : "VIOLATED");
    t.row({cluster::policy_name(kind), std::to_string(r.rounds.segments),
           std::to_string(r.device_segments), std::to_string(r.joins),
           std::to_string(r.leaves), fmt("%.3f", r.rounds.mean_completion_ms()),
           fmt("%.3f", r.total_ms), std::to_string(r.redispatched)});
    if (kind == cluster::PolicyKind::LeastLoaded) least_mean = r.rounds.mean_completion_ms();
    if (kind == cluster::PolicyKind::Learned) learned_mean = r.rounds.mean_completion_ms();
  }
  t.print();
  if (!all_ok) std::fprintf(stderr, "elastic: a policy run failed\n");
  bool ordered = true;
  // The learned-vs-least-loaded ordering is the steady-state claim; an
  // injected failure perturbs both runs, so there the exactly-once trace
  // check above is the acceptance criterion instead.
  if (opt.fail_at < 0 && least_mean >= 0 && learned_mean >= 0) {
    ordered = learned_mean <= least_mean;
    if (!ordered)
      std::fprintf(stderr,
                   "elastic: learned mean completion (%.3f ms) above least_loaded (%.3f ms)\n",
                   learned_mean, least_mean);
  }
  return (all_ok && ordered && cli::maybe_write_json(opt, "elastic", t)) ? 0 : 1;
}

SOD_REGISTER_SCENARIO("elastic", cli::ScenarioKind::Bench,
                      "policy comparison under elastic worker membership (join/drain churn)",
                      run);

}  // namespace
