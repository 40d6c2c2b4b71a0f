// Placement-policy comparison on a heterogeneous topology: two cluster
// Xeons on gigabit links plus an iPhone-class device behind wifi.  Every
// policy drives the same multi-round concurrent segment dispatch of the
// Fib app; least_loaded routes around the slow device, and locality_aware
// additionally skips re-shipping class images, so locality_aware must
// never be slower than round_robin on this topology.
#include <cstdio>
#include <vector>

#include "apps/apps.h"
#include "cli/scenario.h"
#include "cluster/drive.h"
#include "cluster/placement.h"
#include "prep/prep.h"
#include "support/table.h"

using namespace sod;

namespace {

struct PolicyResult {
  int segments = 0;
  int device_segments = 0;
  size_t shipped_bytes = 0;
  size_t class_bytes = 0;
  double total_ms = 0;
  bool ok = false;
};

PolicyResult run_policy(cluster::PolicyKind kind, int rounds, int segments_per_round) {
  const apps::AppSpec spec = apps::fib_app();
  bc::Program p = spec.build();
  prep::preprocess_program(p);

  cluster::Cluster c(p);
  for (const cluster::WorkerSpec& ws : cluster::straggler_topology()) c.add_worker(ws);
  const int device_id = c.size() - 1;

  auto policy = cluster::make_policy(kind);
  uint16_t trigger = p.find_method(spec.trigger_method);
  int tid = c.home().vm().spawn(p.find_method(spec.entry), spec.bench_args);

  cluster::Scheduler sched(c, *policy);
  PolicyResult res;
  // Pause four frames deeper than the split so residual recursion
  // survives the round and the next pause can fire again.
  std::vector<int> plan(static_cast<size_t>(rounds), segments_per_round);
  cluster::Tally tally = cluster::run_rounds(
      sched, tid, trigger, segments_per_round + 4, plan, [&](int, const cluster::Round& round) {
        for (const auto& pl : round.out.placements) {
          if (pl.worker == device_id) ++res.device_segments;
          res.shipped_bytes += pl.shipped_bytes;
        }
      });
  res.segments = tally.segments;
  res.ok = cluster::finish(sched, tid, spec.bench_expected).ok;
  for (int w = 0; w < c.size(); ++w) res.class_bytes += c.worker(w).class_bytes_fetched();
  res.total_ms = c.home_now().ms();
  return res;
}

int run(const cli::ScenarioOptions& opt) {
  std::printf("=== placement policies on 2x Xeon/gigabit + wifi device ===\n");
  int rounds = opt.smoke ? 3 : 6;
  Table t({"policy", "segments", "device segs", "shipped KB", "class-fetch KB", "total ms"});
  bool all_ok = true;
  double rr_ms = 0;
  double loc_ms = 0;
  for (cluster::PolicyKind kind : cluster::all_policies()) {
    PolicyResult r = run_policy(kind, rounds, 2);
    all_ok = all_ok && r.ok;
    t.row({cluster::policy_name(kind), std::to_string(r.segments),
           std::to_string(r.device_segments),
           fmt("%.2f", static_cast<double>(r.shipped_bytes) / 1024.0),
           fmt("%.2f", static_cast<double>(r.class_bytes) / 1024.0), fmt("%.3f", r.total_ms)});
    if (kind == cluster::PolicyKind::RoundRobin) rr_ms = r.total_ms;
    if (kind == cluster::PolicyKind::LocalityAware) loc_ms = r.total_ms;
  }
  t.print();
  if (!all_ok) std::fprintf(stderr, "placement: a policy run returned a wrong result\n");
  bool ordered = loc_ms <= rr_ms;
  if (!ordered)
    std::fprintf(stderr, "placement: locality_aware (%.3f ms) slower than round_robin (%.3f ms)\n",
                 loc_ms, rr_ms);
  return (all_ok && ordered && cli::maybe_write_json(opt, "placement", t)) ? 0 : 1;
}

SOD_REGISTER_SCENARIO("placement", cli::ScenarioKind::Bench,
                      "placement policies on a heterogeneous cluster + wifi-device topology",
                      run);

}  // namespace
