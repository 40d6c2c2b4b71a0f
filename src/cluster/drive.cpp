#include "cluster/drive.h"

#include <algorithm>

#include "sod/migrate.h"

namespace sod::cluster {

std::vector<WorkerSpec> straggler_topology() {
  mig::SodNode::Config dev;
  dev.cpu_scale = 25.0;
  return {{"xeon1", {}, sim::Link::gigabit()},
          {"xeon2", {}, sim::Link::gigabit()},
          {"wifi-device", dev, sim::Link::wifi_kbps(2000)}};
}

std::unique_ptr<Scheduler> make_engine(Cluster& c, PlacementPolicy& policy,
                                       const DispatchOptions& dispatch,
                                       const std::optional<WallClockOptions>& wall) {
  if (wall) return std::make_unique<WallClockEngine>(c, policy, *wall, dispatch);
  return std::make_unique<Scheduler>(c, policy, dispatch);
}

std::optional<Round> run_round(Scheduler& s, int tid, uint16_t trigger, int depth, int k) {
  if (!mig::pause_at_depth(s.cluster().home(), tid, trigger, depth)) return std::nullopt;
  Round r;
  r.start = s.cluster().home_now();
  r.out = s.run(tid, split_top_frames(k));
  return r;
}

void Tally::add(const Round& r) {
  ++rounds;
  for (const Placement& pl : r.out.placements) {
    ++segments;
    completion_ms += (pl.completed_at - r.start).ms();
  }
  writeback_bytes += r.out.writeback_bytes;
}

Tally run_rounds(Scheduler& s, int tid, uint16_t trigger, int depth, std::span<const int> ks,
                 const std::function<void(int, const Round&)>& on_round) {
  Tally t;
  for (int k : ks) {
    std::optional<Round> r = run_round(s, tid, trigger, depth, k);
    if (!r) break;
    if (on_round) on_round(t.rounds, *r);
    t.add(*r);
  }
  return t;
}

std::vector<int> spread_plan(int workers, int depth) {
  std::vector<int> ks;
  for (int remaining = workers; remaining > 0;) {
    int k = std::min(remaining, depth - 1);
    if (remaining > k) k = std::max(1, depth - 2);
    ks.push_back(k);
    remaining -= k;
  }
  return ks;
}

Finish finish(Scheduler& s, int tid, int64_t expected) {
  mig::SodNode& home = s.cluster().home();
  home.ti().set_debug_enabled(false);
  Finish f;
  f.done = home.run_guest(tid).reason == svm::StopReason::Done;
  if (f.done) f.result = home.vm().thread(tid).result.as_i64();
  f.ok = f.done && (expected == INT64_MIN || f.result == expected);
  f.exactly_once = s.exactly_once();
  return f;
}

}  // namespace sod::cluster
