// The cluster driver: the one round loop of the elastic cycle (paper
// Sec. III, Fig. 1(c)).  Home pauses its guest thread at a migration-safe
// point, the engine ships the top frames to workers, runs them and writes
// them back, and home finishes the thread once the recursion is used up.
// Every cluster scenario, bench and the load generator drive their rounds
// through it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cluster/scheduler.h"
#include "cluster/wallclock.h"

namespace sod::cluster {

/// Two Xeons on gigabit plus an iPhone-3G-class device (25x slower CPU)
/// behind 2 Mbit/s wifi, last: the straggler a load-blind policy feeds.
std::vector<WorkerSpec> straggler_topology();

/// The virtual-time Scheduler, or with `wall` the WallClockEngine.  Set
/// the home shards first: the wall engine copies the shard map.
std::unique_ptr<Scheduler> make_engine(Cluster& c, PlacementPolicy& policy,
                                       const DispatchOptions& dispatch = {},
                                       const std::optional<WallClockOptions>& wall = {});

struct Round {
  DispatchOutcome out;
  VDur start{};  ///< home instant the round started at
};

/// Pauses home thread `tid` when `trigger` runs at stack depth `depth`
/// and dispatches its top `k` frames as single-frame segments; home's
/// debug interface is off again when it returns.  nullopt once the
/// recursion no longer reaches `depth`.
std::optional<Round> run_round(Scheduler& s, int tid, uint16_t trigger, int depth, int k);

/// Sums over the rounds of one thread.
struct Tally {
  int rounds = 0;
  int segments = 0;
  double completion_ms = 0;  ///< round start -> segment completion, summed
  size_t writeback_bytes = 0;

  void add(const Round& r);
  double mean_completion_ms() const { return segments > 0 ? completion_ms / segments : 0; }
};

/// One round of ks[r] frames per entry until the recursion is used up;
/// `on_round(r, round)` sees each round.
Tally run_rounds(Scheduler& s, int tid, uint16_t trigger, int depth, std::span<const int> ks,
                 const std::function<void(int, const Round&)>& on_round = {});

/// Split sizes that offer each of `workers` workers one segment: at most
/// depth-1 frames a round, leaving recursion for the next round while
/// workers remain.
std::vector<int> spread_plan(int workers, int depth);

struct Finish {
  bool done = false;  ///< the thread ran to completion at home
  int64_t result = INT64_MIN;
  bool ok = false;  ///< done with the expected result
  bool exactly_once = false;
};

/// Runs home thread `tid` to completion and checks its result against
/// `expected` (INT64_MIN: any result).
Finish finish(Scheduler& s, int tid, int64_t expected = INT64_MIN);

}  // namespace sod::cluster
