// Placement policies — the scheduling half of the cluster layer.
//
// A PlacementPolicy picks the worker a captured stack segment should land
// on.  Policies see the cluster's per-worker virtual-clock load, queued
// assignment costs, the link each worker sits behind, and which class
// images a worker already holds (SodNode::class_shipped), so they can
// trade off load, link cost, and locality the way Boxer/Dandelion-style
// schedulers do.  Only accepting workers (Cluster::accepting) are ever
// chosen — draining and retired members are invisible to placement.
//
// Every policy closes the loop: dispatch_segments feeds completed
// placements back through observe(), which trains a per-class EWMA of
// segment execution times (normalized to the reference CPU).  estimate()
// turns the model into per-worker predicted execution costs — recorded
// with each assignment so queued-work costs are real for every policy —
// and the learned policy additionally *places* by predicted completion.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/vclock.h"

namespace sod::cluster {

class Cluster;
struct Placement;

enum class PolicyKind { RoundRobin, LeastLoaded, LocalityAware, Learned };

/// What a segment about to be dispatched looks like to a policy.
struct PlacementRequest {
  uint16_t cls = 0;              ///< class of the segment's entry (bottom) frame
  size_t state_bytes = 0;        ///< captured-state wire size
  size_t class_image_bytes = 0;  ///< image size if the class must still ship
  /// Static bound on per-frame captured state at the class's migration-safe
  /// points (max locals + operand depth, in slots), from the whole-program
  /// analyzer — a migration-cost hint available before any execution has
  /// been observed.
  uint32_t msp_state_slots = 0;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;
  virtual const char* name() const = 0;
  /// Picks an accepting worker id in [0, c.size()).
  virtual int choose(const Cluster& c, const PlacementRequest& req) = 0;
  /// Predicted execution cost of `req` on worker `w`: the per-class EWMA
  /// of observed execution times scaled by the worker's CPU profile;
  /// VDur{} before the first observation of the class.  dispatch_segments
  /// records it with the assignment (Cluster::note_assigned) so
  /// queued-but-not-yet-run work is visible in later arrival estimates.
  virtual VDur estimate(const Cluster& c, int w, const PlacementRequest& req) const;
  /// Feedback after a placement ran to completion: trains the per-class
  /// EWMA from the executed_at -> completed_at span (execution only — the
  /// wait for upstream results in a chained dispatch is excluded),
  /// normalized to the reference CPU via the worker's cpu_scale.
  virtual void observe(const Cluster& c, const PlacementRequest& req, const Placement& pl);

 private:
  static constexpr double kAlpha = 0.4;
  /// Per-class EWMA of reference-CPU execution time, in nanoseconds.
  std::unordered_map<uint16_t, double> ewma_ns_;
};

/// Deterministic placement of a speculative backup attempt: the accepting
/// worker other than `exclude` (the straggler's host) with the earliest
/// predicted completion — arrival estimate plus the policy's learned
/// per-class execution estimate, so a 25x-slower device prices itself out
/// of hosting its own backup.  Returns -1 when no other accepting worker
/// exists (speculation is then skipped).
int choose_backup(const PlacementPolicy& policy, const Cluster& c, const PlacementRequest& req,
                  int exclude);

std::unique_ptr<PlacementPolicy> make_policy(PolicyKind kind);
const char* policy_name(PolicyKind kind);

/// Accepts dashed and underscored spellings: "round-robin"/"round_robin",
/// "least-loaded", "locality-aware", "learned"; nullopt on anything else.
std::optional<PolicyKind> parse_policy(std::string_view s);

/// Every policy kind, in a stable comparison order.
std::vector<PolicyKind> all_policies();

}  // namespace sod::cluster
