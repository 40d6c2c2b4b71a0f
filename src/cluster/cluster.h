// Cluster — load-aware placement over a home node plus heterogeneous
// workers (the production shape of the paper's Fig. 1(b)/(c) flows).
//
// A Cluster owns the home SodNode and an elastic set of workers, each with
// its own CPU profile and its own simulated link back to home.  Membership
// is dynamic: workers join mid-run (add_worker), stop accepting new
// segments while finishing queued work (drain_worker), retire once
// their queue is empty — the Boxer-style ephemeral-worker flow — or are lost
// outright (fail_worker), dropping their outstanding assignments for the
// scheduler to re-dispatch.  Worker ids are dense and stable for the
// lifetime of the cluster; a retired or lost worker keeps its id and its
// final clock for traces, it just never receives work again.
//
// This header is the membership/state half of the cluster layer; the
// execution half — the event-driven Scheduler, placement-driven segment
// dispatch, worker-failure re-dispatch, and the queue-depth autoscaler —
// lives in cluster/scheduler.h.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "sod/migrate.h"

namespace sod::cluster {

class PlacementPolicy;

/// One worker slot to be added to a Cluster.
struct WorkerSpec {
  std::string name;
  mig::SodNode::Config config{};
  /// Link between the home node and this worker.
  sim::Link link = sim::Link::gigabit();
};

/// Lifecycle of a worker slot.  Active workers accept new segments;
/// draining workers finish their queued work and then retire; retired
/// workers left gracefully; lost workers failed with their queue dropped.
/// Retired and lost workers keep their id and final clock but never
/// receive work again.
enum class WorkerState { Active, Draining, Retired, Lost };

/// Home node + workers, all hosting the same preprocessed program.
///
/// Construction runs the whole-program analyzer over the program and keeps
/// the admission report: the scheduler and wall-clock engine consult the
/// facts (statics purity, ref escape, MSP state bounds) on their hot paths,
/// and refuse to dispatch a program that failed admission.
class Cluster {
 public:
  explicit Cluster(const bc::Program& prog, mig::SodNode::Config home_cfg = {});

  /// Admission verdict + whole-program facts for the hosted program.
  const analysis::AdmissionReport& admission() const { return admission_; }
  const analysis::ProgramFacts& facts() const { return admission_.facts; }
  const bc::Program& program() const { return *prog_; }

  /// Fixes the home shard count (1..64) for this cluster: the number of
  /// stripe mutexes a WallClockEngine uses to serialize home-side wall-time
  /// service windows.  Must be set before the engine is constructed over
  /// the cluster, which copies the map.  The virtual-time Scheduler never
  /// reads it.  Defaults to 1 — a single home mutex.
  void set_home_shards(int shards) { shard_map_ = mig::HomeShardMap(shards); }
  const mig::HomeShardMap& shard_map() const { return shard_map_; }
  int home_shards() const { return shard_map_.shards(); }

  /// Adds a worker; returns its id (0-based, dense, stable).  Legal
  /// mid-run: the next dispatch round sees the new worker.  Names must be
  /// unique across the cluster's lifetime so placement traces and bench
  /// rows stay unambiguous.
  int add_worker(const WorkerSpec& spec);
  /// Adds `n` identical gigabit workers named worker1..workerN.
  void add_uniform_workers(int n, const mig::SodNode::Config& cfg = {});

  /// Stops new assignments to the worker; it retires as soon as its queue
  /// drains (immediately when idle — no next-round lag).
  void drain_worker(int id);
  /// Drops the worker mid-run (crash / network partition): its queued
  /// assignments are discarded and it never receives work again.  Returns
  /// the number of assignments dropped — the caller (the scheduler) owns
  /// re-dispatching those segments to surviving workers.  No-op on a
  /// worker that already left.
  int fail_worker(int id);

  WorkerState state(int id) const;
  /// Whether the worker may receive new assignments.
  bool accepting(int id) const { return state(id) == WorkerState::Active; }
  /// Workers currently accepting new assignments.
  int accepting_size() const;

  mig::SodNode& home() { return *home_; }
  /// Total worker slots ever added (including draining, retired, and lost
  /// ones).
  int size() const { return static_cast<int>(workers_.size()); }
  mig::SodNode& worker(int id) const;
  const sim::Link& link(int id) const;

  /// Load front of a worker: the first instant at or after its clock that
  /// its core is free (sim::CpuCalendar) — its clock itself unless
  /// another timeline booked the core past it.
  VDur load(int id) const;
  /// Home's current virtual time (placement estimates start from here).
  VDur home_now() const { return home_->node().clock.now(); }
  /// Whether the worker already holds class `cls`'s image (no ship cost).
  bool holds_class(int id, uint16_t cls) const { return worker(id).class_shipped(cls); }

  /// Segments assigned to the worker whose execution time is not yet
  /// reflected in its clock (the depth of its FIFO queue).  The scheduler
  /// maintains this; policies use it because a worker's clock only
  /// advances once its segment actually runs.
  int inflight(int id) const;
  /// Mean FIFO depth over the accepting workers — the autoscaler's
  /// queue-depth signal.  0 when nobody accepts.
  double mean_queue_depth() const;
  /// Sum of the estimated execution costs of the worker's queued
  /// assignments.  Policies fold this into arrival estimates so a worker
  /// holding several rounds is not mistaken for an idle one.
  VDur queued_cost(int id) const;
  /// Enqueues an assignment with the policy's execution-cost estimate
  /// (VDur{} when the policy has none).  Panics on non-accepting workers.
  void note_assigned(int id, VDur est_cost = {});
  /// Dequeues one assignment, completed or cancelled (the losing side of
  /// a speculative race frees its slot the same way); a draining worker
  /// retires when its queue empties.  Completions can land out of FIFO
  /// order (a speculative backup or a checkpoint resume finishes before
  /// segments queued ahead of it), so callers that recorded the
  /// assignment's estimate pass it back and the first entry carrying that
  /// estimate is removed — keeping queued_cost() attributed to the
  /// assignments actually still waiting.  Without an estimate the oldest
  /// entry goes.
  void note_completed(int id, std::optional<VDur> est_cost = std::nullopt);

 private:
  struct Slot {
    std::unique_ptr<mig::SodNode> node;
    sim::Link link;
    WorkerState state = WorkerState::Active;
    /// FIFO of estimated execution costs, one entry per outstanding
    /// assignment (oldest first).
    std::deque<VDur> queue;
  };

  const bc::Program* prog_;
  analysis::AdmissionReport admission_;
  mig::HomeShardMap shard_map_{1};
  std::unique_ptr<mig::SodNode> home_;
  std::vector<Slot> workers_;
};

}  // namespace sod::cluster
