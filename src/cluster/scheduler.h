// Scheduler — the control path of the cluster layer.
//
// A Scheduler drives multi-segment dispatch as an explicit event loop:
// placements, completions, failures, membership changes, and autoscale
// decisions are all Events, appended to a totally ordered log (the same
// seed and the same failure schedule reproduce the same log and the same
// virtual-time tables).  On top of the loop sit the elasticity features:
//
//  - worker failure: fail_after()/fail_after_checkpoints() plans drop a
//    worker mid-run; the scheduler re-dispatches its queued + in-flight
//    segments to surviving workers through the active policy, re-shipping
//    class images and replaying write-backs idempotently (each segment's
//    updates write back eagerly at completion, so completed work survives
//    any later loss; primitive-statics refreshes re-ship only fields that
//    still differ).
//  - queue-depth autoscaler: an Autoscaler joins workers from a standby
//    pool when the mean accepting-worker queue depth crosses a high-water
//    mark and drains the newest joiner when it falls below a low-water
//    mark, driven by AutoscaleTick events.
//  - cross-worker ref chaining: a ref-typed segment result forwards
//    worker -> worker through a home-mediated ref-forwarding table — the
//    upstream completion write-back translates the result into a home
//    ref, the downstream worker receives a 16-byte handle materialized as
//    a heap stub, and the object body is fetched lazily on first touch
//    (no synchronous home round-trip of the payload).
//  - checkpointing: with checkpoint_every > 0 an executing segment
//    periodically pauses at a migration-safe point, flushes its heap
//    delta home, and records a resumable state in the home-side
//    CheckpointStore; a later worker loss re-dispatches from the newest
//    checkpoint instead of the original capture, so completed partial
//    work survives.
//  - speculation: the placement policy's per-class span model flags
//    straggling attempts; a backup attempt is launched from the newest
//    checkpoint on another worker and raced in virtual time — first
//    completion wins, the loser is cancelled at its next chunk boundary
//    and its write-back is suppressed.
//
// Every policy call, clock read, restore, checkpoint, and write-back runs
// on the calling thread in one fixed order.  Four executor hooks (see the
// protected section) mark where guest code runs and where communication
// happens; the defaults run guest code inline and add nothing, which is
// virtual time.  WallClockEngine (wallclock.h) overrides them to run guest
// code on worker lanes and to replay communication as wall sleeps, so both
// engines share this one control path and read identical virtual clocks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/checkpoint.h"
#include "cluster/cluster.h"

namespace sod::cluster {

class PlacementPolicy;
struct PlacementRequest;

/// What happened at one instant of the scheduler's virtual-time loop.
enum class EventKind {
  SegmentDispatched,      ///< segment placed, shipped, and restored on a worker
  SegmentCompleted,       ///< segment executed; its updates are home
  SegmentFailed,          ///< attempt died with its worker; re-dispatching
  WorkerJoined,           ///< autoscaler promoted a standby worker
  WorkerDraining,         ///< autoscaler started draining a joiner
  WorkerLost,             ///< worker failed; its queue was dropped
  AutoscaleTick,          ///< queue-depth evaluation point
  CheckpointTaken,        ///< in-flight segment state landed in the home store
  SpeculativeDispatched,  ///< straggler backup attempt launched from a checkpoint
  AttemptCancelled,       ///< losing attempt of a speculative race stopped
  ProgramRejected,        ///< admission gate refused the program; nothing ships
};

/// Wire size of the small "here is your caller's value" message forwarded
/// between chained segments (matches the Fig. 1(c) experiment).  A
/// cross-worker ref result rides the same message: the payload already
/// went home with the upstream write-back, so only the handle travels.
inline constexpr size_t kResultMsgBytes = 16;

/// One entry of the scheduler's totally ordered event log.  `seq` breaks
/// virtual-time ties deterministically; `round` counts Scheduler::run
/// calls over the scheduler's lifetime.  `attempt` identifies which
/// dispatch of the segment the event belongs to (1-based; speculative
/// backups get their own id), so the attempt-aware exactly-once check can
/// pair cancellations with the attempts they killed.
struct Event {
  EventKind kind{};
  VDur at{};
  int seq = 0;
  int round = -1;
  int segment = -1;  ///< dispatch-local segment index (segment events)
  int worker = -1;   ///< worker id (segment + membership events)
  int attempt = 0;   ///< attempt id (segment + checkpoint events)
};

/// The attempt-aware exactly-once invariant, kept event by event: every
/// (round, segment) that was ever dispatched has exactly one
/// SegmentCompleted.  Speculative duplicate *dispatches* are legal, but
/// only one attempt per segment may complete (and write back), the
/// completing attempt must itself have been dispatched, and no attempt
/// that was cancelled or failed ever completes, whichever order the log
/// puts the two in.  It holds only the current round's per-segment state:
/// a round's verdict is final once a segment event of a later round
/// arrives, so reading the verdict is O(1).
class ExactlyOnce {
 public:
  void add(const Event& e);
  bool holds() const { return !violated_ && unsettled_ == 0; }

 private:
  struct Seg {
    std::vector<int> launched;  ///< dispatched attempt ids
    std::vector<int> killed;    ///< failed or cancelled attempt ids
    int completions = 0;
    int completer = 0;  ///< attempt id of the last completion
  };
  /// Never dispatched nor completed, or completed once by a dispatched
  /// attempt that was never killed.
  static bool settled(const Seg& s);

  int round_ = -1;
  std::vector<Seg> segs_;  ///< the current round's, by segment index
  int unsettled_ = 0;      ///< entries of segs_ that are not settled
  bool violated_ = false;  ///< an earlier round ended unsettled
};

struct DispatchOptions {
  /// Guest instructions between checkpoints of an executing segment
  /// (0 = checkpointing off).  Each checkpoint pauses the worker at a
  /// migration-safe point, flushes its heap delta home, and records the
  /// resumable state in the home-side CheckpointStore.
  uint64_t checkpoint_every = 0;
  /// Launch a speculative backup attempt from the newest checkpoint when
  /// the running attempt is a straggler by the policy's learned span
  /// (PlacementPolicy::straggler); the first completion wins and the
  /// loser is cancelled.  Requires checkpoint_every > 0.
  bool speculate = false;
  /// On worker loss, re-dispatch the executing attempt from its newest
  /// checkpoint (resume) instead of the original capture (restart).  Only
  /// meaningful with checkpoint_every > 0; exposed so benches can ablate
  /// resume against restart-from-capture under one checkpoint cadence.
  bool resume_from_checkpoint = true;
  /// Skip refresh_primitive_statics scans for classes the whole-program
  /// analyzer proved statics-pure (no reachable PUTSTATIC of a primitive
  /// static).  Bit-identical by construction — an unwritten static always
  /// compares equal and ships zero bytes — so this is purely a hot-path
  /// win; exposed so benches can ablate it.
  bool statics_skip = true;
};

/// One home-mediated ref forward: segment `segment`'s result, produced on
/// `src_worker`, delivered to `dst_worker` as a handle for home ref
/// `home_ref`.
struct RefForward {
  int round;
  int segment;
  int src_worker;
  int dst_worker;
  bc::Ref home_ref;

  bool operator==(const RefForward&) const = default;
};

/// Counters for the statics-refresh hot path (one instance per engine):
/// how many per-class scans ran, how many the purity facts skipped, and
/// the wire bytes of fields that actually differed.
struct StaticsRefreshStats {
  size_t scans = 0;
  size_t skipped = 0;
  size_t bytes = 0;
};

struct Placement {
  int worker = -1;
  std::string worker_name;
  mig::SegmentSpec spec{};
  uint16_t cls = 0;          ///< class of the segment's entry frame
  size_t shipped_bytes = 0;  ///< captured state + class image actually shipped
  int attempts = 1;          ///< dispatches incl. re-dispatches after worker loss
  VDur restored_at{};        ///< worker clock when its restore finished
  VDur executed_at{};        ///< worker clock when its execution began (a
                             ///< chained segment first waits for the
                             ///< upstream result; the top segment runs
                             ///< right after its restore)
  VDur completed_at{};       ///< worker clock when its execution finished
};

struct DispatchOutcome {
  std::vector<Placement> placements;
  int faults = 0;
  size_t writeback_bytes = 0;
  /// True when at least one lower segment finished restoring before the
  /// segment above it finished executing (freeze time hidden).
  bool overlapped = false;
};

/// Splits the top `k` home frames into k single-frame segments, top first.
std::vector<mig::SegmentSpec> split_top_frames(int k);

/// Copies `src`'s primitive static fields into `dst`'s slots for every
/// static-bearing class loaded on both sides; returns the wire bytes of
/// the fields that actually differed (identical values ship nothing, so
/// replaying the refresh after a re-dispatch is idempotent).  Ref statics
/// are left alone: at a worker they are stubs that resolve against home's
/// *current* fields, so they stay fresh by construction.  With `facts`,
/// classes proved statics-pure are skipped without scanning (legal because
/// an unwritten primitive static always bit-compares equal); `stats`, when
/// given, accumulates scan/skip/byte counters.
size_t refresh_primitive_statics(mig::SodNode& src, mig::SodNode& dst,
                                 const analysis::ProgramFacts* facts = nullptr,
                                 StaticsRefreshStats* stats = nullptr);

/// Queue-depth autoscaler: joins standby workers when the mean accepting
/// queue depth exceeds the high-water mark and drains the newest joiner
/// when it falls below the low-water mark.  Join decisions run on every
/// AutoscaleTick; drain decisions only on placement-phase ticks (right
/// after a round's placements, when queue depths carry signal — the
/// post-completion troughs would otherwise flap the membership).
class Autoscaler {
 public:
  static constexpr double kHighWater = 1.25;
  static constexpr double kLowWater = 0.4;

  explicit Autoscaler(std::vector<WorkerSpec> standby) : standby_(std::move(standby)) {}

  struct Action {
    EventKind kind;  ///< WorkerJoined or WorkerDraining
    int worker;
  };
  /// Evaluates one AutoscaleTick against the cluster, applying at most one
  /// membership action (add_worker / drain_worker).  The scheduler turns
  /// the returned action into an event.
  std::optional<Action> tick(Cluster& c, bool placement_phase);

  int joins() const { return joins_; }
  int drains() const { return drains_; }

 private:
  std::vector<WorkerSpec> standby_;  ///< consumed front to back
  size_t next_standby_ = 0;
  std::vector<int> joined_;  ///< active joiner ids, join order (drained LIFO)
  int joins_ = 0;
  int drains_ = 0;
};

/// The event loop.  One Scheduler persists across dispatch rounds so the
/// failure plan, the autoscaler, the ref-forwarding table, and the event
/// log span a whole scenario run.
class Scheduler {
 public:
  Scheduler(Cluster& c, PlacementPolicy& policy, DispatchOptions opt = {});
  virtual ~Scheduler();  // Task is private and defined in the .cpp
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  Cluster& cluster() { return *c_; }

  /// Attach the queue-depth autoscaler (nullptr detaches).
  void set_autoscaler(std::unique_ptr<Autoscaler> a) { autoscaler_ = std::move(a); }
  Autoscaler* autoscaler() { return autoscaler_.get(); }

  /// Schedules a worker loss once `completions` SegmentCompleted events
  /// have fired over the scheduler's lifetime.  `worker` < 0 picks the
  /// accepting worker with the deepest queue at the firing instant (ties
  /// to the lowest id) — the most disruptive deterministic choice.
  void fail_after(int completions, int worker = -1);
  /// Schedules a worker loss once `checkpoints` CheckpointTaken events
  /// have fired over the scheduler's lifetime (requires
  /// checkpoint_every > 0 to ever fire).  `worker` < 0 targets the worker
  /// that took the triggering checkpoint — killing the in-flight attempt
  /// mid-execution, the case that distinguishes resume-from-checkpoint
  /// from restart-from-capture.
  void fail_after_checkpoints(int checkpoints, int worker = -1);
  /// Membership churn between rounds, logged as WorkerJoined /
  /// WorkerDraining events.
  int add_worker(const WorkerSpec& spec);
  void drain_worker(int id);

  /// Captures the contiguous top-of-stack segments `specs` (specs[0] must
  /// start at depth 0, each next one at the previous depth_hi) from the
  /// paused home thread, then runs the event loop: each segment is
  /// placed via the policy, restored on its worker, executed when its
  /// upstream result arrives, and written back home at completion; the
  /// bottom segment's write-back pops the migrated span and leaves the
  /// home thread runnable.  Worker losses and autoscale actions interleave
  /// with the segment lifecycle as events.  The home thread's top frame
  /// must be at a migration-safe point and its stack must be strictly
  /// deeper than specs.back().depth_hi.  Home's debug interface is off
  /// when run returns.
  virtual DispatchOutcome run(int home_tid, const std::vector<mig::SegmentSpec>& specs);

  /// Totally ordered event log across all rounds so far.
  const std::vector<Event>& log() const { return log_; }
  /// The exactly-once verdict (see ExactlyOnce) over the log so far.
  bool exactly_once() const { return verdict_.holds(); }
  /// Rounds run so far (the `round` stamped on events).
  int rounds() const { return round_ + 1; }
  /// Lifetime counts, each kept beside its event in the log: completions,
  /// losses, re-dispatches (SegmentDispatched with attempt > 1; resumes()
  /// are those restored from a checkpoint), checkpoints, speculations and
  /// cancellations.
  int completions() const { return completed_total_; }
  int workers_lost() const { return lost_total_; }
  int redispatches() const { return redispatched_total_; }
  int checkpoints() const { return store_.total_recorded(); }
  int resumes() const { return resumed_total_; }
  int speculations() const { return speculated_total_; }
  int cancellations() const { return cancelled_total_; }
  /// Statics-refresh scan/skip/byte counters over the scheduler's lifetime.
  const StaticsRefreshStats& statics_stats() const { return statics_stats_; }
  /// Home-side checkpoint store (newest resumable state per segment).
  const CheckpointStore& store() const { return store_; }

  /// All home-mediated ref forwards so far, in append order.
  const std::vector<RefForward>& ref_forwards() const { return forwards_; }

 protected:
  // Executor hooks, called on the control path at fixed points.  The
  // defaults are the virtual-time executor: guest code runs inline and
  // nothing else happens.

  /// Gate that worker-side object faults and class fetches take on their
  /// way home (nullptr: none).
  virtual mig::HomeGate* home_gate() { return nullptr; }
  /// Segment `segment` of the current round was just shipped to and
  /// restored on `worker`: home spent `serde` serializing it and the link
  /// spends `transfer`.
  virtual void on_ship(int /*segment*/, int /*worker*/, VDur /*serde*/, VDur /*transfer*/) {}
  /// Runs `guest` — deliver, run_chunk, or run_to_completion of a segment
  /// restored on `worker` — after a result relay of `relay` to it.
  virtual void run_guest(int /*worker*/, VDur /*relay*/, const std::function<void()>& guest) {
    guest();
  }
  /// Segment `segment`'s write-back from `worker` landed home, where
  /// applying it costs `serde`.
  virtual void on_write_back(int /*segment*/, int /*worker*/, VDur /*serde*/) {}

 private:
  struct Task;
  struct Attempt;
  struct FailurePlan {
    enum class Trigger { Completions, Checkpoints };
    Trigger trigger;
    int at_count;
    int worker;
    bool fired = false;
  };

  void emit(EventKind kind, VDur at, int segment, int worker, int attempt = 0);
  /// The policy's worker for `req`, checked to be an accepting member.
  int choose_worker(const PlacementRequest& req);
  /// Segment i's placement request; from checkpoint `ck`, its state size.
  PlacementRequest request(size_t i, const CheckpointStore::Entry* ck) const;
  /// A new attempt of segment i on worker `w`: records its queue estimate,
  /// then hops segment i's capture, or checkpoint `ck` when given (plus
  /// the class image if `w` lacks it), from home to `w`.
  Attempt start_attempt(size_t i, int w, const CheckpointStore::Entry* ck);
  /// Places segment i's live attempt, replacing (and retiring) any earlier
  /// one: from its capture, or resumed from checkpoint `ck` when given.
  void dispatch(size_t i, const CheckpointStore::Entry* ck = nullptr);
  /// Adds `a`'s object faults to the round's count and releases its
  /// segment; every attempt retires once, replaced, cancelled or written
  /// back.
  void retire(Attempt& a);
  /// Home-side prelude of segment i's live attempt (natives, statics
  /// refresh, result relay, ref forward), then one guest job that delivers
  /// the upstream result and runs `then`.
  void prepare(size_t i, const std::function<void()>& then);
  void execute(size_t i);
  void run_attempts(size_t i);
  bool take_checkpoint(size_t i);
  void launch_backup(size_t i);
  /// Stops the race's `loser` once `winner`'s completion reaches it.
  void cancel(size_t i, Attempt& loser, const Attempt& winner);
  svm::StopReason run_chunk(Attempt& a);
  void write_back(size_t i);
  void do_fail(int worker);
  int pick_failure_target() const;
  void process_failure_plans();
  void process_checkpoint_plans(int ckpt_worker);
  void autoscale_tick(bool placement_phase);

  Cluster* c_;
  PlacementPolicy* policy_;
  DispatchOptions opt_;
  std::unique_ptr<Autoscaler> autoscaler_;
  std::vector<FailurePlan> plans_;
  std::vector<Event> log_;
  ExactlyOnce verdict_;
  std::vector<RefForward> forwards_;
  CheckpointStore store_;
  StaticsRefreshStats statics_stats_;
  int seq_ = 0;
  int round_ = -1;
  int completed_total_ = 0;
  int lost_total_ = 0;
  int redispatched_total_ = 0;
  int resumed_total_ = 0;
  int speculated_total_ = 0;
  int cancelled_total_ = 0;

  // Live only inside run(); do_fail consults them for mid-run re-dispatch.
  int home_tid_ = -1;
  std::vector<Task> tasks_;
  DispatchOutcome* out_ = nullptr;
  /// Task whose attempts run_attempts is running (-1: none): do_fail
  /// leaves it to the chunk loop, which notices the loss itself.
  int running_ = -1;
};

}  // namespace sod::cluster
