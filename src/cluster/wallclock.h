// WallClockEngine — the Scheduler on real threads.
//
// The engine is a Scheduler: placement, failure plans, re-dispatch,
// checkpoints, speculation, the autoscaler, and every virtual-clock read
// and charge run on the calling (home) thread in the Scheduler's order.
// What the engine adds is where work happens in wall time, through the
// Scheduler's executor hooks:
//
//   - guest code (deliver, run_chunk, run_to_completion) runs on the
//     worker's ThreadPool lane, one lane per cluster worker; the home
//     thread blocks until the job finishes.  A round is a dependency
//     chain, so guest code never runs on two lanes at once;
//   - a segment ship serves its home serialization window on the
//     segment's stripe, then sleeps the dilated transfer on the
//     destination lane.  Lane FIFO order puts the ship before the
//     segment's first guest job, so ships overlap upstream execution —
//     the Fig. 1(c) freeze-time hiding on real cores;
//   - a cross-worker result relay sleeps on the destination lane before
//     the guest job it feeds;
//   - a landed write-back serves its window on its stripe from the
//     worker's lane.
//
// Home-side state is guarded by the two-level lock of sod/homegate.h:
//
//   - one non-recursive ordered mutex (`order_mu_`), held by the home
//     thread for the whole round except while it waits for a guest job,
//     serializes every home virtual-clock charge, tool-interface read,
//     and heap access a lane's object faults and class fetches make;
//   - N stripe mutexes, one per home shard (deterministic HomeShardMap
//     over object refs, class ids, and (round, segment) keys), serialize
//     the *wall-time service windows* of home-side work.  Services of
//     different shards overlap in wall time; services of the same shard
//     convoy — with one shard this degenerates to a single home mutex,
//     which is exactly what the home_shards bench sweeps against.
//
// Lock order is always stripe -> ordered, a thread holds at most one
// stripe, and a gate acquired from the home thread (restores, write-backs,
// and checkpoints resolving stubs or fetching classes) detects through a
// thread-local that it already holds the ordered lock and becomes a nested
// no-op — so no capability is ever re-entered and clang's -Wthread-safety
// can check the whole engine.
//
// Because the control path is the Scheduler's, a wall-clock run produces
// the virtual-time run's results, write-back bytes, event log, and virtual
// instants bit for bit, at any thread or shard count and after worker
// losses: wall interleavings only decide when real work happens, never
// what the clocks read.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "cluster/scheduler.h"
#include "cluster/threadpool.h"
#include "sod/homegate.h"
#include "support/thread_annotations.h"

namespace sod::cluster {

struct WallClockOptions {
  /// Pool threads; 0 = one per cluster worker (at the first run()).
  int threads = 0;
  /// Real-sleep seconds per virtual second of communication (ship/relay)
  /// time.  1.0 sleeps the full modelled transfer; benches dial it down to
  /// keep runs fast while preserving relative overlap.
  double dilation = 1.0;
  /// Real-sleep seconds per virtual second of home-side *service* time
  /// (segment/object/class serialization, write-back apply), slept inside
  /// stripe service windows.  < 0 (default) follows `dilation`.  The
  /// home_shards bench turns this up to amplify the µs-scale serde costs
  /// into measurable stripe convoys while dialing transfers down.
  double home_dilation = -1.0;
};

/// The Scheduler with guest code on worker lanes and communication as wall
/// sleeps.  The engine is its own HomeGate: worker-lane object faults and
/// class fetches gate through it (see the file comment for the protocol).
class WallClockEngine : public Scheduler, private mig::HomeGate {
 public:
  WallClockEngine(Cluster& c, PlacementPolicy& policy, WallClockOptions opt = {},
                  DispatchOptions dispatch = {});
  ~WallClockEngine() override;

  /// Scheduler::run with the lanes live; blocks until the bottom segment's
  /// write-back lands and every lane is idle again.
  DispatchOutcome run(int home_tid, const std::vector<mig::SegmentSpec>& specs) override;

  /// Per-stripe lock telemetry, indexed by shard (quiescent read).
  std::vector<mig::ShardContention> shard_contention() const;
  /// Sum over stripes (max fields folded with max).
  mig::ShardContention total_contention() const;

  /// Wall milliseconds from the last run()'s start to each segment's
  /// completion write-back, indexed by segment.
  const std::vector<double>& last_completed_wall_ms() const { return wall_completed_ms_; }
  /// Wall milliseconds of the last run() end to end.
  double last_round_wall_ms() const { return last_round_wall_ms_; }

 private:
  /// One home shard's stripe: the lock plus its telemetry.  The stats
  /// fields are written holding `mu` and read at quiescence; `waiters` is
  /// touched before the lock is held, so it is atomic.
  struct Stripe {
    Mutex mu;
    std::atomic<uint64_t> waiters{0};
    mig::ShardContention stats SOD_GUARDED_BY(mu);
  };

  // Scheduler executor hooks.
  mig::HomeGate* home_gate() override { return this; }
  void on_ship(int segment, int worker, VDur serde, VDur transfer) override;
  void run_guest(int worker, VDur relay, const std::function<void()>& guest) override
      SOD_REQUIRES(order_mu_);
  void on_write_back(int segment, int worker, VDur serde) override;

  // mig::HomeGate — the worker-lane side of the protocol.  Conditional
  // locking (nested detection, try-then-wait stripes) is beyond the static
  // analysis, so the implementations opt out and the protocol is enforced
  // by the thread-locals' runtime checks instead.
  mig::HomeGate::Section acquire(uint32_t key) override;
  void service(mig::HomeGate::Section& s, VDur home_time) override;
  void release(mig::HomeGate::Section& s) override;

  /// The home thread's side of the ordered lock (maintains the nested-
  /// section thread-local).
  void lock_ordered() SOD_ACQUIRE(order_mu_);
  void unlock_ordered() SOD_RELEASE(order_mu_);
  /// Locks stripe `shard`, recording acquisition/contention telemetry.
  void lock_stripe(int shard) SOD_NO_THREAD_SAFETY_ANALYSIS;
  void unlock_stripe(int shard) SOD_NO_THREAD_SAFETY_ANALYSIS;
  /// Service window on a lane: locks the stripe of segment `segment` of
  /// the current round, sleeps the dilated home service time, unlocks.
  void submit_service(int worker, int segment, VDur home_time, int64_t then_sleep_ns = 0);
  int64_t sleep_ns_for(VDur virt) const;
  int64_t home_sleep_ns_for(VDur virt) const;

  WallClockOptions wopt_;
  mig::HomeShardMap shard_map_;
  /// The ordered home lock.  Non-recursive: nested entry is detected
  /// through a thread-local (see acquire) instead of re-locking.
  mutable Mutex order_mu_;
  /// One stripe per home shard (unique_ptr: mutexes do not move).
  std::vector<std::unique_ptr<Stripe>> stripes_;
  /// Declared after the stripes so its threads join before they go.
  std::unique_ptr<ThreadPool> pool_;

  std::chrono::steady_clock::time_point round_t0_{};
  std::vector<double> wall_completed_ms_;
  double last_round_wall_ms_ = 0;
};

}  // namespace sod::cluster
