// Worker thread pool for the wall-clock execution engine.
//
// The pool owns N OS threads multiplexed over per-lane FIFO job queues —
// one lane per cluster worker (the paper's one-JVM-per-node shape).  Jobs
// on the same lane never run concurrently and always run in submission
// order, because a worker SodNode is single-threaded state: a lane is
// *claimed* by exactly one pool thread, drained FIFO, then released.
// Cross-lane jobs run genuinely in parallel, which is what turns the
// simulator's overlapped virtual intervals into real overlapped wall time.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/thread_annotations.h"

namespace sod::cluster {

class ThreadPool {
 public:
  /// Spawns `threads` OS threads (at least 1).
  explicit ThreadPool(size_t threads);
  /// Finishes all queued jobs, then joins the threads.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue `job` on `lane` (FIFO within the lane), creating the lane if
  /// it does not exist yet.  Thread-safe; may be called from pool threads
  /// themselves.
  void submit(size_t lane, std::function<void()> job);

  /// Block until every submitted job has finished running.
  void wait_idle();

  size_t threads() const { return workers_.size(); }

 private:
  struct Lane {
    std::deque<std::function<void()>> q;
    bool claimed = false;  ///< a pool thread is draining this lane
  };

  void worker_main();
  /// Returns the index of an unclaimed lane with queued work, or npos.
  size_t find_runnable() const SOD_REQUIRES(mu_);

  static constexpr size_t npos = static_cast<size_t>(-1);

  mutable Mutex mu_;
  std::condition_variable_any cv_work_;  ///< lane became runnable / shutdown
  std::condition_variable_any cv_idle_;  ///< pending_ hit zero
  std::vector<Lane> lanes_ SOD_GUARDED_BY(mu_);
  size_t pending_ SOD_GUARDED_BY(mu_) = 0;  ///< queued + running jobs
  bool stop_ SOD_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace sod::cluster
