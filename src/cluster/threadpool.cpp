#include "cluster/threadpool.h"

#include <utility>

#include "support/panic.h"

namespace sod::cluster {

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::submit(size_t lane, std::function<void()> job) {
  {
    MutexLock lk(mu_);
    SOD_CHECK(!stop_, "submit after shutdown");
    if (lanes_.size() <= lane) lanes_.resize(lane + 1);
    lanes_[lane].q.push_back(std::move(job));
    ++pending_;
  }
  cv_work_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lk(mu_);
  while (pending_ != 0) cv_idle_.wait(lk);
}

size_t ThreadPool::find_runnable() const {
  for (size_t i = 0; i < lanes_.size(); ++i) {
    if (!lanes_[i].claimed && !lanes_[i].q.empty()) return i;
  }
  return npos;
}

void ThreadPool::worker_main() {
  MutexLock lk(mu_);
  while (true) {
    // Explicit wait loop (no predicate lambda): the thread-safety analysis
    // can track the scoped lock through condition_variable_any::wait, but
    // not a capture that touches guarded members from a nested closure.
    size_t lane = find_runnable();
    while (lane == npos && !(stop_ && pending_ == 0)) {
      cv_work_.wait(lk);
      lane = find_runnable();
    }
    if (lane == npos) return;  // shutdown and nothing left to run

    // Claim the lane and drain it FIFO.  Jobs submitted to this lane while
    // we drain are picked up in the same pass; other lanes stay available
    // to the remaining pool threads.
    lanes_[lane].claimed = true;
    while (!lanes_[lane].q.empty()) {
      std::function<void()> job = std::move(lanes_[lane].q.front());
      lanes_[lane].q.pop_front();
      lk.unlock();
      job();
      lk.lock();
      SOD_CHECK(pending_ > 0, "pending underflow");
      if (--pending_ == 0) {
        cv_idle_.notify_all();
        cv_work_.notify_all();  // let waiting threads observe shutdown
      } else {
        // A finished job may have unblocked work on other lanes (it can
        // submit jobs during execution); wake a sibling to look.
        cv_work_.notify_one();
      }
    }
    lanes_[lane].claimed = false;
  }
}

}  // namespace sod::cluster
