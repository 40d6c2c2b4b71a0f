#include "cluster/wallclock.h"

#include <algorithm>
#include <condition_variable>
#include <thread>
#include <utility>

namespace sod::cluster {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

void sleep_ns(int64_t ns) {
  if (ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

/// Which engine's ordered lock this thread is inside (null when none).
/// The gate protocol's nested-section detection: a gate acquire from the
/// home thread, which holds the ordered lock for the round (restores,
/// write-backs, and checkpoints resolving stubs or fetching classes), must
/// take nothing, and the runtime checks below enforce the no-re-entry and
/// one-stripe rules the static analysis cannot see.
thread_local const void* tl_ordered_owner = nullptr;
/// Stripes this thread holds (0 or 1 by protocol rule; checked).
thread_local int tl_stripe_depth = 0;

}  // namespace

WallClockEngine::WallClockEngine(Cluster& c, PlacementPolicy& policy, WallClockOptions opt,
                                 DispatchOptions dispatch)
    : Scheduler(c, policy, dispatch), wopt_(opt), shard_map_(c.shard_map()) {
  stripes_.reserve(static_cast<size_t>(shard_map_.shards()));
  for (int s = 0; s < shard_map_.shards(); ++s) stripes_.push_back(std::make_unique<Stripe>());
}

WallClockEngine::~WallClockEngine() = default;

int64_t WallClockEngine::sleep_ns_for(VDur virt) const {
  double ns = wopt_.dilation * static_cast<double>(virt.ns);
  return ns > 0 ? static_cast<int64_t>(ns) : 0;
}

int64_t WallClockEngine::home_sleep_ns_for(VDur virt) const {
  double scale = wopt_.home_dilation < 0 ? wopt_.dilation : wopt_.home_dilation;
  double ns = scale * static_cast<double>(virt.ns);
  return ns > 0 ? static_cast<int64_t>(ns) : 0;
}

void WallClockEngine::lock_ordered() {
  SOD_CHECK(tl_ordered_owner != this, "home ordered lock re-entered on one thread");
  order_mu_.lock();
  tl_ordered_owner = this;
}

void WallClockEngine::unlock_ordered() {
  tl_ordered_owner = nullptr;
  order_mu_.unlock();
}

void WallClockEngine::lock_stripe(int shard) {
  Stripe& s = *stripes_[static_cast<size_t>(shard)];
  if (s.mu.try_lock()) {
    ++s.stats.acquisitions;
    uint64_t queued = s.waiters.load(std::memory_order_relaxed);
    if (queued > s.stats.max_queue) s.stats.max_queue = queued;
    return;
  }
  uint64_t queued = s.waiters.fetch_add(1, std::memory_order_relaxed) + 1;
  auto t0 = std::chrono::steady_clock::now();
  s.mu.lock();
  auto waited = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           t0)
          .count());
  s.waiters.fetch_sub(1, std::memory_order_relaxed);
  ++s.stats.acquisitions;
  ++s.stats.contended;
  s.stats.wait_ns += waited;
  if (waited > s.stats.max_wait_ns) s.stats.max_wait_ns = waited;
  if (queued > s.stats.max_queue) s.stats.max_queue = queued;
}

void WallClockEngine::unlock_stripe(int shard) {
  stripes_[static_cast<size_t>(shard)]->mu.unlock();
}

void WallClockEngine::submit_service(int worker, int segment, VDur home_time,
                                     int64_t then_sleep_ns) {
  int shard = shard_map_.shard_of_segment(rounds() - 1, segment);
  int64_t serve_ns = home_sleep_ns_for(home_time);
  // ThreadPool::submit grows the lane set on demand, which covers a
  // worker the autoscaler joined mid-round.
  pool_->submit(static_cast<size_t>(worker), [this, shard, serve_ns, then_sleep_ns] {
    SOD_CHECK(tl_ordered_owner != this, "stripe service while holding the ordered lock");
    SOD_CHECK(tl_stripe_depth == 0, "stripe service while holding a stripe");
    // Services of segments mapped to other home shards overlap this
    // window; services on the same shard convoy.
    lock_stripe(shard);
    sleep_ns(serve_ns);
    unlock_stripe(shard);
    sleep_ns(then_sleep_ns);
  });
}

void WallClockEngine::on_ship(int segment, int worker, VDur serde, VDur transfer) {
  // The virtual ship and restore were already charged on the home thread;
  // the lane replays the serialization window and the transfer in wall
  // time, ahead of the segment's first guest job.
  submit_service(worker, segment, serde, sleep_ns_for(transfer));
}

void WallClockEngine::on_write_back(int segment, int worker, VDur serde) {
  wall_completed_ms_[static_cast<size_t>(segment)] = ms_since(round_t0_);
  // Home-side apply of the landed write-back: applies on other shards
  // overlap this wall window.
  submit_service(worker, segment, serde);
}

void WallClockEngine::run_guest(int worker, VDur relay, const std::function<void()>& guest) {
  int64_t relay_ns = sleep_ns_for(relay);
  Mutex mu;
  std::condition_variable_any cv;
  bool done = false;
  pool_->submit(static_cast<size_t>(worker), [&] {
    sleep_ns(relay_ns);
    // Faults and class loads self-gate through the home gate (stripe ->
    // ordered); this lane owns the worker node while the home thread waits.
    guest();
    MutexLock lk(mu);
    done = true;
    cv.notify_one();  // under the lock: the waiter's frame owns cv
  });
  unlock_ordered();
  {
    MutexLock lk(mu);
    while (!done) cv.wait(lk);
  }
  lock_ordered();
}

mig::HomeGate::Section WallClockEngine::acquire(uint32_t key)
    SOD_NO_THREAD_SAFETY_ANALYSIS {
  mig::HomeGate::Section s;
  if (tl_ordered_owner == this) {
    // The home thread inside its round: hold nothing, every op is a no-op.
    s.nested = true;
    return s;
  }
  SOD_CHECK(tl_stripe_depth == 0, "gate section opened while already holding a stripe");
  s.shard = shard_map_.shard_of(key);
  lock_stripe(s.shard);
  ++tl_stripe_depth;
  order_mu_.lock();
  tl_ordered_owner = this;
  s.ordered_live = true;
  return s;
}

void WallClockEngine::service(mig::HomeGate::Section& s, VDur home_time)
    SOD_NO_THREAD_SAFETY_ANALYSIS {
  if (s.nested) return;
  SOD_CHECK(s.ordered_live, "gate service after release or double service");
  tl_ordered_owner = nullptr;
  order_mu_.unlock();
  s.ordered_live = false;
  sleep_ns(home_sleep_ns_for(home_time));
}

void WallClockEngine::release(mig::HomeGate::Section& s) SOD_NO_THREAD_SAFETY_ANALYSIS {
  if (s.nested) return;
  if (s.ordered_live) {
    tl_ordered_owner = nullptr;
    order_mu_.unlock();
    s.ordered_live = false;
  }
  if (s.shard >= 0) {
    unlock_stripe(s.shard);
    --tl_stripe_depth;
    s.shard = -1;
  }
}

std::vector<mig::ShardContention> WallClockEngine::shard_contention() const {
  std::vector<mig::ShardContention> out;
  out.reserve(stripes_.size());
  for (const auto& s : stripes_) {
    MutexLock lk(s->mu);
    out.push_back(s->stats);
  }
  return out;
}

mig::ShardContention WallClockEngine::total_contention() const {
  mig::ShardContention total;
  for (const mig::ShardContention& s : shard_contention()) total += s;
  return total;
}

DispatchOutcome WallClockEngine::run(int home_tid, const std::vector<mig::SegmentSpec>& specs) {
  if (!pool_) {
    int threads = wopt_.threads > 0 ? wopt_.threads : std::max(1, cluster().size());
    pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(threads));
  }
  wall_completed_ms_.assign(specs.size(), 0.0);
  round_t0_ = std::chrono::steady_clock::now();
  lock_ordered();
  DispatchOutcome out = Scheduler::run(home_tid, specs);
  unlock_ordered();
  // Ship and write-back services still queued on lanes (the bottom
  // segment's trailing write-back at least) finish inside the round.
  pool_->wait_idle();
  last_round_wall_ms_ = ms_since(round_t0_);
  return out;
}

}  // namespace sod::cluster
