// Home sharding primitives — the deterministic shard map and the gate
// interface that serializes worker-lane access to home-side state.
//
// A HomeShardMap assigns every home-side key (object ref, class id,
// (round, segment) pair) to one of N shards with a stable hash fixed at
// program attach, so the assignment never depends on arrival order, thread
// interleaving, or platform hash seeds.  A shard is a lock, not a data
// layout: the wall-clock engine keeps one stripe mutex per shard and
// serializes each key's wall-time service windows on its stripe.  The
// tables those keys index stay single containers: the ordered lock (home
// state) or the segment's one lane (a segment's home-object table)
// already serializes every access to them.
//
// A HomeGate is the wall-clock engine's two-level lock protocol, seen from
// the sod layer (ObjectManager faults, the on-demand class fetch hook)
// without a dependency on the cluster layer:
//
//   acquire(key)   take the key's stripe lock, then the single ordered
//                  lock.  Home virtual-clock accounting, tool-interface
//                  reads, and heap access all happen inside this window,
//                  so they stay on one totally ordered path and the
//                  virtual-time results are bit-identical at any shard
//                  count.  Calls from a thread already inside the engine's
//                  ordered section return a nested no-op section.
//   service(d)     drop the ordered lock and sleep the wall twin of the
//                  home-side service time `d` holding only the stripe:
//                  services of different shards overlap, services of the
//                  same shard convoy — the contention the shard sweep
//                  measures.  Purely wall-side; no virtual clock moves.
//   release()      drop whatever the section still holds.
//
// Lock order is always stripe -> ordered, a thread holds at most one
// stripe, and nested sections take nothing — the three rules that make
// the protocol deadlock-free (see ARCHITECTURE.md "Home sharding").
//
// The virtual-time scheduler installs no gate; a null gate makes every
// GateSection a no-op, preserving the single-threaded fast path.
#pragma once

#include <cstdint>

#include "support/panic.h"
#include "support/vclock.h"

namespace sod::mig {

/// Deterministic key -> shard assignment, fixed at program attach.
class HomeShardMap {
 public:
  static constexpr int kMinShards = 1;
  static constexpr int kMaxShards = 64;

  explicit HomeShardMap(int shards = 1) : shards_(shards) {
    SOD_CHECK(shards >= kMinShards && shards <= kMaxShards,
              "home shard count out of range (1..64)");
  }

  int shards() const { return shards_; }

  /// Stable 32-bit mix (splitmix-style finalizer) -> shard index.  No
  /// std::hash: the assignment must be identical across platforms and
  /// library versions for the replay tables to be reproducible.
  int shard_of(uint32_t key) const {
    uint32_t x = key;
    x ^= x >> 16;
    x *= 0x7feb352dU;
    x ^= x >> 15;
    x *= 0x846ca68bU;
    x ^= x >> 16;
    return static_cast<int>(x % static_cast<uint32_t>(shards_));
  }

  // Key constructors per domain, tagged so e.g. class 7 and home ref 7
  // do not systematically alias onto one stripe.
  static uint32_t key_ref(uint32_t home_ref) { return home_ref; }
  static uint32_t key_class(uint16_t cls) { return 0x40000000U | cls; }
  static uint32_t key_segment(int round, int segment) {
    return 0x80000000U |
           ((static_cast<uint32_t>(round) << 12) ^ static_cast<uint32_t>(segment));
  }

  int shard_of_segment(int round, int segment) const {
    return shard_of(key_segment(round, segment));
  }

 private:
  int shards_;
};

/// Per-stripe lock telemetry (wall-clock engine).  `acquisitions` is
/// deterministic for a failure-free replay (one per gate section / service
/// window); the wait-side counters depend on real interleaving and are
/// surfaced under wall_* / *_ns column names.
struct ShardContention {
  uint64_t acquisitions = 0;  ///< stripe lock acquisitions
  uint64_t contended = 0;     ///< acquisitions that found the stripe held
  uint64_t wait_ns = 0;       ///< total wall nanoseconds spent waiting
  uint64_t max_wait_ns = 0;   ///< worst single wait
  uint64_t max_queue = 0;     ///< most waiters ever queued behind the stripe

  ShardContention& operator+=(const ShardContention& o) {
    acquisitions += o.acquisitions;
    contended += o.contended;
    wait_ns += o.wait_ns;
    if (o.max_wait_ns > max_wait_ns) max_wait_ns = o.max_wait_ns;
    if (o.max_queue > max_queue) max_queue = o.max_queue;
    return *this;
  }
};

/// The two-level home lock protocol, implemented by the wall-clock engine.
class HomeGate {
 public:
  /// One acquire..release window.  `nested` sections (opened from a thread
  /// already inside the engine's ordered section) hold nothing and every
  /// operation on them is a no-op.
  struct Section {
    int shard = -1;
    bool nested = false;
    bool ordered_live = false;  ///< ordered lock still held (pre-service)
  };

  virtual ~HomeGate() = default;

  /// Stripe(shard_of(key)) -> ordered lock, in that order.
  virtual Section acquire(uint32_t key) = 0;
  /// Drops the ordered lock and sleeps the dilated wall twin of `home_time`
  /// holding only the stripe.  At most once per section.
  virtual void service(Section& s, VDur home_time) = 0;
  /// Releases the section (ordered first if still held, then the stripe).
  virtual void release(Section& s) = 0;
};

/// RAII section over an optional gate: a null gate (virtual-time mode)
/// makes construction, service, and destruction no-ops.
class GateSection {
 public:
  GateSection(HomeGate* gate, uint32_t key) : gate_(gate) {
    if (gate_ != nullptr) s_ = gate_->acquire(key);
  }
  ~GateSection() {
    if (gate_ != nullptr) gate_->release(s_);
  }
  void service(VDur home_time) {
    if (gate_ != nullptr) gate_->service(s_, home_time);
  }
  GateSection(const GateSection&) = delete;
  GateSection& operator=(const GateSection&) = delete;

 private:
  HomeGate* gate_;
  HomeGate::Section s_{};
};

}  // namespace sod::mig
