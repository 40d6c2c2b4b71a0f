// Virtual time.
//
// All distributed experiments in this reproduction run in virtual time:
// guest execution charges instruction costs, tool-interface calls charge
// calibrated per-call costs, and network transfers charge size/bandwidth
// plus latency.  Each simulated node owns a VClock; message delivery uses
// max(sender-ready, receiver-now) + transfer-time, which is what lets the
// Fig. 1(c) workflow experiments show freeze-time hiding.
#pragma once

#include <algorithm>
#include <cstdint>

namespace sod {

/// Nanosecond-resolution virtual duration / instant.
struct VDur {
  int64_t ns = 0;

  static VDur nanos(int64_t v) { return {v}; }
  static VDur micros(double v) { return {static_cast<int64_t>(v * 1e3)}; }
  static VDur millis(double v) { return {static_cast<int64_t>(v * 1e6)}; }
  static VDur seconds(double v) { return {static_cast<int64_t>(v * 1e9)}; }

  double us() const { return static_cast<double>(ns) / 1e3; }
  double ms() const { return static_cast<double>(ns) / 1e6; }
  double sec() const { return static_cast<double>(ns) / 1e9; }

  VDur operator+(VDur o) const { return {ns + o.ns}; }
  VDur operator-(VDur o) const { return {ns - o.ns}; }
  VDur& operator+=(VDur o) {
    ns += o.ns;
    return *this;
  }
  auto operator<=>(const VDur&) const = default;
};

/// Per-node virtual clock.
class VClock {
 public:
  VDur now() const { return now_; }
  void advance(VDur d) { now_ += d; }
  /// Wait until at least `t` (no-op if already past it).
  void wait_until(VDur t) { now_ = std::max(now_, t); }
  /// Context switch: the clock takes up another timeline at its instant
  /// `t`, earlier or later.  Several timelines that share one node take
  /// turns this way (sim::CpuCalendar keeps their CPU work apart); a
  /// single timeline never needs it.
  void set(VDur t) { now_ = t; }

 private:
  VDur now_{};
};

}  // namespace sod
