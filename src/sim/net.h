// Cluster / network simulation.
//
// Every node owns a virtual clock; every link has bandwidth and latency.
// Message timing follows the classic distributed-virtual-time rule
//     arrival = max(dst.now, src.now + latency + bytes/bandwidth)
// which is what produces the latency-hiding behaviour of the paper's
// Fig. 1(c) workflow experiments: a segment pushed early restores while an
// upstream segment is still executing.
//
// Guest execution charges node time as instructions x per-instruction cost
// x the node's cpu_scale (device profiles: cluster Xeon vs iPhone ARM).
// Every charge is CPU work and goes through Node::busy, which books it on
// the node's one core (sim/calendar.h); waiting for a message is not CPU
// work and only moves the clock.
#pragma once

#include <string>
#include <vector>

#include "sim/calendar.h"
#include "support/panic.h"
#include "support/vclock.h"

namespace sod::sim {

struct Link {
  double bandwidth_bps = 1e9;  ///< bits per second (Gigabit default)
  VDur latency = VDur::micros(100);

  static Link gigabit() { return Link{1e9, VDur::micros(100)}; }
  static Link wifi_kbps(double kbps) { return Link{kbps * 1000.0, VDur::millis(5)}; }

  VDur transfer_time(size_t bytes) const {
    return latency + VDur::seconds(static_cast<double>(bytes) * 8.0 / bandwidth_bps);
  }
};

struct Node {
  std::string name;
  VClock clock;
  /// The node's one core: every CPU charge below is booked here.
  CpuCalendar cpu;
  /// Execution-speed multiplier relative to the reference cluster node
  /// (iPhone-3G-like device: ~25; cluster Xeon: 1).
  double cpu_scale = 1.0;
  /// Per-guest-instruction cost on the reference node in "JIT mode".
  VDur instr_cost = VDur::nanos(2);
  /// Slowdown while the debug interpreter is active (mixed-mode penalty).
  double debug_multiplier = 10.0;

  /// Spend `d` of CPU: the work starts at the first instant at or after
  /// now that the core is free for all of `d`, and the clock moves to its
  /// end.  The one path by which CPU work reaches a clock.
  void busy(VDur d) { clock.wait_until(cpu.book(clock.now(), d) + d); }
  /// Charge `n` interpreted instructions (debug selects the mode).
  void charge_instrs(uint64_t n, bool debug = false) {
    double ns = static_cast<double>(n) * static_cast<double>(instr_cost.ns) * cpu_scale;
    if (debug) ns *= debug_multiplier;
    busy(VDur::nanos(static_cast<int64_t>(ns)));
  }
  /// Charge host-side work (serialization, allocation) scaled by CPU.
  void charge_host(VDur d) {
    busy(VDur::nanos(static_cast<int64_t>(static_cast<double>(d.ns) * cpu_scale)));
  }
};

/// Send `bytes` from src to dst over `l`; advances dst's clock to the
/// arrival instant and returns it.  src's clock is not advanced (sends are
/// asynchronous; the sender continues).
inline VDur deliver(const Node& src, Node& dst, const Link& l, size_t bytes) {
  VDur arrival = src.clock.now() + l.transfer_time(bytes);
  dst.clock.wait_until(arrival);
  return dst.clock.now();
}

/// Synchronous round trip: src asks dst for `resp_bytes` with a small
/// request; src blocks until the response arrives.  Returns the new time
/// at src.  `dst_service` is the virtual service time dst's CPU spends.
inline VDur round_trip(Node& src, Node& dst, const Link& l, size_t req_bytes, size_t resp_bytes,
                       VDur dst_service) {
  VDur req_arrival = src.clock.now() + l.transfer_time(req_bytes);
  dst.clock.wait_until(req_arrival);
  dst.busy(dst_service);
  VDur resp_arrival = dst.clock.now() + l.transfer_time(resp_bytes);
  src.clock.wait_until(resp_arrival);
  return src.clock.now();
}

/// Serialization throughput model (Java serialization in the paper):
/// bytes -> host time.
struct SerdeModel {
  double bytes_per_sec = 400e6;  ///< serialize throughput
  VDur per_object = VDur::micros(2);

  VDur cost(size_t bytes, int objects = 1) const {
    return VDur::seconds(static_cast<double>(bytes) / bytes_per_sec) +
           VDur::nanos(per_object.ns * objects);
  }
};

}  // namespace sod::sim
