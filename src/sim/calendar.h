// CpuCalendar — the busy intervals of one simulated CPU core.
//
// A node's clock says where one line of control is in virtual time; the
// calendar says when the node's core is taken.  Several lines of control
// share a core when they take turns on the node's clock (the load
// generator switches home's clock between its sessions' timelines, and a
// worker's clock back to an earlier session's), so the core is booked,
// not just advanced: a booking starts at the first instant the core is
// free for its whole duration, filling gaps other timelines left, and
// never preempts or overlaps a booked interval.  On a node whose clock
// only moves forward every booking lands at `ready` — nothing is booked
// after now — so a single line of control is charged exactly as if it
// advanced its clock.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <vector>

#include "support/panic.h"
#include "support/vclock.h"

namespace sod::sim {

class CpuCalendar {
 public:
  /// Books `d` of CPU at the earliest start >= `ready` such that
  /// [start, start + d) overlaps no booked interval; returns the start.
  /// Zero work needs no core and starts at `ready`.
  VDur book(VDur ready, VDur d) {
    SOD_CHECK(d.ns >= 0, "negative CPU booking");
    if (d.ns == 0) return ready;
    booked_ += d;
    // Skip everything that is over by `ready`, then take the first gap.
    auto it = taken_.begin() + static_cast<std::ptrdiff_t>(ended_by(ready));
    VDur start = ready;
    while (it != taken_.end() && it->start < start + d) {
      start = std::max(start, it->end);
      ++it;
    }
    const VDur end = start + d;
    // Touching intervals merge, so a back-to-back run of charges is one
    // entry.
    const bool joins_prev = it != taken_.begin() && std::prev(it)->end == start;
    const bool joins_next = it != taken_.end() && it->start == end;
    if (joins_prev && joins_next) {
      std::prev(it)->end = it->end;
      taken_.erase(it);
    } else if (joins_prev) {
      std::prev(it)->end = end;
    } else if (joins_next) {
      it->start = start;
    } else {
      taken_.insert(it, Interval{start, end});
    }
    return start;
  }

  /// Drops every interval that ends at or before `t`: a caller that will
  /// never book with `ready < t` again loses nothing.
  void forget_before(VDur t) {
    taken_.erase(taken_.begin(), taken_.begin() + static_cast<std::ptrdiff_t>(ended_by(t)));
  }

  /// The first instant at or after `t` the core is not busy.
  VDur free_from(VDur t) const {
    const size_t k = ended_by(t);
    return k < taken_.size() && taken_[k].start <= t ? taken_[k].end : t;
  }

  /// Total CPU time ever booked (forgotten intervals included).
  VDur booked() const { return booked_; }

 private:
  struct Interval {
    VDur start, end;
  };
  /// How many intervals end at or before `t`.  Intervals are disjoint and
  /// sorted, so their ends are sorted too and those come first.
  size_t ended_by(VDur t) const {
    return static_cast<size_t>(
        std::partition_point(taken_.begin(), taken_.end(),
                             [t](const Interval& iv) { return iv.end <= t; }) -
        taken_.begin());
  }
  std::vector<Interval> taken_;  ///< disjoint, sorted by start
  VDur booked_{};
};

}  // namespace sod::sim
