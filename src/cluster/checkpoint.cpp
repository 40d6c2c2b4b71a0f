#include "cluster/checkpoint.h"

#include <utility>

namespace sod::cluster {

void CheckpointStore::record(int round, int segment, mig::SegmentCheckpoint ckpt, int attempt,
                             VDur taken_at) {
  auto key = std::pair(round, segment);
  auto it = entries_.find(key);
  int seq = it == entries_.end() ? 1 : it->second.seq + 1;
  total_bytes_ += ckpt.state_bytes + ckpt.heap_bytes;
  ++total_recorded_;
  entries_[key] = Entry{std::move(ckpt), attempt, seq, taken_at};
}

const CheckpointStore::Entry* CheckpointStore::latest(int round, int segment) const {
  auto it = entries_.find(std::pair(round, segment));
  return it == entries_.end() ? nullptr : &it->second;
}

void CheckpointStore::drop(int round, int segment) {
  entries_.erase(std::pair(round, segment));
}

void AttemptTracker::observe(uint16_t cls, VDur ref_span) {
  if (ref_span.ns < 0) return;
  double observed = static_cast<double>(ref_span.ns);
  auto [it, fresh] = ewma_ns_.try_emplace(cls, observed);
  if (!fresh) it->second = kAlpha * observed + (1.0 - kAlpha) * it->second;
}

bool AttemptTracker::straggler(uint16_t cls, VDur age) const {
  auto it = ewma_ns_.find(cls);
  if (it == ewma_ns_.end()) return false;
  return static_cast<double>(age.ns) > kStragglerFactor * it->second;
}

}  // namespace sod::cluster
