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

}  // namespace sod::cluster
