#include "cluster/checkpoint.h"

#include <utility>

namespace sod::cluster {

void CheckpointStore::configure(const mig::HomeShardMap* map) {
  map_ = map;
  parts_.assign(map != nullptr ? static_cast<size_t>(map->shards()) : 1, {});
  total_recorded_ = 0;
  total_bytes_ = 0;
}

CheckpointStore::Part& CheckpointStore::part(int round, int segment) {
  size_t shard =
      map_ != nullptr ? static_cast<size_t>(map_->shard_of_segment(round, segment)) : 0;
  return parts_[shard];
}

const CheckpointStore::Part& CheckpointStore::part(int round, int segment) const {
  size_t shard =
      map_ != nullptr ? static_cast<size_t>(map_->shard_of_segment(round, segment)) : 0;
  return parts_[shard];
}

void CheckpointStore::record(int round, int segment, mig::SegmentCheckpoint ckpt, int attempt,
                             VDur taken_at) {
  Part& p = part(round, segment);
  auto key = std::pair(round, segment);
  auto it = p.find(key);
  int seq = it == p.end() ? 1 : it->second.seq + 1;
  total_bytes_ += ckpt.state_bytes + ckpt.heap_bytes;
  ++total_recorded_;
  p[key] = Entry{std::move(ckpt), attempt, seq, taken_at};
}

const CheckpointStore::Entry* CheckpointStore::latest(int round, int segment) const {
  const Part& p = part(round, segment);
  auto it = p.find(std::pair(round, segment));
  return it == p.end() ? nullptr : &it->second;
}

void CheckpointStore::drop(int round, int segment) {
  part(round, segment).erase(std::pair(round, segment));
}

int CheckpointStore::live() const {
  int n = 0;
  for (const Part& p : parts_) n += static_cast<int>(p.size());
  return n;
}

void AttemptTracker::observe(uint16_t cls, VDur ref_span) {
  if (ref_span.ns < 0) return;
  double observed = static_cast<double>(ref_span.ns);
  auto [it, fresh] = ewma_ns_.try_emplace(cls, observed);
  if (!fresh) it->second = cfg_.alpha * observed + (1.0 - cfg_.alpha) * it->second;
}

VDur AttemptTracker::expected_span(uint16_t cls) const {
  auto it = ewma_ns_.find(cls);
  return it == ewma_ns_.end() ? VDur{} : VDur::nanos(static_cast<int64_t>(it->second));
}

bool AttemptTracker::straggler(uint16_t cls, VDur age) const {
  auto it = ewma_ns_.find(cls);
  if (it == ewma_ns_.end()) return false;
  return static_cast<double>(age.ns) > cfg_.straggler_factor * it->second;
}

}  // namespace sod::cluster
