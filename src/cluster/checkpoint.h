// Checkpoint support — the recovery half of the cluster scheduler.
//
// A CheckpointStore lives on the home node: workers periodically
// re-capture a running segment's state at migration-safe points
// (mig::checkpoint_segment) and ship it home; the store keeps the newest
// checkpoint per (round, segment) so a failure re-dispatch *resumes*
// partial work instead of re-executing from the original capture, and a
// speculative backup attempt starts from the same state on another
// worker.  Boxer (arXiv:2407.00832) argues elasticity pays off only when
// recovery latency is small — resuming is what makes it small.
#pragma once

#include <cstdint>
#include <map>

#include "sod/migrate.h"

namespace sod::cluster {

/// Home-side store of the newest checkpoint per (round, segment).  It is
/// home state: every access runs on the home thread, under the wall-clock
/// engine's ordered home lock, so the store itself needs no lock.
class CheckpointStore {
 public:
  struct Entry {
    mig::SegmentCheckpoint ckpt;
    int attempt = 0;   ///< attempt id that produced the checkpoint
    int seq = 0;       ///< per-segment checkpoint counter (1-based)
    VDur taken_at{};   ///< home clock when the checkpoint landed
  };

  /// Records `ckpt` as the newest checkpoint of (round, segment),
  /// replacing any older one.
  void record(int round, int segment, mig::SegmentCheckpoint ckpt, int attempt, VDur taken_at);

  /// Newest checkpoint of (round, segment); nullptr when none was taken.
  const Entry* latest(int round, int segment) const;

  /// Drops (round, segment)'s checkpoint — called once the segment's
  /// write-back landed, so the store stays bounded by the in-flight set.
  void drop(int round, int segment);

  /// Checkpoints recorded over the store's lifetime.
  int total_recorded() const { return total_recorded_; }
  /// Wire bytes shipped home for checkpoints (state + heap deltas).
  size_t total_bytes() const { return total_bytes_; }
  /// Entries currently held.
  int live() const { return static_cast<int>(entries_.size()); }

 private:
  std::map<std::pair<int, int>, Entry> entries_;
  int total_recorded_ = 0;
  size_t total_bytes_ = 0;
};

}  // namespace sod::cluster
