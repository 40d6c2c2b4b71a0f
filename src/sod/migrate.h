// Migration manager — the SOD protocol (paper Sections III.A–III.B).
//
//   capture   : suspend at a migration-safe point, walk the top segment of
//               frames through the tool interface (GetFrameLocation,
//               GetLocal<T> ...), null out references, save statics.
//   transfer  : ship the CapturedState's wire bytes (+ the entry frame's
//               class image, or fetch it on demand) to the destination over
//               a simulated link.  hop() is this step plus restore; every
//               migrated segment takes that one path.
//   restore   : breakpoint-and-exception driven, frame by frame (Fig. 4b):
//               breakpoint at the method entry, throw InvalidStateException,
//               the injected handler re-reads locals + pc and jumps; the
//               re-executed statement re-invokes the next frame's method.
//   run       : fast mode; object misses repair themselves through the
//               object manager's fault natives.
//   write-back: updated objects + the segment's return value go home; home
//               pops the outdated frames with PopFrame/ForceEarlyReturn and
//               resumes the residual stack.
//
// Segment::deliver() implements the multi-segment flows of Fig. 1(b)/(c):
// a lower segment restored elsewhere completes its pending call with the
// upper segment's result via breakpoint + ForceEarlyReturn.
#pragma once

#include <optional>
#include <unordered_map>

#include "sod/objman.h"

namespace sod::mig {

struct MigrationTiming {
  VDur capture{};   ///< home clock: the capture walk (if any) + serializing the state
  VDur transfer{};  ///< send instant to arrival on the destination clock
  VDur restore{};   ///< destination clock: restoration, on-demand class fetches included
  VDur serde{};     ///< modelled serialization cost, before CPU scaling or core waits
  size_t state_bytes = 0;
  size_t class_bytes = 0;  ///< entry class image shipped with the state (0: fetched on demand)
  VDur latency() const { return capture + transfer + restore; }
};

/// Home frame depths [depth_lo, depth_hi), 0 = top of stack.
struct SegmentSpec {
  int depth_lo = 0;
  int depth_hi = 1;
  int len() const { return depth_hi - depth_lo; }
};

/// Capture a segment from a paused thread.  The thread's *top* frame must
/// be at an MSP when depth_lo == 0; deeper frames are always capturable
/// (their pc maps to the statement of their pending INVOKE).
CapturedState capture_segment(SodNode& home, int home_tid, SegmentSpec seg);

/// One migrated segment living on a destination node.
class Segment {
 public:
  explicit Segment(SodNode& dest);

  /// Restore `cs` on the destination (breakpoint + InvalidStateException
  /// protocol).  Leaves the thread ready: run() executes it.
  void restore(const CapturedState& cs);

  /// For lower segments (Fig. 1b/1c): run until the pending call of the
  /// restored top frame is re-invoked, then complete it with `v`.
  void deliver(Value v);

  /// Run to completion in fast mode; returns the segment bottom frame's
  /// return value.
  Value run_to_completion();

  /// Chunked execution (the checkpoint/speculation driver): run at most
  /// `budget` guest instructions in fast mode; when the budget expires,
  /// coast under the debug interpreter to the next migration-safe point
  /// (the paper's mixed-mode switch around migration events).  Returns
  /// Done (finished, see result()) or SafePoint (paused at an MSP, the
  /// thread is checkpointable via checkpoint_segment).
  svm::StopReason run_chunk(uint64_t budget);

  /// Bottom-frame return value once a run reported Done.
  Value result() const;

  int tid() const { return tid_; }
  SodNode& dest() { return *dest_; }
  ObjectManager& objman() { return om_; }

 private:
  struct Cursor {
    const CapturedFrame* frame = nullptr;
    bool home_refs = false;
  };
  void install_cs_natives();
  /// Panics with the guest exception if a run of this segment crashed.
  void panic_if_crashed(svm::StopReason reason) const;

  SodNode* dest_;
  ObjectManager om_;
  Cursor cursor_;
  int tid_ = -1;
  uint16_t pending_callee_ = bc::kNoId;
  bool debug_held_ = false;
};

/// One migration hop (paper Sections III.A–B): home pays the serialization
/// cost of the captured `state` bytes and ships them to the segment's node,
/// together with the entry frame's class image when `ship_class` is set
/// (otherwise that class is fetched on demand like any other).  Class
/// fetches go through the segment's home gate.  Then `seg` — built by the
/// caller, who may set its gate or prefetch depth and install mounts first
/// — is bound to home frames [.., depth_hi) of `home_tid` and restores
/// what arrived.
MigrationTiming hop(SodNode& home, int home_tid, int depth_hi, std::span<const uint8_t> state,
                    Segment& seg, sim::Link link, bool ship_class);

/// Single-segment hop: capture frames `spec` of the paused home thread,
/// turn home's debug interface off (the paper keeps it off outside
/// migration events), and hop the wire form into `seg`.  timing.capture
/// includes the capture walk.
MigrationTiming migrate(SodNode& home, int home_tid, SegmentSpec spec, Segment& seg,
                        sim::Link link, bool ship_class);

/// A write-back whose creations do not fit home's heap budget.
struct HeapShortfall {
  size_t needed = 0;  ///< bytes the created objects would take at home
  size_t free = 0;    ///< bytes left under home's heap limit
};

/// Ship updated objects + result home; pop the segment's outdated frames
/// (ForceEarlyReturn); returns the result value translated into home refs.
/// After this the home thread is runnable (or Done if the segment was the
/// whole stack).  With frames_to_pop == 0 the home stack is left untouched
/// — an updates-only write-back, used by cluster dispatch for the upper
/// segments of a multi-segment split.
struct WriteBackReport {
  size_t bytes = 0;
  int objects_updated = 0;
  int objects_created = 0;
  /// Set when home's heap has a limit and the creations do not fit it:
  /// home applied nothing and popped nothing, so the home thread still
  /// waits where its segment was captured.
  std::optional<HeapShortfall> shortfall;
  /// The result value translated into home refs (applying the write-back
  /// materializes created objects, so a ref result is a live home
  /// object).  The cluster scheduler records it in its ref-forwarding
  /// table to chain ref results across workers without re-shipping the
  /// payload.
  Value home_result{};
};
WriteBackReport write_back(Segment& seg, SodNode& home, int home_tid, int frames_to_pop,
                           Value result, sim::Link link);

/// --- segment checkpointing (resumable in-flight segments) ---

/// Per-attempt incremental-transfer state: the digest of each home
/// object's payload as of the last checkpoint.  A later checkpoint ships
/// only objects whose payload digest changed (plus anything newly
/// created), so the virtual clock is charged for the delta, not the full
/// fetched set.
struct CheckpointDeltas {
  std::unordered_map<Ref, uint64_t> digest;
};

/// One checkpoint of an in-flight segment, taken at a migration-safe
/// point (after Segment::run_chunk returned SafePoint).  The worker's
/// heap changes are flushed home first (an updates-only write-back with
/// delta sizing — unchanged payloads, including objects fetched and never
/// mutated, ship nothing), locally created objects are assigned home ids
/// and adopted into the object manager, and the full stack + statics are
/// captured with every reference translated to its home id
/// (state.home_refs) — so the checkpoint restores on *any* worker.
/// Applying a checkpoint's heap flush is idempotent against the final
/// write-back: both ship current field values keyed by home ref.
///
/// With `apply_at_home == false` the checkpoint is recorded (and its
/// capture/wire costs charged) but its heap flush is NOT absorbed into
/// the home heap/statics: the restart-from-capture recovery mode uses
/// this so a restarted attempt re-executes against home's pristine state
/// instead of observing its own partial mutations (which would
/// double-apply).  A state recorded this way is not restorable.
struct SegmentCheckpoint {
  CapturedState state;         ///< home_refs == true
  size_t state_bytes = 0;      ///< wire size of the stack + statics state
  size_t heap_bytes = 0;       ///< object payload actually shipped (the delta)
  size_t full_heap_bytes = 0;  ///< payload a non-incremental checkpoint would ship
  int objects_shipped = 0;     ///< updates + creations that travelled
};
SegmentCheckpoint checkpoint_segment(Segment& seg, SodNode& home, sim::Link link,
                                     CheckpointDeltas& deltas, bool apply_at_home = true);

/// --- migration triggers (policy helpers) ---

/// Run until the thread's frame count reaches `depth` with the top frame
/// at its method entry (uses a breakpoint on `method`).  Returns false if
/// the thread finished first.
bool pause_at_depth(SodNode& node, int tid, uint16_t method, int depth);

/// Largest migratable top-segment length that keeps every frame running a
/// pinned method (e.g. socket holders) at home.
int max_migratable_frames(SodNode& node, int tid, const std::vector<uint16_t>& pinned_methods);

/// End-to-end single-segment offload: capture top `nframes` of the paused
/// home thread, migrate to dest, execute there, write back, leave home
/// runnable.  The workhorse of Tables II-IV.
struct OffloadOutcome {
  MigrationTiming timing;
  FaultStats faults;
  WriteBackReport writeback;
  Value result{};
};
OffloadOutcome offload_and_return(SodNode& home, int home_tid, int nframes, SodNode& dest,
                                  sim::Link link);

/// --- exception-driven offload (paper Section II.B) ---

/// Binds the offload.trap native: when an injected OutOfMemory handler
/// fires, the VM pauses at the failing statement's MSP with this guard
/// armed.
class OffloadGuard {
 public:
  void install(SodNode& node);
  bool trapped() const { return trapped_; }
  int64_t trap_uid() const { return uid_; }
  void reset() { trapped_ = false; }

 private:
  bool trapped_ = false;
  int64_t uid_ = 0;
};

/// Run `tid` on the (resource-poor) device; if an allocation traps on
/// OutOfMemory, rocket the whole stack into `cloud` and finish there.
/// Requires the program to be preprocessed with offload_handlers = true.
/// When the cloud's write-back does not fit the device heap, `shortfall`
/// says by how much: the device applied none of it, so its heap and its
/// thread stay as they were at the trap, and `result` is the value the
/// cloud computed (a ref result would name a cloud object).
struct ElasticOutcome {
  bool offloaded = false;
  Value result{};
  MigrationTiming timing{};
  std::optional<HeapShortfall> shortfall;
};
ElasticOutcome run_elastic(SodNode& device, int tid, SodNode& cloud, sim::Link link,
                           OffloadGuard& guard);

}  // namespace sod::mig
