// CapturedState — the wire form of a partial execution state (paper
// Fig. 3): a consecutive run of stack frames plus the static fields of
// loaded classes.
//
// Per the paper's design:
//   - the heap is NOT part of the state; reference values (locals, static
//     ref slots, instance fields) are shipped as nulls and fetched on
//     demand through the object manager;
//   - a frame's pc is always a migration-safe point; for non-top frames it
//     is the statement start of the pending INVOKE, which the restoration
//     protocol re-executes to rebuild the next frame;
//   - `pending_callee` records the method a non-top frame was suspended
//     inside, so a later segment can complete that call with
//     ForceEarlyReturn when the upper segment's result arrives.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "bytecode/program.h"
#include "bytecode/types.h"
#include "support/bytes.h"

namespace sod::mig {

using bc::Ref;
using bc::Ty;
using bc::Value;

/// Marker stored in captured Ref slots that were non-null at the home:
/// the restore path materializes them as remote stubs, preserving
/// null-test semantics while keeping heap data home-anchored.
inline constexpr Ref kRemoteMark = 0xFFFFFFFFu;

struct CapturedFrame {
  uint16_t method = 0;
  uint32_t pc = 0;  ///< MSP to resume at
  /// One value per local slot; Ref slots are null (fetched on demand).
  std::vector<Value> locals;
  /// Method the frame's pending INVOKE targets (kNoId when captured at a
  /// plain MSP, i.e. the thread's top frame).
  uint16_t pending_callee = bc::kNoId;
};

struct CapturedStatics {
  uint16_t cls = 0;
  /// One value per static slot; Ref slots are null.
  std::vector<Value> values;
};

struct CapturedState {
  /// frames[0] is the segment's *bottom* (deepest) frame; restoration
  /// proceeds bottom-up exactly as in the paper's Fig. 4b.
  std::vector<CapturedFrame> frames;
  std::vector<CapturedStatics> statics;
  /// When true the state is a *checkpoint* of an in-flight segment: ref
  /// slots hold real home-heap ids (the checkpoint flushed its objects
  /// home first), not kRemoteMark.  The restore path materializes them as
  /// stubs carrying the home ref directly, so a checkpoint restores on any
  /// worker without consulting the suspended home frame.
  bool home_refs = false;

  void serialize(ByteWriter& w) const;
  static CapturedState deserialize(ByteReader& r);
  /// The state as it crosses the wire: what a sender counts and ships.
  std::vector<uint8_t> wire() const;
  /// Decodes what arrived on the wire.
  static CapturedState from_wire(std::span<const uint8_t> bytes);
};

}  // namespace sod::mig
