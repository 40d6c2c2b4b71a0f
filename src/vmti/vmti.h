// SODEE Tool Interface — the JVMTI equivalent.
//
// The migration manager in the paper is a JVMTI agent: it never touches
// JVM internals directly, it goes through the debugger interface, and the
// price of that portability is per-call overhead (the paper measures most
// JVMTI calls at ~1 µs but GetLocal<T> at ~30 µs, which dominates SOD's
// capture time).  This class mirrors that architecture: every call accrues
// its modelled cost into `spent()`, which the migration manager folds into
// the virtual-time capture/restore figures of Tables IV and VII.
//
// The JESSICA2 baseline (in-VM thread migration) bypasses this layer and
// reads VM state directly — that is exactly the portability-vs-speed
// trade-off the paper discusses.
#pragma once

#include <cstdint>
#include <vector>

#include "support/vclock.h"
#include "svm/vm.h"

namespace sod::vmti {

using bc::Ref;
using bc::Ty;
using bc::Value;

/// Virtual cost of each tool-interface call.  Defaults follow the paper's
/// measurements (Section IV.A): cheap calls ~1 µs, GetLocal<T> ~30 µs.
struct CostModel {
  VDur get_stack_depth = VDur::micros(1);
  VDur get_frame_location = VDur::micros(1);
  VDur get_local_table = VDur::micros(1);
  VDur get_local = VDur::micros(30);
  VDur get_static = VDur::micros(2);
  VDur set_breakpoint = VDur::micros(5);
  VDur force_early_return = VDur::micros(10);
  VDur pop_frame = VDur::micros(5);
  VDur raise_exception = VDur::micros(10);
  VDur get_object = VDur::micros(5);  ///< locating an object for the object manager

  /// Zero-cost model (for tests that care only about semantics).
  static CostModel free() { return CostModel{{}, {}, {}, {}, {}, {}, {}, {}, {}, {}}; }
};

struct FrameLocation {
  uint16_t method = 0;
  uint32_t pc = 0;
};

class ToolInterface {
 public:
  explicit ToolInterface(svm::VM& vm, CostModel cm = {}) : vm_(&vm), cm_(cm) {}

  svm::VM& vm() { return *vm_; }

  // --- stack inspection (depth 0 = topmost frame) ---
  int get_stack_depth(int tid);
  FrameLocation get_frame_location(int tid, int depth);
  const std::vector<bc::LocalVar>& get_local_variable_table(uint16_t method);
  Value get_local(int tid, int depth, uint16_t slot);

  // --- statics ---
  Value get_static_field(uint16_t field_id);

  // --- execution control ---
  void set_breakpoint(uint16_t method, uint32_t pc);
  void clear_breakpoint(uint16_t method, uint32_t pc);
  /// Enable/disable the debug interpreter (mixed-mode switch).
  void set_debug_enabled(bool on) { vm_->set_debug_mode(on); }
  void request_safepoint(bool on) { vm_->request_safepoint(on); }
  /// Throw an exception in the thread's current context (triggers the
  /// injected restoration handler).
  void raise_exception(int tid, uint16_t ex_cls, std::string_view msg);
  /// Discard the top frame without delivering a value.
  void pop_frame(int tid);
  /// Pop the top frame and complete its pending INVOKE in the caller with
  /// `v` (JVMTI ForceEarlyReturn<T>).  If it was the last frame the thread
  /// finishes with result `v`.
  void force_early_return(int tid, Value v);

  // --- object access (for the object manager's home side) ---
  /// Charge the object-lookup cost and return the ref unchanged (models
  /// JVMTI's handle resolution).
  Ref resolve_object(Ref r);

  // --- accounting ---
  VDur spent() const { return spent_; }
  void reset_spent() { spent_ = {}; }

 private:
  const svm::Frame& frame_at(int tid, int depth);

  svm::VM* vm_;
  CostModel cm_;
  VDur spent_{};
};

}  // namespace sod::vmti
