// The SODEE stack machine (the paper's "JVM" substitute).
//
// A VM instance owns a heap, per-class static storage, and guest threads;
// it interprets Program bytecode.  Two execution modes mirror the paper's
// mixed-mode JVM:
//   - fast mode: plain dispatch, no per-instruction debug checks ("JIT")
//   - debug mode: checks breakpoints and migration-safe-point pause
//     requests before each instruction (the JVMTI-enabled interpreter the
//     paper switches to around migration events)
//
// Guest exceptions are *modelled*: a pending-exception register plus
// exception-table dispatch, never C++ exceptions.  That matters because
// both of the paper's key mechanisms — restoration handlers driven by
// InvalidStateException and object faulting driven by
// NullPointerException — are guest-level control flow.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bytecode/program.h"
#include "svm/heap.h"
#include "support/vclock.h"

namespace sod::svm {

class VM;

/// Host functions callable from guest code (JNI analog).  Natives run
/// inline in the caller's frame; they may allocate, raise guest
/// exceptions via VM::throw_guest, and charge modelled virtual time via
/// VM::charge.
using NativeFn = std::function<Value(VM&, std::span<Value>)>;

class NativeRegistry {
 public:
  void bind(std::string name, NativeFn fn) { fns_[std::move(name)] = std::move(fn); }
  const NativeFn* find(const std::string& name) const {
    auto it = fns_.find(name);
    return it == fns_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<std::string, NativeFn> fns_;
};

struct Frame {
  uint16_t method = 0;
  /// Next instruction to execute; for non-top frames this is the return
  /// address (just past the INVOKE).
  uint32_t pc = 0;
  std::vector<Value> locals;
  std::vector<Value> ostack;
};

enum class ThreadStatus : uint8_t { Ready, Done, Crashed };

struct GuestThread {
  int id = 0;
  ThreadStatus status = ThreadStatus::Ready;
  std::vector<Frame> frames;
  Value result{};        ///< bottom-frame return value (when Done)
  Ref uncaught = bc::kNull;  ///< uncaught exception (when Crashed)
  bool resume_skip_bp = false;  ///< skip the breakpoint we just paused on
};

enum class StopReason : uint8_t { Done, Budget, Breakpoint, SafePoint, Crashed, Trap };

struct RunResult {
  StopReason reason = StopReason::Done;
  uint64_t executed = 0;  ///< instructions executed in this run() call
};

class VM {
 public:
  /// Guest stack depth past which an INVOKE aborts the process.
  static constexpr size_t kMaxFrames = size_t{1} << 14;

  /// `heap_limit_bytes` caps the guest heap (0 = unlimited).
  VM(const bc::Program& prog, const NativeRegistry* natives, size_t heap_limit_bytes = 0);

  const bc::Program& program() const { return *prog_; }
  Heap& heap() { return heap_; }
  const Heap& heap() const { return heap_; }

  /// Create a guest thread entering `method_id` with `args`; returns tid.
  int spawn(uint16_t method_id, std::span<const Value> args);

  /// Adopt a fully materialized stack (eager-copy migration restore path:
  /// process/thread migration rebuild exact frames instead of going
  /// through the breakpoint + restoration-handler protocol).
  int adopt_frames(std::vector<Frame> frames);
  GuestThread& thread(int tid);

  /// Interpret until the thread finishes, crashes, pauses, or the
  /// instruction budget runs out.
  RunResult run(int tid, uint64_t budget = UINT64_MAX);

  /// Convenience: spawn + run to completion; panics if the guest crashes.
  Value call(std::string_view qualified_method, std::span<const Value> args);

  // --- debug facilities (the tool interface rides on these) ---
  void set_debug_mode(bool on) { debug_ = on; }
  bool debug_mode() const { return debug_; }
  void add_breakpoint(uint16_t method, uint32_t pc) { bps_.insert(bp_key(method, pc)); }
  void remove_breakpoint(uint16_t method, uint32_t pc) { bps_.erase(bp_key(method, pc)); }
  void clear_breakpoints() { bps_.clear(); }
  /// Request a pause at the next migration-safe point (statement start).
  void request_safepoint(bool on) { safepoint_req_ = on; }
  bool safepoint_requested() const { return safepoint_req_; }

  /// Ask the interpreter to stop before the next instruction (used by the
  /// offload-trap native: the injected OutOfMemory handler jumps back to
  /// the failing statement's MSP and the loop pauses right there, leaving
  /// the thread capturable).  One-shot; works in fast mode too.
  void request_pause() { pause_req_ = true; }

  /// Throw a guest exception in `tid`'s current context and dispatch it
  /// (tool-interface RaiseException; used to trigger restoration handlers).
  void raise_in_thread(int tid, uint16_t ex_cls, std::string_view msg);

  // --- classes & statics ---
  bool class_loaded(uint16_t cls) const { return rt_[cls].loaded; }
  void ensure_loaded(uint16_t cls);
  Value get_static(uint16_t field_id);
  void set_static(uint16_t field_id, Value v);
  std::span<const Value> statics_of(uint16_t cls) const { return rt_[cls].statics; }
  void overwrite_statics(uint16_t cls, std::vector<Value> vals);
  std::span<const Ty> inst_slot_types(uint16_t cls) const { return rt_[cls].inst_types; }

  /// Class of the object `r` points to (must be an ObjCell).
  uint16_t class_of(Ref r) const { return heap_.obj(r).cls; }

  // --- guest exception plumbing (for natives) ---
  void throw_guest(uint16_t ex_cls, std::string_view msg);
  Ref make_exception(uint16_t ex_cls, std::string_view msg);
  /// Diagnostic message attached to an exception object.
  std::string exception_message(Ref r) const;

  /// Interned guest string for pool index (kNull when the heap is full).
  Ref intern_pool_string(uint16_t idx);

  // --- accounting ---
  uint64_t instr_count() const { return instrs_; }
  /// Modelled virtual cost charged by natives since last reset.
  VDur charged() const { return charged_; }
  void charge(VDur d) { charged_ += d; }
  void reset_charged() { charged_ = {}; }

  /// Fired when a class is lazily loaded (CLASS_FILE_LOAD_HOOK analog).
  std::function<void(VM&, uint16_t cls)> on_class_load;

  /// Frame executing the currently running native (valid only during an
  /// INVOKENATIVE dispatch).  Object-fault natives use this to repair the
  /// faulting frame's locals in place.
  Frame* native_frame() { return native_frame_; }
  /// Thread running the current native.
  int native_tid() const { return native_tid_; }

 private:
  struct ClassRT {
    bool loaded = false;
    std::vector<Value> statics;
    std::vector<Ty> inst_types;
    std::vector<Ty> static_types;
  };

  static uint64_t bp_key(uint16_t m, uint32_t pc) {
    return (static_cast<uint64_t>(m) << 32) | pc;
  }

  const std::vector<Ty>& local_types(uint16_t method_id);
  Frame make_frame(uint16_t method_id);
  /// Dispatch a pending guest exception; returns false if uncaught
  /// (thread crashed).
  bool dispatch_exception(GuestThread& th, Ref ex, uint32_t throw_pc);
  RunResult loop(GuestThread& th, uint64_t budget);

  const bc::Program* prog_;
  const NativeRegistry* natives_;
  Heap heap_;
  std::vector<ClassRT> rt_;
  std::vector<GuestThread> threads_;
  std::vector<std::vector<Ty>> local_types_cache_;
  std::unordered_map<uint16_t, Ref> pool_strings_;
  std::unordered_map<Ref, std::string> ex_msgs_;
  Ref oom_ = bc::kNull;  ///< the OutOfMemory object a full heap raises

  bool debug_ = false;
  bool safepoint_req_ = false;
  bool pause_req_ = false;
  std::unordered_set<uint64_t> bps_;

  // pending guest exception (set by natives / interpreter helpers)
  bool pending_ = false;
  uint16_t pending_cls_ = 0;
  std::string pending_msg_;

  uint64_t instrs_ = 0;
  VDur charged_{};
  Frame* native_frame_ = nullptr;
  int native_tid_ = -1;
};

}  // namespace sod::svm
