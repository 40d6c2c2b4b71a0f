#include "sod/migrate.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "support/hash.h"

namespace sod::mig {

using bc::Method;
using svm::StopReason;

namespace {

/// Walks frames [depth_lo, depth_hi) of `tid` through the tool interface
/// (frames[0] = deepest), then the statics of every loaded class (Fig. 3's
/// "save static fields"), into `cs`; each ref local or static is stored as
/// `map_ref(ref)`.  The top frame (depth 0) must sit at an MSP; a deeper
/// frame resumes at the statement of its pending INVOKE.
template <class MapRef>
void capture_frames(SodNode& node, int tid, int depth_lo, int depth_hi, MapRef&& map_ref,
                    CapturedState& cs) {
  auto& ti = node.ti();
  const bc::Program& P = node.program();
  for (int depth = depth_hi - 1; depth >= depth_lo; --depth) {
    vmti::FrameLocation loc = ti.get_frame_location(tid, depth);
    const Method& m = P.method(loc.method);
    CapturedFrame cf;
    cf.method = loc.method;
    if (depth == 0) {
      SOD_CHECK(m.is_stmt_start(loc.pc), "top frame not at an MSP");
      cf.pc = loc.pc;
    } else {
      // loc.pc is the return address; the pending INVOKE sits just before
      // it.  Resume at the statement start that re-executes the call and
      // remember the callee for ForceEarlyReturn delivery.
      uint32_t invoke_pc = loc.pc - 3;  // INVOKE is op + u16
      SOD_CHECK(static_cast<bc::Op>(m.code[invoke_pc]) == bc::Op::INVOKE,
                "suspended frame not at an INVOKE");
      cf.pc = m.stmt_at_or_before(invoke_pc);
      cf.pending_callee = static_cast<uint16_t>(bc::decode(m.code, invoke_pc).arg);
    }
    cf.locals.assign(m.num_locals, Value::of_i64(0));
    for (const auto& var : ti.get_local_variable_table(loc.method)) {
      Value v = ti.get_local(tid, depth, var.slot);
      cf.locals[var.slot] = var.type == bc::Ty::Ref ? map_ref(v.r) : v;
    }
    cs.frames.push_back(std::move(cf));
  }
  for (const auto& c : P.classes) {
    if (!node.vm().class_loaded(c.id) || c.num_static_slots == 0) continue;
    CapturedStatics st;
    st.cls = c.id;
    st.values.assign(c.num_static_slots, Value::of_i64(0));
    for (uint16_t fid : c.field_ids) {
      const bc::Field& f = P.field(fid);
      if (!f.is_static) continue;
      Value v = ti.get_static_field(fid);
      st.values[f.slot] = f.type == bc::Ty::Ref ? map_ref(v.r) : v;
    }
    cs.statics.push_back(std::move(st));
  }
  node.sync_ti_cost();
}

}  // namespace

CapturedState capture_segment(SodNode& home, int home_tid, SegmentSpec seg) {
  SOD_CHECK(seg.len() >= 1, "empty segment");
  SOD_CHECK(seg.depth_hi <= home.ti().get_stack_depth(home_tid), "segment deeper than stack");
  // References are left behind (fetched on demand); remember only whether
  // they were null so the worker can stub non-null ones.
  auto mark = [](Ref r) { return r != bc::kNull ? Value::of_ref(kRemoteMark) : Value::null(); };
  CapturedState cs;
  capture_frames(home, home_tid, seg.depth_lo, seg.depth_hi, mark, cs);
  return cs;
}

Segment::Segment(SodNode& dest) : dest_(&dest) {
  om_.install(dest);
  install_cs_natives();
}

void Segment::install_cs_natives() {
  auto& reg = dest_->registry();
  Cursor* cur = &cursor_;
  reg.bind("cs.read_i64", [cur](svm::VM&, std::span<Value> a) {
    SOD_CHECK(cur->frame, "cs read outside restoration");
    return Value::of_i64(cur->frame->locals[static_cast<size_t>(a[0].i)].i);
  });
  reg.bind("cs.read_f64", [cur](svm::VM&, std::span<Value> a) {
    SOD_CHECK(cur->frame, "cs read outside restoration");
    const Value& v = cur->frame->locals[static_cast<size_t>(a[0].i)];
    return Value::of_f64(v.tag == bc::Ty::F64 ? v.d : 0.0);
  });
  ObjectManager* om = &om_;
  reg.bind("cs.read_ref", [cur, om](svm::VM& vm, std::span<Value> a) {
    SOD_CHECK(cur->frame, "cs read outside restoration");
    const Value& v = cur->frame->locals[static_cast<size_t>(a[0].i)];
    if (v.tag != bc::Ty::Ref || v.r == bc::kNull) return Value::null();
    // Checkpoint states carry real home ids: the stub resolves directly
    // against the home heap, no suspended-frame lookup needed.
    if (cur->home_refs) return Value::of_ref(vm.heap().alloc_stub(v.r));
    // Non-null at the home: materialize as a stub resolvable through the
    // suspended home frame (GetLocal).
    Ref stub = vm.heap().alloc_stub(0);
    const auto& frames = vm.thread(vm.native_tid()).frames;
    om->register_local_stub(stub, static_cast<int>(frames.size()) - 1,
                            static_cast<uint16_t>(a[0].i));
    return Value::of_ref(stub);
  });
  reg.bind("cs.read_pc", [cur](svm::VM&, std::span<Value>) {
    SOD_CHECK(cur->frame, "cs read outside restoration");
    return Value::of_i64(cur->frame->pc);
  });
}

void Segment::restore(const CapturedState& cs) {
  SOD_CHECK(!cs.frames.empty(), "restore of empty state");
  auto& vm = dest_->vm();
  auto& ti = dest_->ti();
  const bc::Program& P = dest_->program();

  ti.set_debug_enabled(true);
  debug_held_ = true;
  cursor_.home_refs = cs.home_refs;

  // Restore class static data (SetStatic<Type>Field in the paper); class
  // loads may fetch class images on demand.
  for (const auto& st : cs.statics) {
    vm.ensure_loaded(st.cls);
    std::vector<Value> vals = st.values;
    for (size_t slot = 0; slot < vals.size(); ++slot) {
      Value& v = vals[slot];
      if (v.tag != bc::Ty::Ref || v.r == bc::kNull) continue;
      if (cs.home_refs) {
        // Checkpoint statics hold real home ids; the stub carries the id.
        v = Value::of_ref(vm.heap().alloc_stub(v.r));
        continue;
      }
      if (v.r != kRemoteMark) continue;
      // The stub carries the static it stands for, so copies of it (e.g. a
      // static array cached into a local) stay resolvable by any segment
      // on this node: statics belong to the node, and a segment restored
      // later overwrites them with its own stubs.
      uint16_t field = bc::kNoId;
      for (uint16_t fid : P.cls(st.cls).field_ids) {
        const bc::Field& f = P.field(fid);
        if (f.is_static && f.slot == slot) field = fid;
      }
      v = Value::of_ref(vm.heap().alloc_stub(0, field));
    }
    vm.overwrite_statics(st.cls, std::move(vals));
  }

  const Method& m0 = P.method(cs.frames[0].method);
  std::vector<Value> dummy;
  dummy.reserve(m0.params.size());
  for (bc::Ty t : m0.params) dummy.push_back(Value::zero_of(t));
  tid_ = vm.spawn(cs.frames[0].method, dummy);

  ti.set_breakpoint(cs.frames[0].method, 0);
  for (size_t i = 0; i < cs.frames.size(); ++i) {
    // Run until frame i is (re)created: stack depth grows to i+1 with the
    // breakpoint at its method entry.  A frame whose *resume* point is
    // pc 0 re-trips its own entry breakpoint first (depth unchanged);
    // skip those and keep going.
    while (true) {
      svm::RunResult rr = dest_->run_guest(tid_);
      SOD_CHECK(rr.reason == StopReason::Breakpoint, "restore: expected breakpoint");
      if (vm.thread(tid_).frames.size() == i + 1) break;
      SOD_CHECK(vm.thread(tid_).frames.size() == i,
                "restore: unexpected stack depth at breakpoint");
    }
    const auto& top = vm.thread(tid_).frames.back();
    SOD_CHECK(top.method == cs.frames[i].method && top.pc == 0, "restore: wrong frame");
    if (i + 1 < cs.frames.size()) ti.set_breakpoint(cs.frames[i + 1].method, 0);
    cursor_.frame = &cs.frames[i];
    ti.raise_exception(tid_, bc::builtin::kInvalidState, "restore");
    // Java-level (reflection-based) restoration on devices without a tool
    // interface pays a heavy per-frame cost (Table VII).
    if (dest_->config().java_level_restore)
      dest_->node().charge_host(VDur::millis(1.5));
  }
  for (const auto& f : cs.frames) ti.clear_breakpoint(f.method, 0);

  // The last frame's restoration handler has not executed yet.  Run it to
  // completion now (breakpoint at the saved pc it will jump to), so the
  // cursor can be retargeted — e.g. by another Segment restoring on this
  // same node — without corrupting this thread's state.
  {
    const CapturedFrame& last = cs.frames.back();
    ti.set_breakpoint(last.method, last.pc);
    while (true) {
      svm::RunResult rr = dest_->run_guest(tid_);
      SOD_CHECK(rr.reason == StopReason::Breakpoint, "restore: handler completion");
      const auto& top = vm.thread(tid_).frames.back();
      if (vm.thread(tid_).frames.size() == cs.frames.size() && top.method == last.method &&
          top.pc == last.pc)
        break;
    }
    ti.clear_breakpoint(last.method, last.pc);
  }
  pending_callee_ = cs.frames.back().pending_callee;
  dest_->sync_ti_cost();
  cursor_.frame = nullptr;

  if (pending_callee_ == bc::kNoId) {
    ti.set_debug_enabled(false);
    debug_held_ = false;
  }
}

void Segment::deliver(Value v) {
  SOD_CHECK(pending_callee_ != bc::kNoId, "deliver without a pending call");
  auto& ti = dest_->ti();
  ti.set_breakpoint(pending_callee_, 0);
  svm::RunResult rr = dest_->run_guest(tid_);
  SOD_CHECK(rr.reason == StopReason::Breakpoint, "deliver: expected pending call breakpoint");
  ti.clear_breakpoint(pending_callee_, 0);
  ti.force_early_return(tid_, v);
  pending_callee_ = bc::kNoId;
  ti.set_debug_enabled(false);
  debug_held_ = false;
  dest_->sync_ti_cost();
}

Value Segment::run_to_completion() {
  if (debug_held_) {
    dest_->ti().set_debug_enabled(false);
    debug_held_ = false;
  }
  svm::RunResult rr = dest_->run_guest(tid_);
  panic_if_crashed(rr.reason);
  SOD_CHECK(rr.reason == StopReason::Done, "segment did not finish");
  return dest_->vm().thread(tid_).result;
}

svm::StopReason Segment::run_chunk(uint64_t budget) {
  SOD_CHECK(budget >= 1, "zero-budget chunk");
  // Another segment restored on this node between chunks (a mid-execution
  // re-dispatch landing here) leaves the debug interpreter on; chunked
  // execution always runs fast mode between pauses, same as
  // run_to_completion after prepare().
  dest_->ti().set_debug_enabled(false);
  debug_held_ = false;
  svm::RunResult rr = dest_->run_guest(tid_, budget);
  if (rr.reason == StopReason::Budget) {
    // The budget expired mid-statement; coast under the debug interpreter
    // to the next statement start so the pause is a migration-safe point.
    dest_->ti().set_debug_enabled(true);
    dest_->vm().request_safepoint(true);
    rr = dest_->run_guest(tid_);
    dest_->vm().request_safepoint(false);
    dest_->ti().set_debug_enabled(false);
    dest_->sync_ti_cost();
  }
  panic_if_crashed(rr.reason);
  SOD_CHECK(rr.reason == StopReason::Done || rr.reason == StopReason::SafePoint,
            "segment chunk stopped unexpectedly");
  return rr.reason;
}

Value Segment::result() const { return dest_->vm().thread(tid_).result; }

void Segment::panic_if_crashed(StopReason reason) const {
  if (reason != StopReason::Crashed) return;
  const auto& th = dest_->vm().thread(tid_);
  SOD_UNREACHABLE("migrated segment crashed: " +
                  dest_->program().cls(dest_->vm().class_of(th.uncaught)).name + ": " +
                  dest_->vm().exception_message(th.uncaught));
}

// ---------------------------------------------------------------- write-back

namespace {

// Wire constants for the write-back message.
enum : uint8_t { kWbUpdate = 1, kWbCreate = 2, kWbEnd = 0 };

class WriteBackBuilder {
 public:
  /// With `deltas` set the builder is in checkpoint mode: an update whose
  /// payload digest is unchanged since the last checkpoint is skipped (its
  /// would-be wire bytes accumulate in skipped_bytes()), and digests are
  /// refreshed for everything that ships.  `home_heap` (checkpoint mode)
  /// additionally lets the first checkpoint skip objects whose payload
  /// still equals home's copy — fetched but never mutated.
  explicit WriteBackBuilder(Segment& seg, CheckpointDeltas* deltas = nullptr,
                            const svm::Heap* home_heap = nullptr)
      : seg_(seg), heap_(seg.dest().vm().heap()), deltas_(deltas), home_heap_(home_heap) {}

  // Translate a worker-local ref into (home_ref or fresh temp id).
  uint32_t translate(Ref local) {
    if (local == bc::kNull) return 0;
    if (heap_.is_stub(local)) {
      // Never materialized at the worker: it still lives (unchanged) at
      // the home; just point back at it.
      Ref home = seg_.objman().resolve_stub_home(local);
      SOD_CHECK(home != bc::kNull, "write-back of unresolvable stub");
      return home;
    }
    Ref home = seg_.objman().home_of_local(local);
    if (home != bc::kNull) return home;  // existing home object
    auto it = created_.find(local);
    if (it != created_.end()) return it->second;
    uint32_t temp = kTempBase + static_cast<uint32_t>(created_.size());
    created_[local] = temp;
    queue_.push_back(local);
    return temp;
  }

  void build(ByteWriter& w, Value result) {
    // Updated objects: everything fetched from home, current field values.
    // In checkpoint mode, an object whose translated payload is unchanged
    // since the last checkpoint is skipped — home already holds exactly
    // those bytes — and only the delta is charged to the wire.
    // home_entries() is sorted by home ref — the canonical record order —
    // so the wire layout (and the home-side creation ids the applier
    // allocates in record order) never depends on hash-map iteration.
    for (const auto& [home_ref, local_ref] : seg_.objman().home_entries()) {
      if (deltas_ == nullptr) {
        // Plain write-back: everything ships, straight into the message.
        w.u8(kWbUpdate);
        w.u32(home_ref);
        write_cell(w, local_ref);
        ++updated_;
        continue;
      }
      // Checkpoint mode: stage the cell so its digest decides whether it
      // travels at all.
      ByteWriter cell;
      write_cell(cell, local_ref);
      uint64_t h = fnv1a(cell.bytes());
      auto [it, fresh] = deltas_->digest.try_emplace(home_ref, h);
      if (fresh && home_heap_ != nullptr) {
        // First sight of this object since the attempt started: if the
        // translated payload still equals home's cell byte-for-byte, the
        // object was fetched and never mutated — home already holds it.
        ByteWriter hcell;
        home_heap_->serialize_shallow(home_ref, hcell);
        if (hcell.bytes() == cell.bytes()) {
          skipped_bytes_ += cell.size() + 5;  // record header: tag + u32
          continue;
        }
      }
      if (!fresh && it->second == h) {
        skipped_bytes_ += cell.size() + 5;  // record header: tag + u32
        continue;
      }
      it->second = h;
      w.u8(kWbUpdate);
      w.u32(home_ref);
      w.raw(cell.bytes());
      ++updated_;
    }
    // Newly created objects reachable from updates/result.
    flush_creations(w);
    w.u8(kWbEnd);
    // Updated statics of classes loaded at the worker (primitive values
    // travel by value; ref values translate like any other reference).
    const bc::Program& P = seg_.dest().program();
    const svm::VM& wvm = seg_.dest().vm();
    uint16_t nstatic = 0;
    for (const auto& c : P.classes)
      if (wvm.class_loaded(c.id) && c.num_static_slots > 0) ++nstatic;
    w.u16(nstatic);
    auto wire = [this](Ref local) { return translate(local); };
    for (const auto& c : P.classes) {
      if (!wvm.class_loaded(c.id) || c.num_static_slots == 0) continue;
      w.u16(c.id);
      auto vals = wvm.statics_of(c.id);
      w.u16(static_cast<uint16_t>(vals.size()));
      for (const Value& v : vals) svm::write_value(w, v, wire);
    }
    svm::write_value(w, result, wire);
    // Translating the result may have queued new objects; flush them in a
    // trailer section.
    flush_creations(w);
    w.u8(kWbEnd);
  }

  int updated() const { return updated_; }
  int created() const { return static_cast<int>(created_.size()); }
  size_t skipped_bytes() const { return skipped_bytes_; }
  /// local ref -> temp wire id of every creation that shipped.
  const std::unordered_map<Ref, uint32_t>& created_map() const { return created_; }
  /// temp wire id -> payload digest of every creation (checkpoint mode
  /// records these so the caller can seed the delta tracker once the real
  /// home ids are known).
  const std::unordered_map<uint32_t, uint64_t>& created_digests() const {
    return created_digests_;
  }

  static constexpr uint32_t kTempBase = 0x80000000u;

 private:
  void flush_creations(ByteWriter& w) {
    while (!queue_.empty()) {
      Ref local = queue_.front();
      queue_.pop_front();
      w.u8(kWbCreate);
      w.u32(created_.at(local));
      if (deltas_ == nullptr) {
        write_cell(w, local);
        continue;
      }
      // Checkpoint mode: record the payload digest so the next checkpoint
      // can skip the object (it becomes an update once its home id lands).
      ByteWriter cell;
      write_cell(cell, local);
      created_digests_[created_.at(local)] = fnv1a(cell.bytes());
      w.raw(cell.bytes());
    }
  }
  void write_cell(ByteWriter& w, Ref local) {
    heap_.serialize_shallow(local, w, [this](Ref r) { return translate(r); });
  }

  Segment& seg_;
  svm::Heap& heap_;
  CheckpointDeltas* deltas_;
  const svm::Heap* home_heap_;
  std::unordered_map<Ref, uint32_t> created_;
  std::unordered_map<uint32_t, uint64_t> created_digests_;
  std::deque<Ref> queue_;
  int updated_ = 0;
  size_t skipped_bytes_ = 0;
};

class WriteBackApplier {
 public:
  explicit WriteBackApplier(SodNode& home) : home_(home) {}

  Value apply(ByteReader& r) {
    // Pass 1: read records; updates and creations land with their
    // embedded refs still wire ids.
    read_section(r);
    read_statics(r);
    Value result = svm::read_value(r);
    read_section(r);  // trailer creations
    resolve_links();
    if (result.tag == bc::Ty::Ref) result = Value::of_ref(resolve(result.r));
    return result;
  }

  /// Home ref a wire id landed on (valid after apply(); checkpoint capture
  /// uses this to remap temp ids in the captured stack to real home ids).
  Ref resolve(uint32_t wire_ref) {
    if (wire_ref == 0) return bc::kNull;
    if (wire_ref >= WriteBackBuilder::kTempBase) {
      auto it = temp_map_.find(wire_ref);
      SOD_CHECK(it != temp_map_.end(), "dangling temp ref in write-back");
      return it->second;
    }
    return wire_ref;  // existing home ref
  }

 private:
  void read_section(ByteReader& r) {
    svm::Heap& heap = home_.vm().heap();
    while (true) {
      uint8_t tag = r.u8();
      if (tag == kWbEnd) break;
      uint32_t id = r.u32();
      svm::Cell c = svm::read_cell(r);
      Ref target = id;
      if (tag == kWbUpdate) {
        if (std::holds_alternative<svm::StrCell>(c)) continue;  // strings are immutable
        heap.overwrite(target, std::move(c));
      } else {
        if (const auto* o = std::get_if<svm::ObjCell>(&c)) {
          home_.vm().ensure_loaded(o->cls);
          SOD_CHECK(o->fields.size() == home_.vm().inst_slot_types(o->cls).size(),
                    "write-back field count mismatch");
        }
        target = heap.alloc(std::move(c));
        SOD_CHECK(target != bc::kNull, "home heap exhausted in write-back");
        temp_map_[id] = target;
      }
      touched_.push_back(target);
    }
  }

  void read_statics(ByteReader& r) {
    uint16_t nclasses = r.u16();
    for (uint16_t k = 0; k < nclasses; ++k) {
      uint16_t cls = r.u16();
      uint16_t n = r.u16();
      home_.vm().ensure_loaded(cls);
      for (uint16_t i = 0; i < n; ++i) static_vals_.push_back({cls, i, svm::read_value(r)});
    }
  }

  void resolve_links() {
    svm::Heap& heap = home_.vm().heap();
    for (Ref t : touched_)
      svm::for_each_ref(heap.cell(t), [this](Ref& ref) { ref = resolve(ref); });
    // Statics: primitives update unconditionally; ref statics only when
    // the worker actually holds a resolvable object (a null at the worker
    // usually means "never fetched", not "cleared").
    for (const auto& sv : static_vals_) {
      uint16_t fid = find_static_field(sv.cls, sv.slot);
      if (fid == bc::kNoId) continue;
      if (sv.val.tag != bc::Ty::Ref) {
        home_.vm().set_static(fid, sv.val);
      } else if (sv.val.r != 0) {
        home_.vm().set_static(fid, Value::of_ref(resolve(sv.val.r)));
      }
    }
  }

  uint16_t find_static_field(uint16_t cls, uint16_t slot) const {
    for (uint16_t fid : home_.program().cls(cls).field_ids) {
      const bc::Field& f = home_.program().field(fid);
      if (f.is_static && f.slot == slot) return fid;
    }
    return bc::kNoId;
  }

  struct StaticVal {
    uint16_t cls;
    uint16_t slot;
    Value val;  ///< a ref holds its wire id until resolve_links
  };

  SodNode& home_;
  std::unordered_map<uint32_t, Ref> temp_map_;
  std::vector<Ref> touched_;  ///< updated or created cells, refs still wire ids
  std::vector<StaticVal> static_vals_;
};

}  // namespace

WriteBackReport write_back(Segment& seg, SodNode& home, int home_tid, int frames_to_pop,
                           Value result, sim::Link link) {
  WriteBackReport rep;
  SodNode& dest = seg.dest();

  ByteWriter w;
  WriteBackBuilder builder(seg);
  builder.build(w, result);
  rep.bytes = w.size();
  rep.objects_updated = builder.updated();
  rep.objects_created = builder.created();

  // Serialize at the worker, ship, apply at home.
  dest.node().charge_host(dest.serde().cost(w.size(), rep.objects_updated + rep.objects_created));
  sim::deliver(dest.node(), home.node(), link, w.size());
  home.node().charge_host(home.serde().cost(w.size()));

  // A home with a heap limit applies all of the write-back or none of it.
  // A created cell takes as many bytes at home as it does at the worker.
  const svm::Heap& heap = home.vm().heap();
  if (heap.limit_bytes() != 0) {
    size_t needed = 0;
    for (const auto& [local, temp] : builder.created_map())
      needed += svm::Heap::cell_bytes(dest.vm().heap().cell(local));
    size_t free = heap.limit_bytes() - std::min(heap.used_bytes(), heap.limit_bytes());
    if (needed > free) {
      rep.shortfall = HeapShortfall{needed, free};
      return rep;
    }
  }

  ByteReader r(w.bytes());
  WriteBackApplier applier(home);
  Value home_result = applier.apply(r);
  rep.home_result = home_result;

  // Pop the outdated frames; the last pop delivers the return value.  A
  // frames_to_pop of 0 is an updates-only write-back (multi-segment
  // dispatch: upper segments ship their objects home, only the bottom
  // segment resumes the home thread).
  if (frames_to_pop > 0) {
    auto& ti = home.ti();
    for (int i = 0; i < frames_to_pop - 1; ++i) ti.pop_frame(home_tid);
    ti.force_early_return(home_tid, home_result);
  }
  home.sync_ti_cost();
  return rep;
}

// ------------------------------------------------------------- checkpoints

SegmentCheckpoint checkpoint_segment(Segment& seg, SodNode& home, sim::Link link,
                                     CheckpointDeltas& deltas, bool apply_at_home) {
  SodNode& dest = seg.dest();
  int tid = seg.tid();
  int depth = dest.ti().get_stack_depth(tid);
  SOD_CHECK(depth >= 1, "checkpoint of a finished segment");

  SegmentCheckpoint out;
  CapturedState& cs = out.state;
  cs.home_refs = true;
  WriteBackBuilder builder(seg, &deltas, &home.vm().heap());

  // Translate a worker-local ref into its home id (queuing locally created
  // objects for shipment); the wire id may still be a temp, remapped after
  // the heap flush lands at home.
  auto wire_ref = [&](Ref local) -> Value {
    if (local == bc::kNull) return Value::null();
    uint32_t wire = builder.translate(local);
    return wire == 0 ? Value::null() : Value::of_ref(wire);
  };

  // Walk the whole in-flight stack exactly as capture_segment does at
  // home; the top frame sits at the MSP run_chunk coasted to.
  capture_frames(dest, tid, 0, depth, wire_ref, cs);

  // Heap flush: changed + created objects (and current statics) go home as
  // an updates-only write-back message; unchanged objects are skipped by
  // the delta tracker and cost nothing on the wire.
  ByteWriter w;
  builder.build(w, Value{});
  out.heap_bytes = w.size();
  out.full_heap_bytes = w.size() + builder.skipped_bytes();
  out.objects_shipped = builder.updated() + builder.created();
  const std::vector<uint8_t> state = cs.wire();
  out.state_bytes = state.size();

  dest.node().charge_host(dest.serde().cost(out.state_bytes + w.size(),
                                            out.objects_shipped + depth));
  sim::deliver(dest.node(), home.node(), link, out.state_bytes + w.size());
  home.node().charge_host(home.serde().cost(w.size()));
  // Home keeps the state it decoded off the wire.
  cs = CapturedState::from_wire(state);

  // Restart-from-capture mode records the checkpoint without absorbing
  // its heap flush: a later restart re-executes against home's pristine
  // state, so nothing is double-applied.  (Resume and speculation need
  // the flush applied — they restore against home's current objects.)
  if (!apply_at_home) return out;

  ByteReader r(w.bytes());
  WriteBackApplier applier(home);
  applier.apply(r);

  // Creations now have real home ids: remap temp wire ids in the captured
  // state, seed the delta tracker, and adopt the (home, local) identities
  // so the final write-back updates these objects instead of re-creating
  // them.
  auto remap = [&](Value& v) {
    if (v.tag != bc::Ty::Ref || v.r < WriteBackBuilder::kTempBase) return;
    v = Value::of_ref(applier.resolve(v.r));
  };
  for (auto& f : cs.frames)
    for (auto& v : f.locals) remap(v);
  for (auto& st : cs.statics)
    for (auto& v : st.values) remap(v);
  for (const auto& [local, temp] : builder.created_map())
    seg.objman().adopt_mapping(applier.resolve(temp), local);
  for (const auto& [temp, digest] : builder.created_digests())
    deltas.digest[applier.resolve(temp)] = digest;
  return out;
}

// ---------------------------------------------------------------- triggers

bool pause_at_depth(SodNode& node, int tid, uint16_t method, int depth) {
  auto& vm = node.vm();
  auto& ti = node.ti();
  ti.set_debug_enabled(true);
  ti.set_breakpoint(method, 0);
  while (true) {
    svm::RunResult rr = node.run_guest(tid);
    if (rr.reason == StopReason::Done || rr.reason == StopReason::Crashed) {
      ti.clear_breakpoint(method, 0);
      ti.set_debug_enabled(false);
      node.sync_ti_cost();
      return false;
    }
    SOD_CHECK(rr.reason == StopReason::Breakpoint, "unexpected stop while seeking depth");
    if (static_cast<int>(vm.thread(tid).frames.size()) >= depth) {
      ti.clear_breakpoint(method, 0);
      node.sync_ti_cost();
      return true;  // paused at method entry == MSP 0, debug stays on
    }
  }
}

int max_migratable_frames(SodNode& node, int tid, const std::vector<uint16_t>& pinned_methods) {
  const auto& frames = node.vm().thread(tid).frames;
  int n = 0;
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    bool pinned = false;
    for (uint16_t m : pinned_methods)
      if (it->method == m) pinned = true;
    if (pinned) break;
    ++n;
  }
  return n;
}

// ------------------------------------------------------------- migration hop

MigrationTiming hop(SodNode& home, int home_tid, int depth_hi, std::span<const uint8_t> state,
                    Segment& seg, sim::Link link, bool ship_class) {
  SodNode& dest = seg.dest();
  // Decoded once up front: home's serialization cost counts the frames,
  // and the destination restores exactly these bytes.
  CapturedState cs = CapturedState::from_wire(state);
  SOD_CHECK(!cs.frames.empty(), "hop of an empty state");
  MigrationTiming t;
  t.state_bytes = state.size();
  t.serde = home.serde().cost(state.size(), static_cast<int>(cs.frames.size()));
  VDur t0 = home.node().clock.now();
  home.node().charge_host(t.serde);
  VDur sent = home.node().clock.now();
  t.capture = sent - t0;

  if (ship_class) {
    uint16_t entry_cls = home.program().method(cs.frames[0].method).owner;
    dest.mark_class_shipped(entry_cls);
    t.class_bytes = home.program().class_image_size(entry_cls);
  }
  dest.enable_class_fetch(&home, link, seg.objman().home_gate());
  sim::deliver(home.node(), dest.node(), link, t.state_bytes + t.class_bytes);
  VDur arrived = dest.node().clock.now();
  t.transfer = arrived - sent;

  seg.objman().bind_home(&home, home_tid, depth_hi, link);
  seg.restore(cs);
  t.restore = dest.node().clock.now() - arrived;
  return t;
}

MigrationTiming migrate(SodNode& home, int home_tid, SegmentSpec spec, Segment& seg,
                        sim::Link link, bool ship_class) {
  VDur t0 = home.node().clock.now();
  CapturedState cs = capture_segment(home, home_tid, spec);
  home.ti().set_debug_enabled(false);
  VDur walk = home.node().clock.now() - t0;
  MigrationTiming t = hop(home, home_tid, spec.depth_hi, cs.wire(), seg, link, ship_class);
  t.capture += walk;
  return t;
}

// ---------------------------------------------------------------- offload

OffloadOutcome offload_and_return(SodNode& home, int home_tid, int nframes, SodNode& dest,
                                  sim::Link link) {
  OffloadOutcome out;
  Segment seg(dest);
  out.timing = migrate(home, home_tid, SegmentSpec{0, nframes}, seg, link, /*ship_class=*/true);

  // Execute remotely; object misses fault in on demand.
  Value result = seg.run_to_completion();
  out.faults = seg.objman().stats();

  // Write back + resume home.
  out.writeback = write_back(seg, home, home_tid, nframes, result, link);
  out.result = result;
  return out;
}

// ------------------------------------------------- exception-driven offload

void OffloadGuard::install(SodNode& node) {
  node.registry().bind("offload.trap", [this](svm::VM& vm, std::span<Value> a) {
    trapped_ = true;
    uid_ = a[0].i;
    // The handler's goto lands on the failing statement's MSP next; a
    // safepoint request pauses execution exactly there, capturable.
    vm.set_debug_mode(true);
    vm.request_safepoint(true);
    return Value{};
  });
}

ElasticOutcome run_elastic(SodNode& device, int tid, SodNode& cloud, sim::Link link,
                           OffloadGuard& guard) {
  ElasticOutcome out;
  while (true) {
    svm::RunResult rr = device.run_guest(tid);
    if (rr.reason == StopReason::Done) {
      out.result = device.vm().thread(tid).result;
      return out;
    }
    if (rr.reason == StopReason::Crashed) {
      SOD_UNREACHABLE("elastic run crashed: " +
                      device.vm().exception_message(device.vm().thread(tid).uncaught));
    }
    SOD_CHECK(rr.reason == StopReason::SafePoint, "elastic run: unexpected stop");
    SOD_CHECK(guard.trapped(), "safepoint stop without a trap");
    guard.reset();
    device.vm().request_safepoint(false);

    // Rocket the whole stack into the cloud; the failing allocation
    // retries there with a bigger heap.
    int depth = static_cast<int>(device.vm().thread(tid).frames.size());
    auto o = offload_and_return(device, tid, depth, cloud, link);
    out.offloaded = true;
    out.timing = o.timing;
    device.ti().set_debug_enabled(false);
    if (o.writeback.shortfall) {
      out.shortfall = o.writeback.shortfall;
      out.result = o.result;
      return out;
    }
    // The whole stack migrated: the device thread completed via write-back.
    SOD_CHECK(device.vm().thread(tid).status == svm::ThreadStatus::Done,
              "elastic offload did not complete the thread");
    out.result = device.vm().thread(tid).result;
    return out;
  }
}

}  // namespace sod::mig
