#include "sod/objman.h"

#include <algorithm>

namespace sod::mig {

using svm::VM;

void ObjectManager::install(SodNode& worker) {
  worker_ = &worker;
  auto& reg = worker.registry();
  reg.bind("objman.enter", [this](VM& vm, std::span<Value> a) {
    enter(vm, a[0].i);
    return Value{};
  });
  reg.bind("objman.bring_local", [this](VM& vm, std::span<Value> a) {
    bring_local(vm, a[0].i);
    return Value{};
  });
  reg.bind("objman.bring_static", [this](VM& vm, std::span<Value> a) {
    bring_static(vm, a[0].i);
    return Value{};
  });
  reg.bind("objman.bring_field", [this](VM& vm, std::span<Value> a) {
    bring_field(vm, a[0].r, a[1].i);
    return Value{};
  });
  reg.bind("objman.bring_elem", [this](VM& vm, std::span<Value> a) {
    bring_elem(vm, a[0].r, a[1].i);
    return Value{};
  });
  // Status-check baseline natives (Fig. 5 B1).
  reg.bind("objman.bring_checked", [this](VM& vm, std::span<Value> a) {
    if (a[0].r == bc::kNull) return Value{};
    const bc::Field& f = vm.program().field(static_cast<uint16_t>(a[1].i));
    vm.heap().obj(a[0].r).fields[f.slot] = Value::of_i64(1);
    ++stats_.faults;
    return Value{};
  });
  reg.bind("objman.bring_class_checked", [this](VM& vm, std::span<Value> a) {
    const bc::Field& f = vm.program().field(static_cast<uint16_t>(a[0].i));
    uint16_t sfid = vm.program().find_field(vm.program().cls(f.owner).name + ".__sstatus");
    if (sfid != bc::kNoId) vm.set_static(sfid, Value::of_i64(1));
    ++stats_.faults;
    return Value{};
  });
  reg.bind("objman.status_probe", [](VM&, std::span<Value>) { return Value::of_i64(1); });
  reg.bind("objman.bring_probe", [](VM&, std::span<Value>) { return Value{}; });
}

void ObjectManager::bind_home(SodNode* home, int home_tid, int seg_len, sim::Link link) {
  home_ = home;
  home_tid_ = home_tid;
  seg_len_ = seg_len;
  link_ = link;
  home_map_.clear();
  local_map_.clear();
  local_stub_origin_.clear();
  enter_state_.clear();
}

std::vector<std::pair<Ref, Ref>> ObjectManager::home_entries() const {
  std::vector<std::pair<Ref, Ref>> out(home_map_.begin(), home_map_.end());
  std::sort(out.begin(), out.end());
  return out;
}

Ref ObjectManager::local_of_home(Ref home_ref) const {
  auto it = home_map_.find(home_ref);
  return it == home_map_.end() ? bc::kNull : it->second;
}

void ObjectManager::register_local_stub(Ref stub, int frame_idx, uint16_t slot) {
  local_stub_origin_[stub] = {frame_idx, slot};
}

Ref ObjectManager::resolve_stub_home(Ref stub) {
  SOD_CHECK(worker_, "resolve_stub_home without worker");
  const svm::Heap& heap = worker_->vm().heap();
  Ref direct = heap.stub_home(stub);
  if (direct != bc::kNull) return direct;
  if (!home_) return bc::kNull;
  // Origin lookups are worker-local; only the tool-interface read on home
  // runs inside a gate section (keyed by the field / slot the stub stands
  // for — any stable key works, it only picks the stripe).
  if (uint16_t field = heap.stub_static(stub); field != bc::kNoId) {
    GateSection gate(home_gate_, HomeShardMap::key_class(field));
    Value hv = home_->ti().get_static_field(field);
    home_->sync_ti_cost();
    return hv.tag == bc::Ty::Ref ? hv.r : bc::kNull;
  }
  auto it = local_stub_origin_.find(stub);
  if (it == local_stub_origin_.end()) return bc::kNull;
  auto [frame_idx, slot] = it->second;
  if (frame_idx >= seg_len_) return bc::kNull;
  int home_depth = seg_len_ - 1 - frame_idx;
  GateSection gate(home_gate_, HomeShardMap::key_segment(frame_idx, slot));
  Value hv = home_->ti().get_local(home_tid_, home_depth, slot);
  home_->sync_ti_cost();
  return hv.tag == bc::Ty::Ref ? hv.r : bc::kNull;
}

Ref ObjectManager::fetch(Ref home_ref) {
  SOD_CHECK(home_ && worker_, "fetch without home binding");
  if (Ref cached = local_of_home(home_ref); cached != bc::kNull) return cached;
  GateSection gate(home_gate_, HomeShardMap::key_ref(home_ref));

  // Home side: locate the object and (with prefetch) its neighbourhood up
  // to prefetch_depth_ hops; everything rides one response message.
  home_->ti().resolve_object(home_ref);
  VDur locate = home_->ti().spent();
  home_->ti().reset_spent();

  svm::Heap& hh = home_->vm().heap();
  std::vector<Ref> batch{home_ref};
  {
    std::unordered_map<Ref, int> depth_of{{home_ref, 0}};
    size_t scan = 0;
    while (scan < batch.size()) {
      Ref cur = batch[scan++];
      int d = depth_of[cur];
      if (d >= prefetch_depth_) continue;
      svm::for_each_ref(hh.cell(cur), [&](Ref child) {
        if (depth_of.count(child) || local_of_home(child) != bc::kNull) return;
        depth_of[child] = d + 1;
        batch.push_back(child);
      });
    }
  }

  ByteWriter w;
  w.u16(static_cast<uint16_t>(batch.size()));
  for (Ref r : batch) {
    w.u32(r);
    hh.serialize_shallow(r, w);
  }

  // Round trip: request (small) + the whole batch back.
  VDur home_service =
      locate + home_->serde().cost(w.size(), static_cast<int>(batch.size()));
  sim::round_trip(worker_->node(), home_->node(), link_, 64, w.size(), home_service);
  // Home is done: drop the ordered path and serve the wall twin of the
  // home-side work holding only this ref's stripe — fetches of objects on
  // other shards proceed meanwhile.
  gate.service(home_service);

  ByteReader r(w.bytes());
  uint16_t n = r.u16();
  Ref first = bc::kNull;
  for (uint16_t i = 0; i < n; ++i) {
    Ref home_id = r.u32();
    Ref local = worker_->vm().heap().deserialize_shallow(r);
    SOD_CHECK(local != bc::kNull, "worker heap exhausted during object fetch");
    home_map_[home_id] = local;
    local_map_[local] = home_id;
    if (i == 0) first = local;
    else ++stats_.prefetched;
  }
  worker_->node().charge_host(worker_->serde().cost(w.size(), n));
  ++stats_.faults;
  stats_.bytes += w.size();
  return first;
}

void ObjectManager::bring_local(VM& vm, int64_t slot) {
  svm::Frame* f = vm.native_frame();
  SOD_CHECK(f, "bring_local outside native dispatch");
  SOD_CHECK(slot >= 0 && static_cast<size_t>(slot) < f->locals.size(), "bad bring_local slot");
  Value& v = f->locals[static_cast<size_t>(slot)];
  if (v.tag != bc::Ty::Ref) return;
  // Present: non-null and not a remote stub.
  if (v.r != bc::kNull && !vm.heap().is_stub(v.r)) return;

  if (v.r != bc::kNull && home_) {  // remote stub
    Ref home_ref = resolve_stub_home(v.r);
    if (home_ref != bc::kNull) {
      v = Value::of_ref(fetch(home_ref));
      ++repairs_done_;
      return;
    }
  }
  // Application-level null (or unresolvable): pass the NPE through.
  ++stats_.app_npe_rethrown;
  vm.throw_guest(bc::builtin::kNullPointer, "local slot " + std::to_string(slot));
}

void ObjectManager::bring_static(VM& vm, int64_t field_id) {
  const bc::Field& fd = vm.program().field(static_cast<uint16_t>(field_id));
  Value cur = vm.get_static(fd.id);
  if (cur.tag != bc::Ty::Ref) return;
  if (cur.r != bc::kNull && !vm.heap().is_stub(cur.r)) return;

  if (cur.r != bc::kNull && home_) {  // remote stub standing for the home static
    Value hv;
    {
      // The gate section covers only the home static read: fetch() below
      // opens its own section keyed by the target ref, and holding this
      // stripe across it would nest two stripes (the deadlock the lock
      // order forbids).
      GateSection gate(home_gate_, HomeShardMap::key_class(fd.id));
      hv = home_->ti().get_static_field(fd.id);
      home_->sync_ti_cost();
    }
    if (hv.tag == bc::Ty::Ref && hv.r != bc::kNull) {
      vm.set_static(fd.id, Value::of_ref(fetch(hv.r)));
      ++repairs_done_;
      return;
    }
  }
  ++stats_.app_npe_rethrown;
  vm.throw_guest(bc::builtin::kNullPointer, fd.name);
}

void ObjectManager::bring_field(VM& vm, Ref base, int64_t field_id) {
  const bc::Field& fd = vm.program().field(static_cast<uint16_t>(field_id));
  if (base == bc::kNull || vm.heap().is_stub(base)) {
    // The base itself is unrepaired; its own repair (emitted earlier in
    // the handler) must have failed -> application-level.
    vm.throw_guest(bc::builtin::kNullPointer, fd.name);
    return;
  }
  Value& v = vm.heap().obj(base).fields[fd.slot];
  if (v.tag != bc::Ty::Ref) return;
  if (v.r != bc::kNull && !vm.heap().is_stub(v.r)) return;

  if (v.r != bc::kNull && home_) {  // stub carries the home ref
    Ref home_ref = vm.heap().stub_home(v.r);
    if (home_ref != bc::kNull) {
      v = Value::of_ref(fetch(home_ref));
      ++repairs_done_;
      return;
    }
  }
  ++stats_.app_npe_rethrown;
  vm.throw_guest(bc::builtin::kNullPointer, fd.name);
}

void ObjectManager::bring_elem(VM& vm, Ref base, int64_t idx) {
  if (base == bc::kNull || vm.heap().is_stub(base)) {
    vm.throw_guest(bc::builtin::kNullPointer, "array");
    return;
  }
  auto& arr = vm.heap().arr_r(base);
  if (idx < 0 || static_cast<size_t>(idx) >= arr.v.size()) return;  // real deref will throw OOB
  Ref& slot = arr.v[static_cast<size_t>(idx)];
  if (slot == bc::kNull) {
    // Genuinely null at the home too (arrays arrive with stubs for
    // non-null elements): let the retry NPE surface as application-level.
    return;
  }
  if (!vm.heap().is_stub(slot)) return;

  Ref home_ref = vm.heap().stub_home(slot);
  if (home_ref != bc::kNull && home_) {
    slot = fetch(home_ref);
    ++repairs_done_;
    return;
  }
  ++stats_.app_npe_rethrown;
  vm.throw_guest(bc::builtin::kNullPointer, "array element " + std::to_string(idx));
}

void ObjectManager::enter(VM& vm, int64_t uid) {
  EnterState& st = enter_state_[vm.native_tid()];
  if (st.uid == uid && st.fetches == repairs_done_) {
    ++stats_.app_npe_rethrown;
    st.uid = -1;
    vm.throw_guest(bc::builtin::kNullPointer, "null dereference (application)");
    return;
  }
  st.uid = uid;
  st.fetches = repairs_done_;
}

}  // namespace sod::mig
