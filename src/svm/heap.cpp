#include "svm/heap.h"

#include <deque>
#include <unordered_set>

namespace sod::svm {

Value read_value(ByteReader& r) {
  Value v;
  v.tag = static_cast<Ty>(r.u8());
  switch (v.tag) {
    case Ty::I64: v.i = r.i64(); break;
    case Ty::F64: v.d = r.f64(); break;
    case Ty::Ref: v.r = r.u32(); break;
    case Ty::Void: break;
  }
  return v;
}

Cell read_cell(ByteReader& r) {
  switch (r.u8()) {
    case kWireObj: {
      ObjCell o;
      o.cls = r.u16();
      o.fields.resize(r.u16());
      for (Value& v : o.fields) v = read_value(r);
      return o;
    }
    case kWireArrI: {
      ArrICell a;
      a.v.resize(r.u32());
      for (auto& x : a.v) x = r.i64();
      return a;
    }
    case kWireArrD: {
      ArrDCell a;
      a.v.resize(r.u32());
      for (auto& x : a.v) x = r.f64();
      return a;
    }
    case kWireArrR: {
      ArrRCell a;
      a.v.resize(r.u32());
      for (auto& x : a.v) x = r.u32();
      return a;
    }
    case kWireStr: return StrCell{r.str()};
  }
  SOD_UNREACHABLE("bad wire cell kind");
}

Ref Heap::push_cell(Cell c, size_t bytes) {
  if (limit_ != 0 && used_ + bytes > limit_) return bc::kNull;
  return place(std::move(c), bytes);
}

Ref Heap::place(Cell c, size_t bytes) {
  used_ += bytes;
  size_t idx = count_++;
  if ((idx & kChunkMask) == 0) chunks_.emplace_back(std::make_unique<Cell[]>(kChunkCells));
  chunks_[idx >> kChunkShift][idx & kChunkMask] = std::move(c);
  return static_cast<Ref>(count_);
}

size_t Heap::cell_bytes(const Cell& c) {
  struct V {
    size_t operator()(const std::monostate&) const { return 0; }
    size_t operator()(const ObjCell& o) const { return 16 + o.fields.size() * 8; }
    size_t operator()(const ArrICell& a) const { return 16 + a.v.size() * 8; }
    size_t operator()(const ArrDCell& a) const { return 16 + a.v.size() * 8; }
    size_t operator()(const ArrRCell& a) const { return 16 + a.v.size() * 4; }
    size_t operator()(const StrCell& s) const { return 16 + s.s.size(); }
    size_t operator()(const StubCell&) const { return 8; }
  };
  return std::visit(V{}, c);
}

// The alloc_* fast paths compute their byte charge directly (the same
// formulas as cell_bytes) instead of running the visitor over a throwaway
// Cell copy.

Ref Heap::alloc_obj(uint16_t cls, std::span<const Ty> slot_types) {
  ObjCell o;
  o.cls = cls;
  o.fields.reserve(slot_types.size());
  for (Ty t : slot_types) o.fields.push_back(Value::zero_of(t));
  size_t b = 16 + slot_types.size() * 8;
  return push_cell(Cell(std::move(o)), b);
}

Ref Heap::alloc_arr_i(size_t n) {
  ArrICell a;
  a.v.assign(n, 0);
  return push_cell(Cell(std::move(a)), 16 + n * 8);
}
Ref Heap::alloc_arr_d(size_t n) {
  ArrDCell a;
  a.v.assign(n, 0.0);
  return push_cell(Cell(std::move(a)), 16 + n * 8);
}
Ref Heap::alloc_arr_r(size_t n) {
  ArrRCell a;
  a.v.assign(n, bc::kNull);
  return push_cell(Cell(std::move(a)), 16 + n * 4);
}
Ref Heap::alloc_str(std::string s) {
  size_t b = 16 + s.size();
  return push_cell(Cell(StrCell{std::move(s)}), b);
}

Ref Heap::alloc_stub(Ref home_ref, uint16_t static_field) {
  return push_cell(Cell(StubCell{home_ref, static_field}), 8);
}

Ref Heap::alloc(Cell c) {
  size_t b = cell_bytes(c);
  return push_cell(std::move(c), b);
}

Ref Heap::alloc_past_limit(Cell c) {
  size_t b = cell_bytes(c);
  return place(std::move(c), b);
}

void Heap::overwrite(Ref r, Cell c) {
  Cell& old = cell(r);
  SOD_CHECK(old.index() == c.index() && cell_bytes(old) == cell_bytes(c),
            "overwrite with a cell of another kind or size");
  old = std::move(c);
}

ObjCell& Heap::obj(Ref r) {
  auto* p = std::get_if<ObjCell>(&cell(r));
  SOD_CHECK(p, "ref is not an object");
  return *p;
}
const ObjCell& Heap::obj(Ref r) const {
  auto* p = std::get_if<ObjCell>(&cell(r));
  SOD_CHECK(p, "ref is not an object");
  return *p;
}
ArrICell& Heap::arr_i(Ref r) {
  auto* p = std::get_if<ArrICell>(&cell(r));
  SOD_CHECK(p, "ref is not an i64 array");
  return *p;
}
ArrDCell& Heap::arr_d(Ref r) {
  auto* p = std::get_if<ArrDCell>(&cell(r));
  SOD_CHECK(p, "ref is not an f64 array");
  return *p;
}
ArrRCell& Heap::arr_r(Ref r) {
  auto* p = std::get_if<ArrRCell>(&cell(r));
  SOD_CHECK(p, "ref is not a ref array");
  return *p;
}
const StrCell& Heap::str(Ref r) const {
  auto* p = std::get_if<StrCell>(&cell(r));
  SOD_CHECK(p, "ref is not a string");
  return *p;
}

Ref Heap::deserialize_shallow(ByteReader& r) {
  Cell c = read_cell(r);
  for_each_ref(c, [this](Ref& ref) { ref = alloc_stub(ref); });
  return alloc(std::move(c));
}

void Heap::serialize_graph(std::span<const Ref> roots, ByteWriter& w) const {
  std::vector<Ref> order;
  std::unordered_set<Ref> seen;
  std::deque<Ref> q;
  for (Ref r : roots)
    if (r != bc::kNull && seen.insert(r).second) q.push_back(r);
  while (!q.empty()) {
    Ref r = q.front();
    q.pop_front();
    order.push_back(r);
    for_each_ref(cell(r), [&](Ref k) {
      if (seen.insert(k).second) q.push_back(k);
    });
  }
  w.u32(static_cast<uint32_t>(order.size()));
  for (Ref r : order) {
    w.u32(r);
    serialize_shallow(r, w);
  }
}

size_t Heap::graph_size(std::span<const Ref> roots) const {
  ByteWriter w;
  serialize_graph(roots, w);
  return w.size();
}

std::unordered_map<Ref, Ref> Heap::deserialize_graph(ByteReader& r) {
  uint32_t n = r.u32();
  std::unordered_map<Ref, Ref> map;
  map.reserve(n);
  // Cells land with their embedded refs still home ids, then get rewired.
  for (uint32_t i = 0; i < n; ++i) {
    Ref home = r.u32();
    Ref local = alloc(read_cell(r));
    SOD_CHECK(local != bc::kNull, "graph deserialize hit heap limit");
    map[home] = local;
  }
  for (const auto& [home, local] : map)
    for_each_ref(cell(local), [&](Ref& ref) {
      auto it = map.find(ref);
      SOD_CHECK(it != map.end(), "dangling ref in graph image");
      ref = it->second;
    });
  return map;
}

}  // namespace sod::svm
