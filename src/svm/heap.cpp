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

Ref Heap::push_cell(Cell c, size_t bytes) {
  if (limit_ != 0 && used_ + bytes > limit_) {
    oom_ = true;
    return bc::kNull;
  }
  oom_ = false;
  used_ += bytes;
  size_t idx = count_++;
  if ((idx & kChunkMask) == 0) chunks_.emplace_back(std::make_unique<Cell[]>(kChunkCells));
  chunks_[idx >> kChunkShift][idx & kChunkMask] = std::move(c);
  return static_cast<Ref>(count_);
}

size_t Heap::cell_bytes(const Cell& c) const {
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

void Heap::replace_stub(Ref stub, Cell materialized) {
  SOD_CHECK(is_stub(stub), "replace_stub on non-stub");
  used_ += cell_bytes(materialized);
  cell(stub) = std::move(materialized);
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

size_t Heap::shallow_size(Ref r) const {
  ByteWriter w;
  serialize_shallow(r, w);
  return w.size();
}

Ref Heap::deserialize_shallow(ByteReader& r, const RemoteRefSink& remote_of, bool stubs) {
  uint8_t kind = r.u8();
  switch (kind) {
    case kWireObj: {
      uint16_t cls = r.u16();
      uint16_t n = r.u16();
      ObjCell o;
      o.cls = cls;
      o.fields.resize(n);
      std::vector<std::pair<uint32_t, Ref>> remotes;
      for (uint16_t i = 0; i < n; ++i) {
        Value v = read_value(r);
        if (v.tag == Ty::Ref) {
          Ref home = v.r;
          // Non-null remote refs become stubs (fetched on demand);
          // genuine nulls stay null.
          v = (home != bc::kNull && stubs) ? Value::of_ref(alloc_stub(home)) : Value::null();
          if (home != bc::kNull) remotes.emplace_back(i, home);
        }
        o.fields[i] = v;
      }
      size_t b = 16 + o.fields.size() * 8;
      Ref nr = push_cell(Cell(std::move(o)), b);
      if (nr != bc::kNull && remote_of)
        for (auto& [slot, home] : remotes) remote_of(nr, slot, home);
      return nr;
    }
    case kWireArrI: {
      uint32_t n = r.u32();
      ArrICell a;
      a.v.resize(n);
      for (auto& x : a.v) x = r.i64();
      return push_cell(Cell(std::move(a)), 16 + n * 8);
    }
    case kWireArrD: {
      uint32_t n = r.u32();
      ArrDCell a;
      a.v.resize(n);
      for (auto& x : a.v) x = r.f64();
      return push_cell(Cell(std::move(a)), 16 + n * 8);
    }
    case kWireArrR: {
      uint32_t n = r.u32();
      ArrRCell a;
      a.v.assign(n, bc::kNull);
      std::vector<std::pair<uint32_t, Ref>> remotes;
      for (uint32_t i = 0; i < n; ++i) {
        Ref home = r.u32();
        if (home != bc::kNull) {
          remotes.emplace_back(i, home);
          if (stubs) a.v[i] = alloc_stub(home);
        }
      }
      size_t b = 16 + n * 4;
      Ref nr = push_cell(Cell(std::move(a)), b);
      if (nr != bc::kNull && remote_of)
        for (auto& [idx, home] : remotes) remote_of(nr, idx, home);
      return nr;
    }
    case kWireStr: {
      return alloc_str(r.str());
    }
  }
  SOD_UNREACHABLE("bad wire cell kind");
}

namespace {
void collect_refs(const Cell& c, std::vector<Ref>& out) {
  if (const auto* o = std::get_if<ObjCell>(&c)) {
    for (const Value& v : o->fields)
      if (v.tag == Ty::Ref && v.r != bc::kNull) out.push_back(v.r);
  } else if (const auto* ar = std::get_if<ArrRCell>(&c)) {
    for (Ref x : ar->v)
      if (x != bc::kNull) out.push_back(x);
  }
}
}  // namespace

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
    std::vector<Ref> kids;
    collect_refs(cell(r), kids);
    for (Ref k : kids)
      if (seen.insert(k).second) q.push_back(k);
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
  // Pass 1: materialize cells, remembering embedded home refs.
  std::vector<std::tuple<Ref, uint32_t, Ref>> links;  // (local holder, slot, home)
  for (uint32_t i = 0; i < n; ++i) {
    Ref home = r.u32();
    Ref local = deserialize_shallow(
        r, [&](Ref holder, uint32_t slot, Ref h) { links.emplace_back(holder, slot, h); },
        /*stubs=*/false);
    SOD_CHECK(local != bc::kNull, "graph deserialize hit heap limit");
    map[home] = local;
  }
  // Pass 2: rewire intra-graph references.
  for (auto& [holder, slot, home] : links) {
    auto it = map.find(home);
    SOD_CHECK(it != map.end(), "dangling ref in graph image");
    Cell& c = cell(holder);
    if (auto* o = std::get_if<ObjCell>(&c)) {
      o->fields[slot] = Value::of_ref(it->second);
    } else if (auto* ar = std::get_if<ArrRCell>(&c)) {
      ar->v[slot] = it->second;
    } else {
      SOD_UNREACHABLE("link into non-ref-bearing cell");
    }
  }
  return map;
}

bool Heap::deep_equal(const Heap& a, Ref ra, const Heap& b, Ref rb) {
  if ((ra == bc::kNull) != (rb == bc::kNull)) return false;
  if (ra == bc::kNull) return true;
  std::unordered_map<Ref, Ref> paired;
  std::deque<std::pair<Ref, Ref>> q{{ra, rb}};
  while (!q.empty()) {
    auto [x, y] = q.front();
    q.pop_front();
    auto it = paired.find(x);
    if (it != paired.end()) {
      if (it->second != y) return false;
      continue;
    }
    paired[x] = y;
    const Cell& cx = a.cell(x);
    const Cell& cy = b.cell(y);
    if (cx.index() != cy.index()) return false;
    if (const auto* ox = std::get_if<ObjCell>(&cx)) {
      const auto& oy = std::get<ObjCell>(cy);
      if (ox->cls != oy.cls || ox->fields.size() != oy.fields.size()) return false;
      for (size_t i = 0; i < ox->fields.size(); ++i) {
        const Value& vx = ox->fields[i];
        const Value& vy = oy.fields[i];
        if (vx.tag != vy.tag) return false;
        if (vx.tag == Ty::Ref) {
          if ((vx.r == bc::kNull) != (vy.r == bc::kNull)) return false;
          if (vx.r != bc::kNull) q.emplace_back(vx.r, vy.r);
        } else if (!vx.same_as(vy)) {
          return false;
        }
      }
    } else if (const auto* aix = std::get_if<ArrICell>(&cx)) {
      if (aix->v != std::get<ArrICell>(cy).v) return false;
    } else if (const auto* adx = std::get_if<ArrDCell>(&cx)) {
      if (adx->v != std::get<ArrDCell>(cy).v) return false;
    } else if (const auto* arx = std::get_if<ArrRCell>(&cx)) {
      const auto& ary = std::get<ArrRCell>(cy);
      if (arx->v.size() != ary.v.size()) return false;
      for (size_t i = 0; i < arx->v.size(); ++i) {
        if ((arx->v[i] == bc::kNull) != (ary.v[i] == bc::kNull)) return false;
        if (arx->v[i] != bc::kNull) q.emplace_back(arx->v[i], ary.v[i]);
      }
    } else if (const auto* sx = std::get_if<StrCell>(&cx)) {
      if (sx->s != std::get<StrCell>(cy).s) return false;
    }
  }
  return true;
}

}  // namespace sod::svm
