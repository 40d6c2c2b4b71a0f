// Guest heap.
//
// Cells are class instances, typed arrays, or interned strings.  Refs are
// 1-based indices (0 = null).  There is no garbage collector — guest runs
// in the experiments are bounded, and the paper's migration design treats
// the heap as home-anchored data that is fetched on demand, so lifetime is
// managed per-VM (the whole heap dies with the VM, as the worker JVMs in
// the paper exit after their lease).
//
// Serialization comes in two flavours mirroring the two migration schools:
//   - serialize_shallow: one cell; embedded refs are encoded as *home ref
//     ids* and materialize at the receiver as stubs carrying that home ref
//     (SOD's on-demand object faulting).
//   - serialize_graph: the full reachable closure (eager-copy process
//     migration à la G-JavaMPI).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "bytecode/program.h"
#include "bytecode/types.h"
#include "support/bytes.h"

namespace sod::svm {

using bc::Ref;
using bc::Ty;
using bc::Value;

/// Placeholder for an object whose data still lives at the home node.
/// Stubs look non-null to reference tests (preserving `if (x == null)`
/// semantics across migration) but raise NullPointerException on any
/// dereference, which drives the injected fault handlers exactly like the
/// paper's plain-null scheme.  `home_ref` is the home-heap id when known
/// (stubs from deserialized objects) or 0.  A stub with home_ref 0 stands
/// either for a captured static (`static_field`, resolved by reading that
/// field at the home) or for a captured frame local (resolved via
/// GetLocal at the home).
struct StubCell {
  Ref home_ref = 0;
  uint16_t static_field = bc::kNoId;
};

struct ObjCell {
  uint16_t cls = 0;
  std::vector<Value> fields;
};
struct ArrICell {
  std::vector<int64_t> v;
};
struct ArrDCell {
  std::vector<double> v;
};
struct ArrRCell {
  std::vector<Ref> v;
};
struct StrCell {
  std::string s;
};

using Cell = std::variant<std::monostate, ObjCell, ArrICell, ArrDCell, ArrRCell, StrCell, StubCell>;

// The value and cell wire format.  Every module that ships heap state
// (object fetches, write-backs, checkpoints, eager process migration)
// encodes through write_value / Heap::serialize_shallow and decodes through
// read_value / read_cell, so the format lives here and nowhere else:
// read_cell is the one cell decoder.  CapturedState keeps its own value
// codec, because a captured ref travels there as a 1-byte null/remote flag
// where a cell's ref is a u32 wire id; sharing one codec would make it
// branch on its caller.

/// Wire tags for cell kinds.
enum : uint8_t { kWireObj = 1, kWireArrI, kWireArrD, kWireArrR, kWireStr };

/// One tagged value: the tag byte, then the payload.  A ref travels as
/// `map_ref(ref)` (a u32 wire id); Void travels as its tag alone.
template <class MapRef>
void write_value(ByteWriter& w, const Value& v, MapRef&& map_ref) {
  w.u8(static_cast<uint8_t>(v.tag));
  switch (v.tag) {
    case Ty::I64: w.i64(v.i); break;
    case Ty::F64: w.f64(v.d); break;
    case Ty::Ref: w.u32(map_ref(v.r)); break;
    case Ty::Void: break;
  }
}
/// Inverse of write_value; a ref comes back as its raw wire id.
Value read_value(ByteReader& r);
/// Inverse of Heap::serialize_shallow; embedded refs come back as raw
/// wire ids.
Cell read_cell(ByteReader& r);

/// Calls f(ref) on each non-null ref an object's fields or a ref array's
/// elements hold, in field / element order.  On a mutable cell f gets a
/// `Ref&` and may rewrite the ref in place.
template <class C, class F>
void for_each_ref(C& c, F&& f) {
  if (auto* o = std::get_if<ObjCell>(&c)) {
    for (auto& v : o->fields)
      if (v.tag == Ty::Ref && v.r != bc::kNull) f(v.r);
  } else if (auto* a = std::get_if<ArrRCell>(&c)) {
    for (auto& x : a->v)
      if (x != bc::kNull) f(x);
  }
}

class Heap {
 public:
  /// Byte budget; allocations beyond it fail (drives OutOfMemory-style
  /// exception-driven offload on small-device profiles).  0 = unlimited.
  explicit Heap(size_t limit_bytes = 0) : limit_(limit_bytes) {}

  Ref alloc_obj(uint16_t cls, std::span<const Ty> slot_types);
  Ref alloc_arr_i(size_t n);
  Ref alloc_arr_d(size_t n);
  Ref alloc_arr_r(size_t n);
  Ref alloc_str(std::string s);
  Ref alloc_stub(Ref home_ref, uint16_t static_field = bc::kNoId);
  /// Allocate a decoded cell as is, charged by its size.
  Ref alloc(Cell c);
  /// Allocate a decoded cell past the byte budget (its bytes still
  /// count): the VM's OutOfMemory object, when a full heap has no room
  /// left for it.
  Ref alloc_past_limit(Cell c);
  /// Replace cell `r` with `c`, which must have the same kind and size.
  void overwrite(Ref r, Cell c);

  bool is_stub(Ref r) const { return std::holds_alternative<StubCell>(cell(r)); }
  Ref stub_home(Ref r) const { return std::get<StubCell>(cell(r)).home_ref; }
  uint16_t stub_static(Ref r) const { return std::get<StubCell>(cell(r)).static_field; }

  bool valid(Ref r) const { return r >= 1 && r <= count_; }
  Cell& cell(Ref r) {
    SOD_CHECK(valid(r), "bad ref");
    return chunks_[(r - 1) >> kChunkShift][(r - 1) & kChunkMask];
  }
  const Cell& cell(Ref r) const {
    SOD_CHECK(valid(r), "bad ref");
    return chunks_[(r - 1) >> kChunkShift][(r - 1) & kChunkMask];
  }
  ObjCell& obj(Ref r);
  const ObjCell& obj(Ref r) const;
  ArrICell& arr_i(Ref r);
  ArrDCell& arr_d(Ref r);
  ArrRCell& arr_r(Ref r);
  const StrCell& str(Ref r) const;

  size_t count() const { return count_; }
  size_t used_bytes() const { return used_; }
  /// Byte budget (0 = unlimited).
  size_t limit_bytes() const { return limit_; }
  /// Bytes allocating `c` charges against the budget.
  static size_t cell_bytes(const Cell& c);

  /// Shallow wire form of one cell; each embedded ref travels as
  /// `map_ref(ref)`, called in field / element order.
  template <class MapRef>
  void serialize_shallow(Ref r, ByteWriter& w, MapRef&& map_ref) const;
  /// Shallow wire form with embedded refs as raw ids.
  void serialize_shallow(Ref r, ByteWriter& w) const { serialize_shallow(r, w, std::identity{}); }
  /// Materialize a shallow cell into this heap.  Each embedded non-null
  /// ref becomes a remote stub carrying the home ref, allocated before its
  /// holder.  Returns the new local ref (kNull if the heap is full).
  Ref deserialize_shallow(ByteReader& r);

  /// Full reachable closure from `roots` (eager copy).  The wire form is a
  /// list of (home_ref, shallow cell); intra-graph refs are preserved via
  /// an id map when deserializing.
  void serialize_graph(std::span<const Ref> roots, ByteWriter& w) const;
  size_t graph_size(std::span<const Ref> roots) const;
  /// Returns home->local ref map.
  std::unordered_map<Ref, Ref> deserialize_graph(ByteReader& r);

 private:
  // Cells live in fixed-size chunks so allocation is a bump of count_ (a
  // new chunk every kChunkCells allocs) and cell references stay stable —
  // no vector reallocation moving live Cell storage under the interpreter.
  static constexpr size_t kChunkShift = 10;
  static constexpr size_t kChunkCells = size_t{1} << kChunkShift;
  static constexpr size_t kChunkMask = kChunkCells - 1;

  /// Charges `bytes` against the budget; kNull (nothing allocated) past it.
  Ref push_cell(Cell c, size_t bytes);
  /// Allocates regardless of the budget.
  Ref place(Cell c, size_t bytes);

  std::vector<std::unique_ptr<Cell[]>> chunks_;
  size_t count_ = 0;
  size_t limit_;
  size_t used_ = 0;
};

template <class MapRef>
void Heap::serialize_shallow(Ref r, ByteWriter& w, MapRef&& map_ref) const {
  const Cell& c = cell(r);
  if (const auto* o = std::get_if<ObjCell>(&c)) {
    w.u8(kWireObj);
    w.u16(o->cls);
    w.u16(static_cast<uint16_t>(o->fields.size()));
    for (const Value& v : o->fields) write_value(w, v, map_ref);
  } else if (const auto* ai = std::get_if<ArrICell>(&c)) {
    w.u8(kWireArrI);
    w.u32(static_cast<uint32_t>(ai->v.size()));
    for (int64_t x : ai->v) w.i64(x);
  } else if (const auto* ad = std::get_if<ArrDCell>(&c)) {
    w.u8(kWireArrD);
    w.u32(static_cast<uint32_t>(ad->v.size()));
    for (double x : ad->v) w.f64(x);
  } else if (const auto* ar = std::get_if<ArrRCell>(&c)) {
    w.u8(kWireArrR);
    w.u32(static_cast<uint32_t>(ar->v.size()));
    for (Ref x : ar->v) w.u32(map_ref(x));
  } else if (const auto* s = std::get_if<StrCell>(&c)) {
    w.u8(kWireStr);
    w.str(s->s);
  } else if (std::holds_alternative<StubCell>(c)) {
    SOD_UNREACHABLE("serialize of remote stub: materialize it first");
  } else {
    SOD_UNREACHABLE("serialize of empty cell");
  }
}

}  // namespace sod::svm
