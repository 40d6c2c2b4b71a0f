// Heap: allocation, typed access, shallow/graph serialization, deep_equal.
#include <gtest/gtest.h>

#include <bit>
#include <climits>
#include <functional>

#include "svm/heap.h"
#include "testlib.h"

namespace sod::svm {
namespace {

using bc::Ty;
using bc::Value;
using sod::testing::deep_equal;

TEST(Heap, AllocAndAccess) {
  Heap h;
  std::vector<Ty> slots{Ty::I64, Ty::Ref, Ty::F64};
  Ref o = h.alloc_obj(3, slots);
  ASSERT_NE(o, bc::kNull);
  EXPECT_EQ(h.obj(o).cls, 3);
  EXPECT_EQ(h.obj(o).fields[0].as_i64(), 0);
  EXPECT_EQ(h.obj(o).fields[1].as_ref(), bc::kNull);
  EXPECT_DOUBLE_EQ(h.obj(o).fields[2].as_f64(), 0.0);

  Ref ai = h.alloc_arr_i(4);
  h.arr_i(ai).v[2] = 42;
  EXPECT_EQ(h.arr_i(ai).v[2], 42);

  Ref s = h.alloc_str("abc");
  EXPECT_EQ(h.str(s).s, "abc");
}

TEST(Heap, LimitEnforced) {
  Heap h(200);
  Ref a = h.alloc_arr_i(4);  // 16 + 32 bytes
  EXPECT_NE(a, bc::kNull);
  Ref b = h.alloc_arr_i(1000);  // way over
  EXPECT_EQ(b, bc::kNull);
  EXPECT_EQ(h.used_bytes(), 48u);  // the failed allocation charged nothing
  EXPECT_EQ(h.count(), 1u);
}

TEST(Heap, PastLimitAllocationStillCounts) {
  Heap h(40);
  EXPECT_NE(h.alloc_arr_i(2), bc::kNull);  // 32 of 40 bytes
  EXPECT_EQ(h.alloc_arr_i(1), bc::kNull);  // 24 more would not fit
  Ref r = h.alloc_past_limit(Cell(ArrICell{{1}}));
  ASSERT_NE(r, bc::kNull);
  EXPECT_EQ(h.arr_i(r).v[0], 1);
  EXPECT_EQ(h.used_bytes(), 56u);
}

TEST(Heap, StubLifecycle) {
  Heap h;
  Ref s = h.alloc_stub(42);
  ASSERT_NE(s, bc::kNull);
  EXPECT_TRUE(h.is_stub(s));
  EXPECT_EQ(h.stub_home(s), 42u);
  EXPECT_EQ(h.stub_static(s), bc::kNoId);
  // A stub for a captured static has no home ref but carries its field.
  Ref st = h.alloc_stub(bc::kNull, 7);
  EXPECT_EQ(h.stub_home(st), bc::kNull);
  EXPECT_EQ(h.stub_static(st), 7);
}

TEST(Heap, ShallowSerializeStubsEmbeddedRefs) {
  Heap src;
  std::vector<Ty> slots{Ty::I64, Ty::Ref};
  Ref inner = src.alloc_arr_i(2);
  src.arr_i(inner).v = {7, 8};
  Ref outer = src.alloc_obj(5, slots);
  src.obj(outer).fields[0] = Value::of_i64(99);
  src.obj(outer).fields[1] = Value::of_ref(inner);

  ByteWriter w;
  src.serialize_shallow(outer, w);
  // kind u8, class u16, field count u16, then (tag u8, i64) and (tag u8, u32 ref).
  EXPECT_EQ(w.size(), 1u + 2 + 2 + (1 + 8) + (1 + 4));
  // The unmapped overload is the identity mapper, byte for byte.
  ByteWriter mapped;
  src.serialize_shallow(outer, mapped, [](Ref r) { return r; });
  EXPECT_EQ(mapped.bytes(), w.bytes());

  Heap dst;
  ByteReader r(w.bytes());
  Ref copy = dst.deserialize_shallow(r);
  ASSERT_NE(copy, bc::kNull);
  EXPECT_EQ(dst.obj(copy).fields[0].as_i64(), 99);
  // The ref field arrives as a remote stub carrying the home ref,
  // allocated before its holder.
  Ref stub = dst.obj(copy).fields[1].as_ref();
  ASSERT_NE(stub, bc::kNull);
  EXPECT_LT(stub, copy);
  EXPECT_TRUE(dst.is_stub(stub));
  EXPECT_EQ(dst.stub_home(stub), inner);
}

TEST(Heap, ValueCodecRoundTripsEveryTag) {
  Value void_v;
  void_v.tag = Ty::Void;
  const uint64_t nan_bits = 0x7ff8'0000'dead'beefull;
  const Value vals[] = {Value::of_i64(-42), Value::of_i64(INT64_MIN),
                        Value::of_f64(std::bit_cast<double>(nan_bits)), Value::of_f64(-0.0),
                        Value::null(), Value::of_ref(0xfffffffeu), void_v};
  ByteWriter w;
  for (const Value& v : vals) write_value(w, v, std::identity{});
  ByteReader r(w.bytes());
  for (const Value& v : vals) {
    Value got = read_value(r);
    ASSERT_EQ(got.tag, v.tag);
    switch (v.tag) {
      case Ty::I64: EXPECT_EQ(got.i, v.i); break;
      case Ty::F64:  // payload bits, NaN and signed zero included
        EXPECT_EQ(std::bit_cast<uint64_t>(got.d), std::bit_cast<uint64_t>(v.d));
        break;
      case Ty::Ref: EXPECT_EQ(got.r, v.r); break;
      case Ty::Void: break;
    }
  }
  EXPECT_TRUE(r.done());
  // Void is its tag alone; a ref travels through the mapper.
  ByteWriter tag_only;
  write_value(tag_only, void_v, std::identity{});
  EXPECT_EQ(tag_only.size(), 1u);
  ByteWriter mapped;
  write_value(mapped, Value::of_ref(7), [](Ref x) { return x + 100; });
  ByteReader mr(mapped.bytes());
  EXPECT_EQ(read_value(mr).as_ref(), 107u);
}

TEST(Heap, ShallowSerializeMapsEveryRef) {
  Heap src;
  Ref a = src.alloc_str("a");
  Ref b = src.alloc_str("b");
  std::vector<Ty> slots{Ty::Ref, Ty::I64, Ty::Ref, Ty::Ref};
  Ref obj = src.alloc_obj(9, slots);
  src.obj(obj).fields[0] = Value::of_ref(a);
  src.obj(obj).fields[1] = Value::of_i64(5);
  src.obj(obj).fields[3] = Value::of_ref(b);
  Ref arr = src.alloc_arr_r(3);
  src.arr_r(arr).v = {b, bc::kNull, a};
  // Every ref, null included, goes through the mapper in field order, and
  // read_cell hands back the raw wire ids.
  auto map = [](Ref r) { return r == bc::kNull ? Ref{1000} : r + 500; };
  for (Ref holder : {obj, arr}) {
    ByteWriter w;
    src.serialize_shallow(holder, w, map);
    ByteReader r(w.bytes());
    Cell c = read_cell(r);
    EXPECT_TRUE(r.done());
    std::vector<Ref> seen;
    for_each_ref(c, [&](Ref x) { seen.push_back(x); });
    if (holder == obj) {
      const auto& f = std::get<ObjCell>(c).fields;
      EXPECT_EQ(f[1].as_i64(), 5);
      EXPECT_EQ((std::vector<Ref>{f[0].as_ref(), f[2].as_ref(), f[3].as_ref()}),
                (std::vector<Ref>{a + 500, 1000, b + 500}));
      EXPECT_EQ(seen, (std::vector<Ref>{a + 500, 1000, b + 500}));
    } else {
      EXPECT_EQ(std::get<ArrRCell>(c).v, (std::vector<Ref>{b + 500, 1000, a + 500}));
      EXPECT_EQ(seen, std::get<ArrRCell>(c).v);
    }
  }
}

TEST(Heap, ShallowArrays) {
  Heap src;
  Ref ad = src.alloc_arr_d(3);
  src.arr_d(ad).v = {1.5, -2.5, 0.0};
  ByteWriter w;
  src.serialize_shallow(ad, w);
  Heap dst;
  ByteReader r(w.bytes());
  Ref copy = dst.deserialize_shallow(r);
  EXPECT_EQ(dst.arr_d(copy).v, src.arr_d(ad).v);
}

TEST(Heap, RefArrayElementsArriveAsStubs) {
  Heap src;
  Ref s1 = src.alloc_str("x");
  Ref arr = src.alloc_arr_r(3);
  src.arr_r(arr).v = {s1, bc::kNull, s1};
  ByteWriter w;
  src.serialize_shallow(arr, w);
  Heap dst;
  ByteReader r(w.bytes());
  Ref copy = dst.deserialize_shallow(r);
  EXPECT_EQ(dst.count(), 3u);  // two stubs, then the array
  // Non-null elements arrive as stubs; the genuine null stays null.
  EXPECT_TRUE(dst.is_stub(dst.arr_r(copy).v[0]));
  EXPECT_EQ(dst.arr_r(copy).v[1], bc::kNull);
  EXPECT_TRUE(dst.is_stub(dst.arr_r(copy).v[2]));
  EXPECT_EQ(dst.stub_home(dst.arr_r(copy).v[0]), s1);
}

TEST(Heap, AllocAndOverwriteDecodedCells) {
  Heap src;
  Ref arr = src.alloc_arr_i(2);
  src.arr_i(arr).v = {4, 5};
  ByteWriter w;
  src.serialize_shallow(arr, w);
  Heap dst;
  ByteReader r(w.bytes());
  Ref copy = dst.alloc(read_cell(r));
  EXPECT_EQ(dst.used_bytes(), src.used_bytes());
  dst.overwrite(copy, Cell(ArrICell{{6, 7}}));
  EXPECT_EQ(dst.arr_i(copy).v, (std::vector<int64_t>{6, 7}));
  EXPECT_EQ(dst.used_bytes(), src.used_bytes());
  EXPECT_DEATH(dst.overwrite(copy, Cell(ArrICell{{1}})), "another kind or size");
  EXPECT_DEATH(dst.overwrite(copy, Cell(ArrDCell{{1.0, 2.0}})), "another kind or size");
}

TEST(Heap, GraphDeserializeWithoutStubs) {
  Heap src;
  Ref inner = src.alloc_str("y");
  Ref arr = src.alloc_arr_r(1);
  src.arr_r(arr).v = {inner};
  ByteWriter w;
  std::vector<Ref> roots{arr};
  src.serialize_graph(roots, w);
  Heap dst;
  ByteReader r(w.bytes());
  auto map = dst.deserialize_graph(r);
  // Graph mode rewires in-graph refs directly; no stubs remain reachable.
  EXPECT_FALSE(dst.is_stub(dst.arr_r(map.at(arr)).v[0]));
  EXPECT_EQ(dst.str(dst.arr_r(map.at(arr)).v[0]).s, "y");
}

TEST(Heap, GraphSerializePreservesSharingAndCycles) {
  Heap src;
  std::vector<Ty> slots{Ty::Ref, Ty::Ref};
  Ref a = src.alloc_obj(1, slots);
  Ref b = src.alloc_obj(1, slots);
  Ref shared = src.alloc_str("shared");
  // a -> b, a -> shared; b -> a (cycle), b -> shared (sharing)
  src.obj(a).fields[0] = Value::of_ref(b);
  src.obj(a).fields[1] = Value::of_ref(shared);
  src.obj(b).fields[0] = Value::of_ref(a);
  src.obj(b).fields[1] = Value::of_ref(shared);

  ByteWriter w;
  std::vector<Ref> roots{a};
  src.serialize_graph(roots, w);
  EXPECT_EQ(w.size(), src.graph_size(roots));

  Heap dst;
  ByteReader r(w.bytes());
  auto map = dst.deserialize_graph(r);
  ASSERT_EQ(map.size(), 3u);
  Ref a2 = map.at(a), b2 = map.at(b), s2 = map.at(shared);
  EXPECT_EQ(dst.obj(a2).fields[0].as_ref(), b2);
  EXPECT_EQ(dst.obj(b2).fields[0].as_ref(), a2);
  EXPECT_EQ(dst.obj(a2).fields[1].as_ref(), s2);
  EXPECT_EQ(dst.obj(b2).fields[1].as_ref(), s2);
  EXPECT_EQ(dst.str(s2).s, "shared");
  EXPECT_TRUE(deep_equal(src, a, dst, a2));
}

TEST(Heap, DeepEqualDetectsDifferences) {
  Heap h1, h2;
  std::vector<Ty> slots{Ty::I64};
  Ref x = h1.alloc_obj(1, slots);
  Ref y = h2.alloc_obj(1, slots);
  EXPECT_TRUE(deep_equal(h1, x, h2, y));
  h2.obj(y).fields[0] = Value::of_i64(5);
  EXPECT_FALSE(deep_equal(h1, x, h2, y));
  EXPECT_TRUE(deep_equal(h1, bc::kNull, h2, bc::kNull));
  EXPECT_FALSE(deep_equal(h1, x, h2, bc::kNull));
}

TEST(Heap, GraphSizeScalesWithPayload) {
  Heap h;
  Ref small = h.alloc_arr_d(10);
  Ref big = h.alloc_arr_d(1000);
  std::vector<Ref> rs{small}, rb{big};
  EXPECT_GT(h.graph_size(rb), 50 * h.graph_size(rs) / 10);
}

}  // namespace
}  // namespace sod::svm
