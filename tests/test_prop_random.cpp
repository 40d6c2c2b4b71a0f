// Differential property tests: randomly generated straight-line guest
// programs are evaluated both by the interpreter and by a host-side
// reference evaluator; the flatten pass must also be semantics-preserving
// on them.  Deterministic seeds keep failures reproducible.
#include <gtest/gtest.h>

#include "prep/flatten.h"
#include "support/rng.h"
#include "testlib.h"

namespace sod {
namespace {

using namespace sod::testing;

/// Generates a random expression program over k i64 parameters:
/// emits the same computation into the builder and onto a host-side
/// evaluation stack.
struct ExprGen {
  Rng rng;
  bc::MethodBuilder& f;
  std::vector<int64_t> args;     // parameter values
  std::vector<int64_t> host;     // host evaluation stack

  ExprGen(uint64_t seed, bc::MethodBuilder& fb, std::vector<int64_t> a)
      : rng(seed), f(fb), args(std::move(a)) {}

  void push_leaf() {
    if (rng.below(2) == 0 && !args.empty()) {
      size_t k = rng.below(args.size());
      f.iload(static_cast<uint16_t>(k));
      host.push_back(args[k]);
    } else {
      int64_t v = rng.range(-50, 50);
      f.iconst(v);
      host.push_back(v);
    }
  }

  void combine() {
    int64_t b = host.back();
    host.pop_back();
    int64_t a = host.back();
    host.pop_back();
    switch (rng.below(6)) {
      case 0: f.iadd(); host.push_back(a + b); break;
      case 1: f.isub(); host.push_back(a - b); break;
      case 2: f.imul(); host.push_back(a * b); break;
      case 3: f.iand(); host.push_back(a & b); break;
      case 4: f.ior(); host.push_back(a | b); break;
      default: f.ixor(); host.push_back(a ^ b); break;
    }
  }

  int64_t generate(int ops) {
    f.stmt();
    push_leaf();
    for (int i = 0; i < ops; ++i) {
      if (host.size() < 2 || (rng.below(3) != 0 && host.size() < 6)) push_leaf();
      else combine();
    }
    while (host.size() > 1) combine();
    f.iret();
    return host.back();
  }
};

class RandomExpr : public ::testing::TestWithParam<int> {};

TEST_P(RandomExpr, InterpreterMatchesHostEvaluator) {
  uint64_t seed = 1000 + static_cast<uint64_t>(GetParam());
  Rng argrng(seed * 7);
  std::vector<int64_t> args = {argrng.range(-100, 100), argrng.range(-100, 100),
                               argrng.range(-100, 100)};

  ProgramBuilder pb;
  auto& f = pb.cls("R").method(
      "e", {{"a", Ty::I64}, {"b", Ty::I64}, {"c", Ty::I64}}, Ty::I64);
  ExprGen gen(seed, f, args);
  int64_t expected = gen.generate(12 + GetParam() % 20);
  auto p = pb.build();

  std::vector<Value> vargs;
  for (int64_t a : args) vargs.push_back(Value::of_i64(a));
  EXPECT_EQ(run1(p, "R.e", vargs).as_i64(), expected) << "seed " << seed;
}

TEST_P(RandomExpr, FlattenPreservesSemantics) {
  uint64_t seed = 5000 + static_cast<uint64_t>(GetParam());
  Rng argrng(seed * 13);
  std::vector<int64_t> args = {argrng.range(-100, 100), argrng.range(-100, 100),
                               argrng.range(-100, 100)};

  ProgramBuilder pb;
  auto& f = pb.cls("R").method(
      "e", {{"a", Ty::I64}, {"b", Ty::I64}, {"c", Ty::I64}}, Ty::I64);
  ExprGen gen(seed, f, args);
  int64_t expected = gen.generate(10 + GetParam() % 25);
  auto p = pb.build();
  flatten_program(p);

  std::vector<Value> vargs;
  for (int64_t a : args) vargs.push_back(Value::of_i64(a));
  EXPECT_EQ(run1(p, "R.e", vargs).as_i64(), expected) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExpr, ::testing::Range(0, 25));

/// Random call graphs: chains of helper methods with nested invocations —
/// the flatten pass must extract calls and preserve results.
class RandomCalls : public ::testing::TestWithParam<int> {};

TEST_P(RandomCalls, NestedCallsSurviveFlatten) {
  uint64_t seed = 9000 + static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  ProgramBuilder pb;
  auto& cls = pb.cls("C");
  // helper_i(x) = x * mi + ci
  int nhelpers = 3 + static_cast<int>(rng.below(3));
  std::vector<int64_t> mult(static_cast<size_t>(nhelpers)), add(static_cast<size_t>(nhelpers));
  for (int i = 0; i < nhelpers; ++i) {
    mult[static_cast<size_t>(i)] = rng.range(1, 5);
    add[static_cast<size_t>(i)] = rng.range(-10, 10);
    // Built piecewise: `"h" + std::to_string(i)` trips gcc 12's -Wrestrict
    // false positive (PR 105651) under -O2.
    std::string hname("h");
    hname += std::to_string(i);
    auto& h = cls.method(hname, {{"x", Ty::I64}}, Ty::I64);
    h.stmt()
        .iload("x")
        .iconst(mult[static_cast<size_t>(i)])
        .imul()
        .iconst(add[static_cast<size_t>(i)])
        .iadd()
        .iret();
  }
  // main(x) = h0(h1(x)) + h2(x) ... nested in ONE statement
  auto& m = cls.method("main", {{"x", Ty::I64}}, Ty::I64);
  m.stmt()
      .iload("x").invoke("C.h1").invoke("C.h0")
      .iload("x").invoke("C.h2")
      .iadd()
      .iret();
  auto p = pb.build();
  prep::FlattenStats st = flatten_program(p);
  EXPECT_GE(st.calls_extracted, 2);  // nested calls forced into temps

  int64_t x = rng.range(-20, 20);
  auto h = [&](int i, int64_t v) { return v * mult[static_cast<size_t>(i)] + add[static_cast<size_t>(i)]; };
  int64_t expected = h(0, h(1, x)) + h(2, x);
  EXPECT_EQ(run1(p, "C.main", {Value::of_i64(x)}).as_i64(), expected) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCalls, ::testing::Range(0, 15));

}  // namespace
}  // namespace sod
