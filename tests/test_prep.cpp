// Preprocessor: flattening (MSP establishment), restoration-handler and
// object-fault-handler injection, status-check instrumentation — all
// checked for semantic transparency on never-migrated runs.
#include <gtest/gtest.h>

#include <span>

#include "apps/apps.h"
#include "bytecode/verifier.h"
#include "prep/prep.h"
#include "sod/objman.h"
#include "testlib.h"

namespace sod {
namespace {

using namespace sod::testing;
using prep::MissDetection;
using prep::PrepOptions;

/// Program with deliberately nested call expressions: fib written as
/// "return fib(n-1) + fib(n-2)" in a single statement.
bc::Program nested_fib_program() {
  ProgramBuilder pb;
  auto& f = pb.cls("Main").method("fib", {{"n", Ty::I64}}, Ty::I64);
  Label rec = f.label();
  f.stmt().iload("n").iconst(2).if_icmpge(rec);
  f.stmt().iload("n").iret();
  f.bind(rec);
  f.stmt()
      .iload("n").iconst(1).isub().invoke("Main.fib")
      .iload("n").iconst(2).isub().invoke("Main.fib")
      .iadd()
      .iret();
  return pb.build();
}

bc::Program geometry_program() {
  // The paper's running example: p.x = r.nextInt() + (int) p.getX()
  ProgramBuilder pb;
  auto& rnd = pb.cls("Random");
  rnd.field("state", Ty::I64);
  auto& nx = rnd.method("nextInt", {{"this", Ty::Ref}}, Ty::I64);
  nx.stmt().aload("this").aload("this").getfield("Random.state")
      .iconst(1103515245).imul().iconst(12345).iadd().iconst(65536).irem()
      .putfield("Random.state");
  nx.stmt().aload("this").getfield("Random.state").iret();

  auto& pt = pb.cls("Point");
  pt.field("x", Ty::I64);
  auto& gx = pt.method("getX", {{"this", Ty::Ref}}, Ty::F64);
  gx.stmt().aload("this").getfield("Point.x").i2d().dret();

  auto& geo = pb.cls("Geometry");
  geo.field("r", Ty::Ref);
  geo.field("p", Ty::Ref);
  auto& mk = geo.method("make", {}, Ty::Ref);
  uint16_t g = mk.local("g", Ty::Ref);
  mk.stmt().new_("Geometry").astore(g);
  mk.stmt().aload(g).new_("Random").putfield("Geometry.r");
  mk.stmt().aload(g).new_("Point").putfield("Geometry.p");
  mk.stmt().aload(g).getfield("Geometry.p").iconst(10).putfield("Point.x");
  mk.stmt().aload(g).aret();
  // displaceX with the paper's nested expression, single statement
  auto& dx = geo.method("displaceX", {{"this", Ty::Ref}}, Ty::I64);
  dx.stmt()
      .aload("this").getfield("Geometry.p")
      .aload("this").getfield("Geometry.r").invoke("Random.nextInt")
      .aload("this").getfield("Geometry.p").invoke("Point.getX").d2i()
      .iadd()
      .putfield("Point.x");
  dx.stmt().aload("this").getfield("Geometry.p").getfield("Point.x").iret();

  auto& m = pb.cls("M");
  auto& go = m.method("go", {}, Ty::I64);
  uint16_t gg = go.local("g", Ty::Ref);
  uint16_t res = go.local("res", Ty::I64);
  go.stmt().invoke("Geometry.make").astore(gg);
  go.stmt().aload(gg).invoke("Geometry.displaceX").istore(res);
  go.stmt().iload(res).iret();
  return pb.build();
}

int64_t geometry_expected() {
  int64_t state = 0;
  state = (state * 1103515245 + 12345) % 65536;
  return state + 10;
}

/// VM wired with a standalone object manager (no home) so fault handlers
/// behave correctly on local runs.
struct LocalRt {
  mig::SodNode node;
  explicit LocalRt(const bc::Program& p) : node("local", p, {}) {
    om.install(node);
  }
  mig::ObjectManager om;
  Value call(std::string_view m, std::vector<Value> args) {
    return node.vm().call(m, args);
  }
};

TEST(Flatten, ExtractsNestedCalls) {
  auto p = nested_fib_program();
  const bc::Method& before = p.method(p.find_method("Main.fib"));
  size_t stmts_before = before.stmt_starts.size();
  prep::FlattenStats st = flatten_program(p);
  EXPECT_GE(st.calls_extracted, 1);
  EXPECT_GE(st.temps_added, 1);
  const bc::Method& after = p.method(p.find_method("Main.fib"));
  EXPECT_GT(after.stmt_starts.size(), stmts_before);
  // Still runs correctly.
  EXPECT_EQ(run1(p, "Main.fib", {Value::of_i64(15)}).as_i64(), fib_ref(15));
}

TEST(Flatten, EveryStatementHasEmptyStack) {
  auto p = nested_fib_program();
  flatten_program(p);
  // verify_method with MSP enforcement passes for every method.
  for (const auto& m : p.methods) {
    if (m.code.empty()) continue;
    EXPECT_NO_THROW(bc::verify_method(p, m)) << m.name;
  }
}

TEST(Flatten, GeometryExampleMatchesPaperShape) {
  auto p = geometry_program();
  prep::FlattenStats st = flatten_program(p);
  // The paper's example extracts two temps out of displaceX.
  EXPECT_GE(st.calls_extracted, 2);
  EXPECT_EQ(run1(p, "M.go", {}).as_i64(), geometry_expected());
}

TEST(Flatten, IdempotentOnFlatCode) {
  auto p = fib_program();  // already three-address style
  prep::FlattenStats s1 = flatten_program(p);
  EXPECT_EQ(s1.calls_extracted, 0);
  EXPECT_EQ(run1(p, "Main.fib", {Value::of_i64(12)}).as_i64(), fib_ref(12));
}

TEST(Prep, FullPipelinePreservesSemantics) {
  auto p = geometry_program();
  prep::PrepReport rep = prep::preprocess_program(p);
  EXPECT_GT(rep.faults.fault_handlers, 0);
  EXPECT_GT(rep.image_size_after, rep.image_size_before);
  LocalRt rt(p);
  EXPECT_EQ(rt.call("M.go", {}).as_i64(), geometry_expected());
}

TEST(Prep, FibPipelinePreservesSemantics) {
  auto p = fib_program();
  prep::preprocess_program(p);
  LocalRt rt(p);
  EXPECT_EQ(rt.call("Main.fib", {Value::of_i64(18)}).as_i64(), fib_ref(18));
}

TEST(Prep, ApplicationNpeIsPassedThroughToGuestHandler) {
  // f(): try { return g.p.x } catch (NPE) { return -7 }  with g.p == null
  ProgramBuilder pb;
  auto& geo = pb.cls("Geometry");
  geo.field("p", Ty::Ref);
  auto& pt = pb.cls("Point");
  pt.field("x", Ty::I64);
  auto& f = pb.cls("M").method("f", {}, Ty::I64);
  uint16_t g = f.local("g", Ty::Ref);
  uint16_t t = f.local("t", Ty::I64);
  Label h = f.label();
  uint32_t from = f.here();
  f.stmt().new_("Geometry").astore(g);
  f.stmt().aload(g).getfield("Geometry.p").getfield("Point.x").istore(t);
  f.stmt().iload(t).iret();
  uint32_t to = f.here();
  f.bind(h).pop().stmt().iconst(-7).iret();
  f.ex_entry(from, to, h, bc::builtin::kNullPointer);
  auto p = pb.build();
  prep::preprocess_program(p);

  LocalRt rt(p);
  EXPECT_EQ(rt.call("M.f", {}).as_i64(), -7);
}

TEST(Prep, UncaughtApplicationNpeCrashesThread) {
  ProgramBuilder pb;
  auto& pt = pb.cls("Point");
  pt.field("x", Ty::I64);
  auto& f = pb.cls("M").method("f", {}, Ty::I64);
  uint16_t a = f.local("a", Ty::Ref);
  f.stmt().aconst_null().astore(a);
  f.stmt().aload(a).getfield("Point.x").iret();
  auto p = pb.build();
  prep::preprocess_program(p);

  LocalRt rt(p);
  int tid = rt.node.vm().spawn(p.find_method("M.f"), {});
  auto rr = rt.node.vm().run(tid);
  EXPECT_EQ(rr.reason, svm::StopReason::Crashed);
  EXPECT_EQ(rt.node.vm().class_of(rt.node.vm().thread(tid).uncaught),
            bc::builtin::kNullPointer);
  // The fault handler ran, made no progress, and rethrew.
  EXPECT_EQ(rt.om.stats().app_npe_rethrown, 1);
}

TEST(Prep, StatusChecksPreserveSemantics) {
  auto p = geometry_program();
  PrepOptions opts;
  opts.miss = MissDetection::StatusChecking;
  prep::PrepReport rep = prep::preprocess_program(p, opts);
  EXPECT_GT(rep.checks.checks_inserted, 0);
  EXPECT_GT(rep.checks.news_rewritten, 0);
  LocalRt rt(p);
  EXPECT_EQ(rt.call("M.go", {}).as_i64(), geometry_expected());
}

TEST(Prep, SpaceOverheadOfBothInstrumentations) {
  // Paper Fig. 5: both miss-detection schemes grow the class image
  // (501 B -> 667 B checks / 902 B faulting for Geometry).  Both
  // directions of growth must hold here; the relative ordering between
  // the two schemes depends on instruction encoding (see EXPERIMENTS.md).
  auto orig = geometry_program();
  size_t size_orig = orig.total_image_size();

  auto faults = geometry_program();
  PrepOptions fo;
  fo.miss = MissDetection::ObjectFaulting;
  fo.restore_handlers = false;  // isolate the miss-detection cost
  prep::preprocess_program(faults, fo);
  size_t size_faults = faults.total_image_size();

  auto checks = geometry_program();
  PrepOptions co;
  co.miss = MissDetection::StatusChecking;
  co.restore_handlers = false;
  prep::preprocess_program(checks, co);
  size_t size_checks = checks.total_image_size();

  EXPECT_GT(size_checks, size_orig);
  EXPECT_GT(size_faults, size_orig);
  // Faulting must cost a nontrivial fraction more than the original
  // (the paper's "trade space for time").
  EXPECT_GT(size_faults, size_orig + size_orig / 10);
}

TEST(Prep, RestoreHandlerRejoinsAtEveryMsp) {
  // Drive the restoration handler manually: for a loop-sum method, feed a
  // mid-loop state (i=5, s=10, n=10) and check execution continues from
  // the loop head: 10 + 5 + 6 + ... + 10 = 55.
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("sum", {{"n", Ty::I64}}, Ty::I64);
  uint16_t i = f.local("i", Ty::I64);
  uint16_t s = f.local("s", Ty::I64);
  Label head = f.label(), done = f.label();
  f.stmt().iconst(1).istore(i);
  f.stmt().iconst(0).istore(s);
  f.bind(head).stmt().iload(i).iload("n").if_icmpgt(done);
  f.stmt().iload(s).iload(i).iadd().istore(s);
  f.stmt().iload(i).iconst(1).iadd().istore(i);
  f.stmt().go(head);
  f.bind(done).stmt().iload(s).iret();
  auto p = pb.build();
  uint16_t mid = p.find_method("M.sum");
  uint32_t loop_head_pc = p.method(mid).stmt_starts[2];
  prep::preprocess_program(p);

  svm::NativeRegistry reg;
  // cs natives feeding the crafted state
  std::vector<Value> locals = {Value::of_i64(10), Value::of_i64(5), Value::of_i64(10)};
  reg.bind("cs.read_i64", [&](svm::VM&, std::span<Value> a) {
    return locals[static_cast<size_t>(a[0].i)];
  });
  reg.bind("cs.read_f64", [&](svm::VM&, std::span<Value>) { return Value::of_f64(0); });
  reg.bind("cs.read_ref", [&](svm::VM&, std::span<Value>) { return Value::null(); });
  reg.bind("cs.read_pc",
           [&](svm::VM&, std::span<Value>) { return Value::of_i64(loop_head_pc); });

  svm::VM vm(p, &reg);
  int tid = vm.spawn(mid, std::vector<Value>{Value::of_i64(0)});
  vm.raise_in_thread(tid, bc::builtin::kInvalidState, "restore");
  auto rr = vm.run(tid);
  ASSERT_EQ(rr.reason, svm::StopReason::Done);
  EXPECT_EQ(vm.thread(tid).result.as_i64(), 55);
}

TEST(Prep, ArraysThroughFullPipeline) {
  // Array-heavy method (daload/dastore/iaload/arraylen) survives prep.
  ProgramBuilder pb;
  auto& f = pb.cls("M").method("norm", {{"n", Ty::I64}}, Ty::F64);
  uint16_t a = f.local("a", Ty::Ref);
  uint16_t i = f.local("i", Ty::I64);
  uint16_t s = f.local("s", Ty::F64);
  Label h1 = f.label(), d1 = f.label(), h2 = f.label(), d2 = f.label();
  f.stmt().iload("n").newarray(Ty::F64).astore(a);
  f.stmt().iconst(0).istore(i);
  f.bind(h1).stmt().iload(i).aload(a).arraylen().if_icmpge(d1);
  f.stmt().aload(a).iload(i).iload(i).i2d().dastore();
  f.stmt().iload(i).iconst(1).iadd().istore(i);
  f.stmt().go(h1);
  f.bind(d1).stmt().dconst(0).dstore(s);
  f.stmt().iconst(0).istore(i);
  f.bind(h2).stmt().iload(i).aload(a).arraylen().if_icmpge(d2);
  f.stmt().dload(s).aload(a).iload(i).daload().aload(a).iload(i).daload().dmul().dadd().dstore(s);
  f.stmt().iload(i).iconst(1).iadd().istore(i);
  f.stmt().go(h2);
  f.bind(d2).stmt().dload(s).dret();
  auto p = pb.build();
  prep::preprocess_program(p);
  LocalRt rt(p);
  // sum i^2 for i in 0..9 = 285
  EXPECT_DOUBLE_EQ(rt.call("M.norm", {Value::of_i64(10)}).as_f64(), 285.0);
}

// ------------------------------------------------- the six preprocessed programs

struct NamedProgram {
  const char* name;
  bc::Program (*build)();
};

/// The four Table I apps, docsearch and photoshare.
const NamedProgram kPrograms[] = {
    {"fib", [] { return apps::fib_app().build(); }},
    {"nqueens", [] { return apps::nqueens_app().build(); }},
    {"fft", [] { return apps::fft_app().build(); }},
    {"tsp", [] { return apps::tsp_app().build(); }},
    {"docsearch", apps::build_docsearch},
    {"photoshare", apps::build_photoshare},
};

// Not support/hash.h's fnv1a: the digests below were pinned with this truncated basis.
uint64_t fnv1a(std::span<const uint8_t> bytes) {
  uint64_t h = 1469598103934665603ull;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(Images, PreprocessedProgramDigestsArePinned) {
  // FNV-1a of every class image, in class order, after preprocessing.  The
  // Fig. 5 golden pins only image sizes; this pins every byte every pass
  // writes into a class.
  PrepOptions checks;
  checks.miss = MissDetection::StatusChecking;
  PrepOptions none;
  none.miss = MissDetection::None;
  PrepOptions offload;
  offload.offload_handlers = true;
  const PrepOptions variants[] = {PrepOptions{}, checks, none, offload};
  const char* const variant_names[] = {"default", "checks", "none", "offload"};
  // Rows follow kPrograms; columns follow variants.
  const uint64_t expected[6][4] = {
      {0x7897a7047ff078c0ull, 0x96916ea7f799090eull,  // fib
       0x7897a7047ff078c0ull, 0x7897a7047ff078c0ull},
      {0x6cfced4eb9f7ced7ull, 0xa96f8ebf1499db1bull,  // nqueens
       0x6cfced4eb9f7ced7ull, 0x6cfced4eb9f7ced7ull},
      {0x1210c0997dfe3404ull, 0x00c75724dc6c9efbull,  // fft
       0x5c285a450c341861ull, 0x38a6278daadc1b82ull},
      {0x96435ded3306c48eull, 0x31746e839ea65240ull,  // tsp
       0x33dfce68973f70d9ull, 0xe268cdbc978299d1ull},
      {0x0222f8dc2ea26b83ull, 0x260e4141e5de2e17ull,  // docsearch
       0xf37cfe96879118bdull, 0xabb57c436bbd7e4aull},
      {0x890d5d1f854e1d75ull, 0x6f3c8a6576e69d36ull,  // photoshare
       0x3dd02d31c43f72eeull, 0xf3ae768c3ee73691ull},
  };
  for (size_t i = 0; i < std::size(kPrograms); ++i) {
    for (size_t v = 0; v < std::size(variants); ++v) {
      bc::Program p = kPrograms[i].build();
      prep::preprocess_program(p, variants[v]);
      std::vector<uint8_t> images;
      for (const bc::Class& c : p.classes) {
        std::vector<uint8_t> img = p.class_image(c.id);
        images.insert(images.end(), img.begin(), img.end());
      }
      uint64_t got = fnv1a(images);
      EXPECT_EQ(got, expected[i][v])
          << kPrograms[i].name << " / " << variant_names[v] << ": 0x" << std::hex << got;
    }
  }
}

TEST(Images, CorruptMethodsAreRejectedNeverAborted) {
  // Every truncation and every single-byte overwrite of every preprocessed
  // method: verify_method must return or throw sod::Error, never abort.
  const uint8_t kBytes[] = {0, 1, 2, 0x30, 0x3F, 0x44, 0x45, 0x7F, 0xFF};
  size_t calls = 0, accepted = 0;
  for (const NamedProgram& np : kPrograms) {
    bc::Program p = np.build();
    prep::preprocess_program(p);
    for (bc::Method& m : p.methods) {
      const std::vector<uint8_t> code = m.code;
      auto verdict = [&] {
        ++calls;
        try {
          bc::verify_method(p, m);
          ++accepted;
        } catch (const Error&) {
        }
      };
      for (size_t n = 0; n < code.size(); ++n) {
        m.code.assign(code.begin(), code.begin() + static_cast<long>(n));
        verdict();
      }
      for (size_t at = 0; at < code.size(); ++at) {
        for (uint8_t b : kBytes) {
          m.code = code;
          m.code[at] = b;
          verdict();
        }
      }
      m.code = code;
    }
  }
  EXPECT_EQ(calls, 71640u);
  EXPECT_EQ(accepted, 34516u);
}

}  // namespace
}  // namespace sod
