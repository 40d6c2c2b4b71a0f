// Whole-program analyzer tests: malformed-program admission, statics/ref
// effect inference on the Table I apps, reachability accounting, the
// ProgramRejected event at the cluster gate, and the statics-skip
// equivalence (bit-identical results with and without the purity skip in
// both execution modes).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "apps/apps.h"
#include "bytecode/verifier.h"
#include "cluster/cluster.h"
#include "cluster/loadgen.h"
#include "cluster/placement.h"
#include "cluster/scheduler.h"
#include "cluster/wallclock.h"
#include "prep/prep.h"
#include "testlib.h"

namespace sod {
namespace {

using bc::Label;
using bc::ProgramBuilder;
using bc::Ty;

// ---------------------------------------------------------------- builders

/// GOTO whose u32 target is patched to pc 1 — the middle of the ICONST.
bc::Program bad_jump_program() {
  ProgramBuilder pb;
  auto& c = pb.cls("Jump");
  auto& f = c.method("run", {}, Ty::I64);
  Label top = f.label();
  f.bind(top);
  f.stmt().iconst(1).iret();
  f.go(top);
  bc::Program p = pb.build();
  bc::Method& m = p.method_mut(p.find_method("Jump.run"));
  size_t at = m.code.size() - 4;  // GOTO's little-endian u32 operand
  m.code[at] = 1;
  m.code[at + 1] = m.code[at + 2] = m.code[at + 3] = 0;
  return p;
}

/// IADD with only one value on the stack: the first ICONST (pc 0..8) of a
/// valid `0 + 1` is overwritten with NOPs after the builder verified it.
bc::Program underflow_program() {
  ProgramBuilder pb;
  auto& c = pb.cls("Under");
  auto& f = c.method("run", {}, Ty::I64);
  f.stmt().iconst(0).iconst(1).iadd().iret();
  bc::Program p = pb.build();
  bc::Method& m = p.method_mut(p.find_method("Under.run"));
  for (size_t i = 0; i < 9; ++i) m.code[i] = static_cast<uint8_t>(bc::Op::NOP);
  return p;
}

/// Statement start (MSP candidate) with a value left on the stack: the POP
/// balancing the first ICONST is NOPed out after the builder verified it.
bc::Program msp_nonempty_program() {
  ProgramBuilder pb;
  auto& c = pb.cls("Msp");
  auto& f = c.method("run", {}, Ty::I64);
  f.stmt().iconst(1).pop();
  f.stmt().iconst(2).iret();
  bc::Program p = pb.build();
  bc::Method& m = p.method_mut(p.find_method("Msp.run"));
  m.code[9] = static_cast<uint8_t>(bc::Op::NOP);  // the POP at pc 9
  return p;
}

/// Code that ends inside a LOOKUPSWITCH header: the opcode and one of the
/// two npairs bytes survive.
bc::Program truncated_switch_program() {
  ProgramBuilder pb;
  auto& c = pb.cls("Switch");
  auto& f = c.method("run", {}, Ty::I64);
  Label out = f.label();
  f.stmt().iconst(0).lookupswitch(out, {});
  f.bind(out);
  f.stmt().iconst(1).iret();
  bc::Program p = pb.build();
  bc::Method& m = p.method_mut(p.find_method("Switch.run"));
  m.code.resize(9 + 2);  // ICONST is 9 bytes; the switch starts at pc 9
  m.stmt_starts = {0};
  return p;
}

/// Two i64 parameters but no local slots and no variable table: the VM
/// would bind the arguments past the end of the frame's locals.
bc::Program params_overflow_program() {
  ProgramBuilder pb;
  auto& c = pb.cls("Args");
  auto& f = c.method("run", {{"a", Ty::I64}, {"b", Ty::I64}}, Ty::I64);
  f.stmt().iconst(0).iret();
  bc::Program p = pb.build();
  bc::Method& m = p.method_mut(p.find_method("Args.run"));
  m.num_locals = 0;
  m.var_table.clear();
  return p;
}

/// Parameter 1 is declared i64 but its variable-table slot says f64.
bc::Program param_type_program() {
  ProgramBuilder pb;
  auto& c = pb.cls("Typed");
  auto& f = c.method("run", {{"a", Ty::I64}, {"b", Ty::I64}}, Ty::I64);
  f.stmt().iconst(0).iret();
  bc::Program p = pb.build();
  bc::Method& m = p.method_mut(p.find_method("Typed.run"));
  m.var_table[1].type = Ty::F64;
  return p;
}

/// INVOKE of a declared method that never got code (an undefined stub).
bc::Program undefined_callee_program() {
  ProgramBuilder pb;
  auto& c = pb.cls("Call");
  c.method("stub", {}, Ty::I64);  // declared, no code emitted
  auto& f = c.method("run", {}, Ty::I64);
  f.stmt().invoke("Call.stub").iret();
  return pb.build();
}

// ------------------------------------------------------- verifier satellite

TEST(Verifier, IsBoundaryRejectsUnreachableAndMidInstruction) {
  ProgramBuilder pb;
  auto& c = pb.cls("Main");
  auto& f = c.method("run", {}, Ty::I64);
  Label dead = f.label();
  f.stmt().iconst(1).iret();
  f.bind(dead);
  f.iconst(2).iret();  // unreachable: nothing branches to `dead`
  bc::Program p = pb.build();

  auto map = bc::verify_method(p, p.method(p.find_method("Main.run")), true);
  EXPECT_TRUE(map.is_boundary(0));
  // pc 1 is inside the ICONST immediate: never a boundary.
  EXPECT_FALSE(map.is_boundary(1));
  // pc 10 starts the dead ICONST: an instruction start, but unreachable
  // (depth -1).  The old `depth[pc] >= -1` check was vacuously true and
  // called every in-range boundary pc reachable.
  ASSERT_EQ(map.depth[10], -1);
  EXPECT_FALSE(map.is_boundary(10));
}

// ------------------------------------------------- malformed-program table

struct MalformedCase {
  std::function<bc::Program()> build;
  const char* expect_substr;  ///< must appear in the diagnostic message
  const char* expect_cls;
  const char* expect_method;
};

TEST(Admission, MalformedProgramsRejectedWithPointedDiagnostics) {
  const std::vector<MalformedCase> cases = {
      {bad_jump_program, "not at boundary", "Jump", "Jump.run"},
      {underflow_program, "pop from empty stack", "Under", "Under.run"},
      {msp_nonempty_program, "MSP invariant", "Msp", "Msp.run"},
      {truncated_switch_program, "truncated lookupswitch", "Switch", "Switch.run"},
      {params_overflow_program, "2 parameters do not fit 0 locals", "Args", "Args.run"},
      {param_type_program, "parameter 1 is i64 but local slot 1 is f64", "Typed", "Typed.run"},
      {undefined_callee_program, "call to undefined method 'Call.stub'", "Call", "Call.run"},
  };
  for (const MalformedCase& mc : cases) {
    SCOPED_TRACE(mc.expect_substr);
    analysis::AdmissionReport rep = analysis::analyze_program(mc.build());
    EXPECT_FALSE(rep.admitted);
    ASSERT_FALSE(rep.diagnostics.empty());
    const analysis::Diagnostic& d = rep.diagnostics.front();
    EXPECT_EQ(d.cls, mc.expect_cls);
    EXPECT_EQ(d.method, mc.expect_method);
    EXPECT_NE(d.pc, UINT32_MAX) << "diagnostic must name the offending pc";
    EXPECT_NE(d.message.find(mc.expect_substr), std::string::npos) << d.message;
    // The rendered form names class, method, and pc in one line.
    EXPECT_NE(d.str().find(mc.expect_cls), std::string::npos) << d.str();
    EXPECT_NE(d.str().find(" pc "), std::string::npos) << d.str();
  }
}

TEST(Admission, ClusterGateEmitsProgramRejected) {
  bc::Program p = undefined_callee_program();
  cluster::Cluster c(p);
  EXPECT_FALSE(c.admission().admitted);
  ASSERT_FALSE(c.admission().diagnostics.empty());

  c.add_uniform_workers(2);
  auto policy = cluster::make_policy(cluster::PolicyKind::RoundRobin);
  cluster::Scheduler sched(c, *policy, {});
  bool sched_saw = false;
  for (const cluster::Event& e : sched.log())
    sched_saw = sched_saw || e.kind == cluster::EventKind::ProgramRejected;
  EXPECT_TRUE(sched_saw);

  cluster::WallClockEngine engine(c, *policy, {});
  bool wall_saw = false;
  for (const cluster::Event& e : engine.log())
    wall_saw = wall_saw || e.kind == cluster::EventKind::ProgramRejected;
  EXPECT_TRUE(wall_saw);
}

TEST(Admission, WellFormedAppsAdmitted) {
  for (const apps::AppSpec& spec : {apps::fib_app(), apps::nqueens_app(), apps::fft_app(),
                                    apps::tsp_app()}) {
    SCOPED_TRACE(spec.name);
    bc::Program p = spec.build();
    prep::preprocess_program(p);
    analysis::AdmissionReport rep = analysis::analyze_program(p);
    EXPECT_TRUE(rep.admitted);
    EXPECT_TRUE(rep.diagnostics.empty());
  }
}

// ------------------------------------------------------------ effect facts

TEST(Facts, StaticsEffectsOnTableIApps) {
  // FFT: all statics are Ref (grids + workspace anchor) — written, but
  // primitive-pure, so refresh_primitive_statics may skip the class.
  {
    bc::Program p = apps::fft_app().build();
    prep::preprocess_program(p);
    auto rep = analysis::analyze_program(p);
    ASSERT_TRUE(rep.admitted);
    EXPECT_TRUE(rep.facts.method_writes_statics(p, "FFT.main"));
    uint16_t fft = p.find_class("FFT");
    ASSERT_NE(fft, bc::kNoId);
    EXPECT_TRUE(rep.facts.classes[fft].statics_written);
    EXPECT_TRUE(rep.facts.class_statics_pure(fft));
    EXPECT_TRUE(rep.facts.class_ref_escape(fft));  // PUTSTATIC of Ref fields
  }
  // TSP: writes the primitive `best` bound — never skippable.
  {
    bc::Program p = apps::tsp_app().build();
    prep::preprocess_program(p);
    auto rep = analysis::analyze_program(p);
    ASSERT_TRUE(rep.admitted);
    EXPECT_TRUE(rep.facts.method_writes_statics(p, "TSP.main"));
    uint16_t tsp = p.find_class("TSP");
    ASSERT_NE(tsp, bc::kNoId);
    EXPECT_FALSE(rep.facts.class_statics_pure(tsp));
  }
  // fib: no statics anywhere, no refs escape, but real MSP state.
  {
    bc::Program p = apps::fib_app().build();
    prep::preprocess_program(p);
    auto rep = analysis::analyze_program(p);
    ASSERT_TRUE(rep.admitted);
    EXPECT_FALSE(rep.facts.method_writes_statics(p, "Fib.main"));
    uint16_t fib = p.find_class("Fib");
    ASSERT_NE(fib, bc::kNoId);
    EXPECT_TRUE(rep.facts.class_statics_pure(fib));
    EXPECT_GT(rep.facts.class_msp_state_slots(fib), 0u);
  }
}

TEST(Facts, TransitiveStaticsThroughCallees) {
  // Outer never touches statics directly; its callee does.
  ProgramBuilder pb;
  auto& c = pb.cls("T");
  c.field("s", Ty::I64, /*is_static=*/true);
  auto& inner = c.method("inner", {}, Ty::I64);
  inner.stmt().iconst(3).putstatic("T.s");
  inner.stmt().getstatic("T.s").iret();
  auto& outer = c.method("outer", {}, Ty::I64);
  outer.stmt().invoke("T.inner").iret();
  bc::Program p = pb.build();

  auto rep = analysis::analyze_program(p);
  ASSERT_TRUE(rep.admitted);
  EXPECT_TRUE(rep.facts.method_writes_statics(p, "T.inner"));
  EXPECT_TRUE(rep.facts.method_writes_statics(p, "T.outer"));
  EXPECT_FALSE(rep.facts.class_statics_pure(p.find_class("T")));
  // Unknown names are conservatively statics-writing.
  EXPECT_TRUE(rep.facts.method_writes_statics(p, "T.missing"));
}

TEST(Facts, ReachabilityFromEntriesAccountsUnreachable) {
  ProgramBuilder pb;
  auto& c = pb.cls("R");
  auto& helper = c.method("helper", {}, Ty::I64);
  helper.stmt().iconst(2).iret();
  auto& orphan = c.method("orphan", {}, Ty::I64);
  orphan.stmt().iconst(3).iret();
  auto& main = c.method("main", {}, Ty::I64);
  main.stmt().invoke("R.helper").iret();
  bc::Program p = pb.build();

  analysis::AnalysisOptions opt;
  opt.entries = {"R.main"};
  auto rep = analysis::analyze_program(p, opt);
  EXPECT_TRUE(rep.admitted);  // unreachable code is accounted, not rejected
  EXPECT_EQ(rep.facts.reachable_methods, 2u);
  EXPECT_EQ(rep.facts.unreachable_methods, 1u);
  EXPECT_FALSE(rep.facts.methods[p.find_method("R.orphan")].reachable);
  EXPECT_TRUE(rep.facts.methods[p.find_method("R.helper")].reachable);

  analysis::AnalysisOptions bad;
  bad.entries = {"R.missing"};
  auto rep2 = analysis::analyze_program(p, bad);
  EXPECT_FALSE(rep2.admitted);
  ASSERT_FALSE(rep2.diagnostics.empty());
  EXPECT_NE(rep2.diagnostics.front().message.find("entry method not found"),
            std::string::npos);
}

TEST(Facts, RefEscapeOnlyWhereRefsCanLeak) {
  ProgramBuilder pb;
  auto& c = pb.cls("Esc");
  auto& leak = c.method("leak", {}, Ty::Ref);
  leak.stmt().iconst(1).newarray(Ty::I64).aret();
  auto& plain = pb.cls("Plain").method("id", {{"n", Ty::I64}}, Ty::I64);
  plain.stmt().iload("n").iret();
  bc::Program p = pb.build();

  auto rep = analysis::analyze_program(p);
  ASSERT_TRUE(rep.admitted);
  EXPECT_TRUE(rep.facts.class_ref_escape(p.find_class("Esc")));
  EXPECT_FALSE(rep.facts.class_ref_escape(p.find_class("Plain")));
  // Out-of-range class ids stay conservatively escaping.
  EXPECT_TRUE(rep.facts.class_ref_escape(bc::kNoId));
}

// ----------------------------------------------- statics-skip equivalence

TEST(StaticsSkip, BitIdenticalInBothExecutionModes) {
  cluster::TraceConfig cfg;
  cfg.sessions = 24;
  cfg.tenants = 2;
  cfg.apps = 4;  // fib + nqueens + fft + tsp: mixes pure and impure statics
  cfg.seed = 5;
  cfg.max_rounds = 2;
  cluster::Trace tr = cluster::make_trace(cfg);

  cluster::LoadGenOptions skip_on;
  cluster::LoadGenOptions skip_off;
  skip_off.dispatch.statics_skip = false;

  auto v_on = cluster::run_loadgen(tr, skip_on);
  auto v_off = cluster::run_loadgen(tr, skip_off);
  ASSERT_TRUE(v_on.admitted);
  EXPECT_TRUE(v_on.all_ok);
  EXPECT_TRUE(v_off.all_ok);
  // Bit-identical replay: same results, same virtual-time latencies.
  EXPECT_EQ(v_on.results, v_off.results);
  EXPECT_EQ(v_on.session_ms, v_off.session_ms);
  // The skip is real: pure classes (FFT's all-Ref statics) are skipped
  // when facts are consulted and scanned when they are not.
  EXPECT_GT(v_on.statics_skipped, 0u);
  EXPECT_EQ(v_off.statics_skipped, 0u);
  EXPECT_EQ(v_off.statics_scans, v_on.statics_scans + v_on.statics_skipped);
  EXPECT_EQ(v_on.statics_bytes, v_off.statics_bytes);

  cluster::LoadGenOptions w_on = skip_on;
  w_on.wallclock = true;
  w_on.threads = 2;
  cluster::LoadGenOptions w_off = skip_off;
  w_off.wallclock = true;
  w_off.threads = 2;
  auto wall_on = cluster::run_loadgen(tr, w_on);
  auto wall_off = cluster::run_loadgen(tr, w_off);
  EXPECT_TRUE(wall_on.all_ok);
  EXPECT_TRUE(wall_off.all_ok);
  EXPECT_EQ(wall_on.results, v_on.results);
  EXPECT_EQ(wall_off.results, v_on.results);
  EXPECT_GT(wall_on.statics_skipped, 0u);
  EXPECT_EQ(wall_off.statics_skipped, 0u);
}

}  // namespace
}  // namespace sod
