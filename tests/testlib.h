// Shared helpers for SODEE tests: tiny guest programs built on demand
// (inline, so bench scenarios can build them too) and the test oracles of
// testlib.cpp, which only the test binaries link.
#pragma once

#include <gtest/gtest.h>

#include "bytecode/builder.h"
#include "cluster/drive.h"
#include "cluster/loadgen.h"
#include "cluster/scheduler.h"
#include "prep/flatten.h"
#include "sod/node.h"
#include "svm/natives.h"
#include "svm/vm.h"

namespace sod::testing {

using bc::Label;
using bc::ProgramBuilder;
using bc::Ty;
using bc::Value;

/// Program with a single static method `Main.run(i64 n) -> i64` computing
/// fib(n) recursively (the classic deep-stack workload).
inline bc::Program fib_program() {
  ProgramBuilder pb;
  auto& cls = pb.cls("Main");
  auto& f = cls.method("fib", {{"n", Ty::I64}}, Ty::I64);
  {
    Label rec = f.label();
    f.stmt().iload("n").iconst(2).if_icmpge(rec);
    f.stmt().iload("n").iret();
    f.bind(rec);
    uint16_t a = f.local("a", Ty::I64);
    uint16_t b = f.local("b", Ty::I64);
    f.stmt().iload("n").iconst(1).isub().invoke("Main.fib").istore(a);
    f.stmt().iload("n").iconst(2).isub().invoke("Main.fib").istore(b);
    f.stmt().iload(a).iload(b).iadd().iret();
  }
  return pb.build();
}

inline int64_t fib_ref(int64_t n) {
  int64_t a = 0, b = 1;
  for (int64_t i = 0; i < n; ++i) {
    int64_t t = a + b;
    a = b;
    b = t;
  }
  return a;
}

/// mk(n): returns a fresh Node whose val is 1 + sum(1..n) — each level
/// reads prev.val from the callee's returned object, so a split chain
/// must move a *ref* result between segments.
inline bc::Program node_chain_program() {
  ProgramBuilder pb;
  auto& nd = pb.cls("Node");
  nd.field("val", Ty::I64);
  auto& m = pb.cls("M").method("mk", {{"n", Ty::I64}}, Ty::Ref);
  uint16_t prev = m.local("prev", Ty::Ref);
  uint16_t cur = m.local("cur", Ty::Ref);
  bc::Label rec = m.label();
  m.stmt().iload("n").iconst(1).if_icmpge(rec);
  m.stmt().new_("Node").astore(cur);
  m.stmt().aload(cur).iconst(1).putfield("Node.val");
  m.stmt().aload(cur).aret();
  m.bind(rec);
  m.stmt().iload("n").iconst(1).isub().invoke("M.mk").astore(prev);
  m.stmt().new_("Node").astore(cur);
  m.stmt().aload(cur).aload(prev).getfield("Node.val").iload("n").iadd().putfield("Node.val");
  m.stmt().aload(cur).aret();
  return pb.build();
}

/// Run a single-method program to completion and return the result.
inline Value run1(const bc::Program& p, std::string_view method,
                  std::vector<Value> args, svm::NativeRegistry* reg = nullptr) {
  svm::VM vm(p, reg);
  return vm.call(method, args);
}

// ---------------------------------------------------------- oracles (testlib.cpp)

/// Same tag and bit-equal payload (a ref compares by id).
bool same_value(const Value& a, const Value& b);

/// Whether the graphs reachable from `ra` in `a` and `rb` in `b` have the
/// same shape and payloads (refs compared by pairing, not by id).
bool deep_equal(const svm::Heap& a, bc::Ref ra, const svm::Heap& b, bc::Ref rb);

/// Runs `tid` until the next migration-safe point; false if it finished
/// first.  Leaves the debug interpreter on.
bool pause_at_next_msp(mig::SodNode& node, int tid);

/// Flattens every method with a body; the sum of the per-method stats.
prep::FlattenStats flatten_program(bc::Program& p);

/// The sessions of one tenant, arrival instants and ids preserved;
/// injections are dropped (the alone-run baseline of the isolation
/// property tests).
cluster::Trace filter_tenant(const cluster::Trace& t, int tenant);

/// The exactly-once invariant of cluster::ExactlyOnce, checked in one
/// batch over a whole event log: the reference the streaming verdict is
/// tested against.
bool exactly_once(const std::vector<cluster::Event>& log);

/// cluster::finish, also expecting its streaming exactly-once verdict to
/// equal the batch reference over the scheduler's whole log.
cluster::Finish finish_checked(cluster::Scheduler& s, int tid, int64_t expected = INT64_MIN);

}  // namespace sod::testing
