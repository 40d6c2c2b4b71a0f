// Ablation — reachability prefetch (paper Section VI future work): each
// object miss also ships the home objects within k hops in the same
// response.  Round trips drop ~linearly in k; bytes stay flat for a list
// walk (everything is needed anyway), so latency falls until the link's
// latency stops dominating.
#include <cstdio>

#include "bytecode/builder.h"
#include "cli/scenario.h"
#include "prep/prep.h"
#include "sod/migrate.h"
#include "support/table.h"

using namespace sod;
using bc::Label;
using bc::Ty;
using bc::Value;
using mig::SodNode;

namespace {

bc::Program list_walk_program() {
  bc::ProgramBuilder pb;
  auto& nd = pb.cls("Node");
  nd.field("val", Ty::I64);
  nd.field("next", Ty::Ref);
  auto& m = pb.cls("M");
  auto& bld = m.method("build", {{"n", Ty::I64}}, Ty::Ref);
  uint16_t head = bld.local("head", Ty::Ref);
  uint16_t node = bld.local("node", Ty::Ref);
  uint16_t i = bld.local("i", Ty::I64);
  Label loop = bld.label(), done = bld.label();
  bld.stmt().aconst_null().astore(head);
  bld.stmt().iload("n").istore(i);
  bld.bind(loop).stmt().iload(i).iconst(1).if_icmplt(done);
  bld.stmt().new_("Node").astore(node);
  bld.stmt().aload(node).iload(i).putfield("Node.val");
  bld.stmt().aload(node).aload(head).putfield("Node.next");
  bld.stmt().aload(node).astore(head);
  bld.stmt().iload(i).iconst(1).isub().istore(i);
  bld.stmt().go(loop);
  bld.bind(done).stmt().aload(head).aret();

  auto& sum = m.method("sum", {{"head", Ty::Ref}}, Ty::I64);
  uint16_t cur = sum.local("cur", Ty::Ref);
  uint16_t s = sum.local("s", Ty::I64);
  Label sl = sum.label(), sd = sum.label();
  sum.stmt().aload("head").astore(cur);
  sum.stmt().iconst(0).istore(s);
  sum.bind(sl).stmt().aload(cur).ifnull(sd);
  sum.stmt().iload(s).aload(cur).getfield("Node.val").iadd().istore(s);
  sum.stmt().aload(cur).getfield("Node.next").astore(cur);
  sum.stmt().go(sl);
  sum.bind(sd).stmt().iload(s).iret();
  return pb.build();
}

int run(const cli::ScenarioOptions& opt) {
  const int kN = opt.smoke ? 64 : 256;
  std::printf("=== Ablation: reachability prefetch depth (%d-node list walk) ===\n", kN);
  bc::Program p = list_walk_program();
  prep::preprocess_program(p);

  std::vector<int> depths = opt.smoke ? std::vector<int>{0, 1, 4}
                                      : std::vector<int>{0, 1, 2, 4, 8, 16};
  Table t({"prefetch depth", "round trips", "prefetched", "bytes", "worker time (ms)"});
  for (int depth : depths) {
    SodNode home("home", p, {});
    SodNode dest("dest", p, {});
    Value head = home.call_guest("M.build", std::vector<Value>{Value::of_i64(kN)});
    int tid = home.vm().spawn(p.find_method("M.sum"), std::vector<Value>{head});
    SOD_CHECK(mig::pause_at_depth(home, tid, p.find_method("M.sum"), 1), "trigger");
    mig::Segment seg(dest);
    seg.objman().set_prefetch_depth(depth);
    auto hop = mig::migrate(home, tid, mig::SegmentSpec{0, 1}, seg, sim::Link::gigabit(),
                            /*ship_class=*/true);
    VDur t0 = dest.node().clock.now();
    Value result = seg.run_to_completion();
    SOD_CHECK(result.as_i64() == kN * (kN + 1) / 2, "wrong sum");
    // Worker time: from the state's send to the walk's end.
    VDur elapsed = hop.transfer + hop.restore + (dest.node().clock.now() - t0);

    const auto& st = seg.objman().stats();
    t.row({std::to_string(depth), std::to_string(st.faults), std::to_string(st.prefetched),
           std::to_string(st.bytes), fmt("%.3f", elapsed.ms())});
  }
  t.print();
  std::printf("\nShape: each level of prefetch cuts round trips ~proportionally; bytes\n"
              "stay flat because the walk touches every node anyway.\n");
  return cli::maybe_write_json(opt, "ablation_prefetch", t) ? 0 : 1;
}

SOD_REGISTER_SCENARIO("ablation_prefetch", cli::ScenarioKind::Bench,
                      "Ablation — reachability prefetch depth sweep", run);

}  // namespace
