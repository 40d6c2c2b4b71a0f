// Multi-domain workflow (the paper's Fig. 1c scenario): a three-frame
// stack splits into two segments that migrate concurrently to two cloud
// nodes; control flows node1 -> node2 -> node3, with the lower segment's
// restoration hidden under the upper segment's execution.
#include <cstdio>

#include "bytecode/builder.h"
#include "cli/scenario.h"
#include "prep/prep.h"
#include "sod/migrate.h"

using namespace sod;
using bc::Label;
using bc::Ty;
using bc::Value;

namespace {

// A 3-stage pipeline: stage1 -> stage2 -> stage3, each a method doing
// local work; with SOD each stage can run on the node closest to its data.
bc::Program pipeline_program() {
  bc::ProgramBuilder pb;
  auto& cls = pb.cls("Pipe");
  auto& s3 = cls.method("stage3", {{"x", Ty::I64}}, Ty::I64);
  {
    uint16_t i = s3.local("i", Ty::I64);
    uint16_t acc = s3.local("acc", Ty::I64);
    Label l = s3.label(), d = s3.label();
    s3.stmt().iconst(0).istore(i);
    s3.stmt().iload("x").istore(acc);
    s3.bind(l).stmt().iload(i).iconst(1000).if_icmpge(d);
    s3.stmt().iload(acc).iload(i).iadd().istore(acc);
    s3.stmt().iload(i).iconst(1).iadd().istore(i);
    s3.stmt().go(l);
    s3.bind(d).stmt().iload(acc).iret();
  }
  auto& s2 = cls.method("stage2", {{"x", Ty::I64}}, Ty::I64);
  {
    uint16_t t = s2.local("t", Ty::I64);
    s2.stmt().iload("x").iconst(3).imul().invoke("Pipe.stage3").istore(t);
    s2.stmt().iload(t).iconst(7).iadd().iret();
  }
  auto& s1 = cls.method("stage1", {{"x", Ty::I64}}, Ty::I64);
  {
    uint16_t t = s1.local("t", Ty::I64);
    s1.stmt().iload("x").iconst(1).iadd().invoke("Pipe.stage2").istore(t);
    s1.stmt().iload(t).iconst(2).imul().iret();
  }
  return pb.build();
}

int run(const cli::ScenarioOptions&) {
  bc::Program prog = pipeline_program();
  prep::preprocess_program(prog);

  mig::SodNode n1("node1", prog, {});
  mig::SodNode n2("node2", prog, {});
  mig::SodNode n3("node3", prog, {});
  sim::Link link = sim::Link::gigabit();

  // Drive stage1(10) until stage3 is entered: stack = [stage1, stage2, stage3].
  uint16_t stage1 = prog.find_method("Pipe.stage1");
  uint16_t stage3 = prog.find_method("Pipe.stage3");
  int tid = n1.vm().spawn(stage1, std::vector<Value>{Value::of_i64(10)});
  mig::pause_at_depth(n1, tid, stage3, 3);
  std::printf("node1 paused with 3 frames: [stage1, stage2, stage3]\n");

  // Split: top frame (stage3) -> node2; frames stage2+stage1 -> node3.
  auto wireTop = mig::capture_segment(n1, tid, mig::SegmentSpec{0, 1}).wire();
  auto wireRest = mig::capture_segment(n1, tid, mig::SegmentSpec{1, 3}).wire();
  n1.ti().set_debug_enabled(false);
  // The lower segment ships first: node1 serves each node's on-demand
  // class fetch on its one timeline, so node3's restore then overlaps the
  // top segment's trip and execution instead of waiting behind them.
  mig::Segment segRest(n3);
  mig::hop(n1, tid, 3, wireRest, segRest, link, /*ship_class=*/false);
  mig::Segment segTop(n2);
  mig::hop(n1, tid, 1, wireTop, segTop, link, /*ship_class=*/false);
  std::printf("node3 restored its segment at %.3f ms (concurrent with node2)\n",
              n3.node().clock.now().ms());

  Value v3 = segTop.run_to_completion();
  std::printf("node2 finished stage3 -> %lld at %.3f ms; forwarding to node3\n",
              static_cast<long long>(v3.as_i64()), n2.node().clock.now().ms());

  n3.node().clock.wait_until(n2.node().clock.now() + link.transfer_time(16));
  segRest.deliver(v3);
  Value final = segRest.run_to_completion();

  // Host-side reference: stage1(10) = 2*(stage2(11)) = 2*(stage3(33)+7)
  int64_t want = 2 * ((33 + 999 * 1000 / 2 + 500) + 7) + 0;
  // stage3(33) = 33 + sum(0..999) = 33 + 499500
  want = 2 * ((33 + 499500) + 7);
  std::printf("workflow result at node3: %lld (reference %lld)\n",
              static_cast<long long>(final.as_i64()), static_cast<long long>(want));
  return final.as_i64() == want ? 0 : 1;
}

SOD_REGISTER_SCENARIO("workflow_roaming", cli::ScenarioKind::Example,
                      "multi-domain workflow split across two cloud nodes (Fig. 1c)", run);

}  // namespace
