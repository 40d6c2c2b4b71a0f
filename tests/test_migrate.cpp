// End-to-end SOD migration: capture -> transfer -> restore -> remote
// execution with object faulting -> write-back -> home resume.  Also the
// Fig. 1 flows: return-to-home, total migration, multi-hop workflow.
#include <gtest/gtest.h>

#include "prep/prep.h"
#include "sod/migrate.h"
#include "testlib.h"

namespace sod {
namespace {

using namespace sod::testing;
using mig::SodNode;

bc::Program prepped_fib() {
  auto p = testing::fib_program();
  prep::preprocess_program(p);
  return p;
}

/// Linked-list workload: build at home, sum migrated.
///   build(n): list of nodes with val = 1..n, returns head
///   sum(head): walks the list
///   main(n): h = build(n); return sum(h)
bc::Program list_program() {
  ProgramBuilder pb;
  auto& nd = pb.cls("ListNode");
  nd.field("val", Ty::I64);
  nd.field("next", Ty::Ref);

  auto& m = pb.cls("M");
  m.field("total_built", Ty::I64, /*is_static=*/true);

  auto& bld = m.method("build", {{"n", Ty::I64}}, Ty::Ref);
  uint16_t head = bld.local("head", Ty::Ref);
  uint16_t node = bld.local("node", Ty::Ref);
  uint16_t i = bld.local("i", Ty::I64);
  Label loop = bld.label(), done = bld.label();
  bld.stmt().aconst_null().astore(head);
  bld.stmt().iload("n").istore(i);
  bld.bind(loop).stmt().iload(i).iconst(1).if_icmplt(done);
  bld.stmt().new_("ListNode").astore(node);
  bld.stmt().aload(node).iload(i).putfield("ListNode.val");
  bld.stmt().aload(node).aload(head).putfield("ListNode.next");
  bld.stmt().aload(node).astore(head);
  bld.stmt().getstatic("M.total_built").iconst(1).iadd().putstatic("M.total_built");
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
  sum.stmt().iload(s).aload(cur).getfield("ListNode.val").iadd().istore(s);
  // also mutate each node so write-back has something to do
  sum.stmt().aload(cur).aload(cur).getfield("ListNode.val").iconst(2).imul()
      .putfield("ListNode.val");
  sum.stmt().aload(cur).getfield("ListNode.next").astore(cur);
  sum.stmt().go(sl);
  sum.bind(sd).stmt().iload(s).iret();

  auto& mn = m.method("main", {{"n", Ty::I64}}, Ty::I64);
  uint16_t h = mn.local("h", Ty::Ref);
  uint16_t r = mn.local("r", Ty::I64);
  mn.stmt().iload("n").invoke("M.build").astore(h);
  mn.stmt().aload(h).invoke("M.sum").istore(r);
  mn.stmt().iload(r).getstatic("M.total_built").iadd().iret();
  return pb.build();
}

TEST(Migrate, FibOffloadAndReturn) {
  auto p = prepped_fib();
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  uint16_t fib = p.find_method("Main.fib");

  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(16)});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, 6));
  ASSERT_EQ(home.vm().thread(tid).frames.size(), 6u);

  auto out = mig::offload_and_return(home, tid, 3, dest, sim::Link::gigabit());
  EXPECT_GT(out.timing.capture.ns, 0);
  EXPECT_GT(out.timing.transfer.ns, 0);
  EXPECT_GT(out.timing.restore.ns, 0);
  EXPECT_GT(out.timing.state_bytes, 0u);

  // Home stack shrank by the three migrated frames and got the result.
  EXPECT_EQ(home.vm().thread(tid).frames.size(), 3u);
  home.ti().set_debug_enabled(false);
  auto rr = home.run_guest(tid);
  ASSERT_EQ(rr.reason, svm::StopReason::Done);
  EXPECT_EQ(home.vm().thread(tid).result.as_i64(), fib_ref(16));
}

TEST(Migrate, MigrateAtEveryFeasibleDepth) {
  // Sweep: pause at depths 2..8, offload top half, verify final result.
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  for (int depth = 2; depth <= 8; ++depth) {
    SodNode home("home", p, {});
    SodNode dest("dest", p, {});
    int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(13)});
    ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, depth));
    int nframes = depth / 2 + 1;
    mig::offload_and_return(home, tid, nframes, dest, sim::Link::gigabit());
    home.ti().set_debug_enabled(false);
    auto rr = home.run_guest(tid);
    ASSERT_EQ(rr.reason, svm::StopReason::Done) << "depth " << depth;
    EXPECT_EQ(home.vm().thread(tid).result.as_i64(), fib_ref(13)) << "depth " << depth;
  }
}

TEST(Migrate, ObjectFaultingFetchesOnDemandAndWritesBack) {
  auto p = list_program();
  prep::preprocess_program(p);
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  uint16_t mn = p.find_method("M.main");
  uint16_t sum = p.find_method("M.sum");

  int tid = home.vm().spawn(mn, std::vector<Value>{Value::of_i64(10)});
  // Run until M.sum is entered (frames: main, sum).
  ASSERT_TRUE(mig::pause_at_depth(home, tid, sum, 2));

  auto out = mig::offload_and_return(home, tid, 1, dest, sim::Link::gigabit());
  // The list was fetched node by node on demand.
  EXPECT_GE(out.faults.faults, 10);
  EXPECT_GT(out.faults.bytes, 0u);
  EXPECT_EQ(out.result.as_i64(), 55);
  EXPECT_GE(out.writeback.objects_updated, 10);

  home.ti().set_debug_enabled(false);
  auto rr = home.run_guest(tid);
  ASSERT_EQ(rr.reason, svm::StopReason::Done);
  // main returns sum + total_built = 55 + 10
  EXPECT_EQ(home.vm().thread(tid).result.as_i64(), 65);
}

TEST(Migrate, WriteBackReflectsHeapMutations) {
  auto p = list_program();
  prep::preprocess_program(p);
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  uint16_t bld = p.find_method("M.build");
  uint16_t sum = p.find_method("M.sum");

  // Build the list locally at home.
  Value head = home.vm().call(p.method(bld).name, std::vector<Value>{Value::of_i64(5)});
  // Spawn sum(head) and immediately migrate the whole (1-frame) stack.
  int tid = home.vm().spawn(sum, std::vector<Value>{head});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, sum, 1));
  auto out = mig::offload_and_return(home, tid, 1, dest, sim::Link::gigabit());
  EXPECT_EQ(out.result.as_i64(), 15);
  // The whole stack migrated: thread is Done at home with the result.
  EXPECT_EQ(home.vm().thread(tid).status, svm::ThreadStatus::Done);
  EXPECT_EQ(home.vm().thread(tid).result.as_i64(), 15);
  // sum() doubled each node's val at the worker; home heap must show it.
  bc::Ref cur = head.as_ref();
  int64_t want = 2;
  uint16_t val_fid = p.find_field("ListNode.val");
  uint16_t next_fid = p.find_field("ListNode.next");
  const bc::Field& valf = p.field(val_fid);
  const bc::Field& nextf = p.field(next_fid);
  while (cur != bc::kNull) {
    EXPECT_EQ(home.vm().heap().obj(cur).fields[valf.slot].as_i64(), want);
    cur = home.vm().heap().obj(cur).fields[nextf.slot].as_ref();
    want += 2;
  }
}

TEST(Migrate, WriteBackAppliesEveryCellKind) {
  // One offloaded frame mutates a fetched cell of every kind and creates
  // an object and a string, so the write-back carries updates of an i64,
  // an f64 and a ref array and of an object, plus temp ids in both a ref
  // array element and an object field.
  ProgramBuilder pb;
  auto& box = pb.cls("Box");
  box.field("v", Ty::I64);
  box.field("s", Ty::Ref);
  auto& m = pb.cls("M");
  auto& mut = m.method("mut", {{"ai", Ty::Ref}, {"ad", Ty::Ref}, {"ar", Ty::Ref}, {"b", Ty::Ref}},
                       Ty::Ref);
  uint16_t nb = mut.local("nb", Ty::Ref);
  mut.stmt().aload("ai").iconst(0).iconst(41).iastore();
  mut.stmt().aload("ad").iconst(1).dconst(-0.5).dastore();
  mut.stmt().new_("Box").astore(nb);
  mut.stmt().aload(nb).iconst(7).putfield("Box.v");
  mut.stmt().aload("ar").iconst(0).aload(nb).aastore();
  mut.stmt().aload("ar").iconst(1).aconst_null().aastore();
  mut.stmt().aload("b").iconst(99).putfield("Box.v");
  mut.stmt().aload("b").ldc_str("fresh").putfield("Box.s");
  mut.stmt().aload("ar").aret();
  auto p = pb.build();
  prep::preprocess_program(p);
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});

  uint16_t box_cls = p.find_class("Box");
  const bc::Field& vf = p.field(p.find_field("Box.v"));
  const bc::Field& sf = p.field(p.find_field("Box.s"));
  svm::Heap& hh = home.vm().heap();
  home.vm().ensure_loaded(box_cls);
  auto new_box = [&](int64_t v) {
    bc::Ref r = hh.alloc_obj(box_cls, home.vm().inst_slot_types(box_cls));
    hh.obj(r).fields[vf.slot] = Value::of_i64(v);
    return r;
  };
  bc::Ref ai = hh.alloc_arr_i(3);
  hh.arr_i(ai).v = {1, 2, 3};
  bc::Ref ad = hh.alloc_arr_d(2);
  hh.arr_d(ad).v = {1.25, 2.5};
  bc::Ref x = new_box(10), y = new_box(20), z = new_box(30);
  bc::Ref ar = hh.alloc_arr_r(3);
  hh.arr_r(ar).v = {x, y, z};
  bc::Ref b = new_box(5);

  uint16_t mid = p.find_method("M.mut");
  const Value args[] = {Value::of_ref(ai), Value::of_ref(ad), Value::of_ref(ar), Value::of_ref(b)};
  int tid = home.vm().spawn(mid, args);
  ASSERT_TRUE(mig::pause_at_depth(home, tid, mid, 1));
  auto out = mig::offload_and_return(home, tid, 1, dest, sim::Link::gigabit());
  EXPECT_GE(out.writeback.objects_created, 2);
  ASSERT_EQ(home.vm().thread(tid).status, svm::ThreadStatus::Done);
  EXPECT_EQ(home.vm().thread(tid).result.as_ref(), ar);

  EXPECT_EQ(hh.arr_i(ai).v, (std::vector<int64_t>{41, 2, 3}));
  EXPECT_EQ(hh.arr_d(ad).v, (std::vector<double>{1.25, -0.5}));
  const auto& elems = hh.arr_r(ar).v;
  ASSERT_EQ(elems.size(), 3u);
  bc::Ref created = elems[0];
  ASSERT_NE(created, bc::kNull);
  EXPECT_NE(created, x);
  EXPECT_EQ(hh.obj(created).cls, box_cls);
  EXPECT_EQ(hh.obj(created).fields[vf.slot].as_i64(), 7);
  EXPECT_EQ(hh.obj(created).fields[sf.slot].as_ref(), bc::kNull);
  EXPECT_EQ(elems[1], bc::kNull);
  EXPECT_EQ(elems[2], z);
  EXPECT_EQ(hh.obj(z).fields[vf.slot].as_i64(), 30);
  EXPECT_EQ(hh.obj(b).fields[vf.slot].as_i64(), 99);
  bc::Ref s = hh.obj(b).fields[sf.slot].as_ref();
  ASSERT_NE(s, bc::kNull);
  EXPECT_EQ(hh.str(s).s, "fresh");
}

TEST(Migrate, HopShipsTheStateAndRestoresTheCapturedFrames) {
  // One hop of a three-frame segment, with and without the entry class
  // image riding along: the timing reports the wire bytes, the state
  // arrives after exactly the link's transfer time, and the destination
  // holds the frames home captured.
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  uint16_t main_cls = p.find_class("Main");
  sim::Link link = sim::Link::gigabit();
  size_t fetched[2] = {};
  for (bool ship_class : {true, false}) {
    SCOPED_TRACE(ship_class ? "class image shipped" : "class image fetched on demand");
    SodNode home("home", p, {});
    SodNode dest("dest", p, {});
    int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(12)});
    ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, 5));
    auto cs = mig::capture_segment(home, tid, mig::SegmentSpec{0, 3});
    home.ti().set_debug_enabled(false);
    const std::vector<uint8_t> wire = cs.wire();
    const size_t image = ship_class ? p.class_image(main_cls).size() : 0;

    mig::Segment seg(dest);
    VDur home_at = home.node().clock.now();
    mig::MigrationTiming t = mig::hop(home, tid, 3, wire, seg, link, ship_class);
    EXPECT_EQ(t.state_bytes, wire.size());
    EXPECT_EQ(t.class_bytes, image);
    EXPECT_EQ(t.serde.ns, home.serde().cost(wire.size(), 3).ns);
    EXPECT_EQ(t.capture.ns, t.serde.ns);  // home's clock pays the serialization
    EXPECT_EQ(t.transfer.ns, link.transfer_time(wire.size() + image).ns);
    // Sent once home has paid the serialization; the destination clock
    // then advances by the transfer and the restore alone.
    EXPECT_EQ(dest.node().clock.now().ns,
              (home_at + t.capture + link.transfer_time(wire.size() + image) + t.restore).ns);
    fetched[ship_class] = dest.class_bytes_fetched();

    auto back = mig::capture_segment(dest, seg.tid(), mig::SegmentSpec{0, 3});
    ASSERT_EQ(back.frames.size(), cs.frames.size());
    for (size_t i = 0; i < cs.frames.size(); ++i) {
      EXPECT_EQ(back.frames[i].method, cs.frames[i].method) << "frame " << i;
      EXPECT_EQ(back.frames[i].pc, cs.frames[i].pc) << "frame " << i;
      EXPECT_EQ(back.frames[i].pending_callee, cs.frames[i].pending_callee) << "frame " << i;
      ASSERT_EQ(back.frames[i].locals.size(), cs.frames[i].locals.size()) << "frame " << i;
      for (size_t k = 0; k < cs.frames[i].locals.size(); ++k)
        EXPECT_TRUE(same_value(back.frames[i].locals[k], cs.frames[i].locals[k]))
            << "frame " << i << " local " << k;
    }
  }
  // Without the image, the restore fetches exactly that class on demand.
  EXPECT_EQ(fetched[false] - fetched[true], p.class_image(main_cls).size());
}

TEST(Migrate, TotalMigrationFig1b) {
  // Fig. 1(b): top frame migrates; the residual frames are pushed to the
  // same destination; when the top segment finishes, its result is
  // delivered into the residual segment at the destination and execution
  // continues there (no return to home).
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});

  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(12)});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, 4));

  // Segment A: top frame.
  auto wireA = mig::capture_segment(home, tid, mig::SegmentSpec{0, 1}).wire();
  // Segment B: the residual stack (depths 1..4).
  auto wireB = mig::capture_segment(home, tid, mig::SegmentSpec{1, 4}).wire();
  home.ti().set_debug_enabled(false);

  mig::Segment segA(dest);
  mig::hop(home, tid, 1, wireA, segA, sim::Link::gigabit(), /*ship_class=*/false);
  Value a = segA.run_to_completion();

  mig::Segment segB(dest);
  mig::hop(home, tid, 4, wireB, segB, sim::Link::gigabit(), /*ship_class=*/false);
  segB.deliver(a);
  Value final = segB.run_to_completion();
  EXPECT_EQ(final.as_i64(), fib_ref(12));
}

TEST(Migrate, WorkflowFig1cAcrossThreeNodes) {
  // Fig. 1(c): frame 1 -> node 2, frames 2..3 -> node 3, control flows
  // 1 -> 2 -> 3.  The lower segment restores on node 3 concurrently, so
  // its restore cost overlaps segment A's execution (freeze-time hiding).
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  SodNode n1("node1", p, {});
  SodNode n2("node2", p, {});
  SodNode n3("node3", p, {});

  int tid = n1.vm().spawn(fib, std::vector<Value>{Value::of_i64(12)});
  ASSERT_TRUE(mig::pause_at_depth(n1, tid, fib, 3));

  auto wireTop = mig::capture_segment(n1, tid, mig::SegmentSpec{0, 1}).wire();
  auto wireRest = mig::capture_segment(n1, tid, mig::SegmentSpec{1, 3}).wire();
  n1.ti().set_debug_enabled(false);

  mig::Segment segTop(n2);
  mig::hop(n1, tid, 1, wireTop, segTop, sim::Link::gigabit(), /*ship_class=*/false);

  mig::Segment segRest(n3);
  mig::hop(n1, tid, 3, wireRest, segRest, sim::Link::gigabit(), /*ship_class=*/false);

  // Control: node2 executes the top frame, forwards its result to node3.
  Value top = segTop.run_to_completion();
  segRest.deliver(top);
  Value final = segRest.run_to_completion();
  EXPECT_EQ(final.as_i64(), fib_ref(12));
}

TEST(Migrate, PinnedFramesLimitSegment) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  SodNode home("home", p, {});
  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(12)});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, 5));
  // Pin nothing: whole stack migratable.
  EXPECT_EQ(mig::max_migratable_frames(home, tid, {}), 5);
  // Pin fib itself: nothing migratable (socket-holder scenario).
  EXPECT_EQ(mig::max_migratable_frames(home, tid, {fib}), 0);
  home.ti().set_debug_enabled(false);
}

TEST(Migrate, PauseAtNextMspAndOffload) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  SodNode home("home", p, {});
  SodNode dest("dest", p, {});
  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(14)});
  // Run a random-ish amount, then pause at the next MSP.
  home.run_guest(tid, 3000);
  ASSERT_TRUE(testing::pause_at_next_msp(home, tid));
  int depth = static_cast<int>(home.vm().thread(tid).frames.size());
  int nframes = std::max(1, depth / 2);
  mig::offload_and_return(home, tid, nframes, dest, sim::Link::gigabit());
  home.ti().set_debug_enabled(false);
  auto rr = home.run_guest(tid);
  ASSERT_EQ(rr.reason, svm::StopReason::Done);
  EXPECT_EQ(home.vm().thread(tid).result.as_i64(), fib_ref(14));
}

TEST(Migrate, CapturedStateSerializationRoundTrip) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  SodNode home("home", p, {});
  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(10)});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, 4));
  auto cs = mig::capture_segment(home, tid, mig::SegmentSpec{0, 4});
  home.ti().set_debug_enabled(false);

  ByteWriter w;
  cs.serialize(w);
  EXPECT_EQ(w.bytes(), cs.wire());
  auto cs2 = mig::CapturedState::from_wire(cs.wire());
  ASSERT_EQ(cs2.frames.size(), cs.frames.size());
  for (size_t i = 0; i < cs.frames.size(); ++i) {
    EXPECT_EQ(cs2.frames[i].method, cs.frames[i].method);
    EXPECT_EQ(cs2.frames[i].pc, cs.frames[i].pc);
    EXPECT_EQ(cs2.frames[i].pending_callee, cs.frames[i].pending_callee);
    ASSERT_EQ(cs2.frames[i].locals.size(), cs.frames[i].locals.size());
    for (size_t k = 0; k < cs.frames[i].locals.size(); ++k)
      EXPECT_TRUE(same_value(cs2.frames[i].locals[k], cs.frames[i].locals[k]));
  }
  ASSERT_EQ(cs2.statics.size(), cs.statics.size());
}

TEST(Migrate, TransferTimeScalesWithBandwidth) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  VDur fast_transfer, slow_transfer;
  for (bool slow : {false, true}) {
    SodNode home("home", p, {});
    SodNode dest("dest", p, {});
    int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(12)});
    ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, 4));
    sim::Link link = slow ? sim::Link::wifi_kbps(128) : sim::Link::gigabit();
    auto out = mig::offload_and_return(home, tid, 2, dest, link);
    (slow ? slow_transfer : fast_transfer) = out.timing.transfer;
  }
  EXPECT_GT(slow_transfer.ns, 100 * fast_transfer.ns);
}

}  // namespace
}  // namespace sod
