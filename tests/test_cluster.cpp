// Cluster placement: policies pick the expected worker under skewed loads,
// slow links, and class locality; concurrent multi-segment dispatch
// preserves app results while hiding freeze time (the Fig. 1(c) property);
// the event-driven Scheduler re-dispatches segments after worker losses
// (deterministically, exactly once), autoscales membership from queue
// depth, and chains ref results across workers via home-mediated handles.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "cluster/scheduler.h"
#include "prep/prep.h"
#include "sod/migrate.h"
#include "testlib.h"

namespace sod::cluster {
namespace {

using bc::ProgramBuilder;
using bc::Ty;
using bc::Value;

bc::Program prepped_fib() {
  auto p = sod::testing::fib_program();
  prep::preprocess_program(p);
  return p;
}

TEST(Policy, ParseAcceptsDashedAndUnderscoredSpellings) {
  EXPECT_EQ(parse_policy("round-robin"), PolicyKind::RoundRobin);
  EXPECT_EQ(parse_policy("round_robin"), PolicyKind::RoundRobin);
  EXPECT_EQ(parse_policy("least-loaded"), PolicyKind::LeastLoaded);
  EXPECT_EQ(parse_policy("least_loaded"), PolicyKind::LeastLoaded);
  EXPECT_EQ(parse_policy("locality-aware"), PolicyKind::LocalityAware);
  EXPECT_EQ(parse_policy("locality"), PolicyKind::LocalityAware);
  EXPECT_EQ(parse_policy("learned"), PolicyKind::Learned);
  EXPECT_FALSE(parse_policy("fastest").has_value());
  EXPECT_FALSE(parse_policy("").has_value());
}

TEST(Policy, RoundRobinCycles) {
  auto p = prepped_fib();
  Cluster c(p);
  c.add_uniform_workers(3);
  auto pol = make_policy(PolicyKind::RoundRobin);
  PlacementRequest req;
  for (int i = 0; i < 6; ++i) EXPECT_EQ(pol->choose(c, req), i % 3);
}

TEST(Policy, LeastLoadedPicksTheIdleWorker) {
  auto p = prepped_fib();
  Cluster c(p);
  c.add_uniform_workers(3);
  c.worker(0).node().clock.advance(VDur::millis(10));
  c.worker(2).node().clock.advance(VDur::millis(25));
  auto pol = make_policy(PolicyKind::LeastLoaded);
  PlacementRequest req;
  req.state_bytes = 256;
  EXPECT_EQ(pol->choose(c, req), 1);
  // Load worker 1 past worker 0: the choice follows the load skew.
  c.worker(1).node().clock.advance(VDur::millis(30));
  EXPECT_EQ(pol->choose(c, req), 0);
}

TEST(Policy, LeastLoadedAvoidsASlowLink) {
  auto p = prepped_fib();
  Cluster c(p);
  c.add_worker({"fast", {}, sim::Link::gigabit()});
  c.add_worker({"wifi", {}, sim::Link::wifi_kbps(500)});
  auto pol = make_policy(PolicyKind::LeastLoaded);
  PlacementRequest req;
  req.state_bytes = 64 << 10;  // ~1 s over 500 kbps wifi
  EXPECT_EQ(pol->choose(c, req), 0);
  // Even a busy fast worker beats shipping the state over wifi.
  c.worker(0).node().clock.advance(VDur::millis(50));
  EXPECT_EQ(pol->choose(c, req), 0);
}

TEST(Policy, LocalityAwarePrefersTheClassHolder) {
  auto p = prepped_fib();
  Cluster c(p);
  c.add_uniform_workers(3);
  uint16_t cls = p.method(p.find_method("Main.fib")).owner;
  c.worker(2).mark_class_shipped(cls);
  PlacementRequest req;
  req.cls = cls;
  req.state_bytes = 512;
  req.class_image_bytes = p.class_image(cls).size();
  ASSERT_GT(req.class_image_bytes, 0u);
  auto least = make_policy(PolicyKind::LeastLoaded);
  auto local = make_policy(PolicyKind::LocalityAware);
  EXPECT_EQ(least->choose(c, req), 0);  // locality-blind: all equal, lowest id
  EXPECT_EQ(local->choose(c, req), 2);  // the holder skips the image transfer
}

TEST(Policy, LocalityAwareFallsBackToLoadWhenNobodyHoldsTheClass) {
  auto p = prepped_fib();
  Cluster c(p);
  c.add_uniform_workers(3);
  c.worker(0).node().clock.advance(VDur::millis(10));
  c.worker(2).node().clock.advance(VDur::millis(10));
  PlacementRequest req;
  req.cls = p.method(p.find_method("Main.fib")).owner;
  req.state_bytes = 512;
  req.class_image_bytes = p.class_image(req.cls).size();
  auto pol = make_policy(PolicyKind::LocalityAware);
  EXPECT_EQ(pol->choose(c, req), 1);
}

TEST(Dispatch, SplitTopFramesIsContiguousFromTheTop) {
  auto specs = split_top_frames(3);
  ASSERT_EQ(specs.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(specs[static_cast<size_t>(i)].depth_lo, i);
    EXPECT_EQ(specs[static_cast<size_t>(i)].depth_hi, i + 1);
  }
}

TEST(Dispatch, ConcurrentSplitPreservesTheResultAndHidesFreezeTime) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  Cluster c(p);
  c.add_uniform_workers(3);
  int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(22)});
  ASSERT_TRUE(mig::pause_at_depth(c.home(), tid, fib, 4));
  auto pol = make_policy(PolicyKind::RoundRobin);
  auto out = dispatch_segments(c, tid, split_top_frames(3), *pol);
  c.home().ti().set_debug_enabled(false);
  auto rr = c.home().run_guest(tid);
  ASSERT_EQ(rr.reason, svm::StopReason::Done);
  EXPECT_EQ(c.home().vm().thread(tid).result.as_i64(), sod::testing::fib_ref(22));
  ASSERT_EQ(out.placements.size(), 3u);
  // Every lower segment finished restoring inside the window in which the
  // segment above it was still executing: its freeze time was hidden.
  EXPECT_TRUE(out.overlapped);
  for (size_t i = 1; i < out.placements.size(); ++i)
    EXPECT_LT(out.placements[i].restored_at, out.placements[i - 1].completed_at);
}

TEST(Dispatch, ConcurrentShippingBeatsTheSequentialBaseline) {
  auto total_with = [](bool concurrent) {
    auto p = prepped_fib();
    uint16_t fib = p.find_method("Main.fib");
    Cluster c(p);
    c.add_uniform_workers(3);
    int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(22)});
    EXPECT_TRUE(mig::pause_at_depth(c.home(), tid, fib, 4));
    auto pol = make_policy(PolicyKind::RoundRobin);
    DispatchOptions o;
    o.concurrent = concurrent;
    auto out = dispatch_segments(c, tid, split_top_frames(3), *pol, o);
    if (!concurrent) {
      EXPECT_FALSE(out.overlapped);
    }
    c.home().ti().set_debug_enabled(false);
    EXPECT_EQ(c.home().run_guest(tid).reason, svm::StopReason::Done);
    EXPECT_EQ(c.home().vm().thread(tid).result.as_i64(), sod::testing::fib_ref(22));
    return c.home().node().clock.now();
  };
  VDur conc = total_with(true);
  VDur seq = total_with(false);
  // Fig. 1(c): the concurrent total is strictly below the sum-of-sequential
  // offload total because transfer + restore of lower segments is hidden.
  EXPECT_LT(conc.ns, seq.ns);
}

// --- elastic membership ---

TEST(Membership, DuplicateWorkerNamePanics) {
  auto p = prepped_fib();
  Cluster c(p);
  c.add_worker({"alpha", {}, sim::Link::gigabit()});
  EXPECT_DEATH(c.add_worker({"alpha", {}, sim::Link::gigabit()}), "duplicate worker name");
}

TEST(Membership, DrainRetiresWhenTheQueueEmpties) {
  auto p = prepped_fib();
  Cluster c(p);
  c.add_uniform_workers(2);
  c.note_assigned(0, VDur::millis(1));
  c.drain_worker(0);
  EXPECT_EQ(c.state(0), WorkerState::Draining);
  EXPECT_FALSE(c.accepting(0));
  EXPECT_EQ(c.accepting_size(), 1);
  c.note_completed(0);
  EXPECT_EQ(c.state(0), WorkerState::Retired);
  // An idle worker retires the moment it is drained.
  c.drain_worker(1);
  EXPECT_EQ(c.state(1), WorkerState::Retired);
  EXPECT_EQ(c.accepting_size(), 0);
}

TEST(Membership, RemoveRequiresAnIdleWorker) {
  auto p = prepped_fib();
  Cluster c(p);
  c.add_uniform_workers(2);
  c.note_assigned(0);
  EXPECT_DEATH(c.remove_worker(0), "outstanding work");
  c.remove_worker(1);
  EXPECT_EQ(c.state(1), WorkerState::Retired);
  c.note_completed(0);
  c.remove_worker(0);
  EXPECT_EQ(c.accepting_size(), 0);
}

TEST(Membership, AssignToNonAcceptingWorkerPanics) {
  auto p = prepped_fib();
  Cluster c(p);
  c.add_uniform_workers(2);
  c.drain_worker(0);
  EXPECT_DEATH(c.note_assigned(0), "non-accepting");
}

TEST(Policy, RoundRobinStaysValidAcrossMembershipChurn) {
  auto p = prepped_fib();
  Cluster c(p);
  c.add_uniform_workers(3);
  auto pol = make_policy(PolicyKind::RoundRobin);
  PlacementRequest req;
  // The counter wraps modularly (regression: the signed counter used to
  // overflow and produce negative ids) and only accepting members are
  // returned, across drains, removals, and joins.
  for (int i = 0; i < 1000; ++i) {
    int w = pol->choose(c, req);
    ASSERT_GE(w, 0);
    ASSERT_LT(w, c.size());
    ASSERT_TRUE(c.accepting(w));
    if (i == 200) c.drain_worker(1);
    if (i == 400) c.remove_worker(0);
    if (i == 600) c.add_worker({"late-joiner", {}, sim::Link::gigabit()});
  }
  // Only worker 2 and the late joiner still accept; the cycle covers both.
  std::set<int> seen;
  for (int i = 0; i < 4; ++i) seen.insert(pol->choose(c, req));
  EXPECT_EQ(seen, (std::set<int>{2, 3}));
}

TEST(Policy, PoliciesSkipDrainingAndRetiredWorkers) {
  auto p = prepped_fib();
  Cluster c(p);
  c.add_uniform_workers(3);
  c.drain_worker(0);
  c.remove_worker(2);
  PlacementRequest req;
  req.state_bytes = 256;
  for (PolicyKind kind : all_policies()) {
    auto pol = make_policy(kind);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(pol->choose(c, req), 1) << policy_name(kind);
  }
}

TEST(Policy, QueuedCostRaisesTheArrivalEstimate) {
  auto p = prepped_fib();
  Cluster c(p);
  c.add_uniform_workers(2);
  // Worker 0 holds ONE expensive queued round, worker 1 TWO cheap ones:
  // count-based accounting prefers worker 0, cost-based prefers worker 1.
  c.note_assigned(0, VDur::millis(50));
  c.note_assigned(1, VDur::micros(10));
  c.note_assigned(1, VDur::micros(10));
  EXPECT_EQ(c.queued_cost(0), VDur::millis(50));
  EXPECT_EQ(c.inflight(0), 1);
  EXPECT_EQ(c.inflight(1), 2);
  PlacementRequest req;
  req.state_bytes = 256;
  auto least = make_policy(PolicyKind::LeastLoaded);
  auto learned = make_policy(PolicyKind::Learned);
  EXPECT_EQ(least->choose(c, req), 0);    // inflight count is its primary key
  EXPECT_EQ(learned->choose(c, req), 1);  // predicted completion sees the 50 ms
}

TEST(Policy, LearnedConvergesToTheFasterWorker) {
  auto p = prepped_fib();
  uint16_t cls = p.method(p.find_method("Main.fib")).owner;
  Cluster c(p);
  mig::SodNode::Config slow;
  slow.cpu_scale = 25.0;
  c.add_worker({"slow", slow, sim::Link::gigabit()});
  c.add_worker({"fast", {}, sim::Link::gigabit()});
  PlacementRequest req;
  req.cls = cls;
  req.state_bytes = 256;
  auto pol = make_policy(PolicyKind::Learned);
  // Cold: no execution-time estimate, equal links and loads — the tie
  // lands on the first worker, the slow one.
  EXPECT_EQ(pol->choose(c, req), 0);
  // One observed execution on the slow worker teaches the policy the
  // class's reference-CPU cost; the 25x cpu_scale then prices the slow
  // worker out.
  Placement pl;
  pl.worker = 0;
  pl.cls = cls;
  pl.executed_at = VDur::millis(1);
  pl.completed_at = VDur::millis(26);  // 25 ms on the slow CPU = 1 ms reference
  pol->observe(c, req, pl);
  EXPECT_GT(pol->estimate(c, 0, req), pol->estimate(c, 1, req));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(pol->choose(c, req), 1);
  // Further observations on the fast worker keep the EWMA consistent and
  // the choice stable.
  Placement pl2;
  pl2.worker = 1;
  pl2.cls = cls;
  pl2.executed_at = VDur::millis(2);
  pl2.completed_at = VDur::millis(3);
  pol->observe(c, req, pl2);
  EXPECT_EQ(pol->choose(c, req), 1);
}

TEST(Cluster, NoOpStaticRefreshShipsNothing) {
  ProgramBuilder pb;
  auto& cls = pb.cls("Main");
  cls.field("counter", Ty::I64, /*is_static=*/true);
  auto& m = cls.method("touch", {}, Ty::I64);
  m.stmt().getstatic("Main.counter").iret();
  auto p = pb.build();
  prep::preprocess_program(p);

  mig::SodNode src("src", p, {});
  mig::SodNode dst("dst", p, {});
  src.call_guest("Main.touch", std::vector<Value>{});
  dst.call_guest("Main.touch", std::vector<Value>{});

  uint16_t cid = p.find_class("Main");
  ASSERT_TRUE(src.vm().class_loaded(cid));
  ASSERT_TRUE(dst.vm().class_loaded(cid));

  // Identical statics: nothing to ship (regression: 8 bytes were charged
  // and the class marked changed even for identical values).
  EXPECT_EQ(refresh_primitive_statics(src, dst), 0u);

  uint16_t fid = p.find_field("Main.counter");
  std::vector<Value> vals(src.vm().statics_of(cid).begin(), src.vm().statics_of(cid).end());
  vals[p.field(fid).slot] = Value::of_i64(42);
  src.vm().overwrite_statics(cid, std::move(vals));
  EXPECT_EQ(refresh_primitive_statics(src, dst), 8u);  // the changed field ships once
  EXPECT_EQ(dst.vm().statics_of(cid)[p.field(fid).slot].as_i64(), 42);
  EXPECT_EQ(refresh_primitive_statics(src, dst), 0u);  // and is a no-op afterwards
}

TEST(Dispatch, ChainedSegmentsRunInFastModeDespiteSharedWorkerRestores) {
  // Exec-time parity between a collision-free dispatch (3 segments on 3
  // workers) and one where a lower segment restores on the top segment's
  // worker (3 segments on 2 workers).  A lower segment's restore leaves
  // the shared worker's debug interpreter on; the top segment must still
  // execute in fast mode (regression: it ran at the 10x debug multiplier).
  auto exec_span_of_top = [](int nworkers) {
    auto p = prepped_fib();
    uint16_t fib = p.find_method("Main.fib");
    Cluster c(p);
    c.add_uniform_workers(nworkers);
    int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(22)});
    EXPECT_TRUE(mig::pause_at_depth(c.home(), tid, fib, 4));
    auto pol = make_policy(PolicyKind::RoundRobin);
    auto out = dispatch_segments(c, tid, split_top_frames(3), *pol);
    c.home().ti().set_debug_enabled(false);
    EXPECT_EQ(c.home().run_guest(tid).reason, svm::StopReason::Done);
    EXPECT_EQ(c.home().vm().thread(tid).result.as_i64(), sod::testing::fib_ref(22));
    return out.placements[0].completed_at - out.placements[0].restored_at;
  };
  VDur clean = exec_span_of_top(3);    // top segment alone on its worker
  VDur shared = exec_span_of_top(2);   // segment 2 also restores on worker 0
  // The shared-worker span additionally contains segment 2's restore, but
  // nothing close to a 10x-inflated execution.
  EXPECT_LT(shared.ns, clean.ns * 3);
}

TEST(Dispatch, JoinAndDrainBetweenRounds) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  Cluster c(p);
  c.add_uniform_workers(2);
  int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(24)});
  auto pol = make_policy(PolicyKind::RoundRobin);

  auto round = [&](int k) {
    EXPECT_TRUE(mig::pause_at_depth(c.home(), tid, fib, k + 2));
    auto out = dispatch_segments(c, tid, split_top_frames(k), *pol);
    c.home().ti().set_debug_enabled(false);
    return out;
  };

  auto r1 = round(2);
  ASSERT_EQ(r1.placements.size(), 2u);

  // A worker joining mid-run is visible to the very next round: a
  // full-width round touches every accepting member, the joiner included.
  int joiner = c.add_worker({"joiner", {}, sim::Link::gigabit()});
  auto r2 = round(3);
  bool joiner_used = false;
  for (const auto& pl : r2.placements) joiner_used = joiner_used || pl.worker == joiner;
  EXPECT_TRUE(joiner_used);

  // A drained worker stops receiving segments and retires once idle.
  c.drain_worker(0);
  EXPECT_EQ(c.state(0), WorkerState::Retired);  // queue empty between rounds
  auto r3 = round(2);
  for (const auto& pl : r3.placements) EXPECT_NE(pl.worker, 0);

  c.home().ti().set_debug_enabled(false);
  ASSERT_EQ(c.home().run_guest(tid).reason, svm::StopReason::Done);
  EXPECT_EQ(c.home().vm().thread(tid).result.as_i64(), sod::testing::fib_ref(24));
}

TEST(Dispatch, MultiFrameSegmentsChainAcrossWorkers) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  Cluster c(p);
  c.add_uniform_workers(2);
  int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(20)});
  ASSERT_TRUE(mig::pause_at_depth(c.home(), tid, fib, 4));
  std::vector<mig::SegmentSpec> specs{{0, 1}, {1, 3}};
  auto pol = make_policy(PolicyKind::RoundRobin);
  auto out = dispatch_segments(c, tid, specs, *pol);
  c.home().ti().set_debug_enabled(false);
  ASSERT_EQ(c.home().run_guest(tid).reason, svm::StopReason::Done);
  EXPECT_EQ(c.home().vm().thread(tid).result.as_i64(), sod::testing::fib_ref(20));
  ASSERT_EQ(out.placements.size(), 2u);
  EXPECT_EQ(out.placements[0].worker, 0);
  EXPECT_EQ(out.placements[1].worker, 1);
}

// --- worker failure, the event-driven scheduler, and autoscaling ---

TEST(Membership, FailWorkerDropsQueueAndNeverAcceptsAgain) {
  auto p = prepped_fib();
  Cluster c(p);
  c.add_uniform_workers(2);
  c.note_assigned(0, VDur::millis(1));
  c.note_assigned(0, VDur::millis(2));
  EXPECT_DOUBLE_EQ(c.mean_queue_depth(), 1.0);
  EXPECT_EQ(c.fail_worker(0), 2);  // both outstanding assignments dropped
  EXPECT_EQ(c.state(0), WorkerState::Lost);
  EXPECT_EQ(c.inflight(0), 0);
  EXPECT_FALSE(c.accepting(0));
  EXPECT_EQ(c.accepting_size(), 1);
  EXPECT_DOUBLE_EQ(c.mean_queue_depth(), 0.0);
  EXPECT_EQ(c.fail_worker(0), 0);  // idempotent on an already-lost worker
  c.drain_worker(0);               // terminal: drain and remove are no-ops
  c.remove_worker(0);
  EXPECT_EQ(c.state(0), WorkerState::Lost);
  EXPECT_DEATH(c.note_assigned(0), "non-accepting");
}

TEST(Scheduler, WorkerLossRedispatchesOutstandingSegmentsExactlyOnce) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  Cluster c(p);
  c.add_uniform_workers(3);
  int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(22)});
  ASSERT_TRUE(mig::pause_at_depth(c.home(), tid, fib, 3 + 4));
  auto pol = make_policy(PolicyKind::RoundRobin);
  Scheduler s(c, *pol);
  s.fail_after(1, 2);  // lose worker 2 right after the first completion
  auto out = s.run(tid, split_top_frames(3));
  c.home().ti().set_debug_enabled(false);
  ASSERT_EQ(c.home().run_guest(tid).reason, svm::StopReason::Done);
  EXPECT_EQ(c.home().vm().thread(tid).result.as_i64(), sod::testing::fib_ref(22));

  // Round-robin put segment 2 on worker 2; its assignment died with the
  // worker and was re-dispatched to a survivor.
  EXPECT_EQ(c.state(2), WorkerState::Lost);
  EXPECT_EQ(out.redispatched, 1);
  ASSERT_EQ(out.placements.size(), 3u);
  for (const auto& pl : out.placements) EXPECT_NE(pl.worker, 2);
  EXPECT_EQ(out.placements[2].attempts, 2);
  EXPECT_EQ(out.placements[0].attempts, 1);
  EXPECT_TRUE(s.exactly_once());
  EXPECT_EQ(s.workers_lost(), 1);
  EXPECT_EQ(s.completions(), 3);

  int lost = 0, failed = 0, completed = 0;
  for (const Event& e : s.log()) {
    if (e.kind == EventKind::WorkerLost) ++lost;
    if (e.kind == EventKind::SegmentFailed) ++failed;
    if (e.kind == EventKind::SegmentCompleted) ++completed;
  }
  EXPECT_EQ(lost, 1);
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(completed, 3);
}

TEST(Scheduler, RedispatchIsDeterministic) {
  // Same seedless program + same failure schedule + same autoscaler must
  // reproduce identical virtual-time tables and identical event logs.
  using PlacementRow = std::tuple<int, int, int64_t, int64_t, int64_t>;
  using EventRow = std::tuple<int, int64_t, int, int, int, int>;
  auto run_once = [](std::vector<PlacementRow>& rows, std::vector<EventRow>& events) {
    auto p = prepped_fib();
    uint16_t fib = p.find_method("Main.fib");
    Cluster c(p);
    c.add_uniform_workers(2);
    auto pol = make_policy(PolicyKind::Learned);
    Scheduler s(c, *pol);
    s.fail_after(2);  // deepest-queue target, mid round 1: forces a re-dispatch
    s.set_autoscaler(std::make_unique<Autoscaler>(
        Autoscaler::Config{},
        std::vector<WorkerSpec>{{"standby1", {}, sim::Link::gigabit()}}));
    int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(26)});
    for (int r = 0; r < 3; ++r) {
      ASSERT_TRUE(mig::pause_at_depth(c.home(), tid, fib, 4 + 4));
      auto out = s.run(tid, split_top_frames(4));
      c.home().ti().set_debug_enabled(false);
      for (const auto& pl : out.placements)
        rows.emplace_back(pl.worker, pl.attempts, pl.restored_at.ns, pl.executed_at.ns,
                          pl.completed_at.ns);
    }
    c.home().ti().set_debug_enabled(false);
    ASSERT_EQ(c.home().run_guest(tid).reason, svm::StopReason::Done);
    EXPECT_EQ(c.home().vm().thread(tid).result.as_i64(), sod::testing::fib_ref(26));
    EXPECT_TRUE(s.exactly_once());
    EXPECT_EQ(s.workers_lost(), 1);
    EXPECT_GE(s.redispatches(), 1);
    for (const Event& e : s.log())
      events.emplace_back(static_cast<int>(e.kind), e.at.ns, e.seq, e.round, e.segment,
                          e.worker);
  };
  std::vector<PlacementRow> rows_a, rows_b;
  std::vector<EventRow> events_a, events_b;
  run_once(rows_a, events_a);
  run_once(rows_b, events_b);
  ASSERT_FALSE(rows_a.empty());
  ASSERT_FALSE(events_a.empty());
  EXPECT_EQ(rows_a, rows_b);
  EXPECT_EQ(events_a, events_b);
}

TEST(Scheduler, CrossWorkerRefChainsThroughHomeForwarding) {
  auto p = sod::testing::node_chain_program();
  prep::preprocess_program(p);
  uint16_t mk = p.find_method("M.mk");
  Cluster c(p);
  c.add_uniform_workers(2);
  int tid = c.home().vm().spawn(mk, std::vector<Value>{Value::of_i64(6)});
  ASSERT_TRUE(mig::pause_at_depth(c.home(), tid, mk, 4));
  auto pol = make_policy(PolicyKind::RoundRobin);
  Scheduler s(c, *pol);
  auto out = s.run(tid, split_top_frames(2));
  c.home().ti().set_debug_enabled(false);
  // Round-robin put the two chained segments on different workers: the
  // upper segment's Node went home with its completion write-back and its
  // handle was forwarded; the lower worker faulted the body in lazily.
  ASSERT_EQ(out.placements.size(), 2u);
  EXPECT_NE(out.placements[0].worker, out.placements[1].worker);
  EXPECT_EQ(out.ref_forwards, 1);
  ASSERT_EQ(s.ref_forwards().size(), 1u);
  EXPECT_EQ(s.ref_forwards()[0].src_worker, out.placements[0].worker);
  EXPECT_EQ(s.ref_forwards()[0].dst_worker, out.placements[1].worker);
  EXPECT_GE(out.faults, 1);

  ASSERT_EQ(c.home().run_guest(tid).reason, svm::StopReason::Done);
  Value r = c.home().vm().thread(tid).result;
  ASSERT_EQ(r.tag, Ty::Ref);
  uint16_t val_slot = p.field(p.find_field("Node.val")).slot;
  EXPECT_EQ(c.home().vm().heap().obj(r.r).fields[val_slot].as_i64(), 1 + 6 * 7 / 2);
}

TEST(Scheduler, AutoscalerJoinsOnHighWaterAndDrainsIdleJoinerImmediately) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  Cluster c(p);
  c.add_uniform_workers(2);
  auto pol = make_policy(PolicyKind::RoundRobin);
  Scheduler s(c, *pol);
  s.set_autoscaler(std::make_unique<Autoscaler>(
      Autoscaler::Config{},
      std::vector<WorkerSpec>{{"standby1", {}, sim::Link::gigabit()}}));
  int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(26)});

  // Round 1: four segments over two workers — the placement-phase tick
  // sees mean depth 2.0 > high water and promotes the standby worker.
  ASSERT_TRUE(mig::pause_at_depth(c.home(), tid, fib, 4 + 4));
  s.run(tid, split_top_frames(4));
  c.home().ti().set_debug_enabled(false);
  ASSERT_EQ(c.size(), 3);
  int joiner = 2;
  EXPECT_EQ(c.state(joiner), WorkerState::Active);
  EXPECT_EQ(s.autoscaler()->joins(), 1);

  // Round 2: the joiner is a full member and receives work.
  ASSERT_TRUE(mig::pause_at_depth(c.home(), tid, fib, 4 + 4));
  auto r2 = s.run(tid, split_top_frames(4));
  c.home().ti().set_debug_enabled(false);
  bool joiner_used = false;
  for (const auto& pl : r2.placements) joiner_used = joiner_used || pl.worker == joiner;
  EXPECT_TRUE(joiner_used);

  // Round 3: one segment over three workers — mean depth 0.33 < low
  // water, so the idle joiner is drained and retires in the same tick
  // (regression guard: no one-round retirement lag).
  ASSERT_TRUE(mig::pause_at_depth(c.home(), tid, fib, 1 + 4));
  auto r3 = s.run(tid, split_top_frames(1));
  c.home().ti().set_debug_enabled(false);
  EXPECT_EQ(r3.placements[0].worker, 1);  // round-robin cursor, joiner idle
  EXPECT_EQ(c.state(joiner), WorkerState::Retired);
  EXPECT_EQ(s.autoscaler()->drains(), 1);
  bool joined = false, draining = false;
  for (const Event& e : s.log()) {
    joined = joined || (e.kind == EventKind::WorkerJoined && e.worker == joiner);
    draining = draining || (e.kind == EventKind::WorkerDraining && e.worker == joiner);
  }
  EXPECT_TRUE(joined);
  EXPECT_TRUE(draining);

  c.home().ti().set_debug_enabled(false);
  ASSERT_EQ(c.home().run_guest(tid).reason, svm::StopReason::Done);
  EXPECT_EQ(c.home().vm().thread(tid).result.as_i64(), sod::testing::fib_ref(26));
}

TEST(Scheduler, CustomPolicyFailoverLogsEveryAttempt) {
  struct Probe final : PlacementPolicy {
    const char* name() const override { return "probe"; }
    int choose(const Cluster& c, const PlacementRequest&) override {
      for (int w = 0; w < c.size(); ++w)
        if (c.accepting(w)) return w;
      return -1;
    }
  };
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  Cluster c(p);
  c.add_uniform_workers(2);
  int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(22)});
  ASSERT_TRUE(mig::pause_at_depth(c.home(), tid, fib, 3 + 4));
  Probe probe;
  Scheduler s(c, probe);
  s.fail_after(1, 0);  // the probe stacks everything on worker 0; lose it
  auto out = s.run(tid, split_top_frames(3));
  c.home().ti().set_debug_enabled(false);
  ASSERT_EQ(c.home().run_guest(tid).reason, svm::StopReason::Done);
  EXPECT_EQ(out.redispatched, 2);
  auto count = [&](EventKind k) {
    int n = 0;
    for (const Event& e : s.log())
      if (e.kind == k) ++n;
    return n;
  };
  EXPECT_EQ(count(EventKind::SegmentDispatched), 5);  // 3 initial + 2 re-dispatches
  EXPECT_EQ(count(EventKind::SegmentCompleted), 3);
  EXPECT_EQ(count(EventKind::SegmentFailed), 2);
  EXPECT_EQ(count(EventKind::WorkerLost), 1);
}

/// Home sharding must never change what the scheduler does: the ref-chain
/// workload (cross-worker handle forwarding + lazy body faults) replayed
/// at 1, 2, and 4 home shards yields bit-identical placements, forwards,
/// and final heap state.
TEST(Scheduler, CrossShardRefChainMatchesUnshardedRun) {
  struct Obs {
    std::vector<RefForward> forwards;
    std::vector<int64_t> completed_ns;
    int faults = 0;
    int64_t val = 0;
    bool operator==(const Obs& o) const {
      return forwards.size() == o.forwards.size() && completed_ns == o.completed_ns &&
             faults == o.faults && val == o.val;
    }
  };
  auto run_at = [](int shards) {
    auto p = sod::testing::node_chain_program();
    prep::preprocess_program(p);
    uint16_t mk = p.find_method("M.mk");
    Cluster c(p);
    c.add_uniform_workers(2);
    c.set_home_shards(shards);
    int tid = c.home().vm().spawn(mk, std::vector<Value>{Value::of_i64(6)});
    EXPECT_TRUE(mig::pause_at_depth(c.home(), tid, mk, 4));
    auto pol = make_policy(PolicyKind::RoundRobin);
    Scheduler s(c, *pol);
    auto out = s.run(tid, split_top_frames(2));
    c.home().ti().set_debug_enabled(false);
    Obs obs;
    obs.forwards = s.ref_forwards();
    for (const auto& pl : out.placements) obs.completed_ns.push_back(pl.completed_at.ns);
    obs.faults = out.faults;
    EXPECT_EQ(c.home().run_guest(tid).reason, svm::StopReason::Done);
    Value r = c.home().vm().thread(tid).result;
    EXPECT_EQ(r.tag, Ty::Ref);
    uint16_t val_slot = p.field(p.find_field("Node.val")).slot;
    obs.val = c.home().vm().heap().obj(r.r).fields[val_slot].as_i64();
    return obs;
  };
  Obs ref = run_at(1);
  EXPECT_EQ(ref.forwards.size(), 1u);
  EXPECT_EQ(ref.val, 1 + 6 * 7 / 2);
  for (int shards : {2, 4}) {
    Obs sharded = run_at(shards);
    EXPECT_EQ(sharded, ref) << "home shards = " << shards;
    ASSERT_EQ(sharded.forwards.size(), ref.forwards.size());
    EXPECT_EQ(sharded.forwards[0].home_ref, ref.forwards[0].home_ref);
    EXPECT_EQ(sharded.forwards[0].dst_worker, ref.forwards[0].dst_worker);
  }
}

/// The partitioned forward table reassembles its append-order view from
/// per-record sequence numbers, so `ordered()` is identical at any shard
/// count even when records land in different partitions.
TEST(RefForwardTable, OrderedViewIsShardCountInvariant) {
  auto fill = [](RefForwardTable& t) {
    for (int i = 0; i < 12; ++i)
      t.record(RefForward{i / 3, i % 3, i % 2, (i + 1) % 2,
                          static_cast<bc::Ref>(100 + i)});
  };
  mig::HomeShardMap one(1), four(4);
  RefForwardTable a, b;
  a.configure(&one);
  b.configure(&four);
  fill(a);
  fill(b);
  ASSERT_EQ(a.total(), 12u);
  ASSERT_EQ(b.total(), 12u);
  EXPECT_EQ(a.partitions(), 1);
  EXPECT_EQ(b.partitions(), 4);
  auto va = a.ordered();
  auto vb = b.ordered();
  ASSERT_EQ(va.size(), vb.size());
  for (size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].home_ref, vb[i].home_ref);
    EXPECT_EQ(va[i].round, vb[i].round);
    EXPECT_EQ(va[i].segment, vb[i].segment);
  }
  // The sharded table genuinely spread the records: no partition holds
  // them all (12 keyed records over 4 stripes).
  int nonempty = 0;
  size_t spread_total = 0;
  for (int s = 0; s < b.partitions(); ++s) {
    if (b.partition_size(s) > 0) ++nonempty;
    spread_total += b.partition_size(s);
  }
  EXPECT_GT(nonempty, 1);
  EXPECT_EQ(spread_total, 12u);
}

}  // namespace
}  // namespace sod::cluster
