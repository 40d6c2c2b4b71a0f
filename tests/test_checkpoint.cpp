// Checkpoint & speculation subsystem: in-flight segments re-capture at
// migration-safe points with home-translated refs and incremental delta
// sizing; the scheduler resumes a lost attempt from the newest checkpoint
// (instead of restarting from the round-start capture), races straggler
// attempts against a backup copy with first-completion-wins semantics,
// suppresses the loser's write-back, and keeps the whole event log
// deterministic and attempt-aware exactly-once.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "cluster/drive.h"
#include "cluster/placement.h"
#include "prep/prep.h"
#include "sod/migrate.h"
#include "testlib.h"

namespace sod::cluster {
namespace {

using bc::ProgramBuilder;
using bc::Ty;
using bc::Value;

/// Chunk/checkpoint cadence for tests: a handful of checkpoints per
/// segment execution of the Fib workload.
constexpr uint64_t kEvery = 20000;

bc::Program prepped_fib() {
  auto p = sod::testing::fib_program();
  prep::preprocess_program(p);
  return p;
}

// --- store and straggler units ---

TEST(CheckpointStore, KeepsTheNewestEntryPerSegment) {
  CheckpointStore s;
  EXPECT_EQ(s.latest(0, 0), nullptr);
  mig::SegmentCheckpoint a;
  a.state_bytes = 100;
  a.heap_bytes = 20;
  s.record(0, 0, a, /*attempt=*/1, VDur::millis(1));
  mig::SegmentCheckpoint b;
  b.state_bytes = 120;
  b.heap_bytes = 8;
  s.record(0, 0, b, /*attempt=*/1, VDur::millis(2));
  s.record(0, 1, a, /*attempt=*/1, VDur::millis(3));
  ASSERT_NE(s.latest(0, 0), nullptr);
  EXPECT_EQ(s.latest(0, 0)->seq, 2);
  EXPECT_EQ(s.latest(0, 0)->ckpt.state_bytes, 120u);
  EXPECT_EQ(s.latest(0, 0)->taken_at, VDur::millis(2));
  EXPECT_EQ(s.total_recorded(), 3);
  EXPECT_EQ(s.total_bytes(), 100u + 20 + 120 + 8 + 100 + 20);
  EXPECT_EQ(s.live(), 2);
  s.drop(0, 0);
  EXPECT_EQ(s.latest(0, 0), nullptr);
  EXPECT_EQ(s.live(), 1);
  EXPECT_EQ(s.total_recorded(), 3);  // lifetime counters survive drops
}

TEST(Speculation, FlagsStragglersOnlyAfterLearning) {
  // Straggler detection reads the placement policy's span model: the
  // per-class EWMA of reference-CPU execution spans that also prices
  // placements.
  auto p = prepped_fib();
  Cluster c(p);
  mig::SodNode::Config half_speed;
  half_speed.cpu_scale = 2.0;
  c.add_worker({"half-speed", half_speed, sim::Link::gigabit()});
  auto pol = make_policy(PolicyKind::RoundRobin);
  PlacementRequest req;
  req.cls = 7;
  auto observe = [&](VDur span) {
    Placement pl;
    pl.worker = 0;
    pl.cls = req.cls;
    pl.executed_at = VDur::millis(1);
    pl.completed_at = pl.executed_at + span;
    pol->observe(c, req, pl);
  };
  // Nothing learned: no baseline to be slow against.
  EXPECT_FALSE(pol->straggler(7, VDur::seconds(100)));
  // The first observation is the span, normalised to the reference CPU:
  // 20 ms at cpu_scale 2 is 10 ms, so stragglers run past 1.75 x 10 ms.
  observe(VDur::millis(20));
  EXPECT_FALSE(pol->straggler(7, VDur::millis(17)));
  EXPECT_TRUE(pol->straggler(7, VDur::millis(18)));
  // 60 ms is 30 ms on the reference CPU; the EWMA update gives
  // 0.4 * 30 + 0.6 * 10 = 18 ms, so the bar moves to 31.5 ms.
  observe(VDur::millis(60));
  EXPECT_FALSE(pol->straggler(7, VDur::millis(31)));
  EXPECT_TRUE(pol->straggler(7, VDur::millis(32)));
  // Other classes stay unlearned.
  EXPECT_FALSE(pol->straggler(8, VDur::seconds(100)));
}

// --- exactly-once verdict ---

/// A segment event of attempt `attempt`, the only fields the verdict reads.
Event ev(EventKind kind, int round, int segment, int attempt) {
  Event e;
  e.kind = kind;
  e.round = round;
  e.segment = segment;
  e.attempt = attempt;
  return e;
}

bool streaming_verdict(const std::vector<Event>& log) {
  ExactlyOnce v;
  for (const Event& e : log) v.add(e);
  return v.holds();
}

TEST(ExactlyOnce, AcceptsCleanRacesAndRecoveries) {
  using K = EventKind;
  const std::vector<std::vector<Event>> logs = {
      {},
      {ev(K::SegmentDispatched, 0, 0, 1), ev(K::SegmentCompleted, 0, 0, 1)},
      // A lost attempt re-dispatched; then a race the backup wins.
      {ev(K::SegmentDispatched, 0, 0, 1), ev(K::SegmentDispatched, 0, 1, 1),
       ev(K::SegmentFailed, 0, 0, 1), ev(K::SegmentDispatched, 0, 0, 2),
       ev(K::SegmentCompleted, 0, 0, 2), ev(K::SpeculativeDispatched, 0, 1, 2),
       ev(K::AttemptCancelled, 0, 1, 1), ev(K::SegmentCompleted, 0, 1, 2)},
      // Two rounds, the second reusing segment indices.
      {ev(K::SegmentDispatched, 0, 0, 1), ev(K::SegmentCompleted, 0, 0, 1),
       ev(K::SegmentDispatched, 1, 0, 1), ev(K::SegmentCompleted, 1, 0, 1)},
  };
  for (size_t i = 0; i < logs.size(); ++i) {
    EXPECT_TRUE(sod::testing::exactly_once(logs[i])) << "log " << i;
    EXPECT_TRUE(streaming_verdict(logs[i])) << "log " << i;
  }
}

TEST(ExactlyOnce, DetectsEveryViolation) {
  using K = EventKind;
  const std::vector<std::pair<const char*, std::vector<Event>>> logs = {
      {"second completion",
       {ev(K::SegmentDispatched, 0, 0, 1), ev(K::SegmentCompleted, 0, 0, 1),
        ev(K::SegmentCompleted, 0, 0, 1)}},
      {"completion by a cancelled attempt",
       {ev(K::SegmentDispatched, 0, 0, 1), ev(K::SpeculativeDispatched, 0, 0, 2),
        ev(K::AttemptCancelled, 0, 0, 2), ev(K::SegmentCompleted, 0, 0, 2)}},
      {"completion by a failed attempt",
       {ev(K::SegmentDispatched, 0, 0, 1), ev(K::SegmentFailed, 0, 0, 1),
        ev(K::SegmentDispatched, 0, 0, 2), ev(K::SegmentCompleted, 0, 0, 1)}},
      {"completion by an attempt never dispatched",
       {ev(K::SegmentDispatched, 0, 0, 1), ev(K::SegmentCompleted, 0, 0, 2)}},
      {"kill logged after the completion",
       {ev(K::SegmentDispatched, 0, 0, 1), ev(K::SpeculativeDispatched, 0, 0, 2),
        ev(K::SegmentCompleted, 0, 0, 2), ev(K::AttemptCancelled, 0, 0, 2)}},
      {"dispatched, never completed",
       {ev(K::SegmentDispatched, 0, 0, 1), ev(K::SegmentDispatched, 0, 1, 1),
        ev(K::SegmentCompleted, 0, 0, 1)}},
      {"dispatched, never completed, in an earlier round",
       {ev(K::SegmentDispatched, 0, 0, 1), ev(K::SegmentDispatched, 1, 0, 1),
        ev(K::SegmentCompleted, 1, 0, 1)}},
  };
  for (const auto& [what, log] : logs) {
    EXPECT_FALSE(sod::testing::exactly_once(log)) << what;
    EXPECT_FALSE(streaming_verdict(log)) << what;
  }
}

// --- migration-level checkpoint round trip ---

TEST(Checkpoint, InFlightSegmentResumesOnAnotherWorker) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  mig::SodNode home("home", p, {});
  mig::SodNode wa("wa", p, {});
  mig::SodNode wb("wb", p, {});
  sim::Link link = sim::Link::gigabit();
  wa.enable_class_fetch(&home, link);
  wb.enable_class_fetch(&home, link);

  int tid = home.vm().spawn(fib, std::vector<Value>{Value::of_i64(21)});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, fib, 2));
  mig::CapturedState cs = mig::capture_segment(home, tid, {0, 1});
  home.ti().set_debug_enabled(false);
  EXPECT_FALSE(cs.home_refs);

  mig::Segment sa(wa);
  sa.objman().bind_home(&home, tid, 1, link);
  sa.restore(cs);

  // Run a few chunks on worker A, then checkpoint mid-execution.
  mig::CheckpointDeltas deltas;
  ASSERT_EQ(sa.run_chunk(kEvery), svm::StopReason::SafePoint);
  ASSERT_EQ(sa.run_chunk(kEvery), svm::StopReason::SafePoint);
  auto ck = mig::checkpoint_segment(sa, home, link, deltas);
  EXPECT_TRUE(ck.state.home_refs);
  EXPECT_GT(ck.state_bytes, 0u);
  EXPECT_GT(ck.state.frames.size(), 1u);  // recursion deepened past the capture

  // The checkpoint's wire form round-trips, home_refs flag included.
  {
    ByteWriter w;
    ck.state.serialize(w);
    EXPECT_EQ(w.size(), ck.state_bytes);
    ByteReader r(w.bytes());
    mig::CapturedState back = mig::CapturedState::deserialize(r);
    EXPECT_TRUE(back.home_refs);
    EXPECT_EQ(back.frames.size(), ck.state.frames.size());
  }

  // Abandon worker A; restore the checkpoint on worker B and finish there.
  mig::Segment sb(wb);
  sb.objman().bind_home(&home, tid, 1, link);
  sb.restore(ck.state);
  Value result = sb.run_to_completion();
  mig::write_back(sb, home, tid, 1, result, link);

  home.ti().set_debug_enabled(false);
  ASSERT_EQ(home.run_guest(tid).reason, svm::StopReason::Done);
  EXPECT_EQ(home.vm().thread(tid).result.as_i64(), sod::testing::fib_ref(21));
}

/// Heap-bearing guest: `keep` is written once before the loop, `hot` is
/// mutated every iteration — so a second checkpoint must re-ship hot but
/// skip keep (the incremental delta).
bc::Program two_object_program() {
  ProgramBuilder pb;
  auto& nd = pb.cls("Node");
  nd.field("val", Ty::I64);
  auto& m = pb.cls("M").method("work", {{"n", Ty::I64}}, Ty::I64);
  uint16_t keep = m.local("keep", Ty::Ref);
  uint16_t hot = m.local("hot", Ty::Ref);
  uint16_t i = m.local("i", Ty::I64);
  bc::Label loop = m.label();
  bc::Label done = m.label();
  m.stmt().new_("Node").astore(keep);
  m.stmt().aload(keep).iconst(7).putfield("Node.val");
  m.stmt().new_("Node").astore(hot);
  m.stmt().iconst(0).istore(i);
  m.bind(loop);
  m.stmt().iload(i).iload("n").if_icmpge(done);
  m.stmt().aload(hot).aload(hot).getfield("Node.val").iload(i).iadd().putfield("Node.val");
  m.stmt().iload(i).iconst(1).iadd().istore(i);
  m.stmt().go(loop);
  m.bind(done);
  m.stmt().aload(keep).getfield("Node.val").aload(hot).getfield("Node.val").iadd().iret();
  return pb.build();
}

TEST(Checkpoint, DeltaSizingSkipsUnchangedObjects) {
  auto p = two_object_program();
  prep::preprocess_program(p);
  uint16_t work = p.find_method("M.work");
  mig::SodNode home("home", p, {});
  mig::SodNode w("w", p, {});
  sim::Link link = sim::Link::gigabit();
  w.enable_class_fetch(&home, link);

  int64_t n = 3000;
  int tid = home.vm().spawn(work, std::vector<Value>{Value::of_i64(n)});
  ASSERT_TRUE(testing::pause_at_next_msp(home, tid));
  mig::CapturedState cs = mig::capture_segment(home, tid, {0, 1});
  home.ti().set_debug_enabled(false);

  mig::Segment seg(w);
  seg.objman().bind_home(&home, tid, 1, link);
  seg.restore(cs);

  mig::CheckpointDeltas deltas;
  ASSERT_EQ(seg.run_chunk(4000), svm::StopReason::SafePoint);
  auto first = mig::checkpoint_segment(seg, home, link, deltas);
  ASSERT_EQ(seg.run_chunk(4000), svm::StopReason::SafePoint);
  auto second = mig::checkpoint_segment(seg, home, link, deltas);

  // First checkpoint ships both objects (creations); the second ships the
  // mutated `hot` but skips the untouched `keep`, so its delta is
  // strictly below its full (non-incremental) payload.
  EXPECT_EQ(first.heap_bytes, first.full_heap_bytes);
  EXPECT_GE(first.objects_shipped, 2);
  EXPECT_LT(second.heap_bytes, second.full_heap_bytes);
  EXPECT_EQ(second.objects_shipped, 1);

  Value result = seg.run_to_completion();
  mig::write_back(seg, home, tid, 1, result, link);
  home.ti().set_debug_enabled(false);
  ASSERT_EQ(home.run_guest(tid).reason, svm::StopReason::Done);
  EXPECT_EQ(home.vm().thread(tid).result.as_i64(), 7 + n * (n - 1) / 2);
}

/// Guest whose segment only *reads* a home object: `main` builds the Node
/// at home, `work` faults it in and sums its field — never mutating it.
bc::Program read_only_program() {
  ProgramBuilder pb;
  auto& nd = pb.cls("Node");
  nd.field("val", Ty::I64);
  auto& M = pb.cls("M");
  auto& mk = M.method("main", {{"n", Ty::I64}}, Ty::I64);
  uint16_t node = mk.local("node", Ty::Ref);
  mk.stmt().new_("Node").astore(node);
  mk.stmt().aload(node).iconst(41).putfield("Node.val");
  mk.stmt().aload(node).iload("n").invoke("M.work").iret();
  auto& w = M.method("work", {{"r", Ty::Ref}, {"n", Ty::I64}}, Ty::I64);
  uint16_t sum = w.local("sum", Ty::I64);
  uint16_t i = w.local("i", Ty::I64);
  bc::Label loop = w.label();
  bc::Label done = w.label();
  w.stmt().iconst(0).istore(sum);
  w.stmt().iconst(0).istore(i);
  w.bind(loop);
  w.stmt().iload(i).iload("n").if_icmpge(done);
  w.stmt().iload(sum).aload("r").getfield("Node.val").iadd().istore(sum);
  w.stmt().iload(i).iconst(1).iadd().istore(i);
  w.stmt().go(loop);
  w.bind(done);
  w.stmt().iload(sum).iret();
  return pb.build();
}

TEST(Checkpoint, FirstCheckpointSkipsFetchedButUnmodifiedObjects) {
  auto p = read_only_program();
  prep::preprocess_program(p);
  uint16_t work = p.find_method("M.work");
  mig::SodNode home("home", p, {});
  mig::SodNode w("w", p, {});
  sim::Link link = sim::Link::gigabit();
  w.enable_class_fetch(&home, link);

  int64_t n = 2000;
  int tid = home.vm().spawn(p.find_method("M.main"), std::vector<Value>{Value::of_i64(n)});
  ASSERT_TRUE(mig::pause_at_depth(home, tid, work, 2));
  mig::CapturedState cs = mig::capture_segment(home, tid, {0, 1});
  home.ti().set_debug_enabled(false);

  mig::Segment seg(w);
  seg.objman().bind_home(&home, tid, 1, link);
  seg.restore(cs);

  mig::CheckpointDeltas deltas;
  ASSERT_EQ(seg.run_chunk(3000), svm::StopReason::SafePoint);
  ASSERT_GE(seg.objman().stats().faults, 1);  // the Node was fetched
  auto ck = mig::checkpoint_segment(seg, home, link, deltas);
  // Fetched but never mutated: home already holds the payload, so even
  // the very first checkpoint ships nothing for it.
  EXPECT_EQ(ck.objects_shipped, 0);
  EXPECT_LT(ck.heap_bytes, ck.full_heap_bytes);

  Value result = seg.run_to_completion();
  mig::write_back(seg, home, tid, 1, result, link);
  home.ti().set_debug_enabled(false);
  ASSERT_EQ(home.run_guest(tid).reason, svm::StopReason::Done);
  EXPECT_EQ(home.vm().thread(tid).result.as_i64(), 41 * n);
}

// --- scheduler: resume after worker loss ---

TEST(Scheduler, WorkerLossAtACheckpointResumesFromIt) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  Cluster c(p);
  c.add_uniform_workers(3);
  auto pol = make_policy(PolicyKind::RoundRobin);
  DispatchOptions opt;
  opt.checkpoint_every = kEvery;
  Scheduler s(c, *pol, opt);
  s.fail_after_checkpoints(2);  // kill the worker taking the 2nd checkpoint
  int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(24)});
  DispatchOutcome out = run_round(s, tid, fib, 3 + 4, 3).value().out;
  Finish fin = sod::testing::finish_checked(s, tid, sod::testing::fib_ref(24));
  EXPECT_TRUE(fin.ok);
  EXPECT_TRUE(fin.exactly_once);

  EXPECT_GE(s.checkpoints(), 2);
  EXPECT_EQ(s.resumes(), 1);
  EXPECT_EQ(s.redispatches(), 1);
  EXPECT_EQ(s.workers_lost(), 1);
  // The resumed segment was dispatched twice; its completing attempt is
  // the second one, and the first is the one that failed.
  int failed = 0, dispatched = 0;
  for (const Event& e : s.log()) {
    if (e.kind == EventKind::SegmentFailed) {
      ++failed;
      EXPECT_EQ(e.attempt, 1);
    }
    if (e.kind == EventKind::SegmentDispatched) ++dispatched;
  }
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(dispatched, 4);  // 3 initial + 1 resume
  bool saw_resumed = false;
  for (const auto& pl : out.placements) saw_resumed = saw_resumed || pl.attempts == 2;
  EXPECT_TRUE(saw_resumed);
}

TEST(Scheduler, AutoscalerDrainDuringCheckpointedRoundIsNotAFailure) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  Cluster c(p);
  c.add_uniform_workers(2);
  auto pol = make_policy(PolicyKind::RoundRobin);
  DispatchOptions opt;
  opt.checkpoint_every = kEvery;
  Scheduler s(c, *pol, opt);
  std::vector<WorkerSpec> standby{{"standby1", {}, sim::Link::gigabit()}};
  s.set_autoscaler(std::make_unique<Autoscaler>(standby));
  int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(26)});
  // Round 1 (4 segments / 2 workers) joins the standby on high water;
  // round 2 (5 segments) walks the round-robin cursor so round 3's single
  // segment lands on the joiner, whose queue is then non-empty when the
  // placement-phase tick drains it on low water.  The draining worker
  // must *finish* that segment under checkpoints — a drain is not a loss
  // (regression: take_checkpoint treated Draining like Lost, fabricating
  // SegmentFailed events and leaking the queue entry).
  for (int k : {4, 5, 1}) ASSERT_TRUE(run_round(s, tid, fib, k + 4, k));
  Finish fin = sod::testing::finish_checked(s, tid, sod::testing::fib_ref(26));
  EXPECT_TRUE(fin.ok);
  EXPECT_TRUE(fin.exactly_once);
  EXPECT_EQ(s.workers_lost(), 0);
  EXPECT_EQ(s.redispatches(), 0);
  for (const Event& e : s.log()) EXPECT_NE(e.kind, EventKind::SegmentFailed);
  EXPECT_GE(s.autoscaler()->drains(), 1);
  EXPECT_EQ(c.state(2), WorkerState::Retired);  // finished its work, then left
}

TEST(Scheduler, ResumeBeatsRestartFromCapture) {
  auto total_with = [](bool resume) {
    auto p = prepped_fib();
    uint16_t fib = p.find_method("Main.fib");
    Cluster c(p);
    c.add_uniform_workers(3);
    auto pol = make_policy(PolicyKind::RoundRobin);
    DispatchOptions opt;
    opt.checkpoint_every = kEvery;
    opt.resume_from_checkpoint = resume;
    Scheduler s(c, *pol, opt);
    s.fail_after_checkpoints(3);
    int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(24)});
    EXPECT_TRUE(run_round(s, tid, fib, 3 + 4, 3));
    Finish fin = sod::testing::finish_checked(s, tid, sod::testing::fib_ref(24));
    EXPECT_TRUE(fin.ok);
    EXPECT_TRUE(fin.exactly_once);
    EXPECT_EQ(s.resumes(), resume ? 1 : 0);
    EXPECT_EQ(s.redispatches(), 1);
    return c.home_now();
  };
  VDur resumed = total_with(true);
  VDur restarted = total_with(false);
  // Both runs pay the same checkpoint cadence and lose the same worker at
  // the same instant; only the recovery differs, and re-executing from
  // the round-start capture is strictly slower than resuming.
  EXPECT_LT(resumed.ns, restarted.ns);
}

// --- scheduler: speculation ---

struct SpecResult {
  VDur total{};
  double mean_completion_ms = 0;
  int speculated = 0;
  int cancelled = 0;
  int64_t result = 0;
  std::vector<std::tuple<int, int64_t, int, int, int, int>> events;
};

SpecResult run_hetero(bool speculate) {
  auto p = prepped_fib();
  uint16_t fib = p.find_method("Main.fib");
  Cluster c(p);
  for (const WorkerSpec& ws : straggler_topology()) c.add_worker(ws);
  auto pol = make_policy(PolicyKind::LeastLoaded);
  DispatchOptions opt;
  opt.checkpoint_every = kEvery;
  opt.speculate = speculate;
  Scheduler s(c, *pol, opt);
  int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(26)});
  Tally tally = run_rounds(s, tid, fib, 3 + 4, std::vector<int>(3, 3));
  EXPECT_EQ(tally.rounds, 3);
  Finish fin = sod::testing::finish_checked(s, tid);
  SpecResult res;
  EXPECT_TRUE(fin.done);
  EXPECT_TRUE(fin.exactly_once);
  res.result = fin.result;
  res.speculated = s.speculations();
  res.cancelled = s.cancellations();
  res.mean_completion_ms = tally.mean_completion_ms();
  res.total = c.home_now();
  for (const Event& e : s.log())
    res.events.emplace_back(static_cast<int>(e.kind), e.at.ns, e.round, e.segment, e.worker,
                            e.attempt);
  return res;
}

TEST(Scheduler, SpeculationRescuesTheStragglerDevice) {
  SpecResult spec = run_hetero(true);
  SpecResult base = run_hetero(false);
  // least_loaded parks one segment per round on the 25x device; the
  // policy's span model (trained by the Xeon completions earlier in the
  // round) flags it, a backup launches from the newest checkpoint on a
  // Xeon, and the loser of each race is cancelled.
  EXPECT_GE(spec.speculated, 1);
  EXPECT_GE(spec.cancelled, 1);
  EXPECT_EQ(base.speculated, 0);
  EXPECT_EQ(base.cancelled, 0);
  EXPECT_EQ(spec.result, base.result);  // suppression keeps results identical
  EXPECT_LT(spec.mean_completion_ms, base.mean_completion_ms);
  EXPECT_LT(spec.total.ns, base.total.ns);
}

TEST(Scheduler, CancelledAttemptsNeverComplete) {
  SpecResult spec = run_hetero(true);
  // Every cancelled attempt was launched, and no cancelled attempt has a
  // completion — the loser's write-back really was suppressed.
  std::vector<std::tuple<int, int, int>> cancelled;
  int completions = 0, speculative = 0;
  for (const auto& [kind, at, round, segment, worker, attempt] : spec.events) {
    if (kind == static_cast<int>(EventKind::AttemptCancelled))
      cancelled.emplace_back(round, segment, attempt);
    if (kind == static_cast<int>(EventKind::SpeculativeDispatched)) ++speculative;
    if (kind == static_cast<int>(EventKind::SegmentCompleted)) ++completions;
  }
  ASSERT_FALSE(cancelled.empty());
  EXPECT_EQ(completions, 9);  // 3 rounds x 3 segments, exactly once each
  // Every race ended with exactly one loser.
  EXPECT_EQ(speculative, static_cast<int>(cancelled.size()));
  for (const auto& [round, segment, attempt] : cancelled) {
    for (const auto& [kind, at, r2, s2, w2, a2] : spec.events) {
      if (kind != static_cast<int>(EventKind::SegmentCompleted)) continue;
      if (r2 == round && s2 == segment) {
        EXPECT_NE(a2, attempt);
      }
    }
  }
}

TEST(Scheduler, RacesAreWonByEitherAttemptAndCompletedByTheWinner) {
  SpecResult spec = run_hetero(true);
  // Per (round, segment): the live attempt when the race began, the
  // backup, the cancelled loser and the completing attempt.
  struct Race {
    int primary = 0, backup = 0, cancelled = 0, completed = 0;
  };
  std::map<std::pair<int, int>, Race> races;
  std::map<std::pair<int, int>, int> live;
  for (const auto& [kind, at, round, segment, worker, attempt] : spec.events) {
    auto key = std::pair(round, segment);
    switch (static_cast<EventKind>(kind)) {
      case EventKind::SegmentDispatched: live[key] = attempt; break;
      case EventKind::SpeculativeDispatched:
        races[key].primary = live[key];
        races[key].backup = attempt;
        break;
      case EventKind::AttemptCancelled: races[key].cancelled = attempt; break;
      case EventKind::SegmentCompleted:
        if (races.count(key) != 0) races[key].completed = attempt;
        break;
      default: break;
    }
  }
  int primary_wins = 0, backup_wins = 0;
  for (const auto& [key, r] : races) {
    ASSERT_NE(r.primary, r.backup);
    ASSERT_TRUE(r.cancelled == r.primary || r.cancelled == r.backup);
    int winner = r.cancelled == r.backup ? r.primary : r.backup;
    EXPECT_EQ(r.completed, winner) << "round " << key.first << " segment " << key.second;
    ++(winner == r.primary ? primary_wins : backup_wins);
  }
  // The device attempt wins when its backup starts too late to pass it.
  EXPECT_GE(primary_wins, 1);
  EXPECT_GE(backup_wins, 1);
}

TEST(Scheduler, CheckpointAndSpeculationLogsAreDeterministic) {
  SpecResult a = run_hetero(true);
  SpecResult b = run_hetero(true);
  ASSERT_FALSE(a.events.empty());
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.result, b.result);
}

TEST(Scheduler, CountersMatchTheEventLog) {
  // Every lifetime count is kept at one site, beside the event it counts:
  // a resume, a restart, speculative races and their losers all show up
  // the same in the counters and in the log, on both engines.
  for (bool on_lanes : {false, true}) {
    SCOPED_TRACE(on_lanes ? "wall-clock engine" : "virtual engine");
    auto p = prepped_fib();
    uint16_t fib = p.find_method("Main.fib");
    Cluster c(p);
    for (const WorkerSpec& ws : straggler_topology()) c.add_worker(ws);
    auto pol = make_policy(PolicyKind::LeastLoaded);
    DispatchOptions opt;
    opt.checkpoint_every = kEvery;
    opt.speculate = true;
    std::optional<WallClockOptions> wall;
    if (on_lanes) wall = WallClockOptions{.threads = 3};
    auto s = make_engine(c, *pol, opt, wall);
    s->fail_after_checkpoints(2);  // resumed from that checkpoint
    s->fail_after(8);              // the last segment's worker: restarted
    int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(26)});
    // Scheduler::run leaves home's debug interface off.
    auto debug_off = [&](int, const Round&) { EXPECT_FALSE(c.home().vm().debug_mode()); };
    ASSERT_EQ(run_rounds(*s, tid, fib, 3 + 4, std::vector<int>(3, 3), debug_off).rounds, 3);
    Finish fin = sod::testing::finish_checked(*s, tid, sod::testing::fib_ref(26));
    EXPECT_TRUE(fin.ok);
    EXPECT_TRUE(fin.exactly_once);

    std::map<EventKind, int> events;
    int redispatched = 0;
    for (const Event& e : s->log()) {
      ++events[e.kind];
      if (e.kind == EventKind::SegmentDispatched && e.attempt > 1) ++redispatched;
    }
    auto expect = [](const char* what, int count, int logged) {
      EXPECT_GT(count, 0) << what;
      EXPECT_EQ(count, logged) << what;
    };
    expect("completions", s->completions(), events[EventKind::SegmentCompleted]);
    expect("workers_lost", s->workers_lost(), events[EventKind::WorkerLost]);
    expect("checkpoints", s->checkpoints(), events[EventKind::CheckpointTaken]);
    expect("speculations", s->speculations(), events[EventKind::SpeculativeDispatched]);
    expect("cancellations", s->cancellations(), events[EventKind::AttemptCancelled]);
    expect("redispatches", s->redispatches(), redispatched);
  }
}

// --- all four Table I apps: resume produces bit-identical results ---

enum class AppMode { Clean, Resume, Restart };

int64_t run_app(const apps::AppSpec& spec, AppMode mode) {
  bc::Program p = spec.build();
  prep::preprocess_program(p);
  Cluster c(p);
  c.add_uniform_workers(3);
  auto pol = make_policy(PolicyKind::RoundRobin);
  DispatchOptions opt;
  bool checkpoint_and_fail = mode != AppMode::Clean;
  if (checkpoint_and_fail) opt.checkpoint_every = kEvery;
  opt.resume_from_checkpoint = mode != AppMode::Restart;
  Scheduler s(c, *pol, opt);
  if (checkpoint_and_fail) s.fail_after_checkpoints(1);
  uint16_t trigger = p.find_method(spec.trigger_method);
  int depth = std::min(spec.paper_depth, 4);
  int tid = c.home().vm().spawn(p.find_method(spec.entry), spec.bench_args);
  run_rounds(s, tid, trigger, depth, spread_plan(c.size(), depth));
  Finish fin = sod::testing::finish_checked(s, tid);
  EXPECT_TRUE(fin.done) << spec.name;
  EXPECT_TRUE(fin.exactly_once) << spec.name;
  if (checkpoint_and_fail) {
    EXPECT_GE(s.checkpoints(), 1) << spec.name;
    EXPECT_EQ(s.workers_lost(), 1) << spec.name;
  }
  return fin.result;
}

TEST(Scheduler, RecoveryIsBitIdenticalOnAllTableIApps) {
  // Resume restores the newest checkpoint (home absorbed its flush);
  // restart re-executes from the original capture against home state the
  // checkpoints never touched (apply_at_home=false) — both must land on
  // exactly the uninterrupted result, statics-heavy TSP/FFT included.
  for (const apps::AppSpec& spec : apps::table1_apps()) {
    int64_t clean = run_app(spec, AppMode::Clean);
    EXPECT_EQ(clean, run_app(spec, AppMode::Resume)) << spec.name << " resume";
    EXPECT_EQ(clean, run_app(spec, AppMode::Restart)) << spec.name << " restart";
    if (spec.bench_expected != INT64_MIN) {
      EXPECT_EQ(clean, spec.bench_expected) << spec.name;
    }
  }
}

}  // namespace
}  // namespace sod::cluster
