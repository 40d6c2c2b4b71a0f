// Wall-clock engine: the ThreadPool runs lane jobs FIFO and cross-lane
// jobs genuinely in parallel; the WallClockEngine reproduces the
// virtual-time Scheduler bit for bit (application results, write-back
// payload bytes, virtual instants) on every Table I app at 1 and 4 pool
// threads, after worker losses, with checkpoints and speculative races,
// and across cross-worker ref chains; and a stressed engine — membership
// churn between rounds plus a mid-round worker loss — still executes every
// segment exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/apps.h"
#include "cluster/cluster.h"
#include "cluster/loadgen.h"
#include "cluster/placement.h"
#include "cluster/scheduler.h"
#include "cluster/threadpool.h"
#include "cluster/wallclock.h"
#include "prep/prep.h"
#include "sod/migrate.h"
#include "testlib.h"

namespace sod::cluster {
namespace {

using bc::Value;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, LaneJobsRunInSubmissionOrder) {
  ThreadPool pool(4);
  pool.ensure_lane(1);
  std::vector<int> seen;
  for (int i = 0; i < 200; ++i)
    pool.submit(0, [i, &seen] { seen.push_back(i); });  // same lane: no racing writers
  pool.wait_idle();
  std::vector<int> want(200);
  std::iota(want.begin(), want.end(), 0);
  EXPECT_EQ(seen, want);
}

TEST(ThreadPool, LanesOverlapAcrossThreads) {
  ThreadPool pool(2);
  pool.ensure_lane(2);
  auto t0 = steady_clock::now();
  for (size_t lane = 0; lane < 2; ++lane)
    pool.submit(lane, [] { std::this_thread::sleep_for(milliseconds(100)); });
  pool.wait_idle();
  auto ms = std::chrono::duration_cast<milliseconds>(steady_clock::now() - t0).count();
  // Two 100 ms sleeps on two threads overlap; serial execution would be
  // >= 200 ms.
  EXPECT_LT(ms, 190);
}

TEST(ThreadPool, SingleThreadStillDrainsEveryLane) {
  ThreadPool pool(1);
  pool.ensure_lane(3);
  std::atomic<int> done{0};
  for (size_t lane = 0; lane < 3; ++lane)
    for (int j = 0; j < 5; ++j) pool.submit(lane, [&done] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 15);
}

TEST(ThreadPool, WaitIdleCoversJobsSubmittedByJobs) {
  ThreadPool pool(2);
  pool.ensure_lane(2);
  std::atomic<int> done{0};
  pool.submit(0, [&] {
    ++done;
    pool.submit(1, [&] { ++done; });
  });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 2);
}

// ------------------------------------------------------------ engine parity

struct AppOutcome {
  int64_t result = 0;
  size_t writeback_bytes = 0;
  // (round, segment, virtual completion ns): wall runs must reproduce the
  // Scheduler's virtual completion instants bit for bit.
  std::multiset<std::tuple<int, int, int64_t>> completions;
  // (kind, virtual ns, round, segment, worker, attempt) of every event.
  std::vector<std::tuple<int, int64_t, int, int, int, int>> events;
  bool exactly_once = false;
  bool done = false;
  int checkpoints = 0;
  int speculations = 0;
  int cancellations = 0;
  int resumes = 0;
  // Home stripe telemetry (wall engine only): one entry per home shard,
  // plus the cluster-wide acquisition count, which is deterministic for a
  // fault-free run.
  std::vector<mig::ShardContention> shard_stats;
  uint64_t lock_acq = 0;
};

/// threads < 0 = virtual-time Scheduler, threads >= 0 = WallClockEngine
/// (0 = one pool thread per worker).
std::unique_ptr<Scheduler> make_engine(Cluster& c, PlacementPolicy& pol, int threads,
                                       const DispatchOptions& dopt = {}) {
  if (threads < 0) return std::make_unique<Scheduler>(c, pol, dopt);
  WallClockOptions wopt;
  wopt.threads = threads;
  return std::make_unique<WallClockEngine>(c, pol, wopt, dopt);
}

/// Finishes the home thread and records what the engine left behind.
AppOutcome finish(Cluster& c, Scheduler& s, int tid) {
  AppOutcome o;
  c.home().ti().set_debug_enabled(false);
  auto rr = c.home().run_guest(tid);
  o.done = rr.reason == svm::StopReason::Done;
  if (o.done) o.result = c.home().vm().thread(tid).result.as_i64();
  for (const Event& e : s.log()) {
    if (e.kind == EventKind::SegmentCompleted) o.completions.emplace(e.round, e.segment, e.at.ns);
    o.events.emplace_back(static_cast<int>(e.kind), e.at.ns, e.round, e.segment, e.worker,
                          e.attempt);
  }
  o.exactly_once = s.exactly_once();
  o.checkpoints = s.checkpoints();
  o.speculations = s.speculations();
  o.cancellations = s.cancellations();
  o.resumes = s.resumes();
  if (auto* wall = dynamic_cast<WallClockEngine*>(&s)) {
    o.shard_stats = wall->shard_contention();
    o.lock_acq = wall->total_contention().acquisitions;
  }
  return o;
}

/// The run_table1_app round loop from the CLI driver, on either engine
/// (see make_engine).  `shards` > 0 stripes the home state.
AppOutcome run_app(const apps::AppSpec& spec, int threads, int shards = 0) {
  bc::Program p = spec.build();
  prep::preprocess_program(p);
  Cluster c(p);
  c.add_uniform_workers(3);
  if (shards > 0) c.set_home_shards(shards);
  auto pol = make_policy(PolicyKind::LeastLoaded);
  auto engine = make_engine(c, *pol, threads);

  uint16_t trigger = p.find_method(spec.trigger_method);
  int depth = std::min(spec.paper_depth, 4);
  int tid = c.home().vm().spawn(p.find_method(spec.entry), spec.bench_args);

  size_t writeback_bytes = 0;
  int remaining = c.size();
  while (remaining > 0 && mig::pause_at_depth(c.home(), tid, trigger, depth)) {
    int k = std::min(remaining, depth - 1);
    if (remaining > k) k = std::max(1, depth - 2);
    auto out = engine->run(tid, split_top_frames(k));
    c.home().ti().set_debug_enabled(false);
    writeback_bytes += out.writeback_bytes;
    remaining -= k;
  }
  AppOutcome o = finish(c, *engine, tid);
  o.writeback_bytes = writeback_bytes;
  return o;
}

TEST(WallClock, TableOneAppsMatchTheVirtualSchedulerBitForBit) {
  for (const apps::AppSpec& spec : apps::table1_apps()) {
    SCOPED_TRACE(spec.name);
    AppOutcome ref = run_app(spec, -1);
    ASSERT_TRUE(ref.done);
    ASSERT_TRUE(ref.exactly_once);
    ASSERT_FALSE(ref.completions.empty());
    if (spec.bench_expected != INT64_MIN) {
      EXPECT_EQ(ref.result, spec.bench_expected);
    }
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      AppOutcome got = run_app(spec, threads);
      ASSERT_TRUE(got.done);
      EXPECT_TRUE(got.exactly_once);
      EXPECT_EQ(got.result, ref.result);
      EXPECT_EQ(got.writeback_bytes, ref.writeback_bytes);
      EXPECT_EQ(got.completions, ref.completions);
    }
  }
}

// ------------------------------------------------------------ home sharding

TEST(WallClock, HomeShardedRunsMatchTheVirtualSchedulerBitForBit) {
  // Striping the home state may only change wall-clock interleaving: at
  // every shard count the engine must reproduce the virtual scheduler's
  // results, write-back bytes, and virtual completion instants, and the
  // stripe-acquisition total is a property of the replay, not the shard
  // count or the interleaving.
  const apps::AppSpec spec = apps::fib_app();
  AppOutcome ref = run_app(spec, -1);
  ASSERT_TRUE(ref.done);
  ASSERT_TRUE(ref.exactly_once);
  uint64_t acq = 0;
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    AppOutcome got = run_app(spec, /*threads=*/4, shards);
    ASSERT_TRUE(got.done);
    EXPECT_TRUE(got.exactly_once);
    EXPECT_EQ(got.result, ref.result);
    EXPECT_EQ(got.writeback_bytes, ref.writeback_bytes);
    EXPECT_EQ(got.completions, ref.completions);
    ASSERT_EQ(got.shard_stats.size(), static_cast<size_t>(shards));
    EXPECT_GT(got.lock_acq, 0u);
    if (shards == 1) {
      acq = got.lock_acq;
    } else {
      EXPECT_EQ(got.lock_acq, acq);
    }
  }
}

TEST(WallClock, ShardContentionCountersSumAcrossStripes) {
  const apps::AppSpec spec = apps::fib_app();
  AppOutcome got = run_app(spec, /*threads=*/4, /*shards=*/4);
  ASSERT_TRUE(got.done);
  ASSERT_EQ(got.shard_stats.size(), 4u);
  uint64_t sum = 0;
  int used = 0;
  for (const mig::ShardContention& s : got.shard_stats) {
    sum += s.acquisitions;
    if (s.acquisitions > 0) ++used;
    EXPECT_GE(s.acquisitions, s.contended);
    if (s.contended == 0) {
      EXPECT_EQ(s.wait_ns, 0u);
    }
    EXPECT_GE(s.wait_ns, s.max_wait_ns);
  }
  EXPECT_EQ(sum, got.lock_acq);
  // The stable hash spreads the three key domains over the stripes: a
  // 4-shard fib run must exercise more than one of them.
  EXPECT_GT(used, 1);
}

// ------------------------------------------------- beyond the fault-free path

/// Two Xeons on gigabit plus a 25x-slower wifi device (the multitenant
/// bench's straggler topology).
std::vector<WorkerSpec> straggler_topology() {
  mig::SodNode::Config dev;
  dev.cpu_scale = 25.0;
  return {{"xeon1", {}, sim::Link::gigabit()},
          {"xeon2", {}, sim::Link::gigabit()},
          {"wifi-device", dev, sim::Link::wifi_kbps(2000)}};
}

TEST(WallClock, PostLossReplayMatchesTheVirtualScheduler) {
  // Two mid-round worker losses: both engines re-dispatch through the
  // policy on the home thread, so every session latency and every event
  // instant downstream of a loss is the Scheduler's, on real lanes too.
  TraceConfig cfg;
  cfg.sessions = 60;
  cfg.tenants = 2;
  cfg.apps = 2;
  cfg.arrival = ArrivalKind::Poisson;
  cfg.mean_gap = VDur::millis(20);
  cfg.failures = 2;
  cfg.seed = 1;
  Trace tr = make_trace(cfg);
  LoadGenOptions opts;
  opts.policy = PolicyKind::RoundRobin;
  opts.workers = straggler_topology();
  opts.segments_per_round = 3;
  LoadGenResult virt = run_loadgen(tr, opts);
  ASSERT_TRUE(virt.all_ok);
  ASSERT_TRUE(virt.exactly_once);
  ASSERT_GE(virt.workers_lost, 1);  // the second loss would leave one survivor: skipped
  ASSERT_GT(virt.redispatched, 0);

  opts.wallclock = true;
  opts.threads = 3;
  opts.dilation = 0.25;
  LoadGenResult wall = run_loadgen(tr, opts);
  EXPECT_TRUE(wall.all_ok);
  EXPECT_TRUE(wall.exactly_once);
  EXPECT_EQ(wall.results, virt.results);
  EXPECT_EQ(wall.session_ms, virt.session_ms);
  // The digest covers every event's virtual instant, SegmentCompleted
  // included.
  EXPECT_EQ(wall.log_digest, virt.log_digest);
  EXPECT_EQ(wall.redispatched, virt.redispatched);
}

TEST(WallClock, CheckpointsAndSpeculativeRacesRunOnLanes) {
  // least_loaded parks a segment on the device every round; the tracker
  // flags it and a backup races it from the newest checkpoint on a Xeon
  // lane.  A worker loss at a checkpoint resumes the killed attempt from
  // that checkpoint elsewhere.  The wall engine must take the same
  // checkpoints, launch and cancel the same attempts, and read the same
  // virtual instants.
  auto run = [](int threads) {
    auto p = sod::testing::fib_program();
    prep::preprocess_program(p);
    uint16_t fib = p.find_method("Main.fib");
    Cluster c(p);
    for (const WorkerSpec& ws : straggler_topology()) c.add_worker(ws);
    auto pol = make_policy(PolicyKind::LeastLoaded);
    DispatchOptions dopt;
    dopt.checkpoint_every = 20000;
    dopt.speculate = true;
    auto s = make_engine(c, *pol, threads, dopt);
    s->fail_after_checkpoints(2);  // kill the worker taking the 2nd checkpoint
    int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(26)});
    for (int r = 0; r < 3; ++r) {
      EXPECT_TRUE(mig::pause_at_depth(c.home(), tid, fib, 3 + 4));
      s->run(tid, split_top_frames(3));
      c.home().ti().set_debug_enabled(false);
    }
    return finish(c, *s, tid);
  };
  AppOutcome ref = run(-1);
  ASSERT_TRUE(ref.done);
  EXPECT_EQ(ref.result, sod::testing::fib_ref(26));
  ASSERT_TRUE(ref.exactly_once);
  ASSERT_GT(ref.checkpoints, 0);
  ASSERT_GT(ref.speculations, 0);
  ASSERT_GT(ref.cancellations, 0);
  ASSERT_GT(ref.resumes, 0);
  for (int threads : {1, 3}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    AppOutcome got = run(threads);
    ASSERT_TRUE(got.done);
    EXPECT_TRUE(got.exactly_once);
    EXPECT_EQ(got.result, ref.result);
    EXPECT_EQ(got.events, ref.events);
    EXPECT_EQ(got.checkpoints, ref.checkpoints);
    EXPECT_EQ(got.speculations, ref.speculations);
    EXPECT_EQ(got.cancellations, ref.cancellations);
    EXPECT_EQ(got.resumes, ref.resumes);
  }
}

TEST(WallClock, CrossWorkerRefForwardsMatchTheVirtualScheduler) {
  // mk(6) split over two round-robin workers chains a ref result: the
  // upper segment's Node goes home with its write-back and the lower lane
  // receives a handle whose body it faults in lazily through the gate.
  using Forward = std::tuple<int, int, int, int, bc::Ref>;
  auto run = [](int threads) {
    auto p = sod::testing::node_chain_program();
    prep::preprocess_program(p);
    uint16_t mk = p.find_method("M.mk");
    Cluster c(p);
    c.add_uniform_workers(2);
    auto pol = make_policy(PolicyKind::RoundRobin);
    auto s = make_engine(c, *pol, threads);
    int tid = c.home().vm().spawn(mk, std::vector<Value>{Value::of_i64(6)});
    EXPECT_TRUE(mig::pause_at_depth(c.home(), tid, mk, 4));
    auto out = s->run(tid, split_top_frames(2));
    c.home().ti().set_debug_enabled(false);
    EXPECT_EQ(out.ref_forwards, 1);
    EXPECT_EQ(c.home().run_guest(tid).reason, svm::StopReason::Done);
    Value r = c.home().vm().thread(tid).result;
    uint16_t val_slot = p.field(p.find_field("Node.val")).slot;
    EXPECT_EQ(c.home().vm().heap().obj(r.r).fields[val_slot].as_i64(), 1 + 6 * 7 / 2);
    std::vector<Forward> fw;
    for (const RefForward& f : s->ref_forwards())
      fw.emplace_back(f.round, f.segment, f.src_worker, f.dst_worker, f.home_ref);
    return fw;
  };
  std::vector<Forward> ref = run(-1);
  ASSERT_EQ(ref.size(), 1u);
  for (int threads : {1, 2}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run(threads), ref);
  }
}

// ------------------------------------------------------------------- stress

TEST(WallClock, ChurnAndMidRoundLossStillExecuteExactlyOnce) {
  auto p = sod::testing::fib_program();
  prep::preprocess_program(p);
  uint16_t fib = p.find_method("Main.fib");
  Cluster c(p);
  c.add_uniform_workers(3);
  auto pol = make_policy(PolicyKind::LeastLoaded);
  WallClockOptions wopt;
  wopt.threads = 4;
  WallClockEngine eng(c, *pol, wopt);
  eng.fail_after(2);  // deepest-queue worker dies mid round 0

  int tid = c.home().vm().spawn(fib, std::vector<Value>{Value::of_i64(26)});
  int joiner = -1;
  for (int r = 0; r < 3; ++r) {
    ASSERT_TRUE(mig::pause_at_depth(c.home(), tid, fib, 4 + 4));
    auto out = eng.run(tid, split_top_frames(4));
    c.home().ti().set_debug_enabled(false);
    ASSERT_EQ(out.placements.size(), 4u);
    if (r == 0) joiner = eng.add_worker({"joiner", {}, sim::Link::gigabit()});
    if (r == 1) eng.drain_worker(joiner);
  }
  c.home().ti().set_debug_enabled(false);
  ASSERT_EQ(c.home().run_guest(tid).reason, svm::StopReason::Done);
  EXPECT_EQ(c.home().vm().thread(tid).result.as_i64(), sod::testing::fib_ref(26));

  EXPECT_TRUE(eng.exactly_once());
  EXPECT_EQ(eng.workers_lost(), 1);
  EXPECT_GE(eng.redispatches(), 1);
  EXPECT_EQ(eng.completions(), 12);
  int completed = 0, lost = 0, joined = 0, draining = 0;
  for (const Event& e : eng.log()) {
    if (e.kind == EventKind::SegmentCompleted) ++completed;
    if (e.kind == EventKind::WorkerLost) ++lost;
    if (e.kind == EventKind::WorkerJoined) ++joined;
    if (e.kind == EventKind::WorkerDraining) ++draining;
  }
  EXPECT_EQ(completed, 12);
  EXPECT_EQ(lost, 1);
  EXPECT_EQ(joined, 1);
  EXPECT_EQ(draining, 1);
}

}  // namespace
}  // namespace sod::cluster
