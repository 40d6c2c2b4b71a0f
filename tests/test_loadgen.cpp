// Multi-tenant load generator: trace determinism, exact percentiles,
// exactly-once under injected churn/loss, and a 1000-session smoke.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/loadgen.h"
#include "support/rng.h"
#include "support/stats.h"
#include "testlib.h"

namespace {

using sod::Percentiles;
using sod::VDur;
using sod::cluster::ArrivalKind;
using sod::cluster::LoadGenOptions;
using sod::cluster::Trace;
using sod::cluster::TraceConfig;

// ------------------------------------------------------------ percentiles

TEST(PercentilesTest, KnownDistribution) {
  // 1..100: nearest-rank pN is exactly N.
  Percentiles p;
  for (int i = 100; i >= 1; --i) p.add(i);
  EXPECT_EQ(p.count(), 100);
  EXPECT_DOUBLE_EQ(p.p50(), 50.0);
  EXPECT_DOUBLE_EQ(p.p95(), 95.0);
  EXPECT_DOUBLE_EQ(p.p99(), 99.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p.max(), 100.0);
  EXPECT_DOUBLE_EQ(p.mean(), 50.5);
}

TEST(PercentilesTest, SmallSets) {
  // Nearest-rank on n=4: p50 = ceil(2)-th = 2nd smallest, p99 = 4th.
  Percentiles p;
  for (double x : {4.0, 1.0, 3.0, 2.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.p50(), 2.0);
  EXPECT_DOUBLE_EQ(p.p95(), 4.0);
  EXPECT_DOUBLE_EQ(p.p99(), 4.0);
}

TEST(PercentilesTest, SingleElement) {
  Percentiles p;
  p.add(7.25);
  EXPECT_DOUBLE_EQ(p.p50(), 7.25);
  EXPECT_DOUBLE_EQ(p.p95(), 7.25);
  EXPECT_DOUBLE_EQ(p.p99(), 7.25);
  EXPECT_DOUBLE_EQ(p.mean(), 7.25);
}

TEST(PercentilesTest, Empty) {
  Percentiles p;
  EXPECT_EQ(p.count(), 0);
  EXPECT_DOUBLE_EQ(p.p99(), 0.0);
  EXPECT_DOUBLE_EQ(p.mean(), 0.0);
}

TEST(PercentilesTest, Ties) {
  // All-equal samples: every quantile is that value.
  Percentiles p;
  for (int i = 0; i < 10; ++i) p.add(3.0);
  EXPECT_DOUBLE_EQ(p.p50(), 3.0);
  EXPECT_DOUBLE_EQ(p.p99(), 3.0);
  // Heavy tie at the median, distinct tail.
  Percentiles q;
  for (int i = 0; i < 9; ++i) q.add(1.0);
  q.add(100.0);
  EXPECT_DOUBLE_EQ(q.p50(), 1.0);
  EXPECT_DOUBLE_EQ(q.p95(), 100.0);
}

TEST(PercentilesTest, AddAfterQuery) {
  // quantile() sorts lazily; adds after a query must re-sort.
  Percentiles p;
  p.add(10.0);
  EXPECT_DOUBLE_EQ(p.p50(), 10.0);
  p.add(1.0);
  EXPECT_DOUBLE_EQ(p.p50(), 1.0);
}

// ------------------------------------------------------ trace determinism

bool same_trace(const Trace& a, const Trace& b) {
  if (a.sessions.size() != b.sessions.size()) return false;
  if (a.injections.size() != b.injections.size()) return false;
  for (size_t i = 0; i < a.sessions.size(); ++i) {
    const auto& x = a.sessions[i];
    const auto& y = b.sessions[i];
    if (x.id != y.id || x.tenant != y.tenant || x.app != y.app ||
        x.arrival.ns != y.arrival.ns || x.rounds != y.rounds)
      return false;
  }
  for (size_t i = 0; i < a.injections.size(); ++i) {
    const auto& x = a.injections[i];
    const auto& y = b.injections[i];
    if (x.kind != y.kind || x.at_session != y.at_session || x.surge != y.surge) return false;
  }
  return true;
}

TEST(TraceTest, SameSeedSameSchedule) {
  for (ArrivalKind kind : {ArrivalKind::Poisson, ArrivalKind::OnOff, ArrivalKind::Soak}) {
    TraceConfig cfg;
    cfg.sessions = 200;
    cfg.tenants = 5;
    cfg.apps = 4;
    cfg.arrival = kind;
    cfg.seed = 0xfeedULL;
    cfg.churn = 0.05;
    cfg.failures = 2;
    EXPECT_TRUE(same_trace(sod::cluster::make_trace(cfg), sod::cluster::make_trace(cfg)))
        << sod::cluster::arrival_name(kind);
  }
}

TEST(TraceTest, SeedChangesSchedule) {
  TraceConfig cfg;
  cfg.sessions = 100;
  TraceConfig other = cfg;
  other.seed = cfg.seed + 1;
  EXPECT_FALSE(same_trace(sod::cluster::make_trace(cfg), sod::cluster::make_trace(other)));
}

TEST(TraceTest, ArrivalsMonotoneAndShaped) {
  TraceConfig cfg;
  cfg.sessions = 64;
  cfg.arrival = ArrivalKind::Soak;
  Trace tr = sod::cluster::make_trace(cfg);
  ASSERT_EQ(tr.sessions.size(), 64u);
  for (size_t i = 1; i < tr.sessions.size(); ++i)
    EXPECT_GE(tr.sessions[i].arrival.ns, tr.sessions[i - 1].arrival.ns);
  // Soak is constant-rate: every gap equals the configured mean.
  for (size_t i = 1; i < tr.sessions.size(); ++i)
    EXPECT_EQ(tr.sessions[i].arrival.ns - tr.sessions[i - 1].arrival.ns, cfg.mean_gap.ns);
}

TEST(TraceTest, ParseArrivalNames) {
  EXPECT_EQ(sod::cluster::parse_arrival("poisson"), ArrivalKind::Poisson);
  EXPECT_EQ(sod::cluster::parse_arrival("onoff"), ArrivalKind::OnOff);
  EXPECT_EQ(sod::cluster::parse_arrival("on-off"), ArrivalKind::OnOff);
  EXPECT_EQ(sod::cluster::parse_arrival("soak"), ArrivalKind::Soak);
  EXPECT_FALSE(sod::cluster::parse_arrival("bursty").has_value());
  EXPECT_STREQ(sod::cluster::arrival_name(ArrivalKind::Soak), "soak");
}

TEST(TraceTest, FilterTenantKeepsIdsAndArrivals) {
  TraceConfig cfg;
  cfg.sessions = 50;
  cfg.tenants = 3;
  cfg.churn = 0.1;
  Trace tr = sod::cluster::make_trace(cfg);
  Trace alone = sod::testing::filter_tenant(tr, 1);
  EXPECT_TRUE(alone.injections.empty());
  ASSERT_FALSE(alone.sessions.empty());
  size_t j = 0;
  for (const auto& s : tr.sessions) {
    if (s.tenant != 1) continue;
    ASSERT_LT(j, alone.sessions.size());
    EXPECT_EQ(alone.sessions[j].id, s.id);
    EXPECT_EQ(alone.sessions[j].arrival.ns, s.arrival.ns);
    EXPECT_EQ(alone.sessions[j].app, s.app);
    ++j;
  }
  EXPECT_EQ(j, alone.sessions.size());
}

// ------------------------------------------------------------ replay runs

TEST(LoadGenTest, ReplayDeterministic) {
  TraceConfig cfg;
  cfg.sessions = 24;
  cfg.tenants = 3;
  cfg.apps = 4;
  cfg.seed = 7;
  Trace tr = sod::cluster::make_trace(cfg);
  LoadGenOptions opts;
  auto a = sod::cluster::run_loadgen(tr, opts);
  auto b = sod::cluster::run_loadgen(tr, opts);
  EXPECT_TRUE(a.all_ok);
  EXPECT_TRUE(a.exactly_once);
  ASSERT_EQ(a.results.size(), b.results.size());
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.session_ms, b.session_ms);  // bit-identical virtual latencies
  EXPECT_EQ(a.segments, b.segments);
  EXPECT_DOUBLE_EQ(a.completion_ms.p99(), b.completion_ms.p99());
}

// ------------------------------------------------- home timelines
// Each session runs on its own home timeline and home's CPU work books one
// shared home core.

TEST(LoadGenTest, OneSessionLatencyMatchesTheSingleClockHome) {
  // A lone session never overlaps itself, so its latency is what the
  // single-clock home (one session at a time) produced, to the ns.
  TraceConfig cfg;
  cfg.sessions = 1;
  cfg.tenants = 3;
  cfg.apps = 4;
  cfg.seed = 9;
  Trace tr = sod::cluster::make_trace(cfg);
  auto r = sod::cluster::run_loadgen(tr, LoadGenOptions{});
  ASSERT_TRUE(r.all_ok);
  ASSERT_EQ(r.session_ms.size(), 1u);
  EXPECT_EQ(r.session_ms[0], 2.144369);
}

TEST(LoadGenTest, SharingHomeNeverSpeedsASessionUp) {
  // Every session of a shared replay takes at least as long as the same
  // session replayed alone.  Each session is its own tenant with one
  // segment per round: no session inherits classes another one shipped,
  // and no cross-worker relay differs with placement.  The arrivals are
  // dense enough that home's CPU work outlasts any one session, so it can
  // fit in the replay's span only if no two bookings overlap.
  TraceConfig cfg;
  cfg.sessions = 12;
  cfg.tenants = 1;
  cfg.apps = 4;
  cfg.seed = 21;
  cfg.mean_gap = VDur::micros(20);
  Trace tr = sod::cluster::make_trace(cfg);
  cfg.tenants = cfg.sessions;
  tr.cfg = cfg;
  for (auto& s : tr.sessions) s.tenant = s.id;
  LoadGenOptions opts;
  opts.segments_per_round = 1;

  auto shared = sod::cluster::run_loadgen(tr, opts);
  ASSERT_TRUE(shared.all_ok);
  ASSERT_TRUE(shared.exactly_once);
  const double span_ms = shared.total_ms - tr.sessions.front().arrival.ms();
  EXPECT_LE(shared.home_busy_ms, span_ms);
  double longest_alone_ms = 0;
  int slowed = 0;
  for (const auto& s : tr.sessions) {
    Trace one = tr;
    one.sessions = {s};
    auto alone = sod::cluster::run_loadgen(one, opts);
    ASSERT_TRUE(alone.all_ok) << s.id;
    EXPECT_GE(shared.session_ms[static_cast<size_t>(s.id)], alone.session_ms[0]) << s.id;
    if (shared.session_ms[static_cast<size_t>(s.id)] > alone.session_ms[0]) ++slowed;
    longest_alone_ms = std::max(longest_alone_ms, alone.session_ms[0]);
  }
  EXPECT_GT(slowed, 0);  // the trace does contend for home
  EXPECT_GT(shared.home_busy_ms, longest_alone_ms);
}

TEST(LoadGenTest, HomeShardsPreserveTheReplayOnBothEngines) {
  // One failure-free multitenant trace replayed at 1, 2, and 4 home
  // shards on the virtual scheduler AND the wall-clock engine: every run
  // must reproduce the unsharded virtual replay bit for bit (results,
  // session latencies, segments, percentiles), and on the engine the
  // stripe-acquisition total must be the same at every shard count.
  TraceConfig cfg;
  cfg.sessions = 16;
  cfg.tenants = 3;
  cfg.apps = 2;
  cfg.seed = 5;
  Trace tr = sod::cluster::make_trace(cfg);
  LoadGenOptions base;
  auto ref = sod::cluster::run_loadgen(tr, base);
  ASSERT_TRUE(ref.all_ok);
  ASSERT_TRUE(ref.exactly_once);
  EXPECT_EQ(ref.home_shards, 1);
  EXPECT_EQ(ref.lock_acq, 0u);  // virtual mode: no stripes exist
  uint64_t engine_acq = 0;
  for (bool wallclock : {false, true}) {
    for (int shards : {1, 2, 4}) {
      LoadGenOptions opts;
      opts.wallclock = wallclock;
      opts.threads = wallclock ? 4 : 0;
      opts.home_shards = shards;
      auto r = sod::cluster::run_loadgen(tr, opts);
      std::string where = std::string(wallclock ? "engine" : "virtual") + "/shards=" +
                          std::to_string(shards);
      EXPECT_TRUE(r.all_ok) << where;
      EXPECT_TRUE(r.exactly_once) << where;
      EXPECT_EQ(r.home_shards, shards) << where;
      EXPECT_EQ(r.results, ref.results) << where;
      EXPECT_EQ(r.session_ms, ref.session_ms) << where;
      EXPECT_EQ(r.segments, ref.segments) << where;
      EXPECT_DOUBLE_EQ(r.completion_ms.p99(), ref.completion_ms.p99()) << where;
      EXPECT_DOUBLE_EQ(r.total_ms, ref.total_ms) << where;
      if (wallclock) {
        EXPECT_GT(r.lock_acq, 0u) << where;
        if (engine_acq == 0) {
          engine_acq = r.lock_acq;
        } else {
          EXPECT_EQ(r.lock_acq, engine_acq) << where;
        }
      } else {
        EXPECT_EQ(r.lock_acq, 0u) << where;
      }
    }
  }
}

TEST(LoadGenTest, PerTenantExactlyOnceUnderWorkerLoss) {
  TraceConfig cfg;
  cfg.sessions = 32;
  cfg.tenants = 4;
  cfg.apps = 2;
  cfg.seed = 11;
  cfg.failures = 2;  // two mid-trace worker losses
  cfg.churn = 0.1;   // plus join/drain spikes
  Trace tr = sod::cluster::make_trace(cfg);
  LoadGenOptions opts;
  auto r = sod::cluster::run_loadgen(tr, opts);
  EXPECT_TRUE(r.all_ok);
  EXPECT_TRUE(r.exactly_once);
  EXPECT_GT(r.failures_armed, 0);
  EXPECT_GT(r.surge_joins, 0);
  EXPECT_GT(r.workers_lost, 0);
  EXPECT_GT(r.redispatched, 0);
  // Every tenant's sessions all completed with the reference result.
  for (const auto& tn : r.tenants) EXPECT_EQ(tn.completed, tn.sessions) << tn.tenant;
}

TEST(LoadGenTest, TenantAccountingSumsToTotals) {
  TraceConfig cfg;
  cfg.sessions = 20;
  cfg.tenants = 3;
  cfg.seed = 3;
  Trace tr = sod::cluster::make_trace(cfg);
  auto r = sod::cluster::run_loadgen(tr, LoadGenOptions{});
  int sessions = 0, segments = 0, completed = 0;
  for (const auto& tn : r.tenants) {
    sessions += tn.sessions;
    segments += tn.segments;
    completed += tn.completed;
    if (tn.sessions > 0) {
      EXPECT_GE(tn.completion_ms.count(), 1);
    }
  }
  EXPECT_EQ(sessions, r.sessions);
  EXPECT_EQ(segments, r.segments);
  EXPECT_EQ(completed, r.completed);
  EXPECT_GT(r.segments, 0);
}

// Statics belong to the node, so a segment restored later on a worker
// overwrites the statics an earlier segment there still reads with stubs
// of its own.  Those stubs must resolve for every segment on the node:
// otherwise shape (a) dies on an NPE for a static cached in a local and
// shape (b) on a write-back of an unresolvable stub.  Both replay on the
// virtual scheduler and on the wall-clock engine.
TEST(LoadGenTest, ForeignStaticStubsResolveOnBothEngines) {
  struct Shape {
    const char* name;
    sod::cluster::PolicyKind policy;
    int segments_per_round;
    int max_rounds;
    double gap_ms;
    int sessions;
  };
  const Shape shapes[] = {
      {"a", sod::cluster::PolicyKind::Learned, 3, 4, 5, 10},
      {"b", sod::cluster::PolicyKind::LeastLoaded, 6, 8, 25, 20},
  };
  for (const Shape& sh : shapes) {
    TraceConfig cfg;
    cfg.sessions = sh.sessions;
    cfg.tenants = 4;
    cfg.apps = 4;
    cfg.seed = 1;
    cfg.arrival = ArrivalKind::Poisson;
    cfg.mean_gap = VDur::millis(sh.gap_ms);
    cfg.max_rounds = sh.max_rounds;
    Trace tr = sod::cluster::make_trace(cfg);
    for (bool wallclock : {false, true}) {
      LoadGenOptions opts;
      opts.policy = sh.policy;
      opts.segments_per_round = sh.segments_per_round;
      opts.wallclock = wallclock;
      opts.threads = wallclock ? 3 : 0;
      opts.dilation = 0;
      opts.home_dilation = 0;
      auto r = sod::cluster::run_loadgen(tr, opts);
      std::string where = std::string(sh.name) + (wallclock ? "/engine" : "/virtual");
      EXPECT_EQ(r.completed, sh.sessions) << where;
      EXPECT_TRUE(r.all_ok) << where;
      EXPECT_TRUE(r.exactly_once) << where;
    }
  }
}

// --------------------------------------------------- tenant isolation
// The cross-tenant leakage property: in a shared replay, every tenant's
// per-session results are bit-identical to replaying that tenant's
// sessions ALONE on the same topology.  Randomized over tenant counts
// (2-5), topologies (worker count, device-profile nodes, slow links),
// arrival shapes, policies, and split widths — if any tenant's statics,
// heap refs, or class state leaked into another tenant's computation,
// some seed's shared run would diverge from the clean-room run.
class TenantIsolation : public ::testing::TestWithParam<int> {};

TEST_P(TenantIsolation, SharedRunMatchesAloneRuns) {
  const uint64_t seed = 4200 + static_cast<uint64_t>(GetParam());
  sod::Rng rng(seed);

  TraceConfig cfg;
  cfg.sessions = 10 + static_cast<int>(rng.below(8));
  cfg.tenants = 2 + static_cast<int>(rng.below(4));  // 2..5 tenants
  cfg.apps = 4;  // include the statics-bearing apps (fft, tsp)
  cfg.arrival = std::vector<ArrivalKind>{ArrivalKind::Poisson, ArrivalKind::OnOff,
                                         ArrivalKind::Soak}[rng.below(3)];
  cfg.seed = seed * 31;
  cfg.mean_gap = VDur::micros(200 + static_cast<int64_t>(rng.below(800)));
  cfg.max_rounds = 2;
  if (rng.below(2) == 0) {
    cfg.churn = 0.1;  // shared run only: filter_tenant drops injections,
    cfg.failures = 1; // so isolation must also hold across loss/redispatch
  }
  Trace tr = sod::cluster::make_trace(cfg);

  LoadGenOptions opts;
  opts.policy = rng.below(2) == 0 ? sod::cluster::PolicyKind::LeastLoaded
                                  : sod::cluster::PolicyKind::RoundRobin;
  opts.segments_per_round = 1 + static_cast<int>(rng.below(3));
  const int nworkers = 2 + static_cast<int>(rng.below(4));
  for (int w = 0; w < nworkers; ++w) {
    sod::cluster::WorkerSpec ws;
    ws.name = "w";
    ws.name += std::to_string(w);
    if (rng.below(4) == 0) ws.config.cpu_scale = 25.0;  // device-profile node
    ws.link = rng.below(4) == 0 ? sod::sim::Link::wifi_kbps(2000)
                                : sod::sim::Link::gigabit();
    opts.workers.push_back(ws);
  }

  auto shared = sod::cluster::run_loadgen(tr, opts);
  ASSERT_TRUE(shared.all_ok) << "seed " << seed;
  ASSERT_TRUE(shared.exactly_once) << "seed " << seed;

  for (int t = 0; t < cfg.tenants; ++t) {
    Trace alone_tr = sod::testing::filter_tenant(tr, t);
    if (alone_tr.sessions.empty()) continue;
    auto alone = sod::cluster::run_loadgen(alone_tr, opts);
    ASSERT_TRUE(alone.all_ok) << "seed " << seed << " tenant " << t;
    for (size_t j = 0; j < alone_tr.sessions.size(); ++j) {
      const int id = alone_tr.sessions[j].id;
      EXPECT_EQ(alone.results[j], shared.results[static_cast<size_t>(id)])
          << "seed " << seed << " tenant " << t << " session " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TenantIsolation, ::testing::Range(0, 8));

TEST(LoadGenTest, ThousandSessionSmoke) {
  // The scale acceptance row: 1000 sessions across 8 tenants drain
  // completely, exactly-once holding across every tenant's rounds.
  TraceConfig cfg;
  cfg.sessions = 1000;
  cfg.tenants = 8;
  cfg.apps = 1;  // fib-only keeps the smoke fast under ASan
  cfg.arrival = ArrivalKind::Poisson;
  cfg.mean_gap = VDur::micros(50);
  cfg.seed = 2026;
  cfg.max_rounds = 1;
  Trace tr = sod::cluster::make_trace(cfg);
  LoadGenOptions opts;
  opts.segments_per_round = 1;
  auto r = sod::cluster::run_loadgen(tr, opts);
  EXPECT_EQ(r.completed, 1000);
  EXPECT_TRUE(r.all_ok);
  EXPECT_TRUE(r.exactly_once);
  EXPECT_EQ(r.completion_ms.count(), 1000);
  EXPECT_GE(r.completion_ms.p99(), r.completion_ms.p50());
}

}  // namespace
