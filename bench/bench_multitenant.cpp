// Multi-tenant tail latency under trace-driven load: thousands of
// sessions (per-tenant Table I apps) replayed from a seeded arrival
// schedule against one shared cluster on the straggler topology (two
// Xeons on gigabit plus a 25x-slower wifi device).  Each arrival mix
// (poisson | onoff | soak) runs per policy twice — without and with
// checkpoint-based speculation — and the table reports exact completion
// percentiles (p50/p95/p99, nearest-rank over every session) and home's
// utilisation (`home busy %`: CPU booked on home's one core over the
// replay's span).
//
// Acceptance: every session of every tenant completes with its app's
// single-node reference result, the shared event log passes the
// attempt-aware exactly-once check across all tenants' rounds, and on the
// least-loaded rows the speculation run's p99 is <= the baseline's —
// least_loaded parks segments on the slow device, the straggler tracker
// flags them, and the Xeon backup wins exactly the completions that make
// up the tail.  The whole table is deterministic: two runs with the same
// --seed produce bit-identical JSON.
//
// A final statics section replays the full four-app mix (adding FFT and
// TSP) twice on least-loaded — with and without the whole-program
// analyzer's statics-purity refresh skip — and reports the refresh
// traffic (scans / skipped / bytes) per row; the pair must be
// bit-identical apart from the skipped counter.
//
// Flags: --sessions N, --arrival A (restrict to one mix), --seed S,
// --policy P (restrict to one policy), --churn X (surge join/drain rate),
// --wallclock/--threads N (every row on the thread-pool engine).
#include <cstdio>
#include <string>
#include <vector>

#include "cli/scenario.h"
#include "cluster/drive.h"
#include "cluster/loadgen.h"
#include "cluster/placement.h"
#include "support/table.h"

using namespace sod;

namespace {

/// Guest instructions between checkpoints: a handful of checkpoints per
/// tail-scale segment, enough resume points that a device straggler's
/// backup starts close to where it stalled (the checkpoint bench's
/// cadence).
constexpr uint64_t kCheckpointEvery = 20000;

std::string row_label(cluster::ArrivalKind arrival, cluster::PolicyKind policy, bool spec) {
  std::string s = cluster::arrival_name(arrival);
  s += "/";
  s += cluster::policy_name(policy);
  s += spec ? "/spec" : "/base";
  return s;
}

int run(const cli::ScenarioOptions& opt) {
  cluster::TraceConfig cfg;
  cfg.sessions = opt.sessions > 0 ? opt.sessions : (opt.smoke ? 16 : 48);
  cfg.tenants = 4;
  cfg.apps = 2;  // fib + nqueens load mix
  cfg.seed = opt.seed >= 0 ? static_cast<uint64_t>(opt.seed) : 1;
  // Arrivals comparable to per-session service time: bursts still queue
  // (ON-OFF packs arrivals 16x tighter), but the cluster is not saturated
  // end to end — a speculative backup runs on capacity that would
  // otherwise idle, which is the regime where rescuing the straggler
  // shrinks the tail instead of doubling the backlog.
  cfg.mean_gap = VDur::millis(25);
  cfg.churn = opt.churn >= 0 ? opt.churn : 0.08;
  cfg.failures = 1;
  cfg.heavy = true;  // tail-scale sessions: stragglers long enough to rescue

  std::vector<cluster::ArrivalKind> arrivals;
  if (!opt.arrival.empty()) {
    arrivals.push_back(*cluster::parse_arrival(opt.arrival));
  } else if (opt.smoke) {
    arrivals.push_back(cluster::ArrivalKind::Poisson);
  } else {
    arrivals = {cluster::ArrivalKind::Poisson, cluster::ArrivalKind::OnOff,
                cluster::ArrivalKind::Soak};
  }
  std::vector<cluster::PolicyKind> policies;
  if (!opt.policy.empty()) {
    auto k = cluster::parse_policy(opt.policy);
    if (!k) {
      std::fprintf(stderr, "multitenant: unknown placement policy '%s'\n", opt.policy.c_str());
      return 2;
    }
    policies.push_back(*k);
  } else {
    policies = {cluster::PolicyKind::LeastLoaded, cluster::PolicyKind::Learned};
  }

  std::printf("=== multitenant: %d session(s), %d tenant(s), churn %.2f, seed %llu, "
              "2x Xeon + wifi device ===\n",
              cfg.sessions, cfg.tenants, cfg.churn,
              static_cast<unsigned long long>(cfg.seed));

  Table t({"config", "sessions", "completed", "segments", "joins", "lost", "p50 ms",
           "p95 ms", "p99 ms", "mean ms", "total ms", "home busy %", "stat scans",
           "stat skipped", "stat bytes"});
  auto add_row = [&t](const std::string& label, const cluster::LoadGenResult& r) {
    // Home has one core: its utilisation is booked CPU over the replay span.
    double home_busy = r.total_ms > 0 ? 100.0 * r.home_busy_ms / r.total_ms : 0;
    t.row({label, std::to_string(r.sessions), std::to_string(r.completed),
           std::to_string(r.segments), std::to_string(r.surge_joins),
           std::to_string(r.workers_lost), fmt("%.3f", r.completion_ms.p50()),
           fmt("%.3f", r.completion_ms.p95()), fmt("%.3f", r.completion_ms.p99()),
           fmt("%.3f", r.completion_ms.mean()), fmt("%.3f", r.total_ms), fmt("%.1f", home_busy),
           std::to_string(r.statics_scans), std::to_string(r.statics_skipped),
           std::to_string(r.statics_bytes)});
  };
  bool all_ok = true;
  for (cluster::ArrivalKind arrival : arrivals) {
    cluster::TraceConfig acfg = cfg;
    acfg.arrival = arrival;
    cluster::Trace trace = cluster::make_trace(acfg);
    for (cluster::PolicyKind policy : policies) {
      double base_p99 = -1;
      for (bool spec : {false, true}) {
        cluster::LoadGenOptions lg;
        lg.policy = policy;
        lg.workers = cluster::straggler_topology();
        lg.segments_per_round = 3;  // the third placement must pick the device
        lg.wallclock = opt.wallclock;
        lg.threads = opt.threads;
        // Both modes checkpoint at the same cadence so the spec-vs-base
        // delta isolates speculation itself, not checkpoint overhead
        // (same ablation shape as the checkpoint bench).
        lg.dispatch.checkpoint_every = kCheckpointEvery;
        lg.dispatch.speculate = spec;
        auto r = cluster::run_loadgen(trace, lg);
        std::string label = row_label(arrival, policy, spec);
        if (!r.all_ok) {
          std::fprintf(stderr, "multitenant: %s lost sessions (%d/%d ok)\n", label.c_str(),
                       r.completed, r.sessions);
          all_ok = false;
        }
        if (!r.exactly_once) {
          std::fprintf(stderr, "multitenant: %s trace violates exactly-once execution\n",
                       label.c_str());
          all_ok = false;
        }
        std::printf("%s: %d segment(s), %d join(s), %d worker(s) lost, %d re-dispatch(es), "
                    "%d speculation(s) — exactly-once %s\n",
                    label.c_str(), r.segments, r.surge_joins, r.workers_lost, r.redispatched,
                    r.speculated, r.exactly_once ? "OK" : "VIOLATED");
        add_row(label, r);
        // The tail claim: speculation may only shrink p99 where the policy
        // actually parks work on the straggler (least_loaded).  Learned
        // routes around the device, so its rows are informational.
        if (policy == cluster::PolicyKind::LeastLoaded) {
          if (!spec) {
            base_p99 = r.completion_ms.p99();
          } else if (base_p99 >= 0 && r.completion_ms.p99() > base_p99) {
            std::fprintf(stderr,
                         "multitenant: %s p99 %.3f ms above no-speculation %.3f ms\n",
                         label.c_str(), r.completion_ms.p99(), base_p99);
            all_ok = false;
          }
        }
      }
    }
  }
  // Statics-refresh ablation: the full four-app mix (fib + nqueens + FFT +
  // TSP) replayed twice on least-loaded — with the analyzer-driven purity
  // skip (default) and without it.  FFT's statics are all Ref, so its
  // tenant classes are provably primitive-pure and their refresh scans
  // vanish; TSP's primitive `best` bound keeps its classes scanned in both
  // rows.  The replay must be bit-identical either way: same results, same
  // completion percentiles, same copied bytes.
  {
    cluster::TraceConfig scfg = cfg;
    scfg.apps = 4;
    scfg.arrival = cluster::ArrivalKind::Poisson;
    scfg.failures = 0;  // isolate refresh traffic from re-dispatch noise
    scfg.churn = 0;
    cluster::Trace strace = cluster::make_trace(scfg);
    cluster::LoadGenResult pair[2];
    for (bool skip : {true, false}) {
      cluster::LoadGenOptions lg;
      lg.policy = cluster::PolicyKind::LeastLoaded;
      lg.workers = cluster::straggler_topology();
      lg.segments_per_round = 3;
      lg.wallclock = opt.wallclock;
      lg.threads = opt.threads;
      lg.dispatch.statics_skip = skip;
      auto r = cluster::run_loadgen(strace, lg);
      pair[skip ? 0 : 1] = r;
      std::string label = std::string("statics/least-loaded/") + (skip ? "skip" : "noskip");
      if (!r.all_ok) {
        std::fprintf(stderr, "multitenant: %s lost sessions (%d/%d ok)\n", label.c_str(),
                     r.completed, r.sessions);
        all_ok = false;
      }
      std::printf("%s: %zu refresh scan(s), %zu skipped, %zu byte(s) copied\n",
                  label.c_str(), r.statics_scans, r.statics_skipped, r.statics_bytes);
      add_row(label, r);
    }
    if (pair[0].statics_skipped == 0) {
      std::fprintf(stderr, "multitenant: purity skip never fired on the statics mix\n");
      all_ok = false;
    }
    if (pair[0].results != pair[1].results || pair[0].statics_bytes != pair[1].statics_bytes ||
        pair[0].completion_ms.p99() != pair[1].completion_ms.p99()) {
      std::fprintf(stderr, "multitenant: statics skip changed the replay\n");
      all_ok = false;
    }
  }

  t.print();
  if (!all_ok) std::fprintf(stderr, "multitenant: a load replay failed\n");
  return (all_ok && cli::maybe_write_json(opt, "multitenant", t)) ? 0 : 1;
}

SOD_REGISTER_SCENARIO("multitenant", cli::ScenarioKind::Bench,
                      "multi-tenant trace replay: arrival mixes, tail percentiles, speculation",
                      run);

}  // namespace
