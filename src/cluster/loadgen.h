// LoadGen — deterministic trace-driven multi-tenant load generation over
// one shared cluster (the massive-scale scenario suite of the ROADMAP).
//
// A *trace* is a seeded arrival schedule: each session picks a Table I
// app, a tenant, a dispatch-round budget, and a virtual arrival instant
// drawn from one of three arrival processes (Poisson, ON-OFF bursty,
// sustained soak), plus deterministic churn/failure injections (surge
// worker joins with matching drains, mid-trace worker losses) pinned to
// arrival indices.  The same seed always reproduces the same trace.
//
// The generator replays a trace against ONE shared Cluster + Scheduler
// (optionally the wall-clock engine, which is a Scheduler): every
// tenant's classes are emitted into a single program under a tenant
// prefix (AppSpec::emit), so tenants share workers, the home node,
// placement state, and the event log, while their statics and heap
// objects stay isolated by class identity — the property the
// cross-tenant leakage tests pin down.
// Every session is a home guest thread with its own virtual timeline, and
// home's CPU work is booked on one shared home core (sim::CpuCalendar):
// while one session's segments run on workers, other sessions use the
// home CPU.  Sessions interleave at dispatch-round granularity in
// virtual-time order (the earliest timeline steps next; ties to the
// fewest steps, then the oldest session), admission waits are accounted
// per tenant, and sessions of a statics-bearing app (FFT, TSP) serialize
// per (tenant, app) — the tenant's app-instance lock — so concurrent
// sessions can never clobber one another's static workspace.
//
// Completion latency is measured arrival -> final result (queueing
// included) and reduced to exact tail percentiles (support/stats.h
// Percentiles): p50/p95/p99 are what the bench tables gate on, because
// the mean hides exactly the tail a million-user service lives or dies
// by.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/placement.h"
#include "cluster/scheduler.h"
#include "support/stats.h"

namespace sod::cluster {

/// Arrival process shapes for the trace generator.
enum class ArrivalKind {
  Poisson,  ///< exponential interarrival gaps around the configured mean
  OnOff,    ///< bursts of back-to-back arrivals separated by long OFF gaps
  Soak,     ///< sustained constant-rate arrivals (the soak-tier shape)
};

const char* arrival_name(ArrivalKind k);
/// Accepts "poisson", "onoff" (also "on-off"), "soak"; nullopt otherwise.
std::optional<ArrivalKind> parse_arrival(std::string_view s);

/// One session of a trace: tenant `tenant` runs Table I app `app` (index
/// into the fib/nqueens/fft/tsp mix) arriving at virtual instant
/// `arrival`, offloading up to `rounds` dispatch rounds before the
/// residual computation finishes at home.  `id` is the session's index in
/// the full trace, so per-session results stay comparable between a
/// shared run and a run of a subset of its sessions.
struct SessionTrace {
  int id = 0;
  int tenant = 0;
  int app = 0;
  VDur arrival{};
  int rounds = 1;
};

/// A churn/failure injection pinned to a deterministic point of the
/// trace: it fires when the session with global arrival index
/// `at_session` is admitted (arrival instants are virtual instants, so
/// the firing point is deterministic in virtual time as well).
struct Injection {
  enum class Kind {
    Join,  ///< add surge worker #surge to the shared pool
    Drain, ///< drain surge worker #surge (no-op if it was lost meanwhile)
    Fail,  ///< arm a mid-round worker loss (deepest queue at the instant)
  };
  Kind kind{};
  int at_session = 0;
  int surge = -1;
};

struct TraceConfig {
  int sessions = 64;
  int tenants = 4;
  /// Size of the Table I app mix: sessions draw from the first `apps`
  /// entries of {fib, nqueens, fft, tsp}.  1 keeps huge smokes lean.
  int apps = 2;
  ArrivalKind arrival = ArrivalKind::Poisson;
  uint64_t seed = 1;
  /// Mean interarrival gap (the Poisson mean; ON-OFF and soak derive
  /// their burst/off/constant gaps from it).
  VDur mean_gap = VDur::micros(500);
  /// Sessions draw their dispatch-round budget uniformly from
  /// [1, max_rounds].
  int max_rounds = 2;
  /// Fraction of arrivals that trigger a surge-worker join (each join is
  /// paired with a drain a few arrivals later) — Boxer-style ephemeral
  /// membership under load.
  double churn = 0.0;
  /// Mid-trace worker losses, spread evenly across the arrival sequence.
  int failures = 0;
  /// Tail-scale app arguments: each session carries several times the
  /// work of the default load scale, so a straggler-parked segment is
  /// long enough that speculative rescue beats its detection latency
  /// (the tail-latency bench's shape).  Default load scale keeps
  /// thousand-session smokes fast instead.
  bool heavy = false;
};

struct Trace {
  TraceConfig cfg;
  std::vector<SessionTrace> sessions;  ///< sorted by (arrival, id)
  std::vector<Injection> injections;   ///< sorted by at_session
};

/// Builds the deterministic trace for `cfg`: the same config (seed
/// included) always yields the identical trace.
Trace make_trace(const TraceConfig& cfg);

struct LoadGenOptions {
  PolicyKind policy = PolicyKind::LeastLoaded;
  /// Checkpoint / speculation knobs forwarded to the shared Scheduler
  /// (the wall-clock engine included).
  DispatchOptions dispatch{};
  /// Shared worker pool; empty = 4 uniform gigabit workers.
  std::vector<WorkerSpec> workers;
  /// Frames split off per dispatch round (capped per app by its paper
  /// stack height).
  int segments_per_round = 2;
  /// Replay through the wall-clock engine instead of the virtual-time
  /// scheduler (`threads` pool threads; 0 = one per worker).
  bool wallclock = false;
  int threads = 0;
  /// Home shard count for the shared cluster (1..64; 0 keeps the cluster
  /// default of 1).  Virtual-time results are bit-identical at any value;
  /// under the wall-clock engine it sets how many home-side service
  /// windows can overlap in wall time.
  int home_shards = 0;
  /// Wall-clock engine sleep scales (wall-clock mode only): `dilation`
  /// scales communication sleeps, `home_dilation` scales home-side service
  /// sleeps (< 0 follows dilation) — see WallClockOptions.
  double dilation = 1.0;
  double home_dilation = -1.0;
};

struct TenantStats {
  int tenant = 0;
  int sessions = 0;
  int completed = 0;
  int segments = 0;
  /// Mean admission wait (arrival -> the first instant home's core is
  /// free for the session's first step), ms.
  double mean_wait_ms = 0;
  /// Per-session completion latency (arrival -> final result), ms.
  Percentiles completion_ms;
};

struct LoadGenResult {
  int sessions = 0;
  int completed = 0;
  /// Whole-program admission gate verdict: false means the shared tenant
  /// program was rejected before any class image shipped (no sessions
  /// ran; `rejection_diags` carries the analyzer's diagnostics).
  bool admitted = true;
  std::vector<std::string> rejection_diags;
  /// Every session completed and returned the app's single-node
  /// reference result.
  bool all_ok = false;
  /// Attempt-aware exactly-once invariant over the shared event log
  /// spanning every tenant's rounds.
  bool exactly_once = false;
  /// FNV-1a digest of that event log (each event's kind, virtual instant,
  /// round, segment, worker, and attempt, in log order): two replays with
  /// equal digests produced the same event stream.
  uint64_t log_digest = 0;
  int segments = 0;
  int redispatched = 0;
  int resumed = 0;
  int speculated = 0;
  int cancelled = 0;
  int checkpoints = 0;
  int workers_lost = 0;
  int surge_joins = 0;
  int failures_armed = 0;
  /// Statics-refresh traffic over the replay: per-class scans performed,
  /// scans skipped because the analyzer proved the class statics-pure,
  /// and primitive-static bytes actually copied.
  size_t statics_scans = 0;
  size_t statics_skipped = 0;
  size_t statics_bytes = 0;
  /// Completion latency over all sessions, ms (arrival -> final result).
  Percentiles completion_ms;
  std::vector<TenantStats> tenants;  ///< indexed by tenant id
  /// Per-session final results / latencies, parallel to trace.sessions.
  std::vector<int64_t> results;
  std::vector<double> session_ms;
  /// The latest instant any session's home timeline reached, ms.
  double total_ms = 0;
  /// Home CPU time booked over the replay, ms (home utilisation is
  /// home_busy_ms / total_ms: home has one core).
  double home_busy_ms = 0;

  // Wall-clock engine telemetry (zero in virtual mode).
  /// Home shard count the replay ran with.
  int home_shards = 1;
  /// Stripe-lock acquisitions summed over shards — deterministic for a
  /// failure-free replay (one per gate section / service window).
  uint64_t lock_acq = 0;
  /// Contended acquisitions / total + worst wait / deepest queue — real
  /// wall-side interleaving, different on every run.
  uint64_t wall_contended = 0;
  uint64_t lock_wait_ns = 0;
  uint64_t lock_max_wait_ns = 0;
  uint64_t wall_max_queue = 0;
  /// Per-session wall milliseconds (replay start -> session's final
  /// round done) and the whole replay's wall time, wall-clock mode only.
  Percentiles wall_completion_ms;
  double wall_total_ms = 0;
};

/// Replays `trace` against one shared cluster.  Deterministic in virtual
/// mode: the same trace and options reproduce results, latencies, and the
/// event log bit-identically.
LoadGenResult run_loadgen(const Trace& trace, const LoadGenOptions& opts);

}  // namespace sod::cluster
