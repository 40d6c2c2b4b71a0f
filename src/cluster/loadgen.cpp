#include "cluster/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.h"
#include "cluster/drive.h"
#include "cluster/placement.h"
#include "prep/prep.h"
#include "sod/migrate.h"
#include "support/hash.h"
#include "support/panic.h"
#include "support/rng.h"

namespace sod::cluster {

const char* arrival_name(ArrivalKind k) {
  switch (k) {
    case ArrivalKind::Poisson: return "poisson";
    case ArrivalKind::OnOff: return "onoff";
    case ArrivalKind::Soak: return "soak";
  }
  return "?";
}

std::optional<ArrivalKind> parse_arrival(std::string_view s) {
  if (s == "poisson") return ArrivalKind::Poisson;
  if (s == "onoff" || s == "on-off") return ArrivalKind::OnOff;
  if (s == "soak") return ArrivalKind::Soak;
  return std::nullopt;
}

namespace {

/// One Table I app at load scale: small enough that a thousand sessions
/// replay under the sanitizers, big enough that the trigger depth is
/// reachable and rounds do real work.  Whether an app's class statics are
/// mutable workspace (FFT grids, TSP bound/visited) is no longer a
/// hand-maintained flag here: the whole-program analyzer proves it per
/// (tenant, app) entry method, and sessions of a statics-writing app
/// serialize per tenant so one session's init can never clobber another's
/// in-flight state.
struct LoadApp {
  apps::AppSpec spec;
  std::vector<bc::Value> args;
};

std::vector<LoadApp> load_apps(bool heavy) {
  std::vector<LoadApp> v;
  v.push_back({apps::fib_app(), {bc::Value::of_i64(heavy ? 22 : 16)}});
  v.push_back({apps::nqueens_app(), {bc::Value::of_i64(heavy ? 7 : 6)}});
  v.push_back({apps::fft_app(), {bc::Value::of_i64(8), bc::Value::of_i64(64)}});
  v.push_back({apps::tsp_app(), {bc::Value::of_i64(heavy ? 7 : 6)}});
  return v;
}

std::string tenant_prefix(int tenant) {
  std::string s = "t";
  s += std::to_string(tenant);
  s += '_';
  return s;
}

constexpr int kBurst = 8;  ///< ON-OFF arrivals per ON burst

}  // namespace

Trace make_trace(const TraceConfig& cfg) {
  Trace tr;
  tr.cfg = cfg;
  const int n = std::max(0, cfg.sessions);
  const int tenants = std::max(1, cfg.tenants);
  const int napps = std::clamp(cfg.apps, 1, 4);
  const int64_t mean = std::max<int64_t>(1, cfg.mean_gap.ns);
  Rng rng(cfg.seed);

  int64_t t = 0;
  for (int i = 0; i < n; ++i) {
    int64_t gap = 0;
    switch (cfg.arrival) {
      case ArrivalKind::Poisson:
        // Exponential interarrival; unit() < 1 keeps the log finite.
        gap = static_cast<int64_t>(-static_cast<double>(mean) * std::log(1.0 - rng.unit()));
        break;
      case ArrivalKind::OnOff:
        // Bursts of kBurst back-to-back arrivals, then a jittered OFF gap
        // long enough that the backlog drains between bursts.
        gap = (i > 0 && i % kBurst == 0)
                  ? mean * 6 + static_cast<int64_t>(rng.below(static_cast<uint64_t>(mean)))
                  : mean / 16;
        break;
      case ArrivalKind::Soak:
        gap = mean;
        break;
    }
    t += gap;
    SessionTrace s;
    s.id = i;
    s.arrival = VDur::nanos(t);
    s.tenant = static_cast<int>(rng.below(static_cast<uint64_t>(tenants)));
    s.app = static_cast<int>(rng.below(static_cast<uint64_t>(napps)));
    s.rounds = static_cast<int>(rng.range(1, std::max(1, cfg.max_rounds)));
    tr.sessions.push_back(s);
  }

  const int joins = cfg.churn > 0 && n > 0
                        ? std::max(1, static_cast<int>(cfg.churn * static_cast<double>(n)))
                        : 0;
  for (int j = 0; j < joins; ++j) {
    int at = static_cast<int>(static_cast<int64_t>(j + 1) * n / (joins + 1));
    at = std::clamp(at, 0, n - 1);
    const int life = std::max(2, n / (2 * (joins + 1)));
    tr.injections.push_back({Injection::Kind::Join, at, j});
    tr.injections.push_back({Injection::Kind::Drain, std::min(at + life, n - 1), j});
  }
  for (int j = 0; j < cfg.failures && n > 1; ++j) {
    int at = static_cast<int>(static_cast<int64_t>(j + 1) * n / (cfg.failures + 1));
    tr.injections.push_back({Injection::Kind::Fail, std::clamp(at, 1, n - 1), -1});
  }
  std::stable_sort(tr.injections.begin(), tr.injections.end(),
                   [](const Injection& a, const Injection& b) {
                     return a.at_session < b.at_session;
                   });
  return tr;
}

namespace {

struct SessState {
  int tid = -1;
  int rounds_left = 0;
  int steps = 0;
  int segments = 0;
  bool done = false;
  bool ok = false;
  VDur at{};  ///< the session's home instant: where its timeline stands
  VDur first_step{};
  int64_t result = INT64_MIN;
  double ms = 0;
  double wall_ms = 0;  ///< wall-clock mode: replay start -> session done
};

}  // namespace

LoadGenResult run_loadgen(const Trace& trace, const LoadGenOptions& opts) {
  LoadGenResult res;
  const size_t n = trace.sessions.size();
  res.sessions = static_cast<int>(n);
  res.results.assign(n, INT64_MIN);
  res.session_ms.assign(n, 0.0);

  int tenants = std::max(1, trace.cfg.tenants);
  for (const auto& s : trace.sessions) tenants = std::max(tenants, s.tenant + 1);
  res.tenants.resize(static_cast<size_t>(tenants));
  for (int t = 0; t < tenants; ++t) res.tenants[static_cast<size_t>(t)].tenant = t;

  if (n == 0) {
    res.all_ok = true;
    res.exactly_once = true;
    return res;
  }

  const auto cat = load_apps(trace.cfg.heavy);
  const int napps = static_cast<int>(cat.size());

  // Which (tenant, app) class sets the shared program needs.
  std::vector<bool> used(static_cast<size_t>(tenants * napps), false);
  std::vector<bool> app_used(static_cast<size_t>(napps), false);
  for (const auto& s : trace.sessions) {
    used[static_cast<size_t>(s.tenant * napps + s.app)] = true;
    app_used[static_cast<size_t>(s.app)] = true;
  }

  // One shared program: every tenant's apps under that tenant's prefix.
  // Full class names are what the builder resolves, so two tenants' copies
  // of one app share nothing — not statics, not images.
  bc::ProgramBuilder pb;
  for (int t = 0; t < tenants; ++t)
    for (int a = 0; a < napps; ++a)
      if (used[static_cast<size_t>(t * napps + a)])
        cat[static_cast<size_t>(a)].spec.emit(pb, tenant_prefix(t));
  bc::Program p = pb.build();
  try {
    prep::preprocess_program(p);
  } catch (const Error& e) {
    // A malformed tenant program must never crash the generator: surface
    // the preprocessor's verdict as a rejection, before any node exists.
    res.admitted = false;
    res.rejection_diags.push_back(e.what());
    return res;
  }

  // Reference results: each app once, alone, on a standalone node.  Every
  // session of every tenant must reproduce its app's reference bit-exactly
  // — the shared-cluster run may not change what any tenant computes.
  std::vector<int64_t> expected(static_cast<size_t>(napps), INT64_MIN);
  for (int a = 0; a < napps; ++a) {
    if (!app_used[static_cast<size_t>(a)]) continue;
    bc::Program rp = cat[static_cast<size_t>(a)].spec.build();
    prep::preprocess_program(rp);
    mig::SodNode ref("ref", rp, {});
    mig::ObjectManager om;
    om.install(ref);
    expected[static_cast<size_t>(a)] =
        ref.call_guest(cat[static_cast<size_t>(a)].spec.entry, cat[static_cast<size_t>(a)].args)
            .as_i64();
  }

  Cluster c(p);
  if (opts.workers.empty())
    c.add_uniform_workers(4);
  else
    for (const auto& w : opts.workers) c.add_worker(w);
  // Set the stripe count before the wall-clock engine copies the map at
  // construction.
  if (opts.home_shards > 0) c.set_home_shards(opts.home_shards);
  res.home_shards = c.home_shards();
  auto policy = make_policy(opts.policy);
  std::optional<WallClockOptions> wopt;
  if (opts.wallclock)
    wopt = {.threads = opts.threads, .dilation = opts.dilation,
            .home_dilation = opts.home_dilation};
  std::unique_ptr<Scheduler> engine = make_engine(c, *policy, opts.dispatch, wopt);
  auto* wall = dynamic_cast<WallClockEngine*>(engine.get());
  Scheduler& sched = *engine;

  // Admission gate: no session spawns and no class image ships unless the
  // whole-program analyzer admitted the shared tenant program.  The
  // scheduler above already logged the ProgramRejected event.
  if (!c.admission().admitted) {
    res.admitted = false;
    for (const auto& d : c.admission().diagnostics) res.rejection_diags.push_back(d.str());
    res.exactly_once = sched.exactly_once();
    return res;
  }

  // The analyzer replaces the old hand-maintained statics-bearing app
  // list: a (tenant, app) instance serializes iff its prefixed entry
  // method transitively writes statics (FFT, TSP — proven, not declared).
  std::vector<bool> writes_statics(used.size(), false);
  for (int t = 0; t < tenants; ++t)
    for (int a = 0; a < napps; ++a) {
      const size_t k = static_cast<size_t>(t * napps + a);
      if (used[k])
        writes_statics[k] = c.facts().method_writes_statics(
            p, tenant_prefix(t) + cat[static_cast<size_t>(a)].spec.entry);
    }

  mig::SodNode& home = c.home();
  std::vector<SessState> st(n);
  for (size_t i = 0; i < n; ++i) st[i].rounds_left = std::max(0, trace.sessions[i].rounds);

  // Per-(tenant, app) instance lock for statics-bearing apps: holder is the
  // active session, -1 when free.  The holder is always steppable, so the
  // picker can never deadlock on these.
  std::map<int, int> lock;
  auto lock_key = [&](const SessionTrace& s) { return s.tenant * napps + s.app; };
  auto blocked = [&](size_t i) {
    const auto& s = trace.sessions[i];
    if (!writes_statics[static_cast<size_t>(lock_key(s))]) return false;
    auto it = lock.find(lock_key(s));
    return it != lock.end() && it->second != static_cast<int>(i);
  };

  std::map<int, int> surge_ids;  ///< surge index -> worker id
  auto apply = [&](const Injection& inj) {
    switch (inj.kind) {
      case Injection::Kind::Join: {
        WorkerSpec ws;
        ws.name = "surge" + std::to_string(inj.surge);
        surge_ids[inj.surge] = sched.add_worker(ws);
        ++res.surge_joins;
        break;
      }
      case Injection::Kind::Drain: {
        auto it = surge_ids.find(inj.surge);
        if (it == surge_ids.end() || c.state(it->second) != WorkerState::Active) break;
        sched.drain_worker(it->second);
        break;
      }
      case Injection::Kind::Fail:
        // Keep at least two accepting workers alive.  Arming at the very
        // next completion lands the loss mid-round, while the round's
        // sibling segments are still queued on the victim.
        if (c.accepting_size() > 2) {
          sched.fail_after(sched.completions() + 1, -1);
          ++res.failures_armed;
        }
        break;
    }
  };

  // Every session is one home guest thread with its own timeline: `at` is
  // the session's home instant.  A step switches the home clock to it
  // (VClock::set), runs one dispatch round or the residual at home, and
  // reads it back.  Home's CPU work books the one home core
  // (sim::CpuCalendar), so sessions overlap wherever one waits on a worker
  // while another computes, and queue wherever both need the core.  A
  // worker's clock is switched back to `at` the same way when an earlier
  // step left it later: a round runs to completion inside its step, so
  // without the switch a later-stepping session would queue behind work
  // another session booked further in the future, instead of using the
  // worker's idle CPU before it.  Steps go in virtual-time order: the
  // steppable session with the earliest `at` (ties: fewest steps, then the
  // oldest session), and no step at or after an arrival's instant runs
  // before that arrival is admitted.
  sim::Node& home_node = home.node();
  size_t next = 0, inj_next = 0;
  std::vector<int> active;
  int done_count = 0;
  VDur latest{};  ///< the latest instant any timeline reached
  const auto wall_t0 = std::chrono::steady_clock::now();
  auto wall_ms_since_start = [&wall_t0] {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     wall_t0)
        .count();
  };
  auto admit_next = [&] {
    const VDur arrival = trace.sessions[next].arrival;
    // Injections pinned to this arrival fire at its instant.
    home_node.clock.set(arrival);
    while (inj_next < trace.injections.size() &&
           trace.injections[inj_next].at_session <= static_cast<int>(next))
      apply(trace.injections[inj_next++]);
    st[next].at = arrival;
    latest = std::max(latest, arrival);
    active.push_back(static_cast<int>(next));
    ++next;
  };
  // No booking, at home or on a worker (whose work follows a ship from
  // home), is ever made before the earliest instant a timeline can still
  // take up — the next arrival or an active session's `at` — so what ended
  // earlier is forgotten and each calendar holds only the work in flight.
  auto forget_past = [&] {
    VDur horizon = next < n ? trace.sessions[next].arrival : latest;
    for (int s : active) horizon = std::min(horizon, st[static_cast<size_t>(s)].at);
    home_node.cpu.forget_before(horizon);
    for (int w = 0; w < c.size(); ++w) c.worker(w).node().cpu.forget_before(horizon);
  };

  while (done_count < static_cast<int>(n)) {
    int pick = -1;
    for (int s : active) {
      if (blocked(static_cast<size_t>(s))) continue;
      const SessState& a = st[static_cast<size_t>(s)];
      if (pick < 0) {
        pick = s;
        continue;
      }
      const SessState& b = st[static_cast<size_t>(pick)];
      if (a.at < b.at || (a.at == b.at && a.steps < b.steps)) pick = s;
    }
    if (next < n &&
        (pick < 0 || trace.sessions[next].arrival <= st[static_cast<size_t>(pick)].at)) {
      admit_next();
      continue;
    }
    const size_t i = static_cast<size_t>(pick);
    auto& ss = st[i];
    const auto& ts = trace.sessions[i];
    const LoadApp& la = cat[static_cast<size_t>(ts.app)];
    const std::string pfx = tenant_prefix(ts.tenant);
    home_node.clock.set(ss.at);
    for (int w = 0; w < c.size(); ++w) {
      sim::Node& wn = c.worker(w).node();
      if (ss.at < wn.clock.now()) wn.clock.set(ss.at);
    }

    if (ss.tid < 0) {
      if (writes_statics[static_cast<size_t>(lock_key(ts))]) lock[lock_key(ts)] = pick;
      // Admitted, the session waits for home's core before its first step
      // can run.
      ss.first_step = home_node.cpu.free_from(ss.at);
      ss.tid = home.vm().spawn(p.find_method(pfx + la.spec.entry), la.args);
    }

    bool offloaded = false;
    if (ss.rounds_left > 0) {
      // Split depth is capped by the app's paper stack height: FFT's
      // trigger lives at depth 3, fib's recursion goes as deep as asked.
      const int depth = std::min(la.spec.paper_depth, opts.segments_per_round + 4);
      const int k = std::min(opts.segments_per_round, depth - 1);
      const uint16_t trig = p.find_method(pfx + la.spec.trigger_method);
      if (k >= 1 && run_round(sched, ss.tid, trig, depth, k)) {
        ss.segments += k;
        res.segments += k;
        res.tenants[static_cast<size_t>(ts.tenant)].segments += k;
        --ss.rounds_left;
        offloaded = true;
      } else {
        ss.rounds_left = 0;  // recursion exhausted — finish at home
      }
    }

    if (!offloaded) {
      // The residual run retires the session even when it does not reach
      // Done; such a session counts as not ok.
      Finish f = finish(sched, ss.tid, expected[static_cast<size_t>(ts.app)]);
      ss.done = true;
      ss.result = f.result;
      ss.ok = f.ok;
    }
    ++ss.steps;
    ss.at = home_node.clock.now();
    latest = std::max(latest, ss.at);

    if (ss.done) {
      ss.ms = (ss.at - ts.arrival).ms();
      if (wall) ss.wall_ms = wall_ms_since_start();
      if (writes_statics[static_cast<size_t>(lock_key(ts))]) {
        auto it = lock.find(lock_key(ts));
        if (it != lock.end() && it->second == pick) lock.erase(it);
        // Sessions waiting on the instance lock take it up no earlier
        // than its release.
        for (int s : active)
          if (lock_key(trace.sessions[static_cast<size_t>(s)]) == lock_key(ts))
            st[static_cast<size_t>(s)].at = std::max(st[static_cast<size_t>(s)].at, ss.at);
      }
      active.erase(std::find(active.begin(), active.end(), pick));
      ++done_count;
    }
    forget_past();
  }

  bool all_ok = true;
  for (size_t i = 0; i < n; ++i) {
    const auto& ts = trace.sessions[i];
    auto& tn = res.tenants[static_cast<size_t>(ts.tenant)];
    ++tn.sessions;
    if (st[i].done) {
      ++res.completed;
      ++tn.completed;
      tn.completion_ms.add(st[i].ms);
      res.completion_ms.add(st[i].ms);
      if (wall) res.wall_completion_ms.add(st[i].wall_ms);
      tn.mean_wait_ms += (st[i].first_step - ts.arrival).ms();
    }
    all_ok = all_ok && st[i].ok;
    res.results[i] = st[i].result;
    res.session_ms[i] = st[i].ms;
  }
  for (auto& tn : res.tenants)
    if (tn.completed > 0) tn.mean_wait_ms /= static_cast<double>(tn.completed);
  res.all_ok = all_ok && res.completed == res.sessions;
  res.exactly_once = sched.exactly_once();
  // FNV-1a over every field of every event, in log order: each field's 8
  // bytes in memory, little-endian as on the wire (support/bytes.h).
  uint64_t digest = kFnv1aBasis;
  for (const Event& e : sched.log()) {
    const int64_t fields[] = {static_cast<int64_t>(e.kind), e.at.ns, e.round, e.segment, e.worker,
                              e.attempt};
    digest = fnv1a({reinterpret_cast<const uint8_t*>(fields), sizeof fields}, digest);
  }
  res.log_digest = digest;
  res.redispatched = sched.redispatches();
  res.workers_lost = sched.workers_lost();
  res.statics_scans = sched.statics_stats().scans;
  res.statics_skipped = sched.statics_stats().skipped;
  res.statics_bytes = sched.statics_stats().bytes;
  res.resumed = sched.resumes();
  res.speculated = sched.speculations();
  res.cancelled = sched.cancellations();
  res.checkpoints = sched.checkpoints();
  if (wall) {
    mig::ShardContention total = wall->total_contention();
    res.lock_acq = total.acquisitions;
    res.wall_contended = total.contended;
    res.lock_wait_ns = total.wait_ns;
    res.lock_max_wait_ns = total.max_wait_ns;
    res.wall_max_queue = total.max_queue;
    res.wall_total_ms = wall_ms_since_start();
  }
  res.total_ms = latest.ms();
  res.home_busy_ms = home_node.cpu.booked().ms();
  return res;
}

}  // namespace sod::cluster
