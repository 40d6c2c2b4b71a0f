// Every call the benchmark makes into the system under test.  See layers.h.
#include "layers.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "analysis/analysis.h"
#include "apps/apps.h"
#include "cluster/loadgen.h"
#include "cluster/wallclock.h"
#include "prep/prep.h"
#include "sod/migrate.h"
#include "trace.h"

namespace sodbench {

using namespace sod;

namespace {

/// Guest instructions between checkpoints on the checkpointing workload
/// (the multitenant bench's cadence).
constexpr uint64_t kCheckpointEvery = 20000;
/// Chunk budget of the probe's checkpointed offload: smaller than the
/// replay cadence so that every bench-scale app takes a few checkpoints.
constexpr uint64_t kProbeChunk = 2000;

struct Def {
  WorkloadInfo info;
  cluster::TraceConfig trace;
  cluster::LoadGenOptions opts;
};

std::vector<cluster::WorkerSpec> straggler_topology() {
  mig::SodNode::Config dev;
  dev.cpu_scale = 25.0;
  return {{"xeon1", {}, sim::Link::gigabit()},
          {"xeon2", {}, sim::Link::gigabit()},
          {"wifi-device", dev, sim::Link::wifi_kbps(2000)}};
}

/// The four workloads.  Why each exists is recorded in BENCHMARK.json and
/// README.md; in short: tenants_spec is the only one that checkpoints and
/// speculates, tenants_wall the only one with real threads on the home
/// locks, compute_soak is interpreter-bound, objects_mix is the one with the
/// most capture/fault/write-back work per session.
std::vector<Def> make_defs() {
  std::vector<Def> v;
  {
    Def d;
    d.info.name = "tenants_spec";
    d.trace.sessions = 400;
    d.trace.tenants = 4;
    d.trace.apps = 2;
    d.trace.arrival = cluster::ArrivalKind::Poisson;
    // At 100 ms the pooled p99 of ten traces still moves 15% from seed to
    // seed (the tail clusters within a trace); at 400 ms it moves 1% and
    // the CPU work per session -- checkpoints, speculation -- is the same.
    d.trace.mean_gap = VDur::millis(400);
    d.trace.churn = 0.08;
    d.trace.failures = 1;
    d.trace.heavy = true;
    d.opts.policy = cluster::PolicyKind::LeastLoaded;
    d.opts.workers = straggler_topology();
    d.opts.segments_per_round = 3;
    d.opts.dispatch.checkpoint_every = kCheckpointEvery;
    d.opts.dispatch.speculate = true;
    d.info.replay_s = 2.3;
    v.push_back(d);
  }
  {
    Def d = v.back();
    d.info.name = "tenants_wall";
    d.opts.dispatch = {};
    d.opts.wallclock = true;
    d.opts.threads = 3;
    d.opts.home_shards = 4;
    d.opts.dilation = 0;
    d.opts.home_dilation = 0;
    d.info.replay_s = 2.5;
    v.push_back(d);
  }
  {
    Def d;
    d.info.name = "compute_soak";
    d.trace.sessions = 400;
    d.trace.tenants = 4;
    d.trace.apps = 2;
    // Bursts of 8 arrivals, not soak: with constant arrivals no session
    // ever queues, every latency is one of two per-app constants and p99
    // reads the same for every seed; Poisson arrivals leave a tail that
    // moves 5% from seed to seed.
    d.trace.arrival = cluster::ArrivalKind::OnOff;
    d.trace.mean_gap = VDur::millis(10);
    d.trace.max_rounds = 1;
    d.trace.heavy = true;
    d.opts.policy = cluster::PolicyKind::LeastLoaded;
    d.opts.segments_per_round = 1;
    d.info.replay_s = 2.2;
    v.push_back(d);
  }
  {
    Def d;
    d.info.name = "objects_mix";
    d.trace.sessions = 5000;
    d.trace.tenants = 4;
    d.trace.apps = 4;
    d.trace.arrival = cluster::ArrivalKind::Poisson;
    d.trace.mean_gap = VDur::millis(25);
    d.trace.max_rounds = 4;
    d.opts.policy = cluster::PolicyKind::LeastLoaded;
    d.opts.segments_per_round = 3;
    d.info.replay_s = 2.0;
    v.push_back(d);
  }
  for (Def& d : v) d.info.mean_gap_ms = d.trace.mean_gap.ms();
  return v;
}

const std::vector<Def>& defs() {
  static const std::vector<Def> v = make_defs();
  return v;
}

const Def& def_of(const WorkloadInfo& w) {
  for (const Def& d : defs())
    if (d.info.name == w.name) return d;
  throw std::invalid_argument("unknown workload " + w.name);
}

apps::AppSpec app_spec(int a) {
  switch (a) {
    case 0: return apps::fib_app();
    case 1: return apps::nqueens_app();
    case 2: return apps::fft_app();
    default: return apps::tsp_app();
  }
}

/// The load-scale arguments run_loadgen gives each app.  They are restated
/// here so the benchmark checks every session against a reference it
/// computed itself; a change to the load scale shows up as failed sessions.
std::vector<bc::Value> load_args(int a, bool heavy) {
  switch (a) {
    case 0: return {bc::Value::of_i64(heavy ? 22 : 16)};
    case 1: return {bc::Value::of_i64(heavy ? 7 : 6)};
    case 2: return {bc::Value::of_i64(8), bc::Value::of_i64(64)};
    default: return {bc::Value::of_i64(heavy ? 7 : 6)};
  }
}

/// Class-name prefix of tenant `t` in the shared program (loadgen's scheme).
std::string tenant_prefix(int t) {
  std::string s = "t";
  s += std::to_string(t);
  s += '_';
  return s;
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> v = [] {
    std::vector<WorkloadInfo> out;
    for (const Def& d : defs()) out.push_back(d.info);
    return out;
  }();
  return v;
}

const WorkloadInfo* find_workload(const std::string& name) {
  for (const WorkloadInfo& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::vector<int64_t> reference_results(const WorkloadInfo& w) {
  const Def& d = def_of(w);
  std::vector<int64_t> out;
  for (int a = 0; a < d.trace.apps; ++a) {
    apps::AppSpec spec = app_spec(a);
    bc::Program p = spec.build();
    prep::preprocess_program(p);
    mig::SodNode node("ref", p, {});
    mig::ObjectManager om;
    om.install(node);
    out.push_back(node.call_guest(spec.entry, load_args(a, d.trace.heavy)).as_i64());
  }
  return out;
}

SetupTimes setup_once(const WorkloadInfo& w, Tracer& tr) {
  const Def& d = def_of(w);
  SetupTimes st;
  auto setup = tr.span("setup");
  bc::Program p;
  {
    auto s = tr.span("bytecode.build");
    bc::ProgramBuilder pb;
    for (int t = 0; t < d.trace.tenants; ++t)
      for (int a = 0; a < d.trace.apps; ++a) app_spec(a).emit(pb, tenant_prefix(t));
    p = pb.build();
    st.build_ms = s.end() / 1000.0;
  }
  {
    auto s = tr.span("prep.preprocess");
    prep::preprocess_program(p);
    st.prep_ms = s.end() / 1000.0;
  }
  {
    auto s = tr.span("analysis.analyze");
    analysis::AdmissionReport rep = analysis::analyze_program(p);
    st.analyze_ms = s.end() / 1000.0;
    if (!rep.admitted) throw std::runtime_error("tenant program of " + w.name + " not admitted");
  }
  return st;
}

ReplayStats replay(const WorkloadInfo& w, uint64_t seed, int sessions,
                   const std::vector<int64_t>& refs, Tracer& tr, bool traced) {
  const Def& d = def_of(w);
  cluster::TraceConfig cfg = d.trace;
  cfg.seed = seed;
  if (sessions > 0) cfg.sessions = sessions;
  const cluster::Trace trace = cluster::make_trace(cfg);

  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  cluster::LoadGenResult r;
  if (traced) {
    auto s = tr.span("loadgen.replay");
    r = cluster::run_loadgen(trace, d.opts);
  } else {
    r = cluster::run_loadgen(trace, d.opts);
  }
  const auto t1 = std::chrono::steady_clock::now();

  ReplayStats out;
  out.cpu_s = cpu_seconds() - cpu0;
  out.wall_s = std::chrono::duration<double>(t1 - t0).count();
  out.sessions = r.sessions;
  out.completed = r.completed;
  out.exactly_once = r.exactly_once;
  for (size_t i = 0; i < trace.sessions.size(); ++i) {
    const size_t app = static_cast<size_t>(trace.sessions[i].app);
    if (r.admitted && i < r.results.size() && app < refs.size() && r.results[i] == refs[app])
      out.session_ms.push_back(r.session_ms[i]);
    else
      ++out.failed;
  }
  if (!r.admitted || !r.exactly_once) out.failed = out.sessions;
  out.drain_ms = trace.sessions.empty() ? 0 : r.total_ms - trace.sessions.back().arrival.ms();
  double waited = 0;
  int done = 0;
  for (const auto& tn : r.tenants) {
    waited += tn.mean_wait_ms * tn.completed;
    done += tn.completed;
  }
  out.admit_wait_ms = done > 0 ? waited / done : 0;
  out.segments = r.segments;
  out.redispatched = r.redispatched;
  out.checkpoints = r.checkpoints;
  out.speculated = r.speculated;
  out.cancelled = r.cancelled;
  out.lock_acq = r.lock_acq;
  out.lock_contended = r.wall_contended;
  out.lock_wait_ms = static_cast<double>(r.lock_wait_ns) / 1e6;
  out.statics_scans = r.statics_scans;
  out.statics_skipped = r.statics_skipped;
  return out;
}

// ------------------------------------------------------------------ probe

namespace {

/// Samples of one app's probe, by metric name.
using Samples = std::map<std::string, std::vector<double>>;

struct ProbeApp {
  const Def& d;
  apps::AppSpec spec;
  bc::Program prog;
  std::vector<bc::Value> args;
  uint16_t entry = bc::kNoId;
  uint16_t trigger = bc::kNoId;
  int depth = 0;  ///< home stack depth at the split (loadgen's rule)
  int k = 0;      ///< frames offloaded
  int64_t expected = 0;
  sim::Link link = sim::Link::gigabit();

  ProbeApp(const Def& def, int a) : d(def), spec(app_spec(a)) {
    prog = spec.build();
    prep::preprocess_program(prog);
    args = spec.bench_args;
    entry = prog.find_method(spec.entry);
    trigger = prog.find_method(spec.trigger_method);
    depth = std::min(spec.paper_depth, d.opts.segments_per_round + 4);
    k = std::min(d.opts.segments_per_round, depth - 1);
  }

  /// Home thread paused at the split point (throws if it finished first).
  int paused_thread(mig::SodNode& home) const {
    const int tid = home.vm().spawn(entry, args);
    if (!mig::pause_at_depth(home, tid, trigger, depth))
      throw std::runtime_error("probe: " + spec.name + " never reached depth " +
                               std::to_string(depth));
    return tid;
  }

  /// Resumes the home thread after its offload; true if it returned the
  /// standalone result.
  bool finish_home(mig::SodNode& home, int tid) const {
    home.ti().set_debug_enabled(false);
    const svm::RunResult rr = home.run_guest(tid);
    return rr.reason == svm::StopReason::Done &&
           home.vm().thread(tid).result.as_i64() == expected;
  }

  /// Standalone interpreter run; returns the result, records Minstr/s.
  int64_t standalone(bool debug, Tracer& tr, Samples& s) const {
    mig::SodNode node("alone", prog, {});
    mig::ObjectManager om;
    om.install(node);
    node.ti().set_debug_enabled(debug);
    const int tid = node.vm().spawn(entry, args);
    auto sp = tr.span(debug ? "svm.debug" : "svm.fast", spec.name);
    const svm::RunResult rr = node.run_guest(tid);
    const double us = sp.end();
    if (rr.reason != svm::StopReason::Done)
      throw std::runtime_error("probe: standalone " + spec.name + " did not finish");
    s[debug ? "svm.debug_minstr_per_s" : "svm.fast_minstr_per_s"].push_back(
        static_cast<double>(rr.executed) / us);
    return node.vm().thread(tid).result.as_i64();
  }

  /// The call sequence of mig::offload_and_return, one span per call.
  bool offload(Tracer& tr, Samples& s) const {
    mig::SodNode home("home", prog, {});
    mig::SodNode dest("dest", prog, {});
    const int tid = paused_thread(home);
    mig::CapturedState cs;
    {
      auto sp = tr.span("sod.capture", spec.name);
      cs = mig::capture_segment(home, tid, mig::SegmentSpec{0, k});
      home.ti().set_debug_enabled(false);
      home.sync_ti_cost();
      s["sod.capture_us"].push_back(sp.end());
    }
    ByteWriter w;
    {
      auto sp = tr.span("sod.serialize", spec.name);
      cs.serialize(w);
      s["sod.serialize_us"].push_back(sp.end());
    }
    mig::CapturedState shipped;
    {
      auto sp = tr.span("sod.deserialize", spec.name);
      ByteReader r(w.bytes());
      shipped = mig::CapturedState::deserialize(r);
      s["sod.deserialize_us"].push_back(sp.end());
    }
    const double serde_us = s["sod.serialize_us"].back() + s["sod.deserialize_us"].back();
    s["sod.serde_mb_per_s"].push_back(2.0 * static_cast<double>(w.size()) / serde_us);
    s["sod.state_bytes"].push_back(static_cast<double>(w.size()));

    const uint16_t top_cls = prog.method(shipped.frames.back().method).owner;
    dest.mark_class_shipped(top_cls);
    dest.enable_class_fetch(&home, link);
    sim::deliver(home.node(), dest.node(), link,
                 w.size() + home.program().class_image(top_cls).size());
    std::unique_ptr<mig::Segment> seg;
    {
      auto sp = tr.span("sod.restore", spec.name);
      seg = std::make_unique<mig::Segment>(dest);
      seg->objman().bind_home(&home, tid, k, link);
      seg->restore(shipped);
      s["sod.restore_us"].push_back(sp.end());
    }
    bc::Value result;
    {
      auto sp = tr.span("sod.exec", spec.name);
      result = seg->run_to_completion();
      s["sod.exec_us"].push_back(sp.end());
    }
    const mig::FaultStats fs = seg->objman().stats();
    s["sod.fault_count"].push_back(fs.faults);
    s["sod.fault_bytes"].push_back(static_cast<double>(fs.bytes));
    s["sod.class_bytes"].push_back(static_cast<double>(dest.class_bytes_fetched()));
    {
      auto sp = tr.span("sod.writeback", spec.name);
      const mig::WriteBackReport rep = mig::write_back(*seg, home, tid, k, result, link);
      s["sod.writeback_us"].push_back(sp.end());
      s["sod.writeback_bytes"].push_back(static_cast<double>(rep.bytes));
    }
    return finish_home(home, tid);
  }

  /// The same offload executed in chunks with a checkpoint at every pause.
  bool checkpointed(Tracer& tr, Samples& s) const {
    mig::SodNode home("home", prog, {});
    mig::SodNode dest("dest", prog, {});
    const int tid = paused_thread(home);
    mig::CapturedState cs = mig::capture_segment(home, tid, mig::SegmentSpec{0, k});
    home.ti().set_debug_enabled(false);
    home.sync_ti_cost();
    dest.mark_class_shipped(prog.method(cs.frames.back().method).owner);
    dest.enable_class_fetch(&home, link);
    mig::Segment seg(dest);
    seg.objman().bind_home(&home, tid, k, link);
    seg.restore(cs);
    mig::CheckpointDeltas deltas;
    double heap_bytes = 0;
    while (seg.run_chunk(kProbeChunk) != svm::StopReason::Done) {
      auto sp = tr.span("sod.checkpoint", spec.name);
      const mig::SegmentCheckpoint ck = mig::checkpoint_segment(seg, home, link, deltas);
      s["sod.checkpoint_us"].push_back(sp.end());
      heap_bytes += static_cast<double>(ck.heap_bytes);
    }
    s["sod.checkpoint_heap_bytes"].push_back(heap_bytes);
    mig::write_back(seg, home, tid, k, seg.result(), link);
    return finish_home(home, tid);
  }

  /// One dispatch round of the workload's cluster shape on either engine.
  bool round(bool wall, Tracer& tr, Samples& s) const {
    cluster::Cluster c(prog);
    if (d.opts.workers.empty())
      c.add_uniform_workers(4);
    else
      for (const auto& ws : d.opts.workers) c.add_worker(ws);
    if (d.opts.home_shards > 0) c.set_home_shards(d.opts.home_shards);
    auto policy = cluster::make_policy(d.opts.policy);
    mig::SodNode& home = c.home();
    const int tid = paused_thread(home);
    const auto specs = cluster::split_top_frames(k);
    if (wall) {
      cluster::WallClockOptions wo;
      wo.threads = 3;  // plus this thread: the benchmark's 4-thread cap
      wo.dilation = 0;
      wo.home_dilation = 0;
      cluster::WallClockEngine engine(c, *policy, wo);
      auto sp = tr.span("cluster.wall_round", spec.name);
      engine.run(tid, specs);
      s["cluster.wall_round_us"].push_back(sp.end());
    } else {
      cluster::Scheduler sched(c, *policy, d.opts.dispatch);
      auto sp = tr.span("cluster.round", spec.name);
      sched.run(tid, specs);
      s["cluster.round_us"].push_back(sp.end());
    }
    return finish_home(home, tid);
  }
};

}  // namespace

ProbeResult probe(const WorkloadInfo& w, double min_ms_per_app, Tracer& tr) {
  const Def& d = def_of(w);
  ProbeResult out;
  std::map<std::string, std::vector<double>> per_app_medians;
  auto top = tr.span("probe");
  for (int a = 0; a < d.trace.apps; ++a) {
    ProbeApp pa(d, a);
    auto app_span = tr.span("probe.app", pa.spec.name);
    Samples s;
    const auto t0 = std::chrono::steady_clock::now();
    do {
      pa.expected = pa.standalone(false, tr, s);
      const bool ok = (pa.spec.bench_expected == INT64_MIN ||
                       pa.expected == pa.spec.bench_expected) &&
                      pa.standalone(true, tr, s) == pa.expected && pa.offload(tr, s) &&
                      pa.checkpointed(tr, s) && pa.round(false, tr, s) && pa.round(true, tr, s);
      out.wrong += ok ? 0 : 1;
      ++out.runs;
    } while (std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                 .count() < min_ms_per_app);
    for (auto& [name, v] : s) per_app_medians[name].push_back(median(v));
  }
  for (auto& [name, v] : per_app_medians) {
    double sum = 0;
    for (double x : v) sum += x;
    out.metrics[name] = sum / static_cast<double>(v.size());
  }
  return out;
}

}  // namespace sodbench
