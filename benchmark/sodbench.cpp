// sodbench — the repository benchmark's measuring process.
//
//   sodbench --workload NAME --seed S [--seconds T] [--trace 0|1] [--trace-dir DIR]
//   sodbench --smoke
//
// One invocation measures one workload.  Its inputs are T / replay_s
// distinct traces (at least 5) with workload seeds 1000*S, 1000*S+1, ...:
// the same seed and T always give the same traces, and two seeds share
// none.  Each trace is replayed open loop in virtual time and as fast as
// one process can go in wall time.
//
// --trace 0 gives the end-to-end metrics: completed sessions per wall
// second over all replays, the mean and p99 of virtual arrival -> result
// latency pooled over all sessions, set-up time (build + prep + analysis of
// the shared tenant program: the median of at least 21 rounds, spread
// over the run) and the peak resident set.
//
// --trace 1 gives the per-layer metrics: replays of the first trace
// untraced (the tracing-overhead baseline), one traced replay whose
// LoadGenResult counters become the cluster metrics, then the serial layer
// probe.  Spans are written at exit as Chrome trace-event JSON to
// DIR/NAME.trace.json.
//
// Every session of every replay must return its app's single-node
// reference result, every replay must keep the exactly-once invariant, and
// no replay may drain for longer than 10x the workload's mean arrival gap
// (past that the open loop is saturated and p99 measures run length).
// The last stdout line is one JSON object; the exit code is 0 only when
// every check held.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "layers.h"
#include "support/stats.h"
#include "trace.h"

using namespace sodbench;

namespace {

constexpr int kMinTraces = 5;
constexpr int kSetupRounds = 21;
constexpr double kDrainLimitGaps = 10.0;
constexpr double kProbeMsPerApp = 200.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string trace_dir = ".";
  bool smoke = false;
};

/// Peak resident set of this process image, MB.  VmHWM, not ru_maxrss:
/// Linux carries ru_maxrss across execve, so a child of a large parent
/// would report the parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

/// Outcome of one workload run: the checks plus the reported metrics.
struct RunReport {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> problems;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
  /// Folds one replay's correctness and open-loop checks into the report.
  void check(const WorkloadInfo& w, uint64_t seed, const ReplayStats& r) {
    attempted += r.sessions;
    failed += r.failed;
    if (r.failed > 0)
      fail("seed " + std::to_string(seed) + ": " + std::to_string(r.failed) + " of " +
           std::to_string(r.sessions) + " sessions failed" +
           (r.exactly_once ? "" : " (exactly-once violated)"));
    if (r.drain_ms > kDrainLimitGaps * w.mean_gap_ms)
      fail("seed " + std::to_string(seed) + ": drain " + std::to_string(r.drain_ms) +
           " ms exceeds " + std::to_string(kDrainLimitGaps * w.mean_gap_ms) +
           " ms (open loop saturated)");
  }
};

/// Workload seed of the i-th trace of a run: runs with different seeds
/// share no trace.
uint64_t trace_seed(uint64_t seed, int i) { return seed * 1000 + static_cast<uint64_t>(i); }

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

RunReport run_workload(const WorkloadInfo& w, const Args& a, int sessions, int setup_rounds,
                       double probe_ms, Tracer& tr) {
  const auto t0 = std::chrono::steady_clock::now();
  RunReport rep;
  auto root = tr.span("sodbench");

  std::vector<double> setup_s, build_ms, prep_ms, analyze_ms;
  // Each batch of set-up rounds starts with one uncounted round that brings
  // the code and the allocator back from whatever ran before.
  auto time_setup = [&](int rounds) {
    for (int i = -1; i < rounds; ++i) {
      const SetupTimes st = setup_once(w, tr);
      if (i < 0) continue;
      setup_s.push_back(st.total_s());
      build_ms.push_back(st.build_ms);
      prep_ms.push_back(st.prep_ms);
      analyze_ms.push_back(st.analyze_ms);
    }
  };
  const std::vector<int64_t> refs = reference_results(w);

  if (!a.trace) {
    // Distinct traces, each replayed once: the tail of one trace is
    // clustered (a worker loss, a run of device placements), so only more
    // traces steady the pooled tail.
    const int n = std::max(kMinTraces, static_cast<int>(std::lround(a.seconds / w.replay_s)));
    std::vector<double> virt;
    double completed = 0, wall_s = 0;
    for (int i = 0; i < n; ++i) {
      // Set-up rounds are spread over the run, so a spell of interference
      // from other processes moves only some of the samples the median
      // is taken over.
      time_setup((setup_rounds + n - 1) / n);
      const uint64_t seed = trace_seed(a.seed, i);
      const ReplayStats r = replay(w, seed, sessions, refs, tr, false);
      rep.check(w, seed, r);
      completed += r.completed;
      wall_s += r.wall_s;
      virt.insert(virt.end(), r.session_ms.begin(), r.session_ms.end());
      std::printf("  trace %llu: %d sessions in %.3f s (%.1f/s, %.3f CPU s), drain %.1f ms, "
                  "admission wait %.3f ms\n",
                  static_cast<unsigned long long>(seed), r.completed, r.wall_s,
                  r.completed / r.wall_s, r.cpu_s, r.drain_ms, r.admit_wait_ms);
    }
    sod::Percentiles p99;
    double sum = 0;
    for (double ms : virt) {
      p99.add(ms);
      sum += ms;
    }
    const double mean = virt.empty() ? 0 : sum / static_cast<double>(virt.size());
    rep.metrics["sessions_per_s"] = completed / wall_s;
    rep.metrics["virt_mean_ms"] = mean;
    rep.metrics["virt_p99_ms"] = p99.p99();
    rep.metrics["setup_s"] = median(setup_s);
    rep.metrics["peak_rss_mb"] = peak_rss_mb();
    std::printf("%s seed %llu: %d traces, %.1f sessions/s; virtual mean %.3f ms, p50 %.3f ms, "
                "p99 %.3f ms over %zu sessions; setup %.3f ms; failed %ld of %ld\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed), n, completed / wall_s,
                mean, p99.p50(), p99.p99(), virt.size(), median(setup_s) * 1000, rep.failed,
                rep.attempted);
    return rep;
  }

  // Traced run: untraced baseline replays of the first trace, then the
  // traced one.
  time_setup(setup_rounds);
  const uint64_t seed = trace_seed(a.seed, 0);
  std::vector<double> untraced;
  while (untraced.size() < 3 || seconds_since(t0) < a.seconds / 2) {
    const ReplayStats r = replay(w, seed, sessions, refs, tr, false);
    rep.check(w, seed, r);
    untraced.push_back(r.wall_s);
  }
  const ReplayStats r = replay(w, seed, sessions, refs, tr, true);
  rep.check(w, seed, r);
  const ProbeResult pr = probe(w, probe_ms, tr);
  if (pr.wrong > 0)
    rep.fail("probe: " + std::to_string(pr.wrong) + " of " + std::to_string(pr.runs) +
             " runs differed from the standalone result");

  auto& m = rep.metrics;
  m = pr.metrics;
  m["bytecode.build_ms"] = median(build_ms);
  m["prep.preprocess_ms"] = median(prep_ms);
  m["analysis.analyze_ms"] = median(analyze_ms);
  m["cluster.segments"] = r.segments;
  m["cluster.redispatched"] = r.redispatched;
  m["cluster.checkpoints"] = r.checkpoints;
  m["cluster.speculated"] = r.speculated;
  m["cluster.cancelled"] = r.cancelled;
  const double attempts = r.segments + r.speculated + r.redispatched;
  m["cluster.attempt_yield"] = attempts > 0 ? r.segments / attempts : 1.0;
  m["cluster.lock_acq"] = static_cast<double>(r.lock_acq);
  m["cluster.contended_frac"] =
      r.lock_acq > 0 ? static_cast<double>(r.lock_contended) / static_cast<double>(r.lock_acq)
                     : 0.0;
  m["cluster.lock_wait_ms"] = r.lock_wait_ms;
  m["cluster.parallelism"] = r.cpu_s / r.wall_s;
  m["cluster.statics_scans"] = static_cast<double>(r.statics_scans);
  m["cluster.statics_skipped"] = static_cast<double>(r.statics_skipped);
  m["cluster.admit_wait_ms"] = r.admit_wait_ms;
  m["cluster.drain_ms"] = r.drain_ms;
  m["trace.overhead_frac"] = r.wall_s / median(untraced) - 1.0;
  root.end();

  std::printf("%s seed %llu traced: replay %.3f s (untraced median %.3f s over %zu), probe "
              "%d runs\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), r.wall_s,
              median(untraced), untraced.size(), pr.runs);
  std::printf("  %-28s %14s\n", "span", "self ms");
  for (const auto& [name, ms] : tr.self_ms()) std::printf("  %-28s %14.3f\n", name.c_str(), ms);
  if (!a.trace_dir.empty()) {
    const std::string path = a.trace_dir + "/" + w.name + ".trace.json";
    if (!tr.write_chrome(path)) rep.fail("cannot write " + path);
  }
  return rep;
}

void print_json(const RunReport& rep, const std::string& workload, const Args& a) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"correct\": %s, "
              "\"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              workload.c_str(), static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
              rep.correct ? "true" : "false", rep.attempted, rep.failed);
  bool first = true;
  for (const auto& [name, v] : rep.metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), v);
    first = false;
  }
  std::printf("}}\n");
}

void print_problems(const std::string& workload, const RunReport& rep) {
  for (const std::string& p : rep.problems)
    std::fprintf(stderr, "%s: %s\n", workload.c_str(), p.c_str());
  std::fflush(stderr);
}

/// Both kinds of run of every workload at 20 sessions per trace, with
/// three set-up rounds and a single probe pass: a fast end-to-end check of
/// the benchmark itself.
int smoke() {
  bool ok = true;
  for (const WorkloadInfo& w : workloads()) {
    for (bool trace : {false, true}) {
      Args a;
      a.seconds = 0;
      a.trace = trace;
      a.trace_dir.clear();
      Tracer tr(trace, w.name, a.seed);
      const RunReport rep = run_workload(w, a, 20, 3, 0, tr);
      print_problems(w.name, rep);
      ok = ok && rep.correct;
    }
  }
  std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: sodbench --workload NAME --seed S [--seconds T] [--trace 0|1] "
               "[--trace-dir DIR]\n       sodbench --smoke\nworkloads:");
  for (const WorkloadInfo& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_value = i + 1 < argc;
    if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_value) {
      a.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (k == "--trace-dir" && has_value) {
      a.trace_dir = argv[++i];
    } else {
      return usage();
    }
  }
  if (a.smoke) return smoke();
  const WorkloadInfo* w = find_workload(a.workload);
  if (w == nullptr) return usage();

  Tracer tr(a.trace, w->name, a.seed);
  const RunReport rep = run_workload(*w, a, 0, kSetupRounds, kProbeMsPerApp, tr);
  print_problems(w->name, rep);
  print_json(rep, w->name, a);
  return rep.correct ? 0 : 1;
}
