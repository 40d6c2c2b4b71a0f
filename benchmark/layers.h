// The benchmark's only window onto the system under test.
//
// Every call into a layer API — bytecode, prep, analysis, svm, sod, cluster
// — lives in layers.cpp, and nothing here exposes a sod:: type.  When a
// later change alters one of those signatures, layers.cpp is the one file
// of the benchmark that follows it.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sodbench {

class Tracer;

/// One workload: a seeded trace shape plus the cluster it replays on (the
/// definitions, and why each exists, are in layers.cpp and README.md).
struct WorkloadInfo {
  std::string name;
  double mean_gap_ms = 0;  ///< mean arrival gap (open-loop validity check)
  /// Wall seconds one replay takes on the reference machine (README.md):
  /// a run of T seconds replays T / replay_s distinct traces.
  double replay_s = 1;
};

const std::vector<WorkloadInfo>& workloads();
/// nullptr when no workload has that name.
const WorkloadInfo* find_workload(const std::string& name);

/// Result every session of app `a` must return: the app run alone on a
/// standalone node at the workload's load scale.
std::vector<int64_t> reference_results(const WorkloadInfo& w);

/// One build of the workload's shared tenant program (every tenant's copy
/// of every app in the mix), its preprocessing and its admission analysis,
/// each stage timed in its own span.
struct SetupTimes {
  double build_ms = 0;
  double prep_ms = 0;
  double analyze_ms = 0;
  double total_s() const { return (build_ms + prep_ms + analyze_ms) / 1000.0; }
};
SetupTimes setup_once(const WorkloadInfo& w, Tracer& tr);

/// One replay of the trace with workload seed `seed`.
struct ReplayStats {
  int sessions = 0;
  int completed = 0;
  /// Sessions that are missing or differ from their reference result; every
  /// session when the replay was refused or broke exactly-once.
  int failed = 0;
  bool exactly_once = false;
  double wall_s = 0;  ///< wall time of the run_loadgen call alone
  double cpu_s = 0;   ///< process CPU time over the same interval
  /// Virtual arrival -> result latency of every session that returned its
  /// reference result, ms.
  std::vector<double> session_ms;
  double drain_ms = 0;       ///< home clock at the end - last arrival
  double admit_wait_ms = 0;  ///< mean arrival -> first dispatch step
  int segments = 0;
  int redispatched = 0;
  int checkpoints = 0;
  int speculated = 0;
  int cancelled = 0;
  uint64_t lock_acq = 0;
  uint64_t lock_contended = 0;
  double lock_wait_ms = 0;
  uint64_t statics_scans = 0;
  uint64_t statics_skipped = 0;
};
/// `sessions` <= 0 keeps the workload's own count.  With `traced` the
/// run_loadgen call sits inside a `loadgen.replay` span of `tr`.
ReplayStats replay(const WorkloadInfo& w, uint64_t seed, int sessions,
                   const std::vector<int64_t>& refs, Tracer& tr, bool traced);

/// Serial per-call probe of the layers below the cluster: each app of the
/// workload's mix at its bench-scale arguments goes through the public call
/// sequence of an offload (capture, serialize, deserialize, restore,
/// execute, write back), a checkpointed offload, standalone fast and debug
/// interpreter runs, and one dispatch round on each engine.  The whole
/// sequence runs at least once and repeats until `min_ms_per_app` has
/// passed for the app; each metric is the app's median, averaged over the
/// mix.
struct ProbeResult {
  std::map<std::string, double> metrics;
  /// Probe runs whose final result differed from the standalone run.
  int wrong = 0;
  int runs = 0;
};
ProbeResult probe(const WorkloadInfo& w, double min_ms_per_app, Tracer& tr);

}  // namespace sodbench
