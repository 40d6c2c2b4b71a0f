// Scenario registry — every app, bench, and example registers itself here
// at static-init time, so `sodctl` drives them all through one API.
// Future workloads are added by registering a struct, not by writing a new
// main().
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bytecode/program.h"
#include "cluster/scheduler.h"

namespace sod {
class Table;
}

namespace sod::cli {

enum class ScenarioKind { App, Bench, Example };

const char* kind_name(ScenarioKind k);

/// Options shared by every scenario entry point.  Scenarios are free to
/// ignore fields that do not apply to them.
struct ScenarioOptions {
  /// Tiny iteration counts / problem sizes for CI smoke runs.
  bool smoke = false;
  /// Node count for scenarios that spin up a cluster (0 = scenario default).
  int nodes = 0;
  /// Placement policy for cluster scenarios ("" = scenario default).
  /// Validated spellings: round-robin, least-loaded, locality-aware,
  /// learned (see cluster::parse_policy).
  std::string policy;
  /// Worker churn rate for elastic scenarios: the fraction of dispatch
  /// rounds that trigger a membership event (a join, with a matching drain
  /// a few rounds later).  Negative = scenario default.
  double churn = -1.0;
  /// Inject a worker failure after this many cluster-wide segment
  /// completions (scenarios built on the cluster Scheduler); the
  /// scheduler re-dispatches the lost worker's outstanding segments.
  /// Negative = no injected failure.
  int fail_at = -1;
  /// Attach the queue-depth autoscaler (scenarios with a standby pool):
  /// standby workers join above the high-water queue depth and drain
  /// below the low-water mark.
  bool autoscale = false;
  /// Guest instructions between checkpoints of an executing segment for
  /// scenarios driving the cluster Scheduler (0 = checkpointing off).  A
  /// checkpointed segment resumes partial work after a worker loss
  /// instead of re-executing from its original capture.
  int64_t checkpoint_every = 0;
  /// Launch speculative backup attempts for straggling segments from the
  /// newest checkpoint — first completion wins, the loser is cancelled.
  /// Requires --checkpoint-every.
  bool speculate = false;
  /// Run cluster scenarios on the wall-clock engine (cluster::WallClockEngine)
  /// with this many pool threads instead of the virtual-time scheduler.
  /// 0 = virtual time unless --wallclock, which uses one thread per worker.
  int threads = 0;
  /// Wall-clock execution with the default thread count (one per worker).
  /// Implied by --threads N.
  bool wallclock = false;
  /// Home shard count for cluster scenarios (1..64; 0 = scenario default
  /// of 1): the number of stripe locks the wall-clock engine serializes
  /// home-side service windows on; virtual-time results are bit-identical
  /// at any value.
  int home_shards = 0;
  /// Session count for trace-driven load scenarios (0 = scenario default).
  int sessions = 0;
  /// Arrival process for trace-driven load scenarios ("" = scenario
  /// default).  Validated spellings: poisson, onoff, soak (see
  /// cluster::parse_arrival).
  std::string arrival;
  /// Trace seed for load scenarios (negative = scenario default).
  long long seed = -1;
  /// When non-empty, bench scenarios write their result table here as
  /// schema-stable JSON (see Table::json).
  std::string json_path;
  /// Unparsed passthrough arguments (e.g. google-benchmark flags).
  std::vector<std::string> extra;
};

struct Scenario {
  std::string name;
  ScenarioKind kind = ScenarioKind::Bench;
  std::string description;
  std::function<int(const ScenarioOptions&)> run;
  /// Optional whole-program view for `sodctl analyze`: builds the
  /// scenario's guest bytecode program (the analyze driver preprocesses
  /// it).  Scenarios without guest bytecode leave it empty.
  std::function<bc::Program()> program;
  /// Reachability root for the analyzer ("" = every defined method).
  std::string entry;
};

class ScenarioRegistry {
 public:
  static ScenarioRegistry& instance();

  /// Registers a scenario; panics on duplicate names.
  void add(Scenario s);

  /// Looks up a scenario by exact name; nullptr when absent.
  const Scenario* find(const std::string& name) const;

  /// All scenarios sorted by (kind, name).
  std::vector<const Scenario*> all() const;

  /// For "unknown scenario" diagnostics: names closest to `name`.
  std::vector<std::string> suggestions(const std::string& name) const;

 private:
  std::vector<Scenario> scenarios_;
};

/// Registers `s` with the global registry from a static initializer.
struct ScenarioRegistrar {
  ScenarioRegistrar(std::string name, ScenarioKind kind, std::string description,
                    std::function<int(const ScenarioOptions&)> run);
  ScenarioRegistrar(std::string name, ScenarioKind kind, std::string description,
                    std::function<int(const ScenarioOptions&)> run,
                    std::function<bc::Program()> program, std::string entry);
};

#define SOD_CLI_CAT2(a, b) a##b
#define SOD_CLI_CAT(a, b) SOD_CLI_CAT2(a, b)

/// File-scope registration: SOD_REGISTER_SCENARIO("table2",
/// ScenarioKind::Bench, "Table II ...", run_fn);
#define SOD_REGISTER_SCENARIO(name, kind, desc, fn)                             \
  [[maybe_unused]] static const ::sod::cli::ScenarioRegistrar SOD_CLI_CAT(      \
      sod_scenario_reg_, __LINE__)(name, kind, desc, fn)

/// Registration with a program factory + analyzer entry, so `sodctl
/// analyze <name>` can run the whole-program analyzer over the scenario's
/// guest bytecode: SOD_REGISTER_SCENARIO_PROGRAM("fib", ..., run_fib,
/// prog_fn, "Fib.main");
#define SOD_REGISTER_SCENARIO_PROGRAM(name, kind, desc, fn, prog, entry)        \
  [[maybe_unused]] static const ::sod::cli::ScenarioRegistrar SOD_CLI_CAT(      \
      sod_scenario_reg_, __LINE__)(name, kind, desc, fn, prog, entry)

/// Writes `t` to opt.json_path when set (bench scenarios call this after
/// printing).  Returns false (with a message on stderr) if the file could
/// not be written.
bool maybe_write_json(const ScenarioOptions& opt, const std::string& bench_name,
                      const Table& t);

/// The cluster dispatch options the flags set: --checkpoint-every and
/// --speculate.
cluster::DispatchOptions dispatch_options(const ScenarioOptions& opt);

/// Flag parsing for `sodctl run|bench`.
/// Understands --smoke, --nodes N, --policy P, --churn X, --fail-at N,
/// --autoscale, --checkpoint-every N, --speculate, --threads N,
/// --wallclock, --home-shards N, --sessions N, --arrival A, --seed S,
/// --json [path] and collects the rest into opt.extra.
/// Returns false on malformed flags (one diagnostic per error on stderr,
/// quoting the offending token once with the accepted range).
/// `default_json_name` fills json_path when --json is given without a
/// value ("" disables the bare form).
bool parse_scenario_flags(const std::vector<std::string>& args, ScenarioOptions& opt,
                          const std::string& default_json_name);

/// `sodctl analyze` entry point (src/cli/analyze.cpp): runs the
/// whole-program analyzer over one scenario's program (or --all) and
/// prints the per-class report.  Exit 0 = admitted, 3 = rejected, 2 =
/// usage error.
int cmd_analyze(const std::vector<std::string>& args);

}  // namespace sod::cli
