// sodctl — one driver binary for every app, bench, and example scenario.
//
//   sodctl list                      show registered scenarios
//   sodctl run <name> [flags]        run any scenario
//   sodctl bench <name> [flags]      run a bench scenario (default JSON name
//                                    BENCH_<name>.json with bare --json)
//
// Flags: --smoke (tiny CI config), --nodes N, --policy P, --json [path];
// anything else is passed through to the scenario (e.g. google-benchmark
// flags).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli/scenario.h"

namespace {

using sod::cli::Scenario;
using sod::cli::ScenarioKind;
using sod::cli::ScenarioOptions;
using sod::cli::ScenarioRegistry;

int usage(std::FILE* to) {
  std::fprintf(to,
               "usage: sodctl <command> [args]\n"
               "\n"
               "commands:\n"
               "  list                      list registered scenarios\n"
               "  run <name> [flags]        run a scenario by name\n"
               "  bench <name> [flags]      run a bench scenario (BENCH_<name>.json\n"
               "                            with bare --json)\n"
               "  analyze <name> [--json [path]]\n"
               "                            whole-program static analysis of a scenario's\n"
               "                            guest bytecode: per-class callees, statics\n"
               "                            effects, ref escape, MSP state bounds; exit 3\n"
               "                            if the admission gate would reject it\n"
               "  analyze --all [--json]    analyze every scenario with a guest program\n"
               "  help                      show this message\n"
               "\n"
               "flags:\n"
               "  --smoke                   tiny problem sizes for CI smoke runs\n"
               "  --nodes N                 node count for cluster scenarios\n"
               "  --policy P                placement policy for cluster scenarios\n"
               "                            (round-robin | least-loaded | locality-aware |\n"
               "                            learned)\n"
               "  --churn X                 worker churn rate 0..1 for elastic scenarios\n"
               "  --fail-at N               fail a worker after N segment completions\n"
               "                            (the scheduler re-dispatches its segments)\n"
               "  --autoscale               join/drain standby workers from queue depth\n"
               "  --checkpoint-every N      checkpoint executing segments every N guest\n"
               "                            instructions (failures resume from the newest\n"
               "                            checkpoint instead of restarting)\n"
               "  --speculate               stop checkpointing a segment once it is flagged\n"
               "                            as a straggler; requires --checkpoint-every\n"
               "  --wallclock               run cluster rounds on the wall-clock thread\n"
               "                            pool (one thread per worker) instead of the\n"
               "                            virtual-time scheduler; results are identical\n"
               "  --threads N               wall-clock pool size (implies --wallclock)\n"
               "  --home-shards N           home shard count 1..64 for cluster scenarios\n"
               "                            (lock-striped home state in the wall-clock\n"
               "                            engine; virtual results are identical)\n"
               "  --sessions N              session count for trace-driven load scenarios\n"
               "  --arrival A               arrival process for load traces\n"
               "                            (poisson | onoff | soak)\n"
               "  --seed S                  trace seed for load scenarios\n"
               "  --json [path]             write the result table as JSON\n");
  return to == stdout ? 0 : 2;
}

int cmd_list() {
  auto all = ScenarioRegistry::instance().all();
  std::printf("%-8s  %-22s  %s\n", "KIND", "NAME", "DESCRIPTION");
  for (const Scenario* s : all)
    std::printf("%-8s  %-22s  %s\n", sod::cli::kind_name(s->kind), s->name.c_str(),
                s->description.c_str());
  std::printf("\n%zu scenarios registered\n", all.size());
  return 0;
}

int unknown_scenario(const std::string& name) {
  std::fprintf(stderr, "sodctl: unknown scenario '%s'\n", name.c_str());
  auto near = ScenarioRegistry::instance().suggestions(name);
  if (!near.empty()) {
    std::fprintf(stderr, "did you mean:");
    for (const std::string& n : near) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "?\n");
  }
  std::fprintf(stderr, "run `sodctl list` for all scenarios\n");
  return 2;
}

int cmd_run(const std::string& name, const std::vector<std::string>& rest,
            bool bench_only) {
  const Scenario* s = ScenarioRegistry::instance().find(name);
  if (s == nullptr) return unknown_scenario(name);
  if (bench_only && s->kind != ScenarioKind::Bench) {
    std::fprintf(stderr, "sodctl: '%s' is a %s scenario, not a bench (use `sodctl run`)\n",
                 name.c_str(), sod::cli::kind_name(s->kind));
    return 2;
  }
  ScenarioOptions opt;
  std::string default_json = bench_only ? "BENCH_" + name + ".json" : "";
  if (!sod::cli::parse_scenario_flags(rest, opt, default_json)) return 2;
  if (s->kind != ScenarioKind::Bench && !opt.json_path.empty()) {
    std::fprintf(stderr, "sodctl: --json is only supported by bench scenarios\n");
    return 2;
  }
  return s->run(opt);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage(stderr);
  const std::string& cmd = args[0];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") return usage(stdout);
  if (cmd == "list") return cmd_list();
  if (cmd == "run" || cmd == "bench") {
    if (args.size() < 2) {
      std::fprintf(stderr, "sodctl: %s requires a scenario name\n", cmd.c_str());
      return usage(stderr);
    }
    return cmd_run(args[1], {args.begin() + 2, args.end()}, cmd == "bench");
  }
  if (cmd == "analyze") return sod::cli::cmd_analyze({args.begin() + 1, args.end()});
  std::fprintf(stderr, "sodctl: unknown command '%s'\n", cmd.c_str());
  return usage(stderr);
}
