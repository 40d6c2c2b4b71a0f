#include "cli/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "cluster/loadgen.h"
#include "cluster/placement.h"
#include "support/panic.h"
#include "support/table.h"

namespace sod::cli {

const char* kind_name(ScenarioKind k) {
  switch (k) {
    case ScenarioKind::App: return "app";
    case ScenarioKind::Bench: return "bench";
    case ScenarioKind::Example: return "example";
  }
  SOD_UNREACHABLE("bad ScenarioKind");
}

ScenarioRegistry& ScenarioRegistry::instance() {
  static ScenarioRegistry reg;
  return reg;
}

void ScenarioRegistry::add(Scenario s) {
  SOD_CHECK(!s.name.empty(), "scenario name empty");
  SOD_CHECK(static_cast<bool>(s.run), "scenario '" + s.name + "' has no run fn");
  SOD_CHECK(find(s.name) == nullptr, "duplicate scenario '" + s.name + "'");
  scenarios_.push_back(std::move(s));
}

const Scenario* ScenarioRegistry::find(const std::string& name) const {
  for (const Scenario& s : scenarios_)
    if (s.name == name) return &s;
  return nullptr;
}

std::vector<const Scenario*> ScenarioRegistry::all() const {
  std::vector<const Scenario*> out;
  out.reserve(scenarios_.size());
  for (const Scenario& s : scenarios_) out.push_back(&s);
  std::sort(out.begin(), out.end(), [](const Scenario* a, const Scenario* b) {
    if (a->kind != b->kind) return static_cast<int>(a->kind) < static_cast<int>(b->kind);
    return a->name < b->name;
  });
  return out;
}

namespace {

size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t sub = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

}  // namespace

std::vector<std::string> ScenarioRegistry::suggestions(const std::string& name) const {
  std::vector<std::pair<size_t, std::string>> scored;
  for (const Scenario& s : scenarios_) {
    size_t d = edit_distance(name, s.name);
    if (d <= std::max<size_t>(2, name.size() / 3) || s.name.find(name) != std::string::npos)
      scored.emplace_back(d, s.name);
  }
  std::sort(scored.begin(), scored.end());
  std::vector<std::string> out;
  for (size_t i = 0; i < scored.size() && i < 3; ++i) out.push_back(scored[i].second);
  return out;
}

ScenarioRegistrar::ScenarioRegistrar(std::string name, ScenarioKind kind,
                                     std::string description,
                                     std::function<int(const ScenarioOptions&)> run) {
  ScenarioRegistry::instance().add(
      Scenario{std::move(name), kind, std::move(description), std::move(run), {}, {}});
}

ScenarioRegistrar::ScenarioRegistrar(std::string name, ScenarioKind kind,
                                     std::string description,
                                     std::function<int(const ScenarioOptions&)> run,
                                     std::function<bc::Program()> program,
                                     std::string entry) {
  ScenarioRegistry::instance().add(Scenario{std::move(name), kind, std::move(description),
                                            std::move(run), std::move(program),
                                            std::move(entry)});
}

bool maybe_write_json(const ScenarioOptions& opt, const std::string& bench_name,
                      const Table& t) {
  if (opt.json_path.empty()) return true;
  std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "sodctl: cannot write %s\n", opt.json_path.c_str());
    return false;
  }
  std::string body = t.json(bench_name);
  size_t n = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (n != body.size()) {
    std::fprintf(stderr, "sodctl: short write to %s\n", opt.json_path.c_str());
    return false;
  }
  std::printf("wrote %s\n", opt.json_path.c_str());
  return true;
}

namespace {

/// One diagnostic per malformed numeric flag: the offending token quoted
/// exactly once, followed by the accepted range (regression: the elastic
/// scenario's --churn error used to repeat the raw argv token).
void bad_value(const char* flag, const std::string& token, const char* range) {
  std::fprintf(stderr, "sodctl: bad %s value '%s' (expected %s)\n", flag, token.c_str(),
               range);
}

/// Parses args[i+1] as an integer in [lo, hi] into `out`; advances `i`.
bool parse_int_flag(const std::vector<std::string>& args, size_t& i, const char* flag,
                    long lo, long hi, const char* range, int& out) {
  if (i + 1 >= args.size()) {
    std::fprintf(stderr, "sodctl: %s requires a value\n", flag);
    return false;
  }
  char* end = nullptr;
  long v = std::strtol(args[++i].c_str(), &end, 10);
  if (end == args[i].c_str() || *end != '\0' || v < lo || v > hi) {
    bad_value(flag, args[i], range);
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

}  // namespace

cluster::DispatchOptions dispatch_options(const ScenarioOptions& opt) {
  return {.checkpoint_every = static_cast<uint64_t>(opt.checkpoint_every),
          .speculate = opt.speculate};
}

bool parse_scenario_flags(const std::vector<std::string>& args, ScenarioOptions& opt,
                          const std::string& default_json_name) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--nodes") {
      if (!parse_int_flag(args, i, "--nodes", 1, 1024, "an integer in 1..1024", opt.nodes))
        return false;
    } else if (a == "--fail-at") {
      if (!parse_int_flag(args, i, "--fail-at", 0, 1000000,
                          "a segment-completion count in 0..1000000", opt.fail_at))
        return false;
    } else if (a == "--autoscale") {
      opt.autoscale = true;
    } else if (a == "--checkpoint-every") {
      int every = 0;
      if (!parse_int_flag(args, i, "--checkpoint-every", 1, 1000000000,
                          "an instruction count in 1..1000000000", every))
        return false;
      opt.checkpoint_every = every;
    } else if (a == "--speculate") {
      opt.speculate = true;
    } else if (a == "--threads") {
      if (!parse_int_flag(args, i, "--threads", 1, 256, "a thread count in 1..256",
                          opt.threads))
        return false;
      opt.wallclock = true;
    } else if (a == "--wallclock") {
      opt.wallclock = true;
    } else if (a == "--home-shards") {
      if (!parse_int_flag(args, i, "--home-shards", 1, 64, "a shard count in 1..64",
                          opt.home_shards))
        return false;
    } else if (a == "--policy") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "sodctl: --policy requires a value\n");
        return false;
      }
      opt.policy = args[++i];
      if (!cluster::parse_policy(opt.policy)) {
        std::fprintf(stderr,
                     "sodctl: unknown --policy '%s' (round-robin, least-loaded, "
                     "locality-aware, learned)\n",
                     opt.policy.c_str());
        return false;
      }
    } else if (a == "--churn") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "sodctl: --churn requires a value\n");
        return false;
      }
      char* end = nullptr;
      double v = std::strtod(args[++i].c_str(), &end);
      if (end == args[i].c_str() || *end != '\0' || !std::isfinite(v) || v < 0.0 || v > 1.0) {
        bad_value("--churn", args[i], "a rate in 0..1");
        return false;
      }
      opt.churn = v;
    } else if (a == "--sessions") {
      if (!parse_int_flag(args, i, "--sessions", 1, 1000000,
                          "a session count in 1..1000000", opt.sessions))
        return false;
    } else if (a == "--arrival") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "sodctl: --arrival requires a value\n");
        return false;
      }
      opt.arrival = args[++i];
      if (!cluster::parse_arrival(opt.arrival)) {
        std::fprintf(stderr, "sodctl: unknown --arrival '%s' (poisson, onoff, soak)\n",
                     opt.arrival.c_str());
        return false;
      }
    } else if (a == "--seed") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "sodctl: --seed requires a value\n");
        return false;
      }
      char* end = nullptr;
      long long v = std::strtoll(args[++i].c_str(), &end, 10);
      if (end == args[i].c_str() || *end != '\0' || v < 0) {
        bad_value("--seed", args[i], "a non-negative integer");
        return false;
      }
      opt.seed = v;
    } else if (a == "--json") {
      // Accept both `--json out.json` and bare `--json` (default name).
      if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
        opt.json_path = args[++i];
      } else if (!default_json_name.empty()) {
        opt.json_path = default_json_name;
      } else {
        std::fprintf(stderr, "sodctl: --json requires a path here\n");
        return false;
      }
    } else {
      opt.extra.push_back(a);
    }
  }
  if (opt.speculate && opt.checkpoint_every == 0) {
    std::fprintf(stderr,
                 "sodctl: --speculate requires --checkpoint-every N (backups launch from "
                 "the newest checkpoint)\n");
    return false;
  }
  return true;
}

}  // namespace sod::cli
