// Scenario registry and flag parsing: unknown names fail with suggestions,
// flags parse and validate, and the cluster apps run on both engines.
// Every scenario's smoke output is pinned by the golden cases
// (tests/golden/cases.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <string_view>

#include "cli/scenario.h"
#include "support/table.h"

namespace sod::cli {
namespace {

/// The count printed right before `label` in `line` ("3 checkpoint(s)"
/// with label " checkpoint(s)"); -1 when the label is missing or no digits
/// precede it.
int count_before(const std::string& line, std::string_view label) {
  const size_t at = line.find(label);
  if (at == std::string::npos) return -1;
  size_t from = at;
  while (from > 0 && std::isdigit(static_cast<unsigned char>(line[from - 1])) != 0) --from;
  return from == at ? -1 : std::stoi(line.substr(from, at - from));
}

TEST(Registry, UnknownNameFailsWithSuggestions) {
  EXPECT_EQ(ScenarioRegistry::instance().find("no_such_scenario"), nullptr);
  auto near = ScenarioRegistry::instance().suggestions("tabel2");
  ASSERT_FALSE(near.empty());
  EXPECT_NE(std::find(near.begin(), near.end(), "table2"), near.end());
}

TEST(Flags, ParsesSmokeNodesJsonAndPassthrough) {
  ScenarioOptions opt;
  ASSERT_TRUE(parse_scenario_flags({"--smoke", "--nodes", "4", "--json", "out.json", "--x"},
                                   opt, "BENCH_t.json"));
  EXPECT_TRUE(opt.smoke);
  EXPECT_EQ(opt.nodes, 4);
  EXPECT_EQ(opt.json_path, "out.json");
  ASSERT_EQ(opt.extra.size(), 1u);
  EXPECT_EQ(opt.extra[0], "--x");
}

TEST(Flags, BareJsonUsesDefaultName) {
  ScenarioOptions opt;
  ASSERT_TRUE(parse_scenario_flags({"--json"}, opt, "BENCH_table2.json"));
  EXPECT_EQ(opt.json_path, "BENCH_table2.json");
}

TEST(Flags, ParsesAndValidatesPolicy) {
  ScenarioOptions opt;
  ASSERT_TRUE(parse_scenario_flags({"--policy", "least-loaded"}, opt, ""));
  EXPECT_EQ(opt.policy, "least-loaded");
  ASSERT_TRUE(parse_scenario_flags({"--policy", "locality_aware"}, opt, ""));
  EXPECT_EQ(opt.policy, "locality_aware");
  ASSERT_TRUE(parse_scenario_flags({"--policy", "learned"}, opt, ""));
  EXPECT_EQ(opt.policy, "learned");
  EXPECT_FALSE(parse_scenario_flags({"--policy"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--policy", "fastest"}, opt, ""));
}

TEST(Flags, ParsesAndValidatesChurn) {
  ScenarioOptions opt;
  EXPECT_EQ(opt.churn, -1.0);  // unset = scenario default
  ASSERT_TRUE(parse_scenario_flags({"--churn", "0.2"}, opt, ""));
  EXPECT_DOUBLE_EQ(opt.churn, 0.2);
  ASSERT_TRUE(parse_scenario_flags({"--churn", "0"}, opt, ""));
  EXPECT_DOUBLE_EQ(opt.churn, 0.0);
  ASSERT_TRUE(parse_scenario_flags({"--churn", "1"}, opt, ""));
  EXPECT_DOUBLE_EQ(opt.churn, 1.0);
  EXPECT_FALSE(parse_scenario_flags({"--churn"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--churn", "1.5"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--churn", "-0.1"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--churn", "lots"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--churn", "nan"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--churn", "inf"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--churn", ""}, opt, ""));
}

TEST(Flags, ParsesFailAtAndAutoscale) {
  ScenarioOptions opt;
  EXPECT_EQ(opt.fail_at, -1);  // unset = no injected failure
  EXPECT_FALSE(opt.autoscale);
  ASSERT_TRUE(parse_scenario_flags({"--fail-at", "5", "--autoscale"}, opt, ""));
  EXPECT_EQ(opt.fail_at, 5);
  EXPECT_TRUE(opt.autoscale);
  ASSERT_TRUE(parse_scenario_flags({"--fail-at", "0"}, opt, ""));
  EXPECT_EQ(opt.fail_at, 0);
  EXPECT_FALSE(parse_scenario_flags({"--fail-at"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--fail-at", "-1"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--fail-at", "soon"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--fail-at", ""}, opt, ""));
}

TEST(Flags, ParsesCheckpointEveryAndSpeculate) {
  ScenarioOptions opt;
  EXPECT_EQ(opt.checkpoint_every, 0);  // unset = checkpointing off
  EXPECT_FALSE(opt.speculate);
  ASSERT_TRUE(parse_scenario_flags({"--checkpoint-every", "20000", "--speculate"}, opt, ""));
  EXPECT_EQ(opt.checkpoint_every, 20000);
  EXPECT_TRUE(opt.speculate);
  ASSERT_TRUE(parse_scenario_flags({"--checkpoint-every", "1"}, opt, ""));
  EXPECT_EQ(opt.checkpoint_every, 1);
  EXPECT_FALSE(parse_scenario_flags({"--checkpoint-every"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--checkpoint-every", "0"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--checkpoint-every", "-5"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--checkpoint-every", "often"}, opt, ""));
}

TEST(Flags, ParsesLoadTraceFlags) {
  ScenarioOptions opt;
  EXPECT_EQ(opt.sessions, 0);  // unset = scenario default
  EXPECT_TRUE(opt.arrival.empty());
  EXPECT_EQ(opt.seed, -1);  // unset = scenario default seed
  ASSERT_TRUE(parse_scenario_flags(
      {"--sessions", "100", "--arrival", "onoff", "--seed", "42"}, opt, ""));
  EXPECT_EQ(opt.sessions, 100);
  EXPECT_EQ(opt.arrival, "onoff");
  EXPECT_EQ(opt.seed, 42);
  EXPECT_FALSE(parse_scenario_flags({"--sessions", "0"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--sessions"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--arrival", "bursty"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--seed", "-3"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--seed", "abc"}, opt, ""));
}

TEST(Flags, ParsesThreadsAndWallclock) {
  ScenarioOptions opt;
  EXPECT_EQ(opt.threads, 0);  // unset = one pool thread per worker
  EXPECT_FALSE(opt.wallclock);
  ASSERT_TRUE(parse_scenario_flags({"--wallclock"}, opt, ""));
  EXPECT_TRUE(opt.wallclock);
  EXPECT_EQ(opt.threads, 0);
  ScenarioOptions opt2;
  ASSERT_TRUE(parse_scenario_flags({"--threads", "4"}, opt2, ""));
  EXPECT_EQ(opt2.threads, 4);
  EXPECT_TRUE(opt2.wallclock);  // --threads implies --wallclock
  EXPECT_FALSE(parse_scenario_flags({"--threads"}, opt2, ""));
  EXPECT_FALSE(parse_scenario_flags({"--threads", "0"}, opt2, ""));
  EXPECT_FALSE(parse_scenario_flags({"--threads", "257"}, opt2, ""));
  EXPECT_FALSE(parse_scenario_flags({"--threads", "many"}, opt2, ""));
}

TEST(Flags, ParsesAndValidatesHomeShards) {
  ScenarioOptions opt;
  EXPECT_EQ(opt.home_shards, 0);  // unset = scenario default (1, unsharded)
  ASSERT_TRUE(parse_scenario_flags({"--home-shards", "1"}, opt, ""));
  EXPECT_EQ(opt.home_shards, 1);
  ASSERT_TRUE(parse_scenario_flags({"--home-shards", "64"}, opt, ""));
  EXPECT_EQ(opt.home_shards, 64);
  EXPECT_FALSE(parse_scenario_flags({"--home-shards"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--home-shards", "0"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--home-shards", "65"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--home-shards", "four"}, opt, ""));
  // The shared one-token diagnostic: the offending value quoted exactly
  // once, followed by the accepted range.
  ::testing::internal::CaptureStderr();
  ScenarioOptions opt2;
  EXPECT_FALSE(parse_scenario_flags({"--home-shards", "128"}, opt2, ""));
  std::string err = ::testing::internal::GetCapturedStderr();
  size_t occurrences = 0;
  for (size_t pos = 0; (pos = err.find("128", pos)) != std::string::npos; ++pos)
    ++occurrences;
  EXPECT_EQ(occurrences, 1u) << err;
  EXPECT_NE(err.find("1..64"), std::string::npos) << err;
}

// The cluster apps must give the same answer on the wall-clock pool as on
// the virtual-time scheduler (the acceptance path of
// `sodctl run fib --nodes 4 --threads 4`).
TEST(ClusterApps, FibRunsOnTheWallClockEngine) {
  const Scenario* s = ScenarioRegistry::instance().find("fib");
  ASSERT_NE(s, nullptr);
  for (int threads : {1, 4}) {
    ScenarioOptions opt;
    opt.nodes = 4;
    opt.threads = threads;
    opt.wallclock = true;
    EXPECT_EQ(s->run(opt), 0) << "threads=" << threads;
  }
  // Sharded home state rides the same path (`--home-shards 4 --threads 4`)
  // and must not change the app's answer.
  ScenarioOptions opt;
  opt.nodes = 4;
  opt.threads = 4;
  opt.wallclock = true;
  opt.home_shards = 4;
  EXPECT_EQ(s->run(opt), 0) << "home_shards=4";

  // Both engines are one Scheduler, so --checkpoint-every and --fail-at
  // take effect on either and print the same virtual per-segment lines
  // (`fib --nodes 4 --checkpoint-every 20000 --fail-at 2 [--threads 3]`).
  std::string segment_lines[2];
  for (int threads : {0, 3}) {
    ScenarioOptions ck;
    ck.nodes = 4;
    ck.checkpoint_every = 20000;
    ck.fail_at = 2;
    ck.threads = threads;
    ck.wallclock = threads > 0;
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(s->run(ck), 0) << "threads=" << threads;
    std::istringstream out(::testing::internal::GetCapturedStdout());
    std::string summary;
    for (std::string line; std::getline(out, line);) {
      if (line.find("segment [") != std::string::npos) segment_lines[threads > 0] += line + "\n";
      if (line.rfind("Fib(", 0) == 0) summary = line;
    }
    EXPECT_NE(summary.find("= 46368 "), std::string::npos) << summary;
    EXPECT_GE(count_before(summary, " checkpoint(s)"), 1) << summary;
    EXPECT_GE(count_before(summary, " worker(s) lost"), 1) << summary;
  }
  EXPECT_FALSE(segment_lines[0].empty());
  EXPECT_EQ(segment_lines[0], segment_lines[1]);

  // The app driver has no standby pool: --autoscale is a usage error, not
  // a silently dropped flag.
  ScenarioOptions scale;
  scale.autoscale = true;
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(s->run(scale), 2);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("--autoscale"), std::string::npos);
}

// Speculative backups launch from the newest checkpoint, so --speculate
// without a checkpoint cadence is a configuration error, not a no-op.
TEST(Flags, SpeculateRequiresCheckpointEvery) {
  ScenarioOptions opt;
  EXPECT_FALSE(parse_scenario_flags({"--speculate"}, opt, ""));
  ::testing::internal::CaptureStderr();
  ScenarioOptions opt2;
  EXPECT_FALSE(parse_scenario_flags({"--speculate"}, opt2, ""));
  std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("--checkpoint-every"), std::string::npos) << err;
}

// Regression: the --churn diagnostic used to repeat the raw argv token;
// it must quote the token exactly once and name the accepted range.
TEST(Flags, BadChurnDiagnosticQuotesTokenOnceWithRange) {
  ScenarioOptions opt;
  ::testing::internal::CaptureStderr();
  EXPECT_FALSE(parse_scenario_flags({"--churn", "2.5x"}, opt, ""));
  std::string err = ::testing::internal::GetCapturedStderr();
  size_t occurrences = 0;
  for (size_t pos = 0; (pos = err.find("2.5x", pos)) != std::string::npos; ++pos)
    ++occurrences;
  EXPECT_EQ(occurrences, 1u) << err;
  EXPECT_NE(err.find("0..1"), std::string::npos) << err;
}

TEST(Flags, BadNodesValueRejected) {
  ScenarioOptions opt;
  EXPECT_FALSE(parse_scenario_flags({"--nodes", "zero"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--nodes"}, opt, ""));
  EXPECT_FALSE(parse_scenario_flags({"--nodes", "0"}, opt, ""));
}

TEST(Json, TableEmissionIsSchemaStable) {
  Table t({"App", "x"});
  t.row({"Fib \"quoted\"", "1.5"});
  std::string j = t.json("table2");
  EXPECT_EQ(j,
            "{\"bench\": \"table2\", \"schema_version\": 1, "
            "\"columns\": [\"App\", \"x\"], "
            "\"rows\": [[\"Fib \\\"quoted\\\"\", \"1.5\"]]}\n");
}

// The cluster apps must run green under every placement policy (the
// acceptance path of `sodctl run fib --nodes 4 --policy least-loaded`).
TEST(ClusterApps, FibRunsUnderEveryPolicy) {
  const Scenario* s = ScenarioRegistry::instance().find("fib");
  ASSERT_NE(s, nullptr);
  for (const char* policy : {"round-robin", "least-loaded", "locality-aware"}) {
    ScenarioOptions opt;
    opt.nodes = 4;
    opt.policy = policy;
    EXPECT_EQ(s->run(opt), 0) << policy;
  }
}

}  // namespace
}  // namespace sod::cli
