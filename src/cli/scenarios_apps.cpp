// App scenarios — the Table I guest apps plus the Section IV workloads,
// registered so `sodctl run fib --nodes 4 --policy least-loaded` exercises
// a real load-aware cluster dispatch without a dedicated main().
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "cli/scenario.h"
#include "cluster/drive.h"
#include "cluster/placement.h"
#include "prep/prep.h"
#include "sod/migrate.h"

namespace {

using sod::apps::AppSpec;
using sod::bc::Value;
using sod::cli::ScenarioKind;
using sod::cli::ScenarioOptions;
using sod::mig::SodNode;

/// Shared cluster driver for the Table I apps: runs one app at bench scale
/// on a `opt.nodes`-node cluster (default 2).  Each time the recursion
/// re-reaches the trigger depth, the top of the stack is split into
/// single-frame segments that are placed by the selected policy and kept
/// in flight on different workers concurrently (Fig. 1(c)); home then
/// finishes the residual computation and the result is checked against the
/// app's expected value.  One Scheduler drives every round — a
/// WallClockEngine under --wallclock / --threads N — so --checkpoint-every,
/// --speculate and --fail-at apply on both engines and the printed virtual
/// instants are bit-identical either way.
int run_table1_app(const AppSpec& spec, const ScenarioOptions& opt) {
  const char* name = spec.name.c_str();
  int nodes = opt.nodes > 0 ? opt.nodes : 2;
  auto kind = sod::cluster::parse_policy(opt.policy.empty() ? "round-robin" : opt.policy);
  if (!kind) {
    std::fprintf(stderr, "%s: unknown placement policy '%s'\n", name, opt.policy.c_str());
    return 2;
  }
  // No standby pool and no churn schedule: these flags would be dropped.
  if (opt.churn >= 0 || opt.autoscale) {
    std::fprintf(stderr, "%s: --churn and --autoscale apply to the elastic scenario only\n",
                 name);
    return 2;
  }
  if (opt.fail_at >= 0 && nodes < 3) {
    std::fprintf(stderr, "%s: --fail-at needs a surviving worker (--nodes 3 or more)\n", name);
    return 2;
  }
  sod::bc::Program p = spec.build();
  sod::prep::preprocess_program(p);

  sod::cluster::Cluster c(p);
  c.add_uniform_workers(nodes - 1);
  if (opt.home_shards > 0) c.set_home_shards(opt.home_shards);
  auto policy = sod::cluster::make_policy(*kind);
  std::optional<sod::cluster::WallClockOptions> wopt;
  if (opt.wallclock) wopt = sod::cluster::WallClockOptions{.threads = opt.threads};
  auto engine =
      sod::cluster::make_engine(c, *policy, sod::cli::dispatch_options(opt), wopt);
  auto* wall = dynamic_cast<sod::cluster::WallClockEngine*>(engine.get());
  sod::cluster::Scheduler& sched = *engine;
  if (opt.fail_at >= 0) sched.fail_after(opt.fail_at);

  uint16_t trigger = p.find_method(spec.trigger_method);
  int depth = std::min(spec.paper_depth, 4);
  int tid = c.home().vm().spawn(p.find_method(spec.entry), spec.bench_args);

  // One concurrent dispatch round per pause until every worker has been
  // offered a segment (see spread_plan).
  std::vector<int> plan = sod::cluster::spread_plan(c.size(), depth);
  sod::cluster::Tally tally = sod::cluster::run_rounds(
      sched, tid, trigger, depth, plan, [&](int r, const sod::cluster::Round& round) {
        for (const auto& pl : round.out.placements)
          std::printf("round %d: segment [%d,%d) -> %s, restored %.3f ms, done %.3f ms\n", r,
                      pl.spec.depth_lo, pl.spec.depth_hi, pl.worker_name.c_str(),
                      pl.restored_at.ms(), pl.completed_at.ms());
        if (round.out.faults > 0) std::printf("round %d: %d object faults\n", r, round.out.faults);
        if (wall) std::printf("round %d: %.3f ms wall\n", r, wall->last_round_wall_ms());
      });
  sod::cluster::Finish fin = sod::cluster::finish(sched, tid, spec.bench_expected);
  if (!fin.done) {
    std::fprintf(stderr, "%s: guest did not run to completion\n", name);
    return 1;
  }
  if (!fin.exactly_once) {
    std::fprintf(stderr, "%s: event log violates exactly-once\n", name);
    return 1;
  }
  std::string mode = wall ? " [wall-clock, " +
                                std::to_string(opt.threads > 0 ? opt.threads : c.size()) +
                                " thread(s)]"
                          : "";
  std::printf("%s(%s) = %lld over %d node(s), %d segment(s) in %d round(s) [%s]%s, "
              "%d checkpoint(s), %d worker(s) lost, %d re-dispatch(es), %.3f ms virtual\n",
              name, std::to_string(spec.bench_args[0].as_i64()).c_str(),
              static_cast<long long>(fin.result), nodes, tally.segments, tally.rounds,
              sod::cluster::policy_name(*kind), mode.c_str(), sched.checkpoints(),
              sched.workers_lost(), sched.redispatches(), c.home_now().ms());
  // FFT/TSP use INT64_MIN as "no closed-form expectation" (the tests check
  // them against host-side references instead).
  if (!fin.ok) {
    std::fprintf(stderr, "%s: expected %lld\n", name,
                 static_cast<long long>(spec.bench_expected));
    return 1;
  }
  return 0;
}

sod::sfs::FileStore doc_store(int nfiles, size_t bytes) {
  sod::sfs::FileStore store;
  for (int i = 0; i < nfiles; ++i) {
    sod::sfs::SimFile f;
    f.name = "doc" + std::to_string(i);
    f.size = bytes;
    f.seed = 42 + static_cast<uint64_t>(i);
    f.needle = "sodneedle";
    f.needle_at = bytes / 2 + static_cast<size_t>(i);
    store.add(f);
  }
  return store;
}

int run_docsearch(const ScenarioOptions& opt) {
  int nfiles = opt.smoke ? 1 : 3;
  size_t bytes = opt.smoke ? (64 << 10) : (256 << 10);
  sod::bc::Program p = sod::apps::build_docsearch();
  sod::prep::preprocess_program(p);
  sod::sfs::FileStore store = doc_store(nfiles, bytes);
  SodNode node("n", p, {});
  sod::mig::ObjectManager om;
  om.install(node);
  sod::sfs::MountedFs mount(&store, sod::sfs::MountSpeed::local_disk());
  mount.install(node.registry());
  Value hits = node.call_guest("Search.main",
                               std::vector<Value>{Value::of_i64(nfiles)});
  std::printf("docsearch: %lld/%d needles found, %zu bytes read, %.3f ms virtual\n",
              static_cast<long long>(hits.as_i64()), nfiles, mount.bytes_read(),
              node.node().clock.now().ms());
  return hits.as_i64() == nfiles ? 0 : 1;
}

int run_photoshare(const ScenarioOptions& opt) {
  int nphotos = opt.smoke ? 2 : 5;
  sod::bc::Program p = sod::apps::build_photoshare();
  sod::prep::preprocess_program(p);
  sod::sfs::FileStore photos;
  for (int i = 0; i < nphotos; ++i) {
    sod::sfs::SimFile f;
    f.name = "IMG_" + std::to_string(i) + ".jpg";
    f.size = 100 << 10;
    f.seed = 99 + static_cast<uint64_t>(i);
    photos.add(f);
  }
  SodNode node("n", p, {});
  sod::mig::ObjectManager om;
  om.install(node);
  sod::sfs::MountedFs mount(&photos, sod::sfs::MountSpeed::local_disk());
  mount.install(node.registry());
  int64_t count =
      node.vm().call("Photo.count_photos", std::vector<Value>{Value::of_i64(10)}).as_i64();
  int64_t size =
      node.vm().call("Photo.photo_size", std::vector<Value>{Value::of_i64(1)}).as_i64();
  std::printf("photoshare: %lld photos listed, photo #1 is %lld bytes\n",
              static_cast<long long>(count), static_cast<long long>(size));
  return count == nphotos && size == (100 << 10) ? 0 : 1;
}

int run_fib(const ScenarioOptions& opt) { return run_table1_app(sod::apps::fib_app(), opt); }
int run_nqueens(const ScenarioOptions& opt) {
  return run_table1_app(sod::apps::nqueens_app(), opt);
}
int run_fft(const ScenarioOptions& opt) { return run_table1_app(sod::apps::fft_app(), opt); }
int run_tsp(const ScenarioOptions& opt) { return run_table1_app(sod::apps::tsp_app(), opt); }

sod::bc::Program prog_fib() { return sod::apps::fib_app().build(); }
sod::bc::Program prog_nqueens() { return sod::apps::nqueens_app().build(); }
sod::bc::Program prog_fft() { return sod::apps::fft_app().build(); }
sod::bc::Program prog_tsp() { return sod::apps::tsp_app().build(); }
sod::bc::Program prog_docsearch() { return sod::apps::build_docsearch(); }
sod::bc::Program prog_photoshare() { return sod::apps::build_photoshare(); }

SOD_REGISTER_SCENARIO_PROGRAM(
    "fib", ScenarioKind::App,
    "recursive Fibonacci with policy-placed concurrent segment offloads", run_fib, prog_fib,
    "Fib.main");
SOD_REGISTER_SCENARIO_PROGRAM(
    "nqueens", ScenarioKind::App,
    "n-queens backtracking with policy-placed concurrent segment offloads", run_nqueens,
    prog_nqueens, "NQ.main");
SOD_REGISTER_SCENARIO_PROGRAM(
    "fft", ScenarioKind::App,
    "2-D FFT (large statics) with policy-placed concurrent segment offloads", run_fft,
    prog_fft, "FFT.main");
SOD_REGISTER_SCENARIO_PROGRAM(
    "tsp", ScenarioKind::App,
    "TSP branch-and-bound with policy-placed concurrent segment offloads", run_tsp, prog_tsp,
    "TSP.main");
SOD_REGISTER_SCENARIO_PROGRAM("docsearch", ScenarioKind::App,
                              "document search over the simulated filesystem", run_docsearch,
                              prog_docsearch, "Search.main");
// Photoshare has two host-driven entry points (count_photos, photo_size),
// so the analyzer roots reachability at every defined method.
SOD_REGISTER_SCENARIO_PROGRAM("photoshare", ScenarioKind::App,
                              "photo-share listing and fetch over the simulated device fs",
                              run_photoshare, prog_photoshare, "");

}  // namespace
