// Checkpoint-resume and speculation, ablated on the cluster scheduler's
// virtual clock.
//
// Recovery (3 uniform Xeons, least_loaded, one worker killed mid-segment
// at a checkpoint boundary — both modes pay the same checkpoint cadence,
// only the recovery policy differs):
//
//   restart_from_capture   the lost attempt re-executes from the state
//                          captured at round start; all partial work is
//                          discarded
//   resume_from_checkpoint the lost attempt resumes from the newest
//                          checkpoint its task keeps; only the work
//                          since that checkpoint is lost
//
// Speculation (2 Xeons + wifi device, least_loaded parks one segment per
// round on the 25x-slower device):
//
//   no_speculation         the device segment stalls its round, paying
//                          25x for every checkpoint capture
//   speculation            the policy's span model flags the device
//                          attempt as a straggler, which then takes no
//                          more checkpoints and runs on to completion
//
// The bench fails unless resume beats restart on mean completion, unless
// speculation beats no-speculation on the heterogeneous topology, and
// unless every mode's trace passes the attempt-aware exactly-once check.
#include <cstdio>
#include <string>
#include <vector>

#include "apps/apps.h"
#include "cli/scenario.h"
#include "cluster/drive.h"
#include "cluster/placement.h"
#include "prep/prep.h"
#include "support/table.h"

using namespace sod;

namespace {

constexpr int kSegmentsPerRound = 3;
/// Default checkpoint cadence in guest instructions: a handful of
/// checkpoints per Xeon-speed segment execution of the Fib workload.
constexpr uint64_t kDefaultCheckpointEvery = 20000;

enum class Mode { RestartFromCapture, ResumeFromCheckpoint, NoSpeculation, Speculation };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::RestartFromCapture: return "restart_from_capture";
    case Mode::ResumeFromCheckpoint: return "resume_from_checkpoint";
    case Mode::NoSpeculation: return "no_speculation";
    case Mode::Speculation: return "speculation";
  }
  return "?";
}

bool hetero_mode(Mode m) { return m == Mode::NoSpeculation || m == Mode::Speculation; }

struct ModeResult {
  cluster::Tally rounds;
  cluster::Finish fin;
  int checkpoints = 0;
  size_t checkpoint_bytes = 0;
  int redispatched = 0;
  int resumed = 0;
  double total_ms = 0;
};

ModeResult run_mode(Mode mode, int rounds, uint64_t every, int fail_at_ckpt) {
  const apps::AppSpec spec = apps::fib_app();
  bc::Program p = spec.build();
  prep::preprocess_program(p);

  cluster::Cluster c(p);
  if (hetero_mode(mode)) {
    for (const cluster::WorkerSpec& ws : cluster::straggler_topology()) c.add_worker(ws);
  } else {
    c.add_uniform_workers(3);
  }

  auto policy = cluster::make_policy(cluster::PolicyKind::LeastLoaded);
  cluster::DispatchOptions dopt;
  dopt.checkpoint_every = every;
  dopt.speculate = mode == Mode::Speculation;
  dopt.resume_from_checkpoint = mode != Mode::RestartFromCapture;
  cluster::Scheduler sched(c, *policy, dopt);
  // Recovery modes: kill the worker that takes the fail_at_ckpt-th
  // checkpoint — by construction the worker executing a segment mid-round,
  // the case where resume and restart genuinely differ.
  if (!hetero_mode(mode)) sched.fail_after_checkpoints(fail_at_ckpt);

  uint16_t trigger = p.find_method(spec.trigger_method);
  int tid = c.home().vm().spawn(p.find_method(spec.entry), spec.bench_args);

  ModeResult res;
  std::vector<int> plan(static_cast<size_t>(rounds), kSegmentsPerRound);
  res.rounds = cluster::run_rounds(sched, tid, trigger, kSegmentsPerRound + 4, plan);
  res.fin = cluster::finish(sched, tid, spec.bench_expected);
  res.redispatched = sched.redispatches();
  res.resumed = sched.resumes();
  res.checkpoints = sched.checkpoints();
  res.checkpoint_bytes = sched.checkpoint_bytes();
  res.total_ms = c.home_now().ms();
  return res;
}

int run(const cli::ScenarioOptions& opt) {
  int rounds = opt.smoke ? 4 : 8;
  uint64_t every = opt.checkpoint_every > 0 ? static_cast<uint64_t>(opt.checkpoint_every)
                                            : kDefaultCheckpointEvery;
  int fail_at_ckpt = 3;
  std::printf(
      "=== checkpoint: resume vs restart (3x Xeon, worker killed at checkpoint %d) and "
      "speculation vs none (2x Xeon + wifi device), every %llu instr ===\n",
      fail_at_ckpt, static_cast<unsigned long long>(every));

  Table t({"mode", "segments", "checkpoints", "ckpt KB", "redispatched", "resumed",
           "mean completion ms", "total ms"});
  bool all_ok = true;
  double restart_mean = -1;
  double resume_mean = -1;
  double nospec_mean = -1;
  double spec_mean = -1;
  for (Mode mode : {Mode::RestartFromCapture, Mode::ResumeFromCheckpoint, Mode::NoSpeculation,
                    Mode::Speculation}) {
    ModeResult r = run_mode(mode, rounds, every, fail_at_ckpt);
    all_ok = all_ok && r.fin.ok;
    if (!r.fin.exactly_once) {
      std::fprintf(stderr, "checkpoint: %s trace violates attempt-aware exactly-once\n",
                   mode_name(mode));
      all_ok = false;
    }
    if (r.checkpoints == 0) {
      std::fprintf(stderr, "checkpoint: %s run took no checkpoints (cadence too coarse?)\n",
                   mode_name(mode));
      all_ok = false;
    }
    if (!hetero_mode(mode) && r.redispatched == 0) {
      std::fprintf(stderr, "checkpoint: %s run never lost in-flight work\n", mode_name(mode));
      all_ok = false;
    }
    if (mode == Mode::ResumeFromCheckpoint && r.resumed == 0) {
      std::fprintf(stderr, "checkpoint: resume mode never resumed from a checkpoint\n");
      all_ok = false;
    }
    t.row({mode_name(mode), std::to_string(r.rounds.segments), std::to_string(r.checkpoints),
           fmt("%.1f", static_cast<double>(r.checkpoint_bytes) / 1024.0),
           std::to_string(r.redispatched), std::to_string(r.resumed),
           fmt("%.3f", r.rounds.mean_completion_ms()), fmt("%.3f", r.total_ms)});
    if (mode == Mode::RestartFromCapture) restart_mean = r.rounds.mean_completion_ms();
    if (mode == Mode::ResumeFromCheckpoint) resume_mean = r.rounds.mean_completion_ms();
    if (mode == Mode::NoSpeculation) nospec_mean = r.rounds.mean_completion_ms();
    if (mode == Mode::Speculation) spec_mean = r.rounds.mean_completion_ms();
  }
  t.print();
  if (!all_ok) std::fprintf(stderr, "checkpoint: a mode run failed\n");
  bool resume_wins = resume_mean >= 0 && restart_mean >= 0 && resume_mean < restart_mean;
  if (!resume_wins)
    std::fprintf(stderr,
                 "checkpoint: resume mean completion (%.3f ms) not strictly below "
                 "restart-from-capture (%.3f ms)\n",
                 resume_mean, restart_mean);
  bool spec_wins = spec_mean >= 0 && nospec_mean >= 0 && spec_mean < nospec_mean;
  if (!spec_wins)
    std::fprintf(stderr,
                 "checkpoint: speculation mean completion (%.3f ms) not strictly below "
                 "no-speculation (%.3f ms)\n",
                 spec_mean, nospec_mean);
  return (all_ok && resume_wins && spec_wins && cli::maybe_write_json(opt, "checkpoint", t))
             ? 0
             : 1;
}

SOD_REGISTER_SCENARIO("checkpoint", cli::ScenarioKind::Bench,
                      "checkpoint-resume vs restart-from-capture under worker loss, and "
                      "speculation vs none on a straggler device",
                      run);

}  // namespace
