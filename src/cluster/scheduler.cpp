#include "cluster/scheduler.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/placement.h"

namespace sod::cluster {

namespace {

/// Bitwise value identity: the statics refresh must not re-ship a field
/// whose payload is unchanged (and must still ship e.g. a NaN that was
/// overwritten by a different NaN).
bool same_payload(const bc::Value& a, const bc::Value& b) {
  if (a.tag != b.tag) return false;
  if (a.tag == bc::Ty::F64) return std::bit_cast<int64_t>(a.d) == std::bit_cast<int64_t>(b.d);
  return a.i == b.i;
}

}  // namespace

const char* event_name(EventKind k) {
  switch (k) {
    case EventKind::SegmentDispatched: return "segment_dispatched";
    case EventKind::SegmentCompleted: return "segment_completed";
    case EventKind::SegmentFailed: return "segment_failed";
    case EventKind::WorkerJoined: return "worker_joined";
    case EventKind::WorkerDraining: return "worker_draining";
    case EventKind::WorkerLost: return "worker_lost";
    case EventKind::AutoscaleTick: return "autoscale_tick";
    case EventKind::CheckpointTaken: return "checkpoint_taken";
    case EventKind::SpeculativeDispatched: return "speculative_dispatched";
    case EventKind::AttemptCancelled: return "attempt_cancelled";
    case EventKind::ProgramRejected: return "program_rejected";
  }
  SOD_UNREACHABLE("bad EventKind");
}

size_t refresh_primitive_statics(mig::SodNode& src, mig::SodNode& dst,
                                 const analysis::ProgramFacts* facts,
                                 StaticsRefreshStats* stats) {
  const bc::Program& P = src.program();
  size_t bytes = 0;
  for (const auto& cls : P.classes) {
    if (cls.num_static_slots == 0) continue;
    if (!src.vm().class_loaded(cls.id) || !dst.vm().class_loaded(cls.id)) continue;
    if (facts != nullptr && facts->class_statics_pure(cls.id)) {
      // No reachable PUTSTATIC ever targets a primitive static of this
      // class, and every node initialized it identically from the shared
      // program — the scan below would always find same_payload and ship
      // zero bytes, so skipping it is bit-identical.
      if (stats != nullptr) ++stats->skipped;
      continue;
    }
    if (stats != nullptr) ++stats->scans;
    std::span<const bc::Value> src_vals = src.vm().statics_of(cls.id);
    std::vector<bc::Value> dst_vals(dst.vm().statics_of(cls.id).begin(),
                                    dst.vm().statics_of(cls.id).end());
    bool changed = false;
    for (uint16_t fid : cls.field_ids) {
      const bc::Field& f = P.field(fid);
      if (!f.is_static || f.type == bc::Ty::Ref) continue;
      if (same_payload(dst_vals[f.slot], src_vals[f.slot])) continue;
      dst_vals[f.slot] = src_vals[f.slot];
      bytes += 8;
      changed = true;
    }
    if (changed) dst.vm().overwrite_statics(cls.id, std::move(dst_vals));
  }
  if (stats != nullptr) stats->bytes += bytes;
  return bytes;
}

std::vector<mig::SegmentSpec> split_top_frames(int k) {
  SOD_CHECK(k >= 1, "split of zero frames");
  std::vector<mig::SegmentSpec> specs;
  specs.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) specs.push_back(mig::SegmentSpec{i, i + 1});
  return specs;
}

// ---------------------------------------------------------------- autoscaler

std::optional<Autoscaler::Action> Autoscaler::tick(Cluster& c, bool placement_phase) {
  // Joiners the cluster already drained/lost behind our back (scenario
  // churn, failures) no longer count as scalable capacity.
  while (!joined_.empty() && c.state(joined_.back()) != WorkerState::Active)
    joined_.pop_back();
  double depth = c.mean_queue_depth();
  if (depth > cfg_.high_water && next_standby_ < standby_.size()) {
    int id = c.add_worker(standby_[next_standby_++]);
    joined_.push_back(id);
    ++joins_;
    return Action{EventKind::WorkerJoined, id};
  }
  if (placement_phase && depth < cfg_.low_water && !joined_.empty()) {
    int id = joined_.back();
    joined_.pop_back();
    // Immediate retire when idle (no next-round lag); otherwise the
    // worker finishes its queue and retires on its last completion.
    c.drain_worker(id);
    ++drains_;
    return Action{EventKind::WorkerDraining, id};
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- scheduler

/// Per-segment lifecycle state for the current round.
struct Scheduler::Task {
  mig::SegmentSpec spec{};
  mig::CapturedState cs;
  std::unique_ptr<mig::Segment> seg;
  PlacementRequest req{};
  Placement pl{};
  bool dispatched = false;
  bool completed = false;
  int attempts = 0;
  bc::Value result{};       ///< worker-local result after execution
  bc::Value home_result{};  ///< home-translated result (ref-forwarding entry)
  mig::CheckpointDeltas deltas;  ///< incremental-transfer state of the live attempt
  VDur est_cost{};        ///< queue estimate recorded with the live attempt
  bool resumed = false;   ///< current attempt restored from a checkpoint
  bool partial = false;   ///< winning span did not cover a full execution
  int faults_accum = 0;   ///< faults of attempts that were replaced or lost
};

/// In-flight attempt race of the executing task.  The primary attempt
/// lives in the Task itself (seg/pl); the speculative backup lives here.
/// do_fail consults this so it never re-dispatches an attempt the chunk
/// loop is about to handle itself.
struct Scheduler::Race {
  size_t task = 0;
  std::unique_ptr<mig::Segment> backup_seg;
  Placement backup_pl{};
  VDur backup_est{};
  int backup_id = 0;
  bool backup_live = false;
};

Scheduler::Scheduler(Cluster& c, PlacementPolicy& policy, DispatchOptions opt)
    : c_(&c),
      policy_(&policy),
      opt_(opt),
      tracker_(AttemptTracker::Config{opt.straggler_factor}) {
  // Partition the home-side tables by the cluster's shard map (fixed at
  // construction; set_home_shards must run before the scheduler is built).
  forwards_.configure(&c.shard_map());
  store_.configure(&c.shard_map());
  // Admission verdict is part of the event stream: a program that failed
  // the cluster's static analysis is announced up front, and run() refuses
  // to ship any of its class images.
  if (!c.admission().admitted) emit(EventKind::ProgramRejected, c.home_now(), -1, -1);
}

Scheduler::~Scheduler() = default;

void Scheduler::fail_after(int completions, int worker) {
  SOD_CHECK(completions >= 0, "fail_after with a negative completion count");
  plans_.push_back(FailurePlan{FailurePlan::Trigger::Completions, completions, worker});
}

void Scheduler::fail_after_checkpoints(int checkpoints, int worker) {
  SOD_CHECK(checkpoints >= 1, "fail_after_checkpoints needs a positive checkpoint count");
  plans_.push_back(FailurePlan{FailurePlan::Trigger::Checkpoints, checkpoints, worker});
}

void Scheduler::fail_worker(int worker) { do_fail(worker); }

int Scheduler::add_worker(const WorkerSpec& spec) {
  SOD_CHECK(out_ == nullptr, "add_worker during a dispatch round");
  int id = c_->add_worker(spec);
  emit(EventKind::WorkerJoined, c_->home_now(), -1, id);
  return id;
}

void Scheduler::drain_worker(int id) {
  SOD_CHECK(out_ == nullptr, "drain_worker during a dispatch round");
  c_->drain_worker(id);
  emit(EventKind::WorkerDraining, c_->home_now(), -1, id);
}

void Scheduler::emit(EventKind kind, VDur at, int segment, int worker, int attempt) {
  Event e;
  e.kind = kind;
  e.at = at;
  e.seq = seq_++;
  e.round = round_;
  e.segment = segment;
  e.worker = worker;
  e.attempt = attempt;
  log_.push_back(e);
}

int Scheduler::pick_failure_target() const {
  int best = -1;
  for (int w = 0; w < c_->size(); ++w) {
    if (!c_->accepting(w)) continue;
    if (best < 0 || c_->inflight(w) > c_->inflight(best)) best = w;
  }
  SOD_CHECK(best >= 0, "failure injection on a cluster with no accepting workers");
  return best;
}

void Scheduler::do_fail(int worker) {
  if (worker < 0) worker = pick_failure_target();
  SOD_CHECK(worker >= 0 && worker < c_->size(), "fail of a bad worker id");
  if (c_->state(worker) == WorkerState::Retired || c_->state(worker) == WorkerState::Lost)
    return;
  int dropped = c_->fail_worker(worker);
  ++lost_total_;
  emit(EventKind::WorkerLost, c_->home_now(), -1, worker);
  SOD_CHECK(c_->accepting_size() > 0, "worker failure left no accepting workers");
  if (out_ == nullptr) return;  // between rounds: nothing in flight
  // Re-dispatch every outstanding assignment of the lost worker.  Its
  // queued segments never executed (execution is what retires a queue
  // entry), so re-running each from its captured state keeps every
  // segment executed exactly once; the re-dispatch re-ships the class
  // image when the survivor lacks it, and the delivery-time statics
  // refresh replays earlier write-backs idempotently.  Attempts the chunk
  // loop is racing right now are skipped — it notices the loss at the
  // checkpoint boundary and resumes (or cancels) them itself.
  int requeued = 0;
  int racing = 0;
  for (size_t i = 0; i < tasks_.size(); ++i) {
    Task& t = tasks_[i];
    if (!t.dispatched || t.completed || t.pl.worker != worker) continue;
    if (race_ != nullptr && race_->task == i) {
      ++racing;
      continue;
    }
    emit(EventKind::SegmentFailed, c_->home_now(), static_cast<int>(i), worker, t.attempts);
    dispatch(i);
    ++out_->redispatched;
    ++redispatched_total_;
    ++requeued;
  }
  if (race_ != nullptr && race_->backup_live && race_->backup_pl.worker == worker) ++racing;
  SOD_CHECK(requeued + racing == dropped, "lost-worker queue out of sync with the task table");
}

void Scheduler::process_failure_plans() {
  for (FailurePlan& plan : plans_) {
    if (plan.fired || plan.trigger != FailurePlan::Trigger::Completions) continue;
    if (completed_total_ < plan.at_count) continue;
    plan.fired = true;
    do_fail(plan.worker);
  }
}

void Scheduler::process_checkpoint_plans(int ckpt_worker) {
  for (FailurePlan& plan : plans_) {
    if (plan.fired || plan.trigger != FailurePlan::Trigger::Checkpoints) continue;
    if (store_.total_recorded() < plan.at_count) continue;
    plan.fired = true;
    // A negative target means "the worker that took the triggering
    // checkpoint" — killing the in-flight attempt, the case that
    // separates resume-from-checkpoint from restart-from-capture.
    do_fail(plan.worker >= 0 ? plan.worker : ckpt_worker);
  }
}

void Scheduler::autoscale_tick(bool placement_phase) {
  if (!autoscaler_) return;
  emit(EventKind::AutoscaleTick, c_->home_now(), -1, -1);
  if (auto action = autoscaler_->tick(*c_, placement_phase))
    emit(action->kind, c_->home_now(), -1, action->worker);
}

void Scheduler::dispatch(size_t i) {
  Task& t = tasks_[i];
  mig::SodNode& home = c_->home();
  const mig::CapturedState& cs = t.cs;
  uint16_t entry_cls = home.program().method(cs.frames[0].method).owner;
  t.req.cls = entry_cls;
  t.req.state_bytes = cs.wire_size();
  t.req.class_image_bytes = home.program().class_image(entry_cls).size();
  t.req.msp_state_slots = c_->facts().class_msp_state_slots(entry_cls);
  int w = policy_->choose(*c_, t.req);
  SOD_CHECK(w >= 0 && w < c_->size(), "policy chose an invalid worker");
  SOD_CHECK(c_->accepting(w), "policy chose a non-accepting worker");
  t.est_cost = policy_->estimate(*c_, w, t.req);
  c_->note_assigned(w, t.est_cost);
  mig::SodNode& dst = c_->worker(w);

  if (t.seg) t.faults_accum += t.seg->objman().stats().faults;
  t.deltas = {};
  t.resumed = false;
  t.partial = false;  // a restart re-executes the full segment
  Placement& pl = t.pl;
  pl = Placement{};
  pl.worker = w;
  pl.worker_name = dst.name();
  pl.spec = t.spec;
  pl.cls = entry_cls;
  pl.attempts = ++t.attempts;
  pl.shipped_bytes = t.req.state_bytes;
  if (!dst.class_shipped(entry_cls)) pl.shipped_bytes += t.req.class_image_bytes;

  dst.mark_class_shipped(entry_cls);
  dst.enable_class_fetch(&home, c_->link(w), home_gate());
  // A re-dispatch re-serializes and re-ships from home's current send
  // front: the original copy died with the lost worker.
  VDur serde = home.serde().cost(t.req.state_bytes, static_cast<int>(cs.frames.size()));
  home.node().charge_host(serde);
  sim::deliver(home.node(), dst.node(), c_->link(w), pl.shipped_bytes);
  on_ship(static_cast<int>(i), w, serde, c_->link(w).transfer_time(pl.shipped_bytes));

  t.seg = std::make_unique<mig::Segment>(dst);
  t.seg->objman().set_home_gate(home_gate());
  t.seg->objman().set_shard_map(&c_->shard_map());
  t.seg->objman().bind_home(&home, home_tid_, t.spec.depth_hi, c_->link(w));
  t.seg->restore(cs);
  pl.restored_at = dst.node().clock.now();
  t.dispatched = true;
  emit(EventKind::SegmentDispatched, pl.restored_at, static_cast<int>(i), w, t.attempts);
}

Scheduler::CheckpointRestore Scheduler::restore_from_checkpoint(
    size_t i, int w, const CheckpointStore::Entry& ck) {
  Task& t = tasks_[i];
  mig::SodNode& home = c_->home();
  mig::SodNode& dst = c_->worker(w);
  PlacementRequest req = t.req;
  req.state_bytes = ck.ckpt.state_bytes;
  CheckpointRestore r;
  r.est = policy_->estimate(*c_, w, req);
  c_->note_assigned(w, r.est);
  r.pl.worker = w;
  r.pl.worker_name = dst.name();
  r.pl.spec = t.spec;
  r.pl.cls = t.req.cls;
  r.pl.attempts = ++t.attempts;
  r.pl.shipped_bytes = ck.ckpt.state_bytes;
  if (!dst.class_shipped(t.req.cls)) r.pl.shipped_bytes += t.req.class_image_bytes;

  dst.mark_class_shipped(t.req.cls);
  dst.enable_class_fetch(&home, c_->link(w), home_gate());
  // The checkpoint lives at home: home re-serializes and ships it to the
  // new worker from its current send front.
  VDur serde =
      home.serde().cost(ck.ckpt.state_bytes, static_cast<int>(ck.ckpt.state.frames.size()));
  home.node().charge_host(serde);
  sim::deliver(home.node(), dst.node(), c_->link(w), r.pl.shipped_bytes);
  on_ship(static_cast<int>(i), w, serde, c_->link(w).transfer_time(r.pl.shipped_bytes));

  r.seg = std::make_unique<mig::Segment>(dst);
  r.seg->objman().set_home_gate(home_gate());
  r.seg->objman().set_shard_map(&c_->shard_map());
  r.seg->objman().bind_home(&home, home_tid_, t.spec.depth_hi, c_->link(w));
  r.seg->restore(ck.ckpt.state);
  r.pl.restored_at = dst.node().clock.now();
  // A checkpoint resumes mid-execution: no upstream delivery is pending,
  // the attempt starts executing right after its restore.
  r.pl.executed_at = r.pl.restored_at;
  return r;
}

void Scheduler::resume_dispatch(size_t i, const CheckpointStore::Entry& ck) {
  Task& t = tasks_[i];
  PlacementRequest req = t.req;
  req.state_bytes = ck.ckpt.state_bytes;
  int w = policy_->choose(*c_, req);
  SOD_CHECK(w >= 0 && w < c_->size(), "policy chose an invalid worker");
  SOD_CHECK(c_->accepting(w), "policy chose a non-accepting worker");

  if (t.seg) t.faults_accum += t.seg->objman().stats().faults;
  // The new attempt starts from the checkpoint's heap flush: its delta
  // tracker starts empty against its fresh object-manager maps.
  t.deltas = {};
  t.resumed = true;
  t.partial = true;
  CheckpointRestore r = restore_from_checkpoint(i, w, ck);
  t.seg = std::move(r.seg);
  t.pl = r.pl;
  t.est_cost = r.est;
  ++resumed_total_;
  ++out_->resumed;
  ++out_->redispatched;
  ++redispatched_total_;
  emit(EventKind::SegmentDispatched, t.pl.restored_at, static_cast<int>(i), w, t.attempts);
}

bool Scheduler::launch_backup(size_t i) {
  Task& t = tasks_[i];
  const CheckpointStore::Entry* ck = store_.latest(round_, static_cast<int>(i));
  if (ck == nullptr) return false;
  PlacementRequest req = t.req;
  req.state_bytes = ck->ckpt.state_bytes;
  int w = choose_backup(*policy_, *c_, req, t.pl.worker);
  if (w < 0) return false;
  Race& r = *race_;
  CheckpointRestore cr = restore_from_checkpoint(i, w, *ck);
  r.backup_seg = std::move(cr.seg);
  r.backup_pl = cr.pl;
  r.backup_est = cr.est;
  r.backup_id = t.attempts;
  r.backup_live = true;
  ++speculated_total_;
  ++out_->speculated;
  emit(EventKind::SpeculativeDispatched, r.backup_pl.restored_at, static_cast<int>(i), w,
       r.backup_id);
  return true;
}

bool Scheduler::take_checkpoint(size_t i) {
  Task& t = tasks_[i];
  mig::SodNode& home = c_->home();
  auto ck = mig::checkpoint_segment(*t.seg, home, c_->link(t.pl.worker), t.deltas,
                                  /*apply_at_home=*/opt_.resume_from_checkpoint);
  VDur at = home.node().clock.now();
  ++out_->checkpoints;
  store_.record(round_, static_cast<int>(i), std::move(ck), t.attempts, at);
  emit(EventKind::CheckpointTaken, at, static_cast<int>(i), t.pl.worker, t.attempts);
  process_checkpoint_plans(t.pl.worker);
  // Only an outright loss kills the attempt: a worker the autoscaler
  // started draining still finishes its queued work (completion is what
  // retires it).
  return c_->state(t.pl.worker) != WorkerState::Lost;
}

void Scheduler::cancel_attempt(size_t i, int loser_worker, int loser_attempt, VDur loser_est,
                               int winner_worker, VDur winner_completed) {
  // The winner's completion signal travels to home, home cancels the
  // loser; the loser stops at its current chunk boundary or the cancel
  // arrival, whichever is later, and never writes back.
  VDur arrival = winner_completed + c_->link(winner_worker).transfer_time(kResultMsgBytes) +
                 c_->link(loser_worker).transfer_time(kResultMsgBytes);
  auto& ln = c_->worker(loser_worker).node();
  ln.clock.wait_until(arrival);
  emit(EventKind::AttemptCancelled, ln.clock.now(), static_cast<int>(i), loser_worker,
       loser_attempt);
  c_->note_cancelled(loser_worker, loser_est);
  ++cancelled_total_;
  ++out_->cancelled;
}

void Scheduler::prepare(size_t i, const std::function<void()>& then) {
  Task& t = tasks_[i];
  mig::SodNode& home = c_->home();
  Placement& pl = t.pl;
  mig::Segment& seg = *t.seg;
  mig::SodNode& dst = c_->worker(pl.worker);
  // Re-bind the worker's objman.* natives to this segment: a later
  // segment restored on the same worker overwrote them.
  seg.objman().install(dst);
  bc::Value v_in{};
  VDur relay{};
  if (i > 0) {
    const Task& up = tasks_[i - 1];
    // The upper segment's updates reached home with its completion
    // write-back; resume with home's now-current primitive statics (TSP's
    // best-bound static is the canonical case).  Unchanged fields ship
    // nothing, so a re-dispatched segment replays this refresh
    // idempotently against its new worker.
    size_t stat_bytes = refresh_primitive_statics(
        home, dst, opt_.statics_skip ? &c_->facts() : nullptr, &statics_stats_);
    v_in = up.result;
    if (up.pl.worker != pl.worker) {
      // The result is relayed worker -> home -> worker (links are
      // home-anchored), so it pays both the source uplink and the
      // destination downlink; home only stores-and-forwards.
      relay = c_->link(up.pl.worker).transfer_time(kResultMsgBytes) +
              c_->link(pl.worker).transfer_time(kResultMsgBytes);
      dst.node().clock.wait_until(c_->worker(up.pl.worker).node().clock.now() + relay);
      if (v_in.tag == bc::Ty::Ref && v_in.r != bc::kNull) {
        // Cross-worker ref chaining: the upstream worker's heap id would
        // alias or dangle here.  The upstream write-back already
        // translated the result into a home ref; forward that handle and
        // materialize it as a stub — the object body is fetched lazily on
        // first touch.  A restart after a mid-execution worker loss
        // replays this forward (the handle really travels again).  The
        // escape facts are load-bearing here: write_back only retained the
        // forwarding entry because the analyzer proved the class can leak
        // a ref, so a ref actually arriving from a "no-escape" class would
        // mean the analysis is unsound.
        SOD_CHECK(c_->facts().class_ref_escape(up.pl.cls),
                  "ref result from a class the analyzer proved escape-free");
        SOD_CHECK(up.home_result.tag == bc::Ty::Ref && up.home_result.r != bc::kNull,
                  "cross-worker ref result missing from the forwarding table");
        bc::Ref stub = dst.vm().heap().alloc_stub(up.home_result.r);
        v_in = bc::Value::of_ref(stub);
        forwards_.record(RefForward{round_, static_cast<int>(i) - 1, up.pl.worker,
                                    pl.worker, up.home_result.r});
        ++out_->ref_forwards;
      }
    }
    if (stat_bytes > 0) sim::deliver(home.node(), dst.node(), c_->link(pl.worker), stat_bytes);
    out_->overlapped = out_->overlapped || pl.restored_at < up.pl.completed_at;
    // A completed upper segment on this worker may have dropped debug
    // mode; deliver() needs its pending-call breakpoint to fire.
    dst.ti().set_debug_enabled(true);
  }
  run_guest(pl.worker, relay, [&] {
    if (i > 0) seg.deliver(v_in);
    // Debug mode is per-node, not per-segment: a lower segment restored on
    // this worker after `seg` left the node's debug interpreter on, and
    // seg's own run_to_completion() would not drop it (its debug_held_ is
    // false).  Force fast mode — the paper runs it outside migration
    // events — or the whole execution is charged at the debug multiplier.
    dst.ti().set_debug_enabled(false);
    then();
  });
}

svm::StopReason Scheduler::run_chunk(mig::Segment& seg, int worker) {
  svm::StopReason sr{};
  run_guest(worker, VDur{}, [&] { sr = seg.run_chunk(opt_.checkpoint_every); });
  return sr;
}

void Scheduler::run_attempts(size_t i) {
  Task& t = tasks_[i];
  Race race;
  race.task = i;
  race_ = &race;

  auto clock_of = [&](int w) { return c_->worker(w).node().clock.now(); };

  // --- single-attempt phase: chunked execution with checkpoints -------
  // Every checkpoint both bounds the work a failure can lose and is the
  // state a speculative backup starts from.  Speculation and resume
  // always use the *newest* checkpoint, whose heap flush is exactly
  // home's current object state, so a restarted computation can never
  // observe home running ahead of it.
  bool primary_done = false;
  while (!race.backup_live) {
    if (run_chunk(*t.seg, t.pl.worker) == svm::StopReason::Done) {
      primary_done = true;
      break;
    }
    if (!take_checkpoint(i)) {
      // A checkpoint-triggered plan killed this attempt's worker.  Its
      // queue entry died with the worker; the newest checkpoint (just
      // taken) resumes the work, or the original capture restarts it
      // when resume is disabled (the restart-from-capture ablation).
      emit(EventKind::SegmentFailed, c_->home_now(), static_cast<int>(i), t.pl.worker,
           t.attempts);
      const CheckpointStore::Entry* ck = store_.latest(round_, static_cast<int>(i));
      if (opt_.resume_from_checkpoint && ck != nullptr) {
        resume_dispatch(i, *ck);
      } else {
        dispatch(i);
        ++out_->redispatched;
        ++redispatched_total_;
        // The restarted attempt re-executes from the original capture on
        // its new worker; its span restarts with it.
        prepare(i, [&] { t.pl.executed_at = c_->worker(t.pl.worker).node().clock.now(); });
      }
      continue;
    }
    // A checkpoint-triggered plan may have re-dispatched another task
    // onto this worker; the new Segment's construction rebound the
    // node's objman natives.  Re-claim them for the running attempt.
    t.seg->objman().install(c_->worker(t.pl.worker));
    if (opt_.speculate && !race.backup_live) {
      VDur age = clock_of(t.pl.worker) - t.pl.executed_at;
      if (tracker_.straggler(t.req.cls, age)) launch_backup(i);
    }
  }

  // --- race phase: first completion wins ------------------------------
  // Advance whichever attempt's virtual clock lags, one chunk at a time
  // (no further checkpoints: a racing pair's flushes would let home run
  // ahead of the eventual loser).  An attempt "completes first" only once
  // the other's clock has provably passed its completion instant.
  bc::Value primary_result{};
  VDur primary_completed{};
  if (primary_done) {
    primary_result = t.seg->result();
    primary_completed = clock_of(t.pl.worker);
  }
  bool backup_done = false;
  bc::Value backup_result{};
  VDur backup_completed{};
  while (race.backup_live) {
    VDur p_now = clock_of(t.pl.worker);
    VDur b_now = clock_of(race.backup_pl.worker);
    if (primary_done && (backup_done ? primary_completed <= backup_completed
                                     : b_now >= primary_completed)) {
      // Primary wins (ties go to the primary: it was dispatched first).
      cancel_attempt(i, race.backup_pl.worker, race.backup_id, race.backup_est, t.pl.worker,
                     primary_completed);
      t.faults_accum += race.backup_seg->objman().stats().faults;
      race.backup_live = false;
      break;
    }
    if (backup_done &&
        (primary_done ? backup_completed < primary_completed : p_now >= backup_completed)) {
      // Backup wins: it becomes the task's attempt, the primary is
      // cancelled and its write-back suppressed.
      cancel_attempt(i, t.pl.worker, t.pl.attempts, t.est_cost, race.backup_pl.worker,
                     backup_completed);
      t.faults_accum += t.seg->objman().stats().faults;
      t.seg = std::move(race.backup_seg);
      t.pl = race.backup_pl;
      t.est_cost = race.backup_est;
      t.partial = true;
      primary_done = true;
      primary_result = backup_result;
      primary_completed = backup_completed;
      race.backup_live = false;
      break;
    }
    bool advance_backup = !backup_done && (primary_done || b_now < p_now);
    if (advance_backup) {
      if (run_chunk(*race.backup_seg, race.backup_pl.worker) == svm::StopReason::Done) {
        backup_done = true;
        backup_result = race.backup_seg->result();
        backup_completed = clock_of(race.backup_pl.worker);
      }
    } else {
      if (run_chunk(*t.seg, t.pl.worker) == svm::StopReason::Done) {
        primary_done = true;
        primary_result = t.seg->result();
        primary_completed = clock_of(t.pl.worker);
      }
    }
  }

  t.result = primary_result;
  t.pl.completed_at = primary_completed;
  race_ = nullptr;
}

void Scheduler::execute(size_t i) {
  Task& t = tasks_[i];
  Placement& pl = t.pl;
  mig::SodNode& dst = c_->worker(pl.worker);
  prepare(i, [&] {
    pl.executed_at = dst.node().clock.now();
    if (opt_.checkpoint_every == 0) {
      t.result = t.seg->run_to_completion();
      pl.completed_at = dst.node().clock.now();
    }
  });
  if (opt_.checkpoint_every > 0) run_attempts(i);
  c_->note_completed(t.pl.worker, t.est_cost);
  t.completed = true;
  ++completed_total_;
  // Partial spans (checkpoint resumes, winning backups) would train the
  // estimators on less than a full execution; only clean attempts teach.
  if (!t.partial) {
    policy_->observe(*c_, t.req, t.pl);
    double scale = c_->worker(t.pl.worker).config().cpu_scale;
    if (scale > 0) {
      VDur span = t.pl.completed_at - t.pl.executed_at;
      tracker_.observe(t.req.cls,
                       VDur::nanos(static_cast<int64_t>(static_cast<double>(span.ns) / scale)));
    }
  }
}

void Scheduler::write_back(size_t i) {
  Task& t = tasks_[i];
  bool bottom = i + 1 == tasks_.size();
  // Every segment's updates (and its result, translated into home refs)
  // go home eagerly at completion, so completed work survives any later
  // worker loss and ref results are forwardable; the bottom segment's
  // write-back additionally pops the whole migrated span and makes the
  // home thread runnable again.  Only the winning attempt ever reaches
  // this point — a cancelled or failed attempt's write-back is suppressed
  // by construction.
  auto rep = mig::write_back(*t.seg, c_->home(), home_tid_, bottom ? t.spec.depth_hi : 0,
                             t.result, c_->link(t.pl.worker));
  out_->writeback_bytes += rep.bytes;
  on_write_back(static_cast<int>(i), t.pl.worker, c_->home().serde().cost(rep.bytes));
  // The ref-forwarding table only tracks classes the analyzer says can
  // actually chain a ref (return or statically store one); everyone else's
  // home-translated result is dropped here and prepare() checks none ever
  // arrives.
  if (c_->facts().class_ref_escape(t.pl.cls)) t.home_result = rep.home_result;
  store_.drop(round_, static_cast<int>(i));
}

bool Scheduler::exactly_once() const {
  std::map<std::pair<int, int>, std::pair<int, int>> counts;  // key -> (dispatched, completed)
  std::map<std::pair<int, int>, int> completing_attempt;
  std::set<std::tuple<int, int, int>> launched, killed;
  for (const Event& e : log_) {
    auto rs = std::pair(e.round, e.segment);
    switch (e.kind) {
      case EventKind::SegmentDispatched:
      case EventKind::SpeculativeDispatched:
        ++counts[rs].first;
        launched.insert({e.round, e.segment, e.attempt});
        break;
      case EventKind::SegmentFailed:
      case EventKind::AttemptCancelled:
        killed.insert({e.round, e.segment, e.attempt});
        break;
      case EventKind::SegmentCompleted:
        ++counts[rs].second;
        completing_attempt[rs] = e.attempt;
        break;
      default: break;
    }
  }
  for (const auto& [key, c] : counts)
    if (c.first < 1 || c.second != 1) return false;
  for (const auto& [rs, attempt] : completing_attempt) {
    std::tuple key(rs.first, rs.second, attempt);
    if (launched.count(key) == 0 || killed.count(key) != 0) return false;
  }
  return true;
}

DispatchOutcome Scheduler::run(int home_tid, const std::vector<mig::SegmentSpec>& specs) {
  mig::SodNode& home = c_->home();
  ++round_;
  SOD_CHECK(c_->admission().admitted,
            "dispatch of a program that failed admission (see Cluster::admission())");
  SOD_CHECK(c_->accepting_size() > 0, "dispatch on a cluster with no accepting workers");
  SOD_CHECK(!specs.empty(), "dispatch of zero segments");
  SOD_CHECK(!opt_.speculate || opt_.checkpoint_every > 0,
            "speculation requires checkpointing (checkpoint_every > 0)");
  SOD_CHECK(!opt_.speculate || opt_.resume_from_checkpoint,
            "speculation requires resume_from_checkpoint (backups restore from the store)");
  for (size_t i = 0; i < specs.size(); ++i) {
    SOD_CHECK(specs[i].len() >= 1, "empty segment spec");
    int expect_lo = i == 0 ? 0 : specs[i - 1].depth_hi;
    SOD_CHECK(specs[i].depth_lo == expect_lo, "segment specs not contiguous from the top");
  }

  // Capture every segment while the thread is paused, then drop debug mode
  // (the paper keeps the tool interface off outside migration events).
  home_tid_ = home_tid;
  tasks_.clear();
  tasks_.reserve(specs.size());
  for (const auto& s : specs) {
    Task t;
    t.spec = s;
    t.cs = mig::capture_segment(home, home_tid, s);
    tasks_.push_back(std::move(t));
  }
  home.ti().set_debug_enabled(false);
  home.sync_ti_cost();

  DispatchOutcome out;
  out_ = &out;
  // Failure plans already due (scheduled in a previous round) fire before
  // placement so a lost worker never receives this round's segments.
  process_failure_plans();

  if (opt_.concurrent) {
    // All segments ship from home's current send front and restore while
    // upstream segments execute (freeze-time hiding).
    for (size_t i = 0; i < tasks_.size(); ++i) dispatch(i);
    autoscale_tick(/*placement_phase=*/true);
  }
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (!opt_.concurrent) {
      if (i > 0) home.node().clock.wait_until(tasks_[i - 1].pl.completed_at);
      dispatch(i);
      autoscale_tick(/*placement_phase=*/true);
    }
    execute(i);
    write_back(i);
    emit(EventKind::SegmentCompleted, tasks_[i].pl.completed_at, static_cast<int>(i),
         tasks_[i].pl.worker, tasks_[i].pl.attempts);
    process_failure_plans();
    autoscale_tick(/*placement_phase=*/false);
  }

  out.placements.reserve(tasks_.size());
  for (Task& t : tasks_) {
    out.faults += t.faults_accum + t.seg->objman().stats().faults;
    out.placements.push_back(t.pl);
  }
  out.result = tasks_.back().result;
  out_ = nullptr;
  return out;
}

DispatchOutcome dispatch_segments(Cluster& c, int home_tid,
                                  const std::vector<mig::SegmentSpec>& specs,
                                  PlacementPolicy& policy, const DispatchOptions& opt) {
  Scheduler s(c, policy, opt);
  return s.run(home_tid, specs);
}

}  // namespace sod::cluster
