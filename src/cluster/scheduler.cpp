#include "cluster/scheduler.h"

#include <algorithm>
#include <bit>
#include <span>
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

// ---------------------------------------------------------- exactly-once

bool ExactlyOnce::settled(const Seg& s) {
  if (s.completions == 0) return s.launched.empty();
  auto has_completer = [&s](const std::vector<int>& ids) {
    return std::find(ids.begin(), ids.end(), s.completer) != ids.end();
  };
  return s.completions == 1 && has_completer(s.launched) && !has_completer(s.killed);
}

void ExactlyOnce::add(const Event& e) {
  switch (e.kind) {
    case EventKind::SegmentDispatched:
    case EventKind::SpeculativeDispatched:
    case EventKind::SegmentFailed:
    case EventKind::AttemptCancelled:
    case EventKind::SegmentCompleted: break;
    default: return;
  }
  SOD_CHECK(e.segment >= 0, "segment event without a segment");
  if (e.round != round_) {
    violated_ = violated_ || unsettled_ > 0;
    segs_.clear();
    unsettled_ = 0;
    round_ = e.round;
  }
  const auto seg = static_cast<size_t>(e.segment);
  if (segs_.size() <= seg) segs_.resize(seg + 1);
  Seg& s = segs_[seg];
  const bool was = settled(s);
  switch (e.kind) {
    case EventKind::SegmentDispatched:
    case EventKind::SpeculativeDispatched: s.launched.push_back(e.attempt); break;
    case EventKind::SegmentCompleted:
      ++s.completions;
      s.completer = e.attempt;
      break;
    default: s.killed.push_back(e.attempt); break;
  }
  unsettled_ += static_cast<int>(was) - static_cast<int>(settled(s));
}

// ---------------------------------------------------------------- autoscaler

std::optional<Autoscaler::Action> Autoscaler::tick(Cluster& c, bool placement_phase) {
  // Joiners the cluster already drained/lost behind our back (scenario
  // churn, failures) no longer count as scalable capacity.
  while (!joined_.empty() && c.state(joined_.back()) != WorkerState::Active)
    joined_.pop_back();
  double depth = c.mean_queue_depth();
  if (depth > kHighWater && next_standby_ < standby_.size()) {
    int id = c.add_worker(standby_[next_standby_++]);
    joined_.push_back(id);
    ++joins_;
    return Action{EventKind::WorkerJoined, id};
  }
  if (placement_phase && depth < kLowWater && !joined_.empty()) {
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

/// One dispatch of a segment, restored on a worker from the segment's
/// capture or from a checkpoint.  Its id is pl.attempts.
struct Scheduler::Attempt {
  std::unique_ptr<mig::Segment> seg;  ///< released once the attempt retires
  Placement pl{};
  VDur est{};                    ///< queue estimate recorded with the assignment
  mig::CheckpointDeltas deltas;  ///< incremental-transfer state of its checkpoints
  bool partial = false;          ///< started from a checkpoint: its span is not a
                                 ///< full execution
};

/// Per-segment lifecycle state for the current round.  A task whose live
/// attempt holds a segment is dispatched and not yet written back.
struct Scheduler::Task {
  mig::SegmentSpec spec{};
  std::vector<uint8_t> state;  ///< the captured state as shipped, serialized once
  PlacementRequest req{};
  Attempt live;                   ///< the attempt that writes back
  std::optional<Attempt> backup;  ///< speculative backup racing `live`
  int attempts = 0;
  bc::Value result{};       ///< worker-local result after execution
  bc::Value home_result{};  ///< home-translated result (ref-forwarding entry)
};

Scheduler::Scheduler(Cluster& c, PlacementPolicy& policy, DispatchOptions opt)
    : c_(&c), policy_(&policy), opt_(opt) {
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
  verdict_.add(e);
  // A later attempt of a segment is a re-dispatch, from its capture or a
  // checkpoint (a speculative backup is logged as its own kind).
  if (kind == EventKind::SegmentDispatched && attempt > 1) ++redispatched_total_;
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
  // refresh replays earlier write-backs idempotently.  The attempt the
  // chunk loop is running is skipped: it notices the loss at the
  // checkpoint boundary and resumes or restarts it itself.  No backup is
  // ever live here: losses fire only at checkpoints and completions, and
  // a race takes no checkpoints.
  int requeued = 0;
  int running = 0;
  for (size_t i = 0; i < tasks_.size(); ++i) {
    Task& t = tasks_[i];
    if (!t.live.seg || t.live.pl.worker != worker) continue;
    if (static_cast<int>(i) == running_) {
      ++running;
      continue;
    }
    emit(EventKind::SegmentFailed, c_->home_now(), static_cast<int>(i), worker,
         t.live.pl.attempts);
    dispatch(i);
    ++requeued;
  }
  SOD_CHECK(requeued + running == dropped, "lost-worker queue out of sync with the task table");
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

int Scheduler::choose_worker(const PlacementRequest& req) {
  int w = policy_->choose(*c_, req);
  SOD_CHECK(w >= 0 && w < c_->size(), "policy chose an invalid worker");
  SOD_CHECK(c_->accepting(w), "policy chose a non-accepting worker");
  return w;
}

PlacementRequest Scheduler::request(size_t i, const CheckpointStore::Entry* ck) const {
  PlacementRequest req = tasks_[i].req;
  if (ck != nullptr) req.state_bytes = ck->ckpt.state_bytes;
  return req;
}

Scheduler::Attempt Scheduler::start_attempt(size_t i, int w, const CheckpointStore::Entry* ck) {
  Task& t = tasks_[i];
  mig::SodNode& dst = c_->worker(w);
  Attempt a;
  a.est = policy_->estimate(*c_, w, t.req);
  c_->note_assigned(w, a.est);
  a.partial = ck != nullptr;
  a.pl.worker = w;
  a.pl.worker_name = dst.name();
  a.pl.spec = t.spec;
  a.pl.cls = t.req.cls;
  a.pl.attempts = ++t.attempts;

  // Home (re-)serializes the state and ships it from its current send
  // front: a re-dispatch's original copy died with the lost worker, and a
  // checkpoint lives at home.  The class image rides along when the
  // worker lacks it.
  std::vector<uint8_t> ck_state = ck != nullptr ? ck->ckpt.state.wire() : std::vector<uint8_t>{};
  a.seg = std::make_unique<mig::Segment>(dst);
  a.seg->objman().set_home_gate(home_gate());
  mig::MigrationTiming hop =
      mig::hop(c_->home(), home_tid_, t.spec.depth_hi, ck != nullptr ? ck_state : t.state, *a.seg,
               c_->link(w), /*ship_class=*/!dst.class_shipped(a.pl.cls));
  a.pl.shipped_bytes = hop.state_bytes + hop.class_bytes;
  a.pl.restored_at = dst.node().clock.now();
  // A checkpoint resumes mid-execution: no upstream delivery is pending,
  // the attempt starts executing right after its restore.
  if (ck != nullptr) a.pl.executed_at = a.pl.restored_at;
  on_ship(static_cast<int>(i), w, hop.serde, c_->link(w).transfer_time(a.pl.shipped_bytes));
  return a;
}

void Scheduler::dispatch(size_t i, const CheckpointStore::Entry* ck) {
  Task& t = tasks_[i];
  int w = choose_worker(request(i, ck));
  if (t.live.seg) retire(t.live);
  t.live = start_attempt(i, w, ck);
  if (ck != nullptr) ++resumed_total_;
  emit(EventKind::SegmentDispatched, t.live.pl.restored_at, static_cast<int>(i), w,
       t.live.pl.attempts);
}

void Scheduler::retire(Attempt& a) {
  out_->faults += a.seg->objman().stats().faults;
  a.seg.reset();
}

void Scheduler::launch_backup(size_t i) {
  Task& t = tasks_[i];
  // The checkpoint the running attempt just took.
  const CheckpointStore::Entry* ck = store_.latest(round_, static_cast<int>(i));
  int w = choose_backup(*policy_, *c_, request(i, ck), t.live.pl.worker);
  if (w < 0) return;
  t.backup = start_attempt(i, w, ck);
  ++speculated_total_;
  emit(EventKind::SpeculativeDispatched, t.backup->pl.restored_at, static_cast<int>(i), w,
       t.backup->pl.attempts);
}

bool Scheduler::take_checkpoint(size_t i) {
  Attempt& a = tasks_[i].live;
  mig::SodNode& home = c_->home();
  auto ck = mig::checkpoint_segment(*a.seg, home, c_->link(a.pl.worker), a.deltas,
                                  /*apply_at_home=*/opt_.resume_from_checkpoint);
  VDur at = home.node().clock.now();
  store_.record(round_, static_cast<int>(i), std::move(ck), a.pl.attempts, at);
  emit(EventKind::CheckpointTaken, at, static_cast<int>(i), a.pl.worker, a.pl.attempts);
  process_checkpoint_plans(a.pl.worker);
  // Only an outright loss kills the attempt: a worker the autoscaler
  // started draining still finishes its queued work (completion is what
  // retires it).
  return c_->state(a.pl.worker) != WorkerState::Lost;
}

void Scheduler::cancel(size_t i, Attempt& loser, const Attempt& winner) {
  // The winner's completion signal travels to home, home cancels the
  // loser; the loser stops at its current chunk boundary or the cancel
  // arrival, whichever is later, and never writes back.  Until then it is
  // still computing: its worker's core stays booked.
  VDur arrival = winner.pl.completed_at +
                 c_->link(winner.pl.worker).transfer_time(kResultMsgBytes) +
                 c_->link(loser.pl.worker).transfer_time(kResultMsgBytes);
  auto& ln = c_->worker(loser.pl.worker).node();
  if (ln.clock.now() < arrival) ln.busy(arrival - ln.clock.now());
  emit(EventKind::AttemptCancelled, ln.clock.now(), static_cast<int>(i), loser.pl.worker,
       loser.pl.attempts);
  c_->note_completed(loser.pl.worker, loser.est);
  ++cancelled_total_;
  retire(loser);
}

void Scheduler::prepare(size_t i, const std::function<void()>& then) {
  Task& t = tasks_[i];
  mig::SodNode& home = c_->home();
  Placement& pl = t.live.pl;
  mig::Segment& seg = *t.live.seg;
  mig::SodNode& dst = c_->worker(pl.worker);
  // Re-bind the worker's objman.* natives to this segment: a later
  // segment restored on the same worker overwrote them.
  seg.objman().install(dst);
  bc::Value v_in{};
  VDur relay{};
  if (i > 0) {
    const Task& up = tasks_[i - 1];
    const Placement& up_pl = up.live.pl;
    // The upper segment's updates reached home with its completion
    // write-back; resume with home's now-current primitive statics (TSP's
    // best-bound static is the canonical case).  Unchanged fields ship
    // nothing, so a re-dispatched segment replays this refresh
    // idempotently against its new worker.
    size_t stat_bytes = refresh_primitive_statics(
        home, dst, opt_.statics_skip ? &c_->facts() : nullptr, &statics_stats_);
    v_in = up.result;
    if (up_pl.worker != pl.worker) {
      // The result is relayed worker -> home -> worker (links are
      // home-anchored), so it pays both the source uplink and the
      // destination downlink; home only stores-and-forwards.
      relay = c_->link(up_pl.worker).transfer_time(kResultMsgBytes) +
              c_->link(pl.worker).transfer_time(kResultMsgBytes);
      dst.node().clock.wait_until(c_->worker(up_pl.worker).node().clock.now() + relay);
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
        SOD_CHECK(c_->facts().class_ref_escape(up_pl.cls),
                  "ref result from a class the analyzer proved escape-free");
        SOD_CHECK(up.home_result.tag == bc::Ty::Ref && up.home_result.r != bc::kNull,
                  "cross-worker ref result missing from the forwarding table");
        bc::Ref stub = dst.vm().heap().alloc_stub(up.home_result.r);
        v_in = bc::Value::of_ref(stub);
        forwards_.push_back(RefForward{round_, static_cast<int>(i) - 1, up_pl.worker, pl.worker,
                                       up.home_result.r});
      }
    }
    if (stat_bytes > 0) sim::deliver(home.node(), dst.node(), c_->link(pl.worker), stat_bytes);
    out_->overlapped = out_->overlapped || pl.restored_at < up_pl.completed_at;
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

svm::StopReason Scheduler::run_chunk(Attempt& a) {
  svm::StopReason sr{};
  run_guest(a.pl.worker, VDur{}, [&] { sr = a.seg->run_chunk(opt_.checkpoint_every); });
  if (sr == svm::StopReason::Done) a.pl.completed_at = c_->worker(a.pl.worker).node().clock.now();
  return sr;
}

void Scheduler::run_attempts(size_t i) {
  Task& t = tasks_[i];
  running_ = static_cast<int>(i);
  auto clock_of = [&](const Attempt& a) { return c_->worker(a.pl.worker).node().clock.now(); };

  // --- single-attempt phase: chunked execution with checkpoints -------
  // Every checkpoint both bounds the work a failure can lose and is the
  // state a speculative backup starts from.  Speculation and resume
  // always use the *newest* checkpoint, whose heap flush is exactly
  // home's current object state, so a restarted computation can never
  // observe home running ahead of it.
  while (!t.backup) {
    if (run_chunk(t.live) == svm::StopReason::Done) break;
    if (!take_checkpoint(i)) {
      // A checkpoint-triggered plan killed this attempt's worker.  Its
      // queue entry died with the worker; the newest checkpoint (just
      // taken) resumes the work, or the original capture restarts it
      // when resume is disabled (the restart-from-capture ablation).
      emit(EventKind::SegmentFailed, c_->home_now(), static_cast<int>(i), t.live.pl.worker,
           t.live.pl.attempts);
      const CheckpointStore::Entry* ck =
          opt_.resume_from_checkpoint ? store_.latest(round_, static_cast<int>(i)) : nullptr;
      dispatch(i, ck);
      // A restarted attempt re-executes from the original capture on its
      // new worker; its span restarts with it.
      if (ck == nullptr) prepare(i, [&] { t.live.pl.executed_at = clock_of(t.live); });
      continue;
    }
    // A checkpoint-triggered plan may have re-dispatched another task
    // onto this worker; the new Segment's construction rebound the
    // node's objman natives.  Re-claim them for the running attempt.
    t.live.seg->objman().install(c_->worker(t.live.pl.worker));
    if (opt_.speculate && policy_->straggler(t.req.cls, clock_of(t.live) - t.live.pl.executed_at))
      launch_backup(i);
  }

  // --- race phase: first completion wins ------------------------------
  // One loop over the two attempts, a[0] the primary and a[1] the backup.
  // Each step advances the attempt that is not done and has the smaller
  // (clock, index) by one chunk (no further checkpoints: a racing pair's
  // flushes would let home run ahead of the eventual loser).  A done
  // attempt wins once the other is done with a later (completion,
  // index), or the other's clock has reached its completion; so ties go
  // to the primary, which was dispatched first.
  if (t.backup) {
    Attempt* a[2] = {&t.live, &*t.backup};
    bool done[2] = {false, false};
    auto wins = [&](int k) {
      const int o = 1 - k;
      VDur at = a[k]->pl.completed_at;
      return done[k] && (done[o] ? std::pair(at, k) < std::pair(a[o]->pl.completed_at, o)
                                 : clock_of(*a[o]) >= at);
    };
    for (;;) {
      if (wins(0)) break;
      if (wins(1)) {
        std::swap(t.live, *t.backup);
        break;
      }
      auto lag = [&](int k) { return std::pair(clock_of(*a[k]), k); };
      int k = done[0] || (!done[1] && lag(1) < lag(0)) ? 1 : 0;
      done[k] = run_chunk(*a[k]) == svm::StopReason::Done;
    }
    cancel(i, *t.backup, t.live);
    t.backup.reset();
  }
  t.result = t.live.seg->result();
  running_ = -1;
}

void Scheduler::execute(size_t i) {
  Task& t = tasks_[i];
  Placement& pl = t.live.pl;
  mig::SodNode& dst = c_->worker(pl.worker);
  prepare(i, [&] {
    pl.executed_at = dst.node().clock.now();
    if (opt_.checkpoint_every == 0) {
      t.result = t.live.seg->run_to_completion();
      pl.completed_at = dst.node().clock.now();
    }
  });
  if (opt_.checkpoint_every > 0) run_attempts(i);
  c_->note_completed(t.live.pl.worker, t.live.est);
  ++completed_total_;
  // Partial spans (checkpoint resumes, winning backups) would train the
  // span model on less than a full execution; only clean attempts teach.
  if (!t.live.partial) policy_->observe(*c_, t.req, t.live.pl);
}

void Scheduler::write_back(size_t i) {
  Task& t = tasks_[i];
  Attempt& a = t.live;
  bool bottom = i + 1 == tasks_.size();
  // Every segment's updates (and its result, translated into home refs)
  // go home eagerly at completion, so completed work survives any later
  // worker loss and ref results are forwardable; the bottom segment's
  // write-back additionally pops the whole migrated span and makes the
  // home thread runnable again.  Only the winning attempt ever reaches
  // this point — a cancelled or failed attempt's write-back is suppressed
  // by construction.
  auto rep = mig::write_back(*a.seg, c_->home(), home_tid_, bottom ? t.spec.depth_hi : 0,
                             t.result, c_->link(a.pl.worker));
  out_->writeback_bytes += rep.bytes;
  on_write_back(static_cast<int>(i), a.pl.worker, c_->home().serde().cost(rep.bytes));
  // The ref-forwarding table only tracks classes the analyzer says can
  // actually chain a ref (return or statically store one); everyone else's
  // home-translated result is dropped here and prepare() checks none ever
  // arrives.
  if (c_->facts().class_ref_escape(a.pl.cls)) t.home_result = rep.home_result;
  store_.drop(round_, static_cast<int>(i));
  retire(a);
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
  const bc::Program& P = home.program();
  for (const auto& s : specs) {
    Task t;
    t.spec = s;
    mig::CapturedState cs = mig::capture_segment(home, home_tid, s);
    t.state = cs.wire();
    t.req.cls = P.method(cs.frames[0].method).owner;
    t.req.state_bytes = t.state.size();
    t.req.class_image_bytes = P.class_image_size(t.req.cls);
    t.req.msp_state_slots = c_->facts().class_msp_state_slots(t.req.cls);
    tasks_.push_back(std::move(t));
  }
  home.ti().set_debug_enabled(false);
  home.sync_ti_cost();

  DispatchOutcome out;
  out_ = &out;
  // Failure plans already due (scheduled in a previous round) fire before
  // placement so a lost worker never receives this round's segments.
  process_failure_plans();

  // All segments ship from home's current send front and restore while
  // upstream segments execute (freeze-time hiding, Fig. 1(c)).
  for (size_t i = 0; i < tasks_.size(); ++i) dispatch(i);
  autoscale_tick(/*placement_phase=*/true);
  for (size_t i = 0; i < tasks_.size(); ++i) {
    execute(i);
    write_back(i);
    const Placement& pl = tasks_[i].live.pl;
    emit(EventKind::SegmentCompleted, pl.completed_at, static_cast<int>(i), pl.worker,
         pl.attempts);
    process_failure_plans();
    autoscale_tick(/*placement_phase=*/false);
  }

  out.placements.reserve(tasks_.size());
  for (const Task& t : tasks_) out.placements.push_back(t.live.pl);
  out_ = nullptr;
  return out;
}

}  // namespace sod::cluster
