#include "cluster/cluster.h"

#include <algorithm>
#include <utility>

namespace sod::cluster {

Cluster::Cluster(const bc::Program& prog, mig::SodNode::Config home_cfg) : prog_(&prog) {
  // Admission gate: every program is analyzed before any class image can
  // ship.  analyze_program never throws — a malformed program yields a
  // report with diagnostics, and the scheduler refuses to dispatch it.
  admission_ = analysis::analyze_program(prog);
  home_ = std::make_unique<mig::SodNode>("home", prog, home_cfg);
}

int Cluster::add_worker(const WorkerSpec& spec) {
  SOD_CHECK(!spec.name.empty(), "worker name empty");
  for (const Slot& s : workers_)
    SOD_CHECK(s.node->name() != spec.name, "duplicate worker name '" + spec.name + "'");
  Slot s;
  s.node = std::make_unique<mig::SodNode>(spec.name, *prog_, spec.config);
  s.link = spec.link;
  workers_.push_back(std::move(s));
  return static_cast<int>(workers_.size()) - 1;
}

void Cluster::add_uniform_workers(int n, const mig::SodNode::Config& cfg) {
  for (int i = 0; i < n; ++i)
    add_worker(WorkerSpec{"worker" + std::to_string(size() + 1), cfg, sim::Link::gigabit()});
}

void Cluster::drain_worker(int id) {
  SOD_CHECK(id >= 0 && id < size(), "bad worker id");
  Slot& s = workers_[static_cast<size_t>(id)];
  if (s.state == WorkerState::Retired || s.state == WorkerState::Lost) return;
  // An idle worker retires the moment it is drained; only a worker with
  // outstanding assignments lingers in Draining until its queue empties.
  s.state = s.queue.empty() ? WorkerState::Retired : WorkerState::Draining;
}

int Cluster::fail_worker(int id) {
  SOD_CHECK(id >= 0 && id < size(), "bad worker id");
  Slot& s = workers_[static_cast<size_t>(id)];
  if (s.state == WorkerState::Retired || s.state == WorkerState::Lost) return 0;
  int dropped = static_cast<int>(s.queue.size());
  s.queue.clear();
  s.state = WorkerState::Lost;
  return dropped;
}

WorkerState Cluster::state(int id) const {
  SOD_CHECK(id >= 0 && id < size(), "bad worker id");
  return workers_[static_cast<size_t>(id)].state;
}

int Cluster::accepting_size() const {
  int n = 0;
  for (const Slot& s : workers_)
    if (s.state == WorkerState::Active) ++n;
  return n;
}

mig::SodNode& Cluster::worker(int id) const {
  SOD_CHECK(id >= 0 && id < size(), "bad worker id");
  return *workers_[static_cast<size_t>(id)].node;
}

const sim::Link& Cluster::link(int id) const {
  SOD_CHECK(id >= 0 && id < size(), "bad worker id");
  return workers_[static_cast<size_t>(id)].link;
}

VDur Cluster::load(int id) const {
  const sim::Node& n = worker(id).node();
  return n.cpu.free_from(n.clock.now());
}

int Cluster::inflight(int id) const {
  SOD_CHECK(id >= 0 && id < size(), "bad worker id");
  return static_cast<int>(workers_[static_cast<size_t>(id)].queue.size());
}

double Cluster::mean_queue_depth() const {
  int accepting = 0;
  int queued = 0;
  for (const Slot& s : workers_) {
    if (s.state != WorkerState::Active) continue;
    ++accepting;
    queued += static_cast<int>(s.queue.size());
  }
  return accepting == 0 ? 0.0 : static_cast<double>(queued) / accepting;
}

VDur Cluster::queued_cost(int id) const {
  SOD_CHECK(id >= 0 && id < size(), "bad worker id");
  VDur sum{};
  for (VDur est : workers_[static_cast<size_t>(id)].queue) sum += est;
  return sum;
}

void Cluster::note_assigned(int id, VDur est_cost) {
  SOD_CHECK(id >= 0 && id < size(), "bad worker id");
  Slot& s = workers_[static_cast<size_t>(id)];
  SOD_CHECK(s.state == WorkerState::Active,
            "assignment to non-accepting worker '" + s.node->name() + "'");
  s.queue.push_back(est_cost);
}

void Cluster::note_completed(int id, std::optional<VDur> est_cost) {
  SOD_CHECK(id >= 0 && id < size(), "bad worker id");
  Slot& s = workers_[static_cast<size_t>(id)];
  SOD_CHECK(!s.queue.empty(), "completion without an assignment");
  // Out-of-FIFO completions must not charge a still-waiting assignment's
  // estimate to the finished one: remove the first entry carrying
  // `est_cost`, the front when it is absent or unmatched.
  auto it = est_cost ? std::find(s.queue.begin(), s.queue.end(), *est_cost) : s.queue.end();
  s.queue.erase(it != s.queue.end() ? it : s.queue.begin());
  if (s.state == WorkerState::Draining && s.queue.empty()) s.state = WorkerState::Retired;
}

}  // namespace sod::cluster
