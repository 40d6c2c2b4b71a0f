#include "cluster/placement.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <unordered_map>

#include "cluster/cluster.h"
#include "cluster/scheduler.h"
#include "support/panic.h"

namespace sod::cluster {

namespace {

/// Earliest virtual instant worker `w` could start executing a segment of
/// `bytes` shipped from home right now: the send leaves at home's clock,
/// the worker picks it up no earlier than its own load front, and queued
/// assignments that have not advanced its clock yet run first.
VDur arrival_estimate(const Cluster& c, int w, size_t bytes) {
  VDur sent = c.home_now() + c.link(w).transfer_time(bytes);
  return std::max(c.load(w), sent) + c.queued_cost(w);
}

/// First accepting worker id; panics when membership has drained to zero.
int first_accepting(const Cluster& c) {
  for (int w = 0; w < c.size(); ++w)
    if (c.accepting(w)) return w;
  SOD_UNREACHABLE("placement on a cluster with no accepting workers");
}

/// Argmin of `key` over the accepting workers (draining and retired
/// members are invisible to placement); panics on an empty membership.
template <class Key>
int choose_min(const Cluster& c, Key key) {
  int best = first_accepting(c);
  auto best_key = key(best);
  for (int w = best + 1; w < c.size(); ++w) {
    if (!c.accepting(w)) continue;
    auto k = key(w);
    if (k < best_key) {
      best = w;
      best_key = std::move(k);
    }
  }
  return best;
}

class RoundRobin final : public PlacementPolicy {
 public:
  const char* name() const override { return "round_robin"; }
  int choose(const Cluster& c, const PlacementRequest&) override {
    int n = c.size();
    SOD_CHECK(c.accepting_size() > 0, "placement on a cluster with no accepting workers");
    // Unsigned counter with explicit modular wrap: the counter never
    // exceeds the membership size, so it cannot overflow into a negative
    // (or otherwise invalid) worker id.  Non-accepting members are skipped
    // without losing the cycle position.
    for (int step = 0; step < n; ++step) {
      int w = static_cast<int>(next_);
      next_ = (next_ + 1) % static_cast<unsigned>(n);
      if (c.accepting(w)) return w;
    }
    SOD_UNREACHABLE("round_robin found no accepting worker");
  }

 private:
  unsigned next_ = 0;
};

/// Load- and link-aware but locality-blind: every placement is costed as if
/// the class image had to ship.  The primary key is outstanding assignments
/// (a worker's clock only advances once its segment runs); then earliest
/// arrival (which folds in queued-work cost), then lowest load front.
class LeastLoaded final : public PlacementPolicy {
 public:
  const char* name() const override { return "least_loaded"; }
  int choose(const Cluster& c, const PlacementRequest& req) override {
    auto key = [&](int w) {
      return std::tuple(c.inflight(w),
                        arrival_estimate(c, w, req.state_bytes + req.class_image_bytes),
                        c.load(w));
    };
    return choose_min(c, key);
  }
};

/// Least-loaded with shipped-class locality: workers already holding the
/// segment's class skip the image transfer in the arrival estimate, and
/// remaining ties go to a holder before the load front decides.
class LocalityAware final : public PlacementPolicy {
 public:
  const char* name() const override { return "locality_aware"; }
  int choose(const Cluster& c, const PlacementRequest& req) override {
    auto key = [&](int w) {
      bool holds = c.holds_class(w, req.cls);
      size_t bytes = req.state_bytes + (holds ? 0 : req.class_image_bytes);
      return std::tuple(c.inflight(w), arrival_estimate(c, w, bytes), holds ? 0 : 1,
                        c.load(w));
    };
    return choose_min(c, key);
  }
};

/// Places by predicted completion instant instead of inflight count: the
/// base-class EWMA of observed per-class segment execution times predicts
/// how long the segment will run on each candidate (scaled by its
/// cpu_scale), on top of the arrival estimate (which already folds in
/// queued-work cost and link transfer).  Workers holding the class skip
/// the image transfer, as in locality_aware.  Before the first
/// observation of a class the prediction is zero and the policy
/// degenerates to earliest-arrival.
class Learned final : public PlacementPolicy {
 public:
  const char* name() const override { return "learned"; }

  int choose(const Cluster& c, const PlacementRequest& req) override {
    return choose_backup(*this, c, req, /*exclude=*/-1);
  }
};

}  // namespace

int choose_backup(const PlacementPolicy& policy, const Cluster& c, const PlacementRequest& req,
                  int exclude) {
  int best = -1;
  std::tuple<VDur, int, VDur> best_key{};
  for (int w = 0; w < c.size(); ++w) {
    if (w == exclude || !c.accepting(w)) continue;
    bool holds = c.holds_class(w, req.cls);
    size_t bytes = req.state_bytes + (holds ? 0 : req.class_image_bytes);
    std::tuple key(arrival_estimate(c, w, bytes) + policy.estimate(c, w, req), c.inflight(w),
                   c.load(w));
    if (best < 0 || key < best_key) {
      best = w;
      best_key = key;
    }
  }
  return best;
}

VDur PlacementPolicy::estimate(const Cluster& c, int w, const PlacementRequest& req) const {
  auto it = ewma_ns_.find(req.cls);
  if (it == ewma_ns_.end()) return {};
  return VDur::nanos(static_cast<int64_t>(it->second * c.worker(w).config().cpu_scale));
}

void PlacementPolicy::observe(const Cluster& c, const PlacementRequest& req,
                              const Placement& pl) {
  // executed_at -> completed_at spans the segment's own execution on its
  // worker (a chained segment's wait for upstream results is excluded);
  // dividing by cpu_scale normalizes heterogeneous CPUs into one
  // reference-speed estimate per class.
  double scale = c.worker(pl.worker).config().cpu_scale;
  if (scale <= 0) return;
  double observed = static_cast<double>((pl.completed_at - pl.executed_at).ns) / scale;
  if (observed < 0) return;
  auto [it, fresh] = ewma_ns_.try_emplace(req.cls, observed);
  if (!fresh) it->second = kAlpha * observed + (1.0 - kAlpha) * it->second;
}

bool PlacementPolicy::straggler(uint16_t cls, VDur age) const {
  auto it = ewma_ns_.find(cls);
  return it != ewma_ns_.end() && static_cast<double>(age.ns) > kStragglerFactor * it->second;
}

std::unique_ptr<PlacementPolicy> make_policy(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::RoundRobin: return std::make_unique<RoundRobin>();
    case PolicyKind::LeastLoaded: return std::make_unique<LeastLoaded>();
    case PolicyKind::LocalityAware: return std::make_unique<LocalityAware>();
    case PolicyKind::Learned: return std::make_unique<Learned>();
  }
  SOD_UNREACHABLE("bad PolicyKind");
}

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::RoundRobin: return "round_robin";
    case PolicyKind::LeastLoaded: return "least_loaded";
    case PolicyKind::LocalityAware: return "locality_aware";
    case PolicyKind::Learned: return "learned";
  }
  SOD_UNREACHABLE("bad PolicyKind");
}

std::optional<PolicyKind> parse_policy(std::string_view s) {
  std::string t(s);
  for (char& ch : t)
    if (ch == '_') ch = '-';
  if (t == "round-robin" || t == "rr") return PolicyKind::RoundRobin;
  if (t == "least-loaded") return PolicyKind::LeastLoaded;
  if (t == "locality-aware" || t == "locality") return PolicyKind::LocalityAware;
  if (t == "learned") return PolicyKind::Learned;
  return std::nullopt;
}

std::vector<PolicyKind> all_policies() {
  return {PolicyKind::RoundRobin, PolicyKind::LeastLoaded, PolicyKind::LocalityAware,
          PolicyKind::Learned};
}

}  // namespace sod::cluster
