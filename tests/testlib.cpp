// Test oracles: reference implementations the suites check the runtime
// against.  Linked into the test binaries only (the sod_testlib library).
#include "testlib.h"

#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace sod::testing {

bool same_value(const Value& a, const Value& b) {
  if (a.tag != b.tag) return false;
  switch (a.tag) {
    case Ty::I64: return a.i == b.i;
    case Ty::F64: return a.d == b.d;
    case Ty::Ref: return a.r == b.r;
    case Ty::Void: return true;
  }
  return false;
}

bool deep_equal(const svm::Heap& a, bc::Ref ra, const svm::Heap& b, bc::Ref rb) {
  using namespace svm;
  if ((ra == bc::kNull) != (rb == bc::kNull)) return false;
  if (ra == bc::kNull) return true;
  std::unordered_map<Ref, Ref> paired;
  std::deque<std::pair<Ref, Ref>> q{{ra, rb}};
  while (!q.empty()) {
    auto [x, y] = q.front();
    q.pop_front();
    auto it = paired.find(x);
    if (it != paired.end()) {
      if (it->second != y) return false;
      continue;
    }
    paired[x] = y;
    const Cell& cx = a.cell(x);
    const Cell& cy = b.cell(y);
    if (cx.index() != cy.index()) return false;
    if (const auto* ox = std::get_if<ObjCell>(&cx)) {
      const auto& oy = std::get<ObjCell>(cy);
      if (ox->cls != oy.cls || ox->fields.size() != oy.fields.size()) return false;
      for (size_t i = 0; i < ox->fields.size(); ++i) {
        const Value& vx = ox->fields[i];
        const Value& vy = oy.fields[i];
        if (vx.tag != vy.tag) return false;
        if (vx.tag == Ty::Ref) {
          if ((vx.r == bc::kNull) != (vy.r == bc::kNull)) return false;
          if (vx.r != bc::kNull) q.emplace_back(vx.r, vy.r);
        } else if (!same_value(vx, vy)) {
          return false;
        }
      }
    } else if (const auto* aix = std::get_if<ArrICell>(&cx)) {
      if (aix->v != std::get<ArrICell>(cy).v) return false;
    } else if (const auto* adx = std::get_if<ArrDCell>(&cx)) {
      if (adx->v != std::get<ArrDCell>(cy).v) return false;
    } else if (const auto* arx = std::get_if<ArrRCell>(&cx)) {
      const auto& ary = std::get<ArrRCell>(cy);
      if (arx->v.size() != ary.v.size()) return false;
      for (size_t i = 0; i < arx->v.size(); ++i) {
        if ((arx->v[i] == bc::kNull) != (ary.v[i] == bc::kNull)) return false;
        if (arx->v[i] != bc::kNull) q.emplace_back(arx->v[i], ary.v[i]);
      }
    } else if (const auto* sx = std::get_if<StrCell>(&cx)) {
      if (sx->s != std::get<StrCell>(cy).s) return false;
    }
  }
  return true;
}

bool pause_at_next_msp(mig::SodNode& node, int tid) {
  auto& vm = node.vm();
  node.ti().set_debug_enabled(true);
  vm.request_safepoint(true);
  svm::RunResult rr = node.run_guest(tid);
  vm.request_safepoint(false);
  node.sync_ti_cost();
  return rr.reason == svm::StopReason::SafePoint;
}

prep::FlattenStats flatten_program(bc::Program& p) {
  prep::FlattenStats total;
  for (auto& m : p.methods) {
    if (m.code.empty()) continue;
    prep::FlattenStats s = prep::flatten_method(p, m);
    total.temps_added += s.temps_added;
    total.calls_extracted += s.calls_extracted;
    total.statements_out += s.statements_out;
  }
  return total;
}

cluster::Trace filter_tenant(const cluster::Trace& t, int tenant) {
  cluster::Trace out;
  out.cfg = t.cfg;
  for (const auto& s : t.sessions)
    if (s.tenant == tenant) out.sessions.push_back(s);
  return out;
}

bool exactly_once(const std::vector<cluster::Event>& log) {
  using cluster::EventKind;
  std::map<std::pair<int, int>, std::pair<int, int>> counts;  // key -> (dispatched, completed)
  std::map<std::pair<int, int>, int> completing_attempt;
  std::set<std::tuple<int, int, int>> launched, killed;
  for (const cluster::Event& e : log) {
    auto rs = std::pair(e.round, e.segment);
    switch (e.kind) {
      case EventKind::SegmentDispatched:
        ++counts[rs].first;
        launched.insert({e.round, e.segment, e.attempt});
        break;
      case EventKind::SegmentFailed: killed.insert({e.round, e.segment, e.attempt}); break;
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

cluster::Finish finish_checked(cluster::Scheduler& s, int tid, int64_t expected) {
  cluster::Finish fin = cluster::finish(s, tid, expected);
  EXPECT_EQ(fin.exactly_once, exactly_once(s.log()));
  return fin;
}

}  // namespace sod::testing
