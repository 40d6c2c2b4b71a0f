#include "analysis/analysis.h"

#include <algorithm>
#include <deque>
#include <set>

#include "bytecode/verifier.h"
#include "support/panic.h"

namespace sod::analysis {

namespace {

// Per-method scratch collected from one decode walk; closed transitively
// after the call graph is known.
struct Scratch {
  std::set<uint16_t> callees;
  std::set<uint16_t> statics_read;
  std::set<uint16_t> statics_written;
  bool ref_escape = false;
  bool verified = false;
};

uint32_t parse_pc(const std::string& verifier_msg) {
  // verify_method diagnostics read "verifier: method 'NAME' pc N: msg".
  size_t at = verifier_msg.rfind(" pc ");
  if (at == std::string::npos) return UINT32_MAX;
  return static_cast<uint32_t>(std::strtoul(verifier_msg.c_str() + at + 4, nullptr, 10));
}

std::string class_of(const bc::Program& p, const bc::Method& m) {
  return m.owner < p.classes.size() ? p.cls(m.owner).name : "?";
}

}  // namespace

std::string Diagnostic::str() const {
  std::string s = "class '" + cls + "' method '" + method + "'";
  if (pc != UINT32_MAX) s += " pc " + std::to_string(pc);
  return s + ": " + message;
}

bool ProgramFacts::method_writes_statics(const bc::Program& p, std::string_view name) const {
  uint16_t id = p.find_method(name);
  if (id == bc::kNoId || id >= methods.size()) return true;  // unknown: assume the worst
  return methods[id].writes_statics;
}

AdmissionReport analyze_program(const bc::Program& p, const AnalysisOptions& opt) {
  AdmissionReport rep;
  auto diag = [&rep](std::string cls, std::string method, uint32_t pc, std::string msg) {
    rep.diagnostics.push_back(
        {std::move(cls), std::move(method), pc, std::move(msg)});
  };

  rep.facts.methods.resize(p.methods.size());
  rep.facts.classes.resize(p.classes.size());
  for (size_t i = 0; i < p.classes.size(); ++i) rep.facts.classes[i].id = p.classes[i].id;

  // --- pass 1: verify each defined method and collect direct effects -----
  std::vector<Scratch> scratch(p.methods.size());
  for (const bc::Method& m : p.methods) {
    MethodFacts& mf = rep.facts.methods[m.id];
    mf.id = m.id;
    mf.defined = !m.code.empty();
    if (!mf.defined) continue;  // builtin stub: nothing to verify or walk

    bc::StackMap map;
    try {
      map = bc::verify_method(p, m);
    } catch (const Error& e) {
      diag(class_of(p, m), m.name, parse_pc(e.what()), e.what());
      continue;
    }
    Scratch& sc = scratch[m.id];
    sc.verified = true;

    for (uint32_t pc : map.boundaries) {
      bc::Instr in = bc::decode(m.code, pc);
      switch (in.op) {
        case bc::Op::INVOKE: {
          // Range-checked by the verifier; what it does not check is that
          // the callee actually has code (builtin stubs are code-less).
          const bc::Method& callee = p.method(static_cast<uint16_t>(in.arg));
          if (callee.code.empty()) {
            diag(class_of(p, m), m.name, pc,
                 "call to undefined method '" + callee.name + "'");
          }
          sc.callees.insert(static_cast<uint16_t>(in.arg));
          break;
        }
        case bc::Op::GETSTATIC:
          sc.statics_read.insert(static_cast<uint16_t>(in.arg));
          break;
        case bc::Op::PUTSTATIC: {
          uint16_t fid = static_cast<uint16_t>(in.arg);
          sc.statics_written.insert(fid);
          if (p.field(fid).type == bc::Ty::Ref) sc.ref_escape = true;
          break;
        }
        case bc::Op::ARETURN:
          sc.ref_escape = true;
          break;
        default: break;
      }
    }
    mf.msp_count = static_cast<uint32_t>(m.stmt_starts.size());
    mf.max_msp_state_slots = m.num_locals;
    for (uint32_t s : m.stmt_starts)
      if (s < map.depth.size() && map.depth[s] >= 0)
        mf.max_msp_state_slots = std::max<uint32_t>(
            mf.max_msp_state_slots, m.num_locals + static_cast<uint32_t>(map.depth[s]));
  }

  // --- pass 2: reachability from the entry roots -------------------------
  std::deque<uint16_t> work;
  auto mark = [&](uint16_t id) {
    if (id < rep.facts.methods.size() && !rep.facts.methods[id].reachable &&
        rep.facts.methods[id].defined) {
      rep.facts.methods[id].reachable = true;
      work.push_back(id);
    }
  };
  if (opt.entries.empty()) {
    for (const bc::Method& m : p.methods)
      if (!m.code.empty()) mark(m.id);
  } else {
    for (const std::string& e : opt.entries) {
      uint16_t id = p.find_method(e);
      if (id == bc::kNoId) {
        diag("?", e, UINT32_MAX, "entry method not found in program");
        continue;
      }
      mark(id);
    }
  }
  while (!work.empty()) {
    uint16_t id = work.front();
    work.pop_front();
    for (uint16_t callee : scratch[id].callees) mark(callee);
  }
  for (const MethodFacts& mf : rep.facts.methods) {
    if (!mf.defined) continue;
    if (mf.reachable)
      ++rep.facts.reachable_methods;
    else
      ++rep.facts.unreachable_methods;
  }

  // --- pass 3: transitive closure of effects over the call graph ---------
  // Reverse edges let a callee's new facts flow to callers until fixpoint;
  // cycles converge because the sets only grow.
  std::vector<std::vector<uint16_t>> callers(p.methods.size());
  for (const bc::Method& m : p.methods)
    for (uint16_t callee : scratch[m.id].callees)
      callers[callee].push_back(m.id);
  for (const bc::Method& m : p.methods)
    if (scratch[m.id].verified) work.push_back(m.id);
  while (!work.empty()) {
    uint16_t id = work.front();
    work.pop_front();
    for (uint16_t caller : callers[id]) {
      Scratch& cs = scratch[caller];
      const Scratch& sc = scratch[id];
      size_t before = cs.statics_read.size() + cs.statics_written.size() +
                      (cs.ref_escape ? 1 : 0);
      cs.statics_read.insert(sc.statics_read.begin(), sc.statics_read.end());
      cs.statics_written.insert(sc.statics_written.begin(), sc.statics_written.end());
      cs.ref_escape = cs.ref_escape || sc.ref_escape;
      size_t after = cs.statics_read.size() + cs.statics_written.size() +
                     (cs.ref_escape ? 1 : 0);
      if (after != before) work.push_back(caller);
    }
  }
  for (const bc::Method& m : p.methods) {
    MethodFacts& mf = rep.facts.methods[m.id];
    const Scratch& sc = scratch[m.id];
    mf.callees.assign(sc.callees.begin(), sc.callees.end());
    mf.statics_read.assign(sc.statics_read.begin(), sc.statics_read.end());
    mf.statics_written.assign(sc.statics_written.begin(), sc.statics_written.end());
    mf.writes_statics = !sc.statics_written.empty();
    for (uint16_t fid : sc.statics_written)
      if (p.field(fid).type != bc::Ty::Ref) mf.writes_primitive_statics = true;
    mf.ref_escape = sc.ref_escape;
  }

  // --- pass 4: fold reachable-method facts into per-class facts ----------
  for (const bc::Method& m : p.methods) {
    const MethodFacts& mf = rep.facts.methods[m.id];
    if (!mf.reachable) continue;
    // Effects a method has on statics land on the *owning class of the
    // field* (that is what refresh scans); escape and MSP bounds land on
    // the method's own class (that is what placement and forwarding key by).
    for (uint16_t fid : scratch[m.id].statics_written) {
      const bc::Field& f = p.field(fid);
      ClassFacts& cf = rep.facts.classes[f.owner];
      cf.statics_written = true;
      if (f.type != bc::Ty::Ref) cf.writes_primitive_statics = true;
    }
    if (m.owner < rep.facts.classes.size()) {
      ClassFacts& cf = rep.facts.classes[m.owner];
      cf.ref_escape = cf.ref_escape || mf.ref_escape;
      cf.max_msp_state_slots = std::max(cf.max_msp_state_slots, mf.max_msp_state_slots);
    }
  }

  rep.admitted = rep.diagnostics.empty();
  return rep;
}

}  // namespace sod::analysis
