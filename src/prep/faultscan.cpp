#include "prep/faultscan.h"

#include <algorithm>

#include "support/panic.h"

namespace sod::prep {

using bc::Instr;
using bc::Method;
using bc::Op;
using bc::Program;
using bc::Ty;

namespace {

/// A base that cannot be repaired, only probed by re-running `base_frag`
/// (when non-empty).
Repair probe(std::vector<uint8_t> base_frag = {}) {
  Repair r;
  r.kind = Repair::Kind::Probe;
  r.base_frag = std::move(base_frag);
  return r;
}

struct Node {
  std::vector<uint8_t> frag;  // pure re-emittable code for this value ("" if not)
  /// How a Ref value can be re-obtained; Probe when it cannot (a call
  /// result, a fresh allocation, ...).
  Repair prov = probe();
};

class Scanner {
 public:
  Scanner(const Program& p, const Method& m) : p_(p), m_(m) {}

  std::vector<StmtScan> run() {
    std::vector<StmtScan> out;
    const auto& stmts = m_.stmt_starts;
    for (size_t i = 0; i < stmts.size(); ++i) {
      StmtScan ss;
      ss.start = stmts[i];
      ss.end = (i + 1 < stmts.size()) ? stmts[i + 1] : static_cast<uint32_t>(m_.code.size());
      scan_one(ss);
      out.push_back(std::move(ss));
    }
    return out;
  }

 private:
  static void add_unique(std::vector<Repair>& list, const Repair& r) {
    if (std::none_of(list.begin(), list.end(), [&](const Repair& x) { return x.same_as(r); }))
      list.push_back(r);
  }

  /// Record that `base` is dereferenced; owner_cls names the class implied
  /// by the dereferencing instruction when known.
  void record_deref(StmtScan& ss, const Node& base, uint16_t owner_cls) {
    Repair::Kind kind = base.prov.kind;
    if (kind != Repair::Kind::Probe) {
      Repair r = base.prov;
      r.owner_cls = owner_cls;
      add_unique(ss.repairs, r);
      // Check mode tests a local or static directly ...
      if (kind == Repair::Kind::Local || kind == Repair::Kind::Static) {
        add_unique(ss.checks, r);
        return;
      }
    }
    // ... and otherwise probes the base itself when it is re-emittable.
    if (!base.frag.empty()) {
      Repair c = probe(base.frag);
      c.owner_cls = owner_cls;
      add_unique(ss.checks, c);
    }
  }

  void scan_one(StmtScan& ss) {
    std::vector<Node> st;
    // A handler's leading POP/ASTORE sits before the first statement, so a
    // statement never starts with a value on the stack.
    for (uint32_t pc = ss.start; pc < ss.end;) {
      Instr in = bc::decode(m_.code, pc);
      const bc::OpInfo& info = bc::op_info(in.op);
      if (info.stack == bc::StackKind::Dup) {
        SOD_CHECK(!st.empty(), "scan dup underflow");
        st.push_back(st.back());
      } else if (info.stack == bc::StackKind::Swap) {
        SOD_CHECK(st.size() >= 2, "scan swap underflow");
        std::swap(st[st.size() - 1], st[st.size() - 2]);
      } else {
        step(ss, st, in, info);
      }
      // A statement's extent may be followed by an exception handler's
      // entry (pop/astore of the exception) before the next statement
      // start; control never falls through a terminator into it, so stop.
      if (info.terminator) break;
      pc += in.size;
    }
  }

  /// Pops the operands of `in`, records the base it dereferences, and
  /// pushes its result: re-emittable when every operand is and `in` has no
  /// effect.
  void step(StmtScan& ss, std::vector<Node>& st, const Instr& in, const bc::OpInfo& info) {
    bc::StackEffect fx = bc::stack_effect(p_, in);
    SOD_CHECK(st.size() >= fx.pops.size(), "scan underflow in " + m_.name);
    const size_t base = st.size() - fx.pops.size();  // the bottom operand

    switch (in.op) {
      case Op::GETFIELD: case Op::PUTFIELD:
        record_deref(ss, st[base], p_.field(static_cast<uint16_t>(in.arg)).owner);
        break;
      case Op::IALOAD: case Op::DALOAD: case Op::AALOAD: case Op::IASTORE:
      case Op::DASTORE: case Op::AASTORE: case Op::ARRAYLEN: case Op::THROW:
        record_deref(ss, st[base], bc::kNoId);
        break;
      case Op::INVOKENATIVE:
        // Natives may fault on any null ref argument (e.g. str.find).
        for (size_t k = 0; k < fx.pops.size(); ++k)
          if (fx.pops[k] == Ty::Ref) record_deref(ss, st[base + k], bc::kNoId);
        break;
      case Op::PUTSTATIC: {
        // No fault possible, but check mode validates the class replica.
        const bc::Field& f = p_.field(static_cast<uint16_t>(in.arg));
        Repair c;
        c.kind = Repair::Kind::Static;
        c.field = f.id;
        c.owner_cls = f.owner;
        add_unique(ss.checks, c);
        break;
      }
      default: break;
    }

    Node n;
    if (fx.push != Ty::Void) {
      bool replayable = !info.effect;
      for (size_t j = base; j < st.size(); ++j) replayable = replayable && !st[j].frag.empty();
      if (replayable) {
        for (size_t j = base; j < st.size(); ++j)
          n.frag.insert(n.frag.end(), st[j].frag.begin(), st[j].frag.end());
        n.frag.insert(n.frag.end(), m_.code.begin() + in.pc, m_.code.begin() + in.pc + in.size);
      }
      if (fx.push == Ty::Ref) n.prov = provenance(in, st, base, replayable);
    }
    st.resize(base);
    if (fx.push != Ty::Void) st.push_back(std::move(n));
  }

  /// How the Ref that `in` pushes can be re-obtained, from its operands
  /// st[base..].
  static Repair provenance(const Instr& in, const std::vector<Node>& st, size_t base,
                           bool replayable) {
    Repair pv = probe();
    switch (in.op) {
      case Op::ALOAD:
        pv.kind = Repair::Kind::Local;
        pv.slot = static_cast<uint16_t>(in.arg);
        break;
      case Op::GETSTATIC:
        pv.kind = Repair::Kind::Static;
        pv.field = static_cast<uint16_t>(in.arg);
        break;
      case Op::GETFIELD:
        if (st[base].prov.kind != Repair::Kind::Probe && replayable) {
          pv.kind = Repair::Kind::Field;
          pv.field = static_cast<uint16_t>(in.arg);
          pv.base_frag = st[base].frag;
        }
        break;
      case Op::AALOAD:
        if (st[base].prov.kind != Repair::Kind::Probe && replayable) {
          pv.kind = Repair::Kind::Elem;
          pv.base_frag = st[base].frag;
          pv.idx_frag = st[base + 1].frag;
        }
        break;
      default: break;
    }
    return pv;
  }

  const Program& p_;
  const Method& m_;
};

}  // namespace

std::vector<StmtScan> scan_statements(const Program& p, const Method& m) {
  return Scanner(p, m).run();
}

}  // namespace sod::prep
