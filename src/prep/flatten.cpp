#include "prep/flatten.h"

#include <algorithm>
#include <set>

#include "bytecode/verifier.h"
#include "prep/emitter.h"
#include "support/panic.h"

namespace sod::prep {

using bc::Instr;
using bc::Method;
using bc::Op;
using bc::Program;
using bc::Ty;

namespace {

/// Ops whose result may be "kept" on the node stack when the very next
/// instruction consumes it with nothing below (avoids a useless temp).
bool keeps_call_result(Op next) {
  switch (next) {
    case Op::ISTORE: case Op::DSTORE: case Op::ASTORE: case Op::POP:
    case Op::PUTSTATIC: case Op::IRETURN: case Op::DRETURN: case Op::ARETURN:
    case Op::THROW: case Op::LOOKUPSWITCH:
    case Op::IFEQ: case Op::IFNE: case Op::IFLT: case Op::IFLE: case Op::IFGT:
    case Op::IFGE: case Op::IFNULL: case Op::IFNONNULL:
      return true;
    default:
      return false;
  }
}

struct Node {
  std::vector<uint8_t> frag;  ///< rewritten, branch-free code producing the value
  Ty type = Ty::I64;
  bool pure = true;  ///< safe to re-execute (no calls, no allocation)
};

class Flattener {
 public:
  Flattener(Program& p, Method& m) : p_(p), m_(m) {}

  FlattenStats run() {
    bc::StackMap map = bc::verify_method(p_, m_, /*enforce_msp=*/false);
    collect_boundaries(map);

    for (size_t i = 0; i + 1 <= bounds_.size(); ++i) {
      uint32_t b = bounds_[i];
      uint32_t e = (i + 1 < bounds_.size()) ? bounds_[i + 1] : code_size();
      if (b == e) continue;
      process_segment(b, e, map);
    }
    em_.map_old(code_size());

    m_.code = em_.finish();
    for (auto& ex : m_.ex_table) {
      ex.from_pc = em_.lookup_old(ex.from_pc);
      ex.to_pc = em_.lookup_old(ex.to_pc);
      ex.handler_pc = em_.lookup_old(ex.handler_pc);
    }
    std::sort(new_stmts_.begin(), new_stmts_.end());
    new_stmts_.erase(std::unique(new_stmts_.begin(), new_stmts_.end()), new_stmts_.end());
    m_.stmt_starts = std::move(new_stmts_);
    stats_.statements_out = static_cast<int>(m_.stmt_starts.size());

    bc::StackMap after = bc::verify_method(p_, m_);  // also re-checks MSP invariant
    m_.max_stack = after.max_stack;
    return stats_;
  }

 private:
  uint32_t code_size() const { return static_cast<uint32_t>(orig_code_.size()); }

  [[noreturn]] void fail(const std::string& msg, uint32_t pc) {
    throw Error("flatten: method '" + m_.name + "' pc " + std::to_string(pc) + ": " + msg);
  }

  void collect_boundaries(const bc::StackMap& map) {
    orig_code_ = m_.code;
    std::set<uint32_t> bs;
    bs.insert(0);
    for (uint32_t s : m_.stmt_starts) bs.insert(s);
    for (const auto& ex : m_.ex_table) {
      bs.insert(ex.from_pc);
      if (ex.to_pc < orig_code_.size()) bs.insert(ex.to_pc);
      bs.insert(ex.handler_pc);
    }
    for (uint32_t pc : map.boundaries) {
      Instr in = bc::decode(orig_code_, pc);
      if (bc::is_branch(in.op)) bs.insert(in.arg);
      if (in.op == Op::LOOKUPSWITCH) {
        auto si = bc::decode_switch(orig_code_, pc);
        bs.insert(si.default_target);
        for (auto& [k, t] : si.pairs) bs.insert(t);
      }
    }
    bounds_.assign(bs.begin(), bs.end());
  }

  uint16_t new_temp(Ty t) {
    uint16_t slot = m_.num_locals++;
    m_.var_table.push_back(
        bc::LocalVar{"$t" + std::to_string(stats_.temps_added), t, slot});
    ++stats_.temps_added;
    return slot;
  }

  void begin_stmt() {
    if (new_stmts_.empty() || new_stmts_.back() != em_.here())
      new_stmts_.push_back(em_.here());
  }

  /// Extract `n` into its own statement "tmp = <frag>" and replace it with
  /// a load of the temp.
  void materialize(Node& n) {
    uint16_t tmp = new_temp(n.type);
    begin_stmt();
    em_.append_fragment(n.frag);
    em_.op(bc::store_op(n.type), tmp);
    n.frag.clear();
    bc::emit(n.frag, bc::load_op(n.type), tmp);
    n.pure = true;
  }

  void process_segment(uint32_t b, uint32_t e, const bc::StackMap& map) {
    em_.map_old(b);
    int32_t depth = map.depth[b];
    std::vector<Node> st;
    uint32_t pc = b;

    if (depth > 0) {
      // Exception-handler entry: the exception object is on the stack and
      // must be consumed by the first instruction.
      if (depth != 1) fail("segment entry depth > 1 unsupported", b);
      Instr in = bc::decode(orig_code_, pc);
      if (in.op != Op::POP && in.op != Op::ASTORE)
        fail("handler must start with pop/astore", b);
      em_.copy_instr(m_, pc);
      pc += in.size;
    } else if (depth < 0) {
      // Unreachable segment (e.g. code after a terminator that only the
      // injected passes will target): copy verbatim.
      while (pc < e) {
        Instr in = bc::decode(orig_code_, pc);
        if (pc != b) em_.map_old(pc);
        em_.copy_instr(m_, pc);
        pc += in.size;
      }
      if (m_.is_stmt_start(b)) new_stmts_.push_back(em_.lookup_old(b));
      return;
    }

    while (pc < e) {
      Instr in = bc::decode(orig_code_, pc);
      uint32_t next_pc = pc + in.size;
      const bc::OpInfo& info = bc::op_info(in.op);

      // ---- stack shuffles: only pure values may be duplicated or moved ----
      if (info.stack == bc::StackKind::Dup) {
        if (st.empty()) fail("dup on empty stack", pc);
        if (!st.back().pure) materialize(st.back());
        st.push_back(st.back());
        pc = next_pc;
        continue;
      }
      if (info.stack == bc::StackKind::Swap) {
        if (st.size() < 2) fail("swap needs two nodes", pc);
        if (!st[st.size() - 1].pure) materialize(st[st.size() - 1]);
        if (!st[st.size() - 2].pure) materialize(st[st.size() - 2]);
        std::swap(st[st.size() - 1], st[st.size() - 2]);
        pc = next_pc;
        continue;
      }

      bc::StackEffect fx = bc::stack_effect(p_, in);
      if (st.size() < fx.pops.size()) fail("stack underflow in expression", pc);
      const size_t base = st.size() - fx.pops.size();
      bool call = in.op == Op::INVOKE || in.op == Op::INVOKENATIVE;

      if (fx.push != Ty::Void || call) {
        // ---- producers fold their operands into one node ----
        Node n;
        n.type = fx.push;
        n.pure = !info.effect;
        for (size_t j = base; j < st.size(); ++j) {
          n.frag.insert(n.frag.end(), st[j].frag.begin(), st[j].frag.end());
          n.pure = n.pure && st[j].pure;
        }
        n.frag.insert(n.frag.end(), orig_code_.begin() + pc, orig_code_.begin() + next_pc);
        st.resize(base);
        if (!call) {
          st.push_back(std::move(n));
        } else if (fx.push == Ty::Void) {
          // ---- a void call is a statement of its own ----
          if (!st.empty()) fail("void call with values on stack", pc);
          begin_stmt();
          em_.append_fragment(n.frag);
        } else {
          // ---- a call result is kept only for an immediate consumer ----
          bool keep = st.empty() && next_pc < e &&
                      keeps_call_result(static_cast<Op>(orig_code_[next_pc]));
          if (!keep) ++stats_.calls_extracted;
          st.push_back(std::move(n));
          if (!keep) materialize(st.back());
        }
      } else if (in.op == Op::POP) {
        if (st.back().pure && st.size() > 1) {
          st.pop_back();  // dead pure value; dropping preserves semantics
        } else {
          if (st.size() != 1) fail("pop of impure value with stack below", pc);
          begin_stmt();
          em_.append_fragment(st.back().frag);
          em_.op(Op::POP);
          st.clear();
        }
      } else {
        // ---- statement terminals consume the whole node stack ----
        if (base != 0) fail("statement terminal with extra operands", pc);
        begin_stmt();
        for (auto& n : st) em_.append_fragment(n.frag);
        st.clear();
        em_.copy_instr(m_, pc);
      }
      pc = next_pc;
    }
    if (!st.empty()) fail("segment ends with values on expression stack", e);
  }

  Program& p_;
  Method& m_;
  std::vector<uint8_t> orig_code_;
  std::vector<uint32_t> bounds_;
  Emitter em_;
  std::vector<uint32_t> new_stmts_;
  FlattenStats stats_;
};

}  // namespace

FlattenStats flatten_method(Program& p, Method& m) { return Flattener(p, m).run(); }

}  // namespace sod::prep
