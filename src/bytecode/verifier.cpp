#include "bytecode/verifier.h"

#include <algorithm>
#include <deque>
#include <optional>

#include "support/panic.h"

namespace sod::bc {

namespace {

using TypeStack = std::vector<Ty>;

class Verifier {
 public:
  Verifier(const Program& p, const Method& m, bool enforce_msp)
      : p_(p), m_(m), enforce_msp_(enforce_msp) {}

  StackMap run() {
    check_params();
    scan_boundaries();
    check_static_targets();
    dataflow();
    if (enforce_msp_) check_stmt_starts();
    return std::move(map_);
  }

 private:
  [[noreturn]] void fail(const std::string& msg, uint32_t pc = UINT32_MAX) {
    std::string where = "verifier: method '" + m_.name + "'";
    if (pc != UINT32_MAX) where += " pc " + std::to_string(pc);
    throw Error(where + ": " + msg);
  }

  void scan_boundaries() {
    if (m_.code.empty()) fail("empty code");
    map_.depth.assign(m_.code.size(), -1);
    uint32_t pc = 0;
    while (pc < m_.code.size()) {
      if (m_.code[pc] >= static_cast<uint8_t>(Op::kOpCount_)) fail("bad opcode", pc);
      // instr_size reads LOOKUPSWITCH's npairs; a header cut short is a
      // rejection here, not an abort there.
      if (static_cast<Op>(m_.code[pc]) == Op::LOOKUPSWITCH && pc + 3 > m_.code.size())
        fail("truncated lookupswitch header", pc);
      map_.boundaries.push_back(pc);
      pc += instr_size(m_.code, pc);
    }
    if (pc != m_.code.size()) fail("instruction overruns code end");
  }

  /// The VM binds parameter i to local slot i at pc 0, typed by params[i].
  void check_params() {
    if (m_.params.size() > m_.num_locals)
      fail(std::to_string(m_.params.size()) + " parameters do not fit " +
               std::to_string(m_.num_locals) + " locals",
           0);
    for (uint16_t i = 0; i < m_.params.size(); ++i) {
      Ty t = local_type(i, 0);
      if (t != m_.params[i])
        fail("parameter " + std::to_string(i) + " is " + ty_name(m_.params[i]) +
                 " but local slot " + std::to_string(i) + " is " + ty_name(t),
             0);
    }
  }

  bool boundary(uint32_t pc) const {
    return std::binary_search(map_.boundaries.begin(), map_.boundaries.end(), pc);
  }

  void check_target(uint32_t tgt, uint32_t pc) {
    if (!boundary(tgt)) fail("branch target " + std::to_string(tgt) + " not at boundary", pc);
  }

  void check_static_targets() {
    for (uint32_t pc : map_.boundaries) {
      Instr in = decode(m_.code, pc);
      if (is_branch(in.op)) check_target(in.arg, pc);
      if (in.op == Op::LOOKUPSWITCH) {
        SwitchInfo si = decode_switch(m_.code, pc);
        check_target(si.default_target, pc);
        for (auto& [k, t] : si.pairs) check_target(t, pc);
      }
    }
    for (const auto& e : m_.ex_table) {
      if (!boundary(e.from_pc) || (e.to_pc != m_.code.size() && !boundary(e.to_pc)) ||
          !boundary(e.handler_pc))
        fail("exception entry range/handler not at boundaries");
      if (e.ex_class != kAnyClass && (e.ex_class >= p_.classes.size() ||
                                      !p_.cls(e.ex_class).is_exception))
        fail("exception entry catches non-exception class");
    }
    for (uint32_t s : m_.stmt_starts)
      if (!boundary(s)) fail("stmt start " + std::to_string(s) + " not at boundary");
    if (!std::is_sorted(m_.stmt_starts.begin(), m_.stmt_starts.end()))
      fail("stmt starts not sorted");
  }

  Ty local_type(uint16_t slot, uint32_t pc) {
    if (slot >= m_.num_locals) fail("local slot out of range", pc);
    for (const auto& v : m_.var_table)
      if (v.slot == slot) return v.type;
    fail("local slot " + std::to_string(slot) + " not in variable table", pc);
  }

  // --- dataflow ---

  void merge(uint32_t pc, const TypeStack& st) {
    auto& slot = states_[pc];
    if (!slot.has_value()) {
      slot = st;
      work_.push_back(pc);
      return;
    }
    if (*slot != st) fail("inconsistent stack at merge", pc);
  }

  /// Pops one value of type `want` (Void = any value).
  void pop_t(TypeStack& st, Ty want, uint32_t pc) {
    if (st.empty()) fail("pop from empty stack", pc);
    Ty got = st.back();
    st.pop_back();
    if (want != Ty::Void && got != want)
      fail(std::string("expected ") + ty_name(want) + " got " + ty_name(got), pc);
  }

  void dataflow() {
    states_.assign(m_.code.size(), std::nullopt);
    merge(0, {});
    // Handler entries execute with just the exception ref on the stack.
    for (const auto& e : m_.ex_table) merge(e.handler_pc, {Ty::Ref});

    while (!work_.empty()) {
      uint32_t pc = work_.front();
      work_.pop_front();
      step(pc, *states_[pc]);  // step works on its own copy
    }

    uint16_t mx = 0;
    for (uint32_t pc : map_.boundaries) {
      if (states_[pc].has_value()) {
        map_.depth[pc] = static_cast<int32_t>(states_[pc]->size());
        mx = std::max<uint16_t>(mx, static_cast<uint16_t>(states_[pc]->size()));
      }
    }
    // Depths recorded at boundaries underestimate transient depth inside an
    // instruction (e.g. operands pushed for INVOKE).  Account for the
    // biggest transient bump.
    map_.max_stack = static_cast<uint16_t>(mx + max_transient_);
  }

  void flow_to(uint32_t pc, const TypeStack& st) {
    if (pc == m_.code.size()) fail("control flows off end of code");
    merge(pc, st);
  }

  /// One instruction: check what its operand names, apply its stack
  /// effect, then flow to its successors.
  void step(uint32_t pc, TypeStack st) {
    Instr in = decode(m_.code, pc);
    const OpInfo& info = op_info(in.op);
    check_operand(in, info, pc);
    switch (info.stack) {
      case StackKind::Dup:
        if (st.empty()) fail("dup on empty stack", pc);
        st.push_back(st.back());
        break;
      case StackKind::Swap:
        if (st.size() < 2) fail("swap needs two values", pc);
        std::swap(st[st.size() - 1], st[st.size() - 2]);
        break;
      case StackKind::Fixed:
      case StackKind::Declared: {
        StackEffect fx = stack_effect(p_, in);
        for (size_t i = fx.pops.size(); i-- > 0;) pop_t(st, fx.pops[i], pc);
        if (fx.push != Ty::Void) st.push_back(fx.push);
        break;
      }
    }
    if (info.branch) flow_to(in.arg, st);
    if (in.op == Op::LOOKUPSWITCH) {
      SwitchInfo si = decode_switch(m_.code, pc);
      flow_to(si.default_target, st);
      for (auto& [k, t] : si.pairs) flow_to(t, st);
    }
    if (!info.terminator) flow_to(pc + in.size, st);
  }

  /// Checks the local, pool entry, declaration or element type an operand
  /// names, and that a return matches the method's type, so that
  /// stack_effect can read it.
  void check_operand(const Instr& in, const OpInfo& info, uint32_t pc) {
    switch (in.op) {
      case Op::LDC_STR:
        if (in.arg >= p_.strings.size()) fail("bad string index", pc);
        break;
      case Op::ILOAD: case Op::DLOAD: case Op::ALOAD:
        if (local_type(static_cast<uint16_t>(in.arg), pc) != info.push)
          fail(std::string(info.name) + " of non-" + ty_name(info.push), pc);
        break;
      case Op::ISTORE: case Op::DSTORE: case Op::ASTORE:
        if (local_type(static_cast<uint16_t>(in.arg), pc) != info.pops[0])
          fail(std::string(info.name) + " to non-" + ty_name(info.pops[0]), pc);
        break;
      case Op::GETFIELD: case Op::PUTFIELD: field_at(in.arg, pc, false); break;
      case Op::GETSTATIC: case Op::PUTSTATIC: field_at(in.arg, pc, true); break;
      case Op::NEW:
        if (in.arg >= p_.classes.size()) fail("bad class id", pc);
        break;
      case Op::NEWARRAY:
        if (!is_value_type(static_cast<Ty>(in.arg))) fail("bad array elem type", pc);
        break;
      case Op::INVOKE:
        if (in.arg >= p_.methods.size()) fail("bad method id", pc);
        check_args(p_.method(static_cast<uint16_t>(in.arg)).params, pc);
        break;
      case Op::INVOKENATIVE:
        if (in.arg >= p_.natives.size()) fail("bad native id", pc);
        check_args(p_.natives[in.arg].params, pc);
        break;
      case Op::RETURN: case Op::IRETURN: case Op::DRETURN: case Op::ARETURN:
        if (m_.ret != (info.npops ? info.pops[0] : Ty::Void))
          fail(std::string(info.name) + " type mismatch", pc);
        break;
      default: break;
    }
  }

  void check_args(std::span<const Ty> params, uint32_t pc) {
    if (!std::all_of(params.begin(), params.end(), is_value_type))
      fail("callee parameter of no value type", pc);
    max_transient_ = std::max<uint16_t>(max_transient_, static_cast<uint16_t>(params.size()));
  }

  void field_at(uint32_t id, uint32_t pc, bool want_static) {
    if (id >= p_.fields.size()) fail("bad field id", pc);
    const Field& f = p_.field(static_cast<uint16_t>(id));
    if (f.is_static != want_static) fail("static/instance field mismatch: " + f.name, pc);
    if (!is_value_type(f.type)) fail("field of no value type: " + f.name, pc);
  }

  void check_stmt_starts() {
    for (uint32_t s : m_.stmt_starts) {
      if (states_[s].has_value() && !states_[s]->empty())
        fail("statement start has non-empty operand stack (MSP invariant)", s);
    }
  }

  const Program& p_;
  const Method& m_;
  bool enforce_msp_;
  StackMap map_;
  std::vector<std::optional<TypeStack>> states_;
  std::deque<uint32_t> work_;
  uint16_t max_transient_ = 1;
};

}  // namespace

StackMap verify_method(const Program& p, const Method& m, bool enforce_msp) {
  return Verifier(p, m, enforce_msp).run();
}

void verify_program(Program& p) {
  for (auto& m : p.methods) {
    if (m.code.empty()) continue;  // declared but never built (builtin exception classes)
    StackMap sm = verify_method(p, m);
    m.max_stack = sm.max_stack;
  }
}

}  // namespace sod::bc
