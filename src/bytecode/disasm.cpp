#include "bytecode/disasm.h"

#include <cstdio>

namespace sod::bc {

namespace {
std::string num(int64_t v) { return std::to_string(v); }
}  // namespace

std::string disasm_instr(const Program& p, const Method& m, uint32_t pc) {
  Instr in = decode(m.code, pc);
  const OpInfo& info = op_info(in.op);
  std::string out = num(pc) + ": " + info.name;
  // Appends piecewise rather than via `"lit" + std::string` temporaries
  // (which also trips gcc 12's -Wrestrict false positive, PR 105651).
  switch (info.operands) {
    case OperKind::None: break;
    case OperKind::I64: out += ' '; out += num(in.imm_i); break;
    case OperKind::F64: {
      char buf[32];
      std::snprintf(buf, sizeof buf, " %g", in.imm_d);
      out += buf;
      break;
    }
    case OperKind::U8: out += ' '; out += num(in.arg); break;
    case OperKind::U16:
      out += ' ';
      out += num(in.arg);
      switch (in.op) {
        case Op::GETFIELD: case Op::PUTFIELD: case Op::GETSTATIC: case Op::PUTSTATIC:
          if (in.arg < p.fields.size()) {
            out += " ;";
            out += p.field(static_cast<uint16_t>(in.arg)).name;
          }
          break;
        case Op::INVOKE:
          if (in.arg < p.methods.size()) {
            out += " ;";
            out += p.method(static_cast<uint16_t>(in.arg)).name;
          }
          break;
        case Op::INVOKENATIVE:
          if (in.arg < p.natives.size()) {
            out += " ;";
            out += p.natives[in.arg].name;
          }
          break;
        case Op::NEW:
          if (in.arg < p.classes.size()) {
            out += " ;";
            out += p.cls(static_cast<uint16_t>(in.arg)).name;
          }
          break;
        case Op::LDC_STR:
          if (in.arg < p.strings.size()) {
            out += " ;\"";
            out += p.strings[in.arg];
            out += '"';
          }
          break;
        default: break;
      }
      break;
    case OperKind::Target: out += " -> "; out += num(in.arg); break;
    case OperKind::Switch: {
      SwitchInfo si = decode_switch(m.code, pc);
      out += " default -> ";
      out += num(si.default_target);
      for (auto& [k, t] : si.pairs) {
        out += ", ";
        out += num(k);
        out += " -> ";
        out += num(t);
      }
      break;
    }
  }
  return out;
}

std::string disasm_method(const Program& p, const Method& m) {
  std::string out = "method " + m.name + "(";
  for (size_t i = 0; i < m.params.size(); ++i) {
    if (i) out += ", ";
    out += ty_name(m.params[i]);
  }
  out += std::string(") -> ") + ty_name(m.ret);
  out += "  locals=" + num(m.num_locals) + " max_stack=" + num(m.max_stack) +
         " code=" + num(static_cast<int64_t>(m.code.size())) + "B\n";
  uint32_t pc = 0;
  while (pc < m.code.size()) {
    std::string line = disasm_instr(p, m, pc);
    if (m.is_stmt_start(pc)) out += "  * " + line + "\n";
    else out += "    " + line + "\n";
    pc += instr_size(m.code, pc);
  }
  if (!m.ex_table.empty()) {
    out += "  exception table (from, to, handler, class):\n";
    for (const auto& e : m.ex_table) {
      out += "    [" + num(e.from_pc) + ", " + num(e.to_pc) + ") -> " + num(e.handler_pc) + "  " +
             (e.ex_class == kAnyClass ? "any" : p.cls(e.ex_class).name) + "\n";
    }
  }
  return out;
}

}  // namespace sod::bc
