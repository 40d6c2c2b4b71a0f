#include "prep/inject.h"

#include "bytecode/verifier.h"
#include "prep/faultscan.h"
#include "support/panic.h"

namespace sod::prep {

using bc::Method;
using bc::Op;
using bc::Program;
using bc::Ty;

void declare_prep_natives(Program& p) {
  auto add = [&](const char* name, std::vector<Ty> params, Ty ret) {
    if (p.find_native(name) == bc::kNoId)
      p.natives.push_back(bc::NativeDecl{name, std::move(params), ret});
  };
  // CapturedState cursor reads (paper Fig. 4a: CapturedState.read<Type>).
  add("cs.read_i64", {Ty::I64}, Ty::I64);
  add("cs.read_f64", {Ty::I64}, Ty::F64);
  add("cs.read_ref", {Ty::I64}, Ty::Ref);
  add("cs.read_pc", {}, Ty::I64);
  // Object manager (paper Section III.C: ObjMan.bringObj).
  add("objman.enter", {Ty::I64}, Ty::Void);
  add("objman.bring_local", {Ty::I64}, Ty::Void);
  add("objman.bring_static", {Ty::I64}, Ty::Void);
  add("objman.bring_field", {Ty::Ref, Ty::I64}, Ty::Void);
  add("objman.bring_elem", {Ty::Ref, Ty::I64}, Ty::Void);
  // Status-check baseline support (paper Fig. 5 B1).
  add("objman.bring_checked", {Ty::Ref, Ty::I64}, Ty::Void);
  // Exception-driven offload trap (paper Section II.B).
  add("offload.trap", {Ty::I64}, Ty::Void);
  add("objman.bring_class_checked", {Ty::I64}, Ty::Void);
  add("objman.status_probe", {Ty::Ref}, Ty::I64);
  add("objman.bring_probe", {Ty::Ref}, Ty::Void);
}

namespace {

void append_native(std::vector<uint8_t>& code, const Program& p, const char* name) {
  uint16_t id = p.find_native(name);
  SOD_CHECK(id != bc::kNoId, std::string("native not declared: ") + name);
  bc::emit(code, Op::INVOKENATIVE, id);
}

const char* restore_native(Ty t) {
  switch (t) {
    case Ty::I64: return "cs.read_i64";
    case Ty::F64: return "cs.read_f64";
    case Ty::Ref: return "cs.read_ref";
    case Ty::Void: break;
  }
  SOD_UNREACHABLE("void local");
}

}  // namespace

void inject_restore_handler(Program& p, Method& m) {
  SOD_CHECK(!m.stmt_starts.empty(), "method has no MSPs: " + m.name);
  uint32_t orig_end = static_cast<uint32_t>(m.code.size());
  uint32_t handler_pc = orig_end;

  std::vector<uint8_t>& code = m.code;
  // pop the InvalidStateException object
  bc::emit(code, Op::POP);
  // restore every declared local from the CapturedState cursor
  for (const auto& v : m.var_table) {
    bc::emit(code, Op::ICONST, v.slot);
    append_native(code, p, restore_native(v.type));
    bc::emit(code, bc::store_op(v.type), v.slot);
  }
  // jump to the saved pc: each MSP is both the key and the target
  append_native(code, p, "cs.read_pc");
  std::vector<std::pair<int64_t, uint32_t>> arms;
  for (uint32_t s : m.stmt_starts) arms.emplace_back(s, s);
  bc::emit_switch(code, m.stmt_starts.front(), arms);

  // The restoration entry must win over any guest handler: insert first.
  m.ex_table.insert(m.ex_table.begin(),
                    bc::ExEntry{0, orig_end, handler_pc, bc::builtin::kInvalidState});

  bc::StackMap sm = bc::verify_method(p, m);
  m.max_stack = sm.max_stack;
}

InjectStats inject_object_fault_handlers(Program& p, Method& m) {
  InjectStats stats;
  std::vector<StmtScan> scans = scan_statements(p, m);
  std::vector<bc::ExEntry> guest_entries = m.ex_table;  // pre-existing (incl. restore)
  std::vector<bc::ExEntry> new_entries;
  std::vector<uint8_t>& code = m.code;

  for (const auto& ss : scans) {
    if (ss.repairs.empty()) continue;

    // Never cover the statement's INVOKE: an NPE escaping from the callee
    // must reach guest handlers, not trigger a repair-retry that would
    // re-execute the call.  All guest-level dereferences in a flattened
    // statement precede its single INVOKE.
    uint32_t cover_end = ss.end;
    for (uint32_t pc = ss.start; pc < ss.end;) {
      if (static_cast<Op>(m.code[pc]) == Op::INVOKE) {
        cover_end = pc;
        break;
      }
      bc::Instr in = bc::decode(m.code, pc);
      if (bc::is_terminator(in.op)) break;
      pc += in.size;
    }
    if (cover_end == ss.start) continue;  // nothing coverable faults here

    uint32_t handler_pc = static_cast<uint32_t>(code.size());
    ++stats.fault_handlers;

    // pop the NullPointerException object
    bc::emit(code, Op::POP);
    // no-progress retry detection; rethrows as application NPE
    int64_t uid = (static_cast<int64_t>(m.id) << 32) | ss.start;
    bc::emit(code, Op::ICONST, uid);
    append_native(code, p, "objman.enter");
    // repair every base the statement dereferences, in first-use order
    for (const Repair& r : ss.repairs) {
      ++stats.repair_calls;
      switch (r.kind) {
        case Repair::Kind::Local:
          bc::emit(code, Op::ICONST, r.slot);
          append_native(code, p, "objman.bring_local");
          break;
        case Repair::Kind::Static:
          bc::emit(code, Op::ICONST, r.field);
          append_native(code, p, "objman.bring_static");
          break;
        case Repair::Kind::Field:
          code.insert(code.end(), r.base_frag.begin(), r.base_frag.end());
          bc::emit(code, Op::ICONST, r.field);
          append_native(code, p, "objman.bring_field");
          break;
        case Repair::Kind::Elem:
          code.insert(code.end(), r.base_frag.begin(), r.base_frag.end());
          code.insert(code.end(), r.idx_frag.begin(), r.idx_frag.end());
          append_native(code, p, "objman.bring_elem");
          break;
        case Repair::Kind::Probe: SOD_UNREACHABLE("probe in fault repairs");
      }
    }
    // retry the statement
    bc::emit(code, Op::GOTO, ss.start);
    uint32_t handler_end = static_cast<uint32_t>(code.size());

    new_entries.push_back(
        bc::ExEntry{ss.start, cover_end, handler_pc, bc::builtin::kNullPointer});

    // Application NPEs rethrown from inside the handler must still reach
    // any guest handler that covered the original statement.
    for (const auto& ge : guest_entries) {
      bool covers = ge.from_pc <= ss.start && ge.to_pc >= ss.end;
      bool catches_npe =
          ge.ex_class == bc::kAnyClass || ge.ex_class == bc::builtin::kNullPointer;
      if (covers && catches_npe && ge.ex_class != bc::builtin::kInvalidState) {
        new_entries.push_back(bc::ExEntry{handler_pc, handler_end, ge.handler_pc, ge.ex_class});
        ++stats.guest_entries_extended;
      }
    }
  }

  // Fault entries take priority over guest entries for NPEs raised inside
  // their statement; extensions must also precede broader guest entries.
  m.ex_table.insert(m.ex_table.begin(), new_entries.begin(), new_entries.end());
  // ... but the restoration (InvalidState) entry keeps absolute priority.
  for (size_t i = 0; i < m.ex_table.size(); ++i) {
    if (m.ex_table[i].ex_class == bc::builtin::kInvalidState && m.ex_table[i].from_pc == 0) {
      bc::ExEntry e = m.ex_table[i];
      m.ex_table.erase(m.ex_table.begin() + static_cast<long>(i));
      m.ex_table.insert(m.ex_table.begin(), e);
      break;
    }
  }

  bc::StackMap sm = bc::verify_method(p, m);
  m.max_stack = sm.max_stack;
  return stats;
}


int inject_offload_handlers(Program& p, Method& m) {
  int handlers = 0;
  std::vector<uint8_t>& code = m.code;
  const auto stmts = m.stmt_starts;  // copy: we append code below
  for (size_t i = 0; i < stmts.size(); ++i) {
    uint32_t start = stmts[i];
    uint32_t end = (i + 1 < stmts.size()) ? stmts[i + 1] : static_cast<uint32_t>(code.size());
    // Only statements that allocate can raise OutOfMemory.
    bool allocates = false;
    for (uint32_t pc = start; pc < end;) {
      Op op = static_cast<Op>(code[pc]);
      if (op == Op::NEW || op == Op::NEWARRAY || op == Op::LDC_STR) allocates = true;
      if (bc::is_terminator(op)) break;
      pc += bc::instr_size(code, pc);
    }
    if (!allocates) continue;

    uint32_t handler_pc = static_cast<uint32_t>(code.size());
    bc::emit(code, Op::POP);  // the OOM object
    bc::emit(code, Op::ICONST, (static_cast<int64_t>(m.id) << 32) | start);
    append_native(code, p, "offload.trap");
    bc::emit(code, Op::GOTO, start);

    m.ex_table.push_back(bc::ExEntry{start, end, handler_pc, bc::builtin::kOutOfMemory});
    ++handlers;
  }
  if (handlers > 0) {
    bc::StackMap sm = bc::verify_method(p, m);
    m.max_stack = sm.max_stack;
  }
  return handlers;
}

}  // namespace sod::prep
