#include "prep/checks.h"

#include <algorithm>
#include <set>

#include "bytecode/verifier.h"
#include "prep/emitter.h"
#include "prep/faultscan.h"
#include "support/panic.h"

namespace sod::prep {

using bc::Method;
using bc::Op;
using bc::Program;
using bc::Ty;

void add_status_fields(Program& p) {
  for (auto& c : p.classes) {
    if (c.is_exception) continue;
    if (p.find_field(c.name + ".__status") != bc::kNoId) continue;
    bc::Field inst;
    inst.id = static_cast<uint16_t>(p.fields.size());
    inst.owner = c.id;
    inst.name = c.name + ".__status";
    inst.type = Ty::I64;
    inst.is_static = false;
    inst.slot = c.num_inst_slots++;
    p.fields.push_back(inst);
    c.field_ids.push_back(inst.id);

    bc::Field st;
    st.id = static_cast<uint16_t>(p.fields.size());
    st.owner = c.id;
    st.name = c.name + ".__sstatus";
    st.type = Ty::I64;
    st.is_static = true;
    st.slot = c.num_static_slots++;
    p.fields.push_back(st);
    c.field_ids.push_back(st.id);
  }
}

namespace {

uint16_t status_fid(const Program& p, uint16_t cls) {
  if (cls == bc::kNoId || p.cls(cls).is_exception) return bc::kNoId;
  return p.find_field(p.cls(cls).name + ".__status");
}
uint16_t sstatus_fid(const Program& p, uint16_t cls) {
  if (cls == bc::kNoId || p.cls(cls).is_exception) return bc::kNoId;
  return p.find_field(p.cls(cls).name + ".__sstatus");
}

class ChecksPass {
 public:
  ChecksPass(Program& p, Method& m) : p_(p), m_(m) {}

  ChecksStats run() {
    std::vector<StmtScan> scans = scan_statements(p_, m_);
    bc::StackMap map = bc::verify_method(p_, m_);
    orig_ = m_.code;

    std::set<uint32_t> stmt_set(m_.stmt_starts.begin(), m_.stmt_starts.end());

    uint32_t pc = 0;
    size_t next_scan = 0;
    while (pc < orig_.size()) {
      em_.map_old(pc);
      if (stmt_set.count(pc)) {
        while (next_scan < scans.size() && scans[next_scan].start < pc) ++next_scan;
        if (next_scan < scans.size() && scans[next_scan].start == pc)
          emit_checks(scans[next_scan].checks);
      }
      bc::Instr in = bc::decode(orig_, pc);
      em_.copy_instr(m_, pc);
      if (in.op == Op::NEW) rewrite_new(static_cast<uint16_t>(in.arg));
      pc += in.size;
    }
    em_.map_old(static_cast<uint32_t>(orig_.size()));

    m_.code = em_.finish();
    for (auto& ex : m_.ex_table) {
      ex.from_pc = em_.lookup_old(ex.from_pc);
      ex.to_pc = em_.lookup_old(ex.to_pc);
      ex.handler_pc = em_.lookup_old(ex.handler_pc);
    }
    for (auto& s : m_.stmt_starts) s = em_.lookup_old(s);

    bc::StackMap after = bc::verify_method(p_, m_);
    m_.max_stack = after.max_stack;
    return stats_;
  }

 private:
  void emit_frag(const std::vector<uint8_t>& f) { em_.append_fragment(f); }

  /// aload k  (helper fragment)
  static std::vector<uint8_t> load_local(uint16_t slot) {
    std::vector<uint8_t> frag;
    bc::emit(frag, Op::ALOAD, slot);
    return frag;
  }

  void emit_probe(const std::vector<uint8_t>& base) {
    int ok = em_.new_label();
    emit_frag(base);
    em_.op(Op::INVOKENATIVE, native_id("objman.status_probe"));
    em_.branch_label(Op::IFNE, ok);
    emit_frag(base);
    em_.op(Op::INVOKENATIVE, native_id("objman.bring_probe"));
    em_.bind(ok);
    ++stats_.checks_inserted;
  }

  void emit_checks(const std::vector<Repair>& checks) {
    for (const Repair& c : checks) {
      switch (c.kind) {
        case Repair::Kind::Local: {
          uint16_t fid = status_fid(p_, c.owner_cls);
          if (fid == bc::kNoId) {
            emit_probe(load_local(c.slot));
            break;
          }
          int ok = em_.new_label();
          em_.op(Op::ALOAD, c.slot);
          em_.op(Op::GETFIELD, fid);
          em_.branch_label(Op::IFNE, ok);
          em_.op(Op::ALOAD, c.slot);
          em_.op(Op::ICONST, fid);
          em_.op(Op::INVOKENATIVE, native_id("objman.bring_checked"));
          em_.bind(ok);
          ++stats_.checks_inserted;
          break;
        }
        case Repair::Kind::Static: {
          const bc::Field& f = p_.field(c.field);
          uint16_t sfid = sstatus_fid(p_, f.owner);
          if (sfid == bc::kNoId) break;
          int ok = em_.new_label();
          em_.op(Op::GETSTATIC, sfid);
          em_.branch_label(Op::IFNE, ok);
          em_.op(Op::ICONST, c.field);
          em_.op(Op::INVOKENATIVE, native_id("objman.bring_class_checked"));
          em_.bind(ok);
          ++stats_.checks_inserted;
          break;
        }
        case Repair::Kind::Probe:
        case Repair::Kind::Field:
        case Repair::Kind::Elem: {
          if (!c.base_frag.empty()) emit_probe(c.base_frag);
          break;
        }
      }
    }
  }

  void rewrite_new(uint16_t cls) {
    uint16_t fid = status_fid(p_, cls);
    if (fid == bc::kNoId) return;
    em_.op(Op::DUP);
    em_.op(Op::ICONST, 1);
    em_.op(Op::PUTFIELD, fid);
    ++stats_.news_rewritten;
  }

  uint16_t native_id(const char* name) {
    uint16_t id = p_.find_native(name);
    SOD_CHECK(id != bc::kNoId, std::string("native not declared: ") + name);
    return id;
  }

  Program& p_;
  Method& m_;
  std::vector<uint8_t> orig_;
  Emitter em_;
  ChecksStats stats_;
};

}  // namespace

ChecksStats inject_status_checks(Program& p, Method& m) { return ChecksPass(p, m).run(); }

}  // namespace sod::prep
