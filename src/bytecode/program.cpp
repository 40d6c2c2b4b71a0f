#include "bytecode/program.h"

#include <algorithm>
#include <cstring>

#include "support/bytes.h"

namespace sod::bc {

uint32_t Method::stmt_at_or_before(uint32_t pc) const {
  SOD_CHECK(!stmt_starts.empty(), "method has no statement table: " + name);
  auto it = std::upper_bound(stmt_starts.begin(), stmt_starts.end(), pc);
  SOD_CHECK(it != stmt_starts.begin(), "pc before first statement in " + name);
  return *(it - 1);
}

bool Method::is_stmt_start(uint32_t pc) const {
  return std::binary_search(stmt_starts.begin(), stmt_starts.end(), pc);
}

Instr decode(std::span<const uint8_t> code, uint32_t pc) {
  Instr in;
  in.pc = pc;
  in.op = static_cast<Op>(code[pc]);
  in.size = instr_size(code, pc);
  switch (op_info(in.op).operands) {
    case OperKind::None: break;
    case OperKind::U8: in.arg = code[pc + 1]; break;
    case OperKind::U16: {
      uint16_t v;
      std::memcpy(&v, code.data() + pc + 1, 2);
      in.arg = v;
      break;
    }
    case OperKind::Target: {
      uint32_t v;
      std::memcpy(&v, code.data() + pc + 1, 4);
      in.arg = v;
      break;
    }
    case OperKind::I64: std::memcpy(&in.imm_i, code.data() + pc + 1, 8); break;
    case OperKind::F64: std::memcpy(&in.imm_d, code.data() + pc + 1, 8); break;
    case OperKind::Switch: break;  // use decode_switch
  }
  return in;
}

SwitchInfo decode_switch(std::span<const uint8_t> code, uint32_t pc) {
  SOD_CHECK(static_cast<Op>(code[pc]) == Op::LOOKUPSWITCH, "not a lookupswitch");
  SwitchInfo si;
  uint16_t npairs;
  std::memcpy(&npairs, code.data() + pc + 1, 2);
  std::memcpy(&si.default_target, code.data() + pc + 3, 4);
  si.pairs.reserve(npairs);
  uint32_t at = pc + 7;
  for (uint16_t k = 0; k < npairs; ++k) {
    int64_t key;
    uint32_t tgt;
    std::memcpy(&key, code.data() + at, 8);
    std::memcpy(&tgt, code.data() + at + 8, 4);
    si.pairs.emplace_back(key, tgt);
    at += 12;
  }
  return si;
}

namespace {

/// Appends the low `width` bytes of `v`, little endian; returns their offset.
size_t put_le(std::vector<uint8_t>& code, uint64_t v, size_t width) {
  size_t at = code.size();
  code.resize(at + width);
  for (size_t i = 0; i < width; ++i) code[at + i] = static_cast<uint8_t>(v >> (8 * i));
  return at;
}

// Backing storage for the pops of declared-type instructions, indexed by Ty.
constexpr Ty kOne[] = {Ty::Void, Ty::I64, Ty::F64, Ty::Ref};
constexpr Ty kRefThen[][2] = {
    {Ty::Ref, Ty::Void}, {Ty::Ref, Ty::I64}, {Ty::Ref, Ty::F64}, {Ty::Ref, Ty::Ref}};

}  // namespace

size_t emit(std::vector<uint8_t>& code, Op op, int64_t operand) {
  code.push_back(static_cast<uint8_t>(op));
  size_t width = 0;
  switch (op_info(op).operands) {
    case OperKind::None: break;
    case OperKind::U8: width = 1; break;
    case OperKind::U16: width = 2; break;
    case OperKind::Target: width = 4; break;
    case OperKind::I64:
    case OperKind::F64: width = 8; break;
    case OperKind::Switch: SOD_UNREACHABLE("lookupswitch goes through emit_switch");
  }
  return put_le(code, static_cast<uint64_t>(operand), width);
}

std::vector<size_t> emit_switch(std::vector<uint8_t>& code, uint32_t default_target,
                                std::span<const std::pair<int64_t, uint32_t>> pairs) {
  code.push_back(static_cast<uint8_t>(Op::LOOKUPSWITCH));
  put_le(code, pairs.size(), 2);
  std::vector<size_t> targets{put_le(code, default_target, 4)};
  for (const auto& [key, target] : pairs) {
    put_le(code, static_cast<uint64_t>(key), 8);
    targets.push_back(put_le(code, target, 4));
  }
  return targets;
}

StackEffect stack_effect(const Program& p, const Instr& in) {
  const OpInfo& info = op_info(in.op);
  if (info.stack != StackKind::Declared) return {std::span(info.pops, info.npops), info.push};
  if (in.op == Op::INVOKE) {
    const Method& callee = p.method(static_cast<uint16_t>(in.arg));
    return {callee.params, callee.ret};
  }
  if (in.op == Op::INVOKENATIVE) {
    SOD_CHECK(in.arg < p.natives.size(), "bad native id");
    return {p.natives[in.arg].params, p.natives[in.arg].ret};
  }
  Ty t = p.field(static_cast<uint16_t>(in.arg)).type;
  auto ti = static_cast<size_t>(t);
  SOD_CHECK(ti < std::size(kOne), "bad field type");
  switch (in.op) {
    case Op::GETFIELD: return {std::span(&kOne[static_cast<size_t>(Ty::Ref)], 1), t};
    case Op::PUTFIELD: return {kRefThen[ti], Ty::Void};
    case Op::GETSTATIC: return {{}, t};
    case Op::PUTSTATIC: return {std::span(&kOne[ti], 1), Ty::Void};
    default: SOD_UNREACHABLE("declared-type op without a declaration");
  }
}

const Class& Program::cls(uint16_t id) const {
  SOD_CHECK(id < classes.size(), "bad class id");
  return classes[id];
}
const Method& Program::method(uint16_t id) const {
  SOD_CHECK(id < methods.size(), "bad method id");
  return methods[id];
}
Method& Program::method_mut(uint16_t id) {
  SOD_CHECK(id < methods.size(), "bad method id");
  return methods[id];
}
const Field& Program::field(uint16_t id) const {
  SOD_CHECK(id < fields.size(), "bad field id");
  return fields[id];
}

namespace {
template <typename Vec>
uint16_t find_by_name(const Vec& v, std::string_view name) {
  for (const auto& e : v)
    if (e.name == name) return e.id;
  return kNoId;
}
}  // namespace

uint16_t Program::find_class(std::string_view name) const { return find_by_name(classes, name); }
uint16_t Program::find_method(std::string_view name) const { return find_by_name(methods, name); }
uint16_t Program::find_field(std::string_view name) const { return find_by_name(fields, name); }

uint16_t Program::find_native(std::string_view name) const {
  for (size_t i = 0; i < natives.size(); ++i)
    if (natives[i].name == name) return static_cast<uint16_t>(i);
  return kNoId;
}

uint16_t Program::intern_string(std::string_view s) {
  for (size_t i = 0; i < strings.size(); ++i)
    if (strings[i] == s) return static_cast<uint16_t>(i);
  strings.emplace_back(s);
  return static_cast<uint16_t>(strings.size() - 1);
}

namespace {

void write_method(ByteWriter& w, const Method& m) {
  w.u16(m.id);
  w.u16(m.owner);
  w.str(m.name);
  w.u16(static_cast<uint16_t>(m.params.size()));
  for (Ty t : m.params) w.u8(static_cast<uint8_t>(t));
  w.u8(static_cast<uint8_t>(m.ret));
  w.u16(m.num_locals);
  w.u16(m.max_stack);
  w.u32(static_cast<uint32_t>(m.code.size()));
  w.raw(m.code);
  w.u16(static_cast<uint16_t>(m.var_table.size()));
  for (const auto& v : m.var_table) {
    w.str(v.name);
    w.u8(static_cast<uint8_t>(v.type));
    w.u16(v.slot);
  }
  w.u16(static_cast<uint16_t>(m.ex_table.size()));
  for (const auto& e : m.ex_table) {
    w.u32(e.from_pc);
    w.u32(e.to_pc);
    w.u32(e.handler_pc);
    w.u16(e.ex_class);
  }
  w.u32(static_cast<uint32_t>(m.stmt_starts.size()));
  for (uint32_t s : m.stmt_starts) w.u32(s);
}

void write_field(ByteWriter& w, const Field& f) {
  w.u16(f.id);
  w.u16(f.owner);
  w.str(f.name);
  w.u8(static_cast<uint8_t>(f.type));
  w.u8(f.is_static ? 1 : 0);
  w.u16(f.slot);
}

void write_class_meta(ByteWriter& w, const Class& c) {
  w.u16(c.id);
  w.str(c.name);
  w.u16(c.num_inst_slots);
  w.u16(c.num_static_slots);
  w.u8(c.is_exception ? 1 : 0);
}

}  // namespace

std::vector<uint8_t> Program::class_image(uint16_t class_id) const {
  const Class& c = cls(class_id);
  ByteWriter w;
  write_class_meta(w, c);
  w.u16(static_cast<uint16_t>(c.field_ids.size()));
  for (uint16_t fid : c.field_ids) write_field(w, field(fid));
  w.u16(static_cast<uint16_t>(c.method_ids.size()));
  for (uint16_t mid : c.method_ids) write_method(w, method(mid));
  return w.take();
}

size_t Program::class_image_size(uint16_t class_id) const {
  size_t n = cls(class_id).image_bytes;
  SOD_CHECK(n > 0, "class image size read before preprocessing");
  return n;
}

size_t Program::total_image_size() const {
  size_t sz = 0;
  for (const auto& c : classes) sz += class_image(c.id).size();
  return sz;
}

}  // namespace sod::bc
