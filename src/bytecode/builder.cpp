#include "bytecode/builder.h"

#include <bit>
#include <cstring>

#include "bytecode/verifier.h"

namespace sod::bc {

// ---------------------------------------------------------------- Method

MethodBuilder::MethodBuilder(ProgramBuilder* pb, uint16_t id) : pb_(pb), id_(id) {}

uint16_t MethodBuilder::local(std::string_view name, Ty type) {
  SOD_CHECK(type != Ty::Void, "local cannot be void");
  uint16_t s = next_slot_++;
  vars_.push_back(LocalVar{std::string(name), type, s});
  return s;
}

uint16_t MethodBuilder::slot(std::string_view name) const {
  for (const auto& v : vars_)
    if (v.name == name) return v.slot;
  SOD_UNREACHABLE("unknown local: " + std::string(name));
}

Label MethodBuilder::label() {
  label_pc_.push_back(UINT32_MAX);
  return Label{static_cast<uint32_t>(label_pc_.size() - 1)};
}

MethodBuilder& MethodBuilder::bind(Label l) {
  SOD_CHECK(l.id < label_pc_.size(), "bad label");
  SOD_CHECK(label_pc_[l.id] == UINT32_MAX, "label bound twice");
  label_pc_[l.id] = here();
  return *this;
}

MethodBuilder& MethodBuilder::stmt() {
  if (stmts_.empty() || stmts_.back() != here()) stmts_.push_back(here());
  return *this;
}

MethodBuilder& MethodBuilder::op(Op o, int64_t operand) {
  emit(code_, o, operand);
  return *this;
}

MethodBuilder& MethodBuilder::branch(Op o, Label l) {
  fixups_.push_back(Fixup{emit(code_, o), l.id});
  return *this;
}

MethodBuilder& MethodBuilder::named_u16(Op o, std::string_view qname, bool is_field) {
  pb_->name_fixups_.push_back(
      ProgramBuilder::NameFix{id_, emit(code_, o), std::string(qname), is_field});
  return *this;
}

MethodBuilder& MethodBuilder::iconst(int64_t v) { return op(Op::ICONST, v); }
MethodBuilder& MethodBuilder::dconst(double v) { return op(Op::DCONST, std::bit_cast<int64_t>(v)); }

MethodBuilder& MethodBuilder::aconst_null() { return op(Op::ACONST_NULL); }

MethodBuilder& MethodBuilder::ldc_str(std::string_view s) {
  return op(Op::LDC_STR, pb_->prog_.intern_string(s));
}

MethodBuilder& MethodBuilder::iload(uint16_t s) { return op(Op::ILOAD, s); }
MethodBuilder& MethodBuilder::dload(uint16_t s) { return op(Op::DLOAD, s); }
MethodBuilder& MethodBuilder::aload(uint16_t s) { return op(Op::ALOAD, s); }
MethodBuilder& MethodBuilder::istore(uint16_t s) { return op(Op::ISTORE, s); }
MethodBuilder& MethodBuilder::dstore(uint16_t s) { return op(Op::DSTORE, s); }
MethodBuilder& MethodBuilder::astore(uint16_t s) { return op(Op::ASTORE, s); }

MethodBuilder& MethodBuilder::pop() { return op(Op::POP); }

MethodBuilder& MethodBuilder::iadd() { return op(Op::IADD); }
MethodBuilder& MethodBuilder::isub() { return op(Op::ISUB); }
MethodBuilder& MethodBuilder::imul() { return op(Op::IMUL); }
MethodBuilder& MethodBuilder::idiv() { return op(Op::IDIV); }
MethodBuilder& MethodBuilder::irem() { return op(Op::IREM); }
MethodBuilder& MethodBuilder::ineg() { return op(Op::INEG); }
MethodBuilder& MethodBuilder::ishl() { return op(Op::ISHL); }
MethodBuilder& MethodBuilder::ishr() { return op(Op::ISHR); }
MethodBuilder& MethodBuilder::iand() { return op(Op::IAND); }
MethodBuilder& MethodBuilder::ior() { return op(Op::IOR); }
MethodBuilder& MethodBuilder::ixor() { return op(Op::IXOR); }
MethodBuilder& MethodBuilder::dadd() { return op(Op::DADD); }
MethodBuilder& MethodBuilder::dsub() { return op(Op::DSUB); }
MethodBuilder& MethodBuilder::dmul() { return op(Op::DMUL); }
MethodBuilder& MethodBuilder::ddiv() { return op(Op::DDIV); }
MethodBuilder& MethodBuilder::dneg() { return op(Op::DNEG); }
MethodBuilder& MethodBuilder::i2d() { return op(Op::I2D); }
MethodBuilder& MethodBuilder::d2i() { return op(Op::D2I); }

MethodBuilder& MethodBuilder::go(Label l) { return branch(Op::GOTO, l); }
MethodBuilder& MethodBuilder::ifeq(Label l) { return branch(Op::IFEQ, l); }
MethodBuilder& MethodBuilder::ifne(Label l) { return branch(Op::IFNE, l); }
MethodBuilder& MethodBuilder::if_icmpeq(Label l) { return branch(Op::IF_ICMPEQ, l); }
MethodBuilder& MethodBuilder::if_icmplt(Label l) { return branch(Op::IF_ICMPLT, l); }
MethodBuilder& MethodBuilder::if_icmple(Label l) { return branch(Op::IF_ICMPLE, l); }
MethodBuilder& MethodBuilder::if_icmpgt(Label l) { return branch(Op::IF_ICMPGT, l); }
MethodBuilder& MethodBuilder::if_icmpge(Label l) { return branch(Op::IF_ICMPGE, l); }
MethodBuilder& MethodBuilder::ifnull(Label l) { return branch(Op::IFNULL, l); }

MethodBuilder& MethodBuilder::lookupswitch(Label dflt,
                                           const std::vector<std::pair<int64_t, Label>>& pairs) {
  std::vector<std::pair<int64_t, uint32_t>> keys;
  for (const auto& [key, lbl] : pairs) keys.emplace_back(key, 0);
  std::vector<size_t> at = emit_switch(code_, 0, keys);
  fixups_.push_back(Fixup{at[0], dflt.id});
  for (size_t k = 0; k < pairs.size(); ++k) fixups_.push_back(Fixup{at[k + 1], pairs[k].second.id});
  return *this;
}

MethodBuilder& MethodBuilder::getfield(std::string_view q) { return named_u16(Op::GETFIELD, q, true); }
MethodBuilder& MethodBuilder::putfield(std::string_view q) { return named_u16(Op::PUTFIELD, q, true); }
MethodBuilder& MethodBuilder::getstatic(std::string_view q) { return named_u16(Op::GETSTATIC, q, true); }
MethodBuilder& MethodBuilder::putstatic(std::string_view q) { return named_u16(Op::PUTSTATIC, q, true); }

MethodBuilder& MethodBuilder::new_(std::string_view class_name) {
  uint16_t cid = pb_->prog_.find_class(class_name);
  SOD_CHECK(cid != kNoId, "unknown class: " + std::string(class_name));
  return op(Op::NEW, cid);
}

MethodBuilder& MethodBuilder::newarray(Ty elem) {
  return op(Op::NEWARRAY, static_cast<uint8_t>(elem));
}

MethodBuilder& MethodBuilder::iaload() { return op(Op::IALOAD); }
MethodBuilder& MethodBuilder::iastore() { return op(Op::IASTORE); }
MethodBuilder& MethodBuilder::daload() { return op(Op::DALOAD); }
MethodBuilder& MethodBuilder::dastore() { return op(Op::DASTORE); }
MethodBuilder& MethodBuilder::aaload() { return op(Op::AALOAD); }
MethodBuilder& MethodBuilder::aastore() { return op(Op::AASTORE); }
MethodBuilder& MethodBuilder::arraylen() { return op(Op::ARRAYLEN); }

MethodBuilder& MethodBuilder::invoke(std::string_view q) { return named_u16(Op::INVOKE, q, false); }

MethodBuilder& MethodBuilder::invokenative(std::string_view name) {
  uint16_t nid = pb_->prog_.find_native(name);
  SOD_CHECK(nid != kNoId, "unknown native: " + std::string(name));
  return op(Op::INVOKENATIVE, nid);
}

MethodBuilder& MethodBuilder::ret() { return op(Op::RETURN); }
MethodBuilder& MethodBuilder::iret() { return op(Op::IRETURN); }
MethodBuilder& MethodBuilder::dret() { return op(Op::DRETURN); }
MethodBuilder& MethodBuilder::aret() { return op(Op::ARETURN); }
MethodBuilder& MethodBuilder::throw_() { return op(Op::THROW); }

MethodBuilder& MethodBuilder::ex_entry(uint32_t from, uint32_t to, Label handler,
                                       uint16_t ex_class) {
  ex_.push_back(ExEntry{from, to, 0, ex_class});
  ex_fixups_.push_back(ExFix{ex_.size() - 1, handler.id});
  return *this;
}

void MethodBuilder::finish() {
  if (finished_) return;
  finished_ = true;
  for (const auto& f : fixups_) {
    SOD_CHECK(f.label < label_pc_.size() && label_pc_[f.label] != UINT32_MAX,
              "unbound label in method " + pb_->prog_.method(id_).name);
    uint32_t pc = label_pc_[f.label];
    std::memcpy(code_.data() + f.patch_at, &pc, 4);
  }
  for (const auto& f : ex_fixups_) {
    SOD_CHECK(f.label < label_pc_.size() && label_pc_[f.label] != UINT32_MAX, "unbound ex label");
    ex_[f.index].handler_pc = label_pc_[f.label];
  }
  Method& m = pb_->prog_.method_mut(id_);
  m.code = std::move(code_);
  m.var_table = std::move(vars_);
  m.ex_table = std::move(ex_);
  m.stmt_starts = std::move(stmts_);
  m.num_locals = next_slot_;
}

// ---------------------------------------------------------------- Class

uint16_t ClassBuilder::field(std::string_view name, Ty type, bool is_static) {
  Program& p = pb_->prog_;
  Class& c = p.classes[id_];
  Field f;
  f.id = static_cast<uint16_t>(p.fields.size());
  f.owner = id_;
  f.name = c.name + "." + std::string(name);
  f.type = type;
  f.is_static = is_static;
  f.slot = is_static ? c.num_static_slots++ : c.num_inst_slots++;
  p.fields.push_back(f);
  c.field_ids.push_back(f.id);
  return f.id;
}

MethodBuilder& ClassBuilder::method(std::string_view name,
                                    std::vector<std::pair<std::string, Ty>> params, Ty ret) {
  Program& p = pb_->prog_;
  Class& c = p.classes[id_];
  Method m;
  m.id = static_cast<uint16_t>(p.methods.size());
  m.owner = id_;
  m.name = c.name + "." + std::string(name);
  m.ret = ret;
  p.methods.push_back(m);
  c.method_ids.push_back(m.id);

  auto mb = std::unique_ptr<MethodBuilder>(new MethodBuilder(pb_, m.id));
  for (auto& [pname, pty] : params) {
    mb->local(pname, pty);
    p.methods[m.id].params.push_back(pty);
  }
  pb_->method_builders_.push_back(std::move(mb));
  return *pb_->method_builders_.back();
}

// ---------------------------------------------------------------- Program

ProgramBuilder::ProgramBuilder() {
  static const char* kBuiltins[builtin::kCount] = {
      "NullPointerException", "InvalidStateException",  "OutOfMemoryException",
      "ClassNotFoundException", "ArithmeticException",  "IndexOutOfBoundsException",
  };
  for (int i = 0; i < builtin::kCount; ++i) cls(kBuiltins[i], /*is_exception=*/true);
}

ClassBuilder& ProgramBuilder::cls(std::string_view name, bool is_exception) {
  SOD_CHECK(prog_.find_class(name) == kNoId, "duplicate class: " + std::string(name));
  Class c;
  c.id = static_cast<uint16_t>(prog_.classes.size());
  c.name = std::string(name);
  c.is_exception = is_exception;
  prog_.classes.push_back(c);
  class_builders_.push_back(std::unique_ptr<ClassBuilder>(new ClassBuilder(this, c.id)));
  return *class_builders_.back();
}

uint16_t ProgramBuilder::native(std::string_view name, std::vector<Ty> params, Ty ret) {
  uint16_t existing = prog_.find_native(name);
  if (existing != kNoId) return existing;
  prog_.natives.push_back(NativeDecl{std::string(name), std::move(params), ret});
  return static_cast<uint16_t>(prog_.natives.size() - 1);
}

Program ProgramBuilder::build() {
  SOD_CHECK(!built_, "build() called twice");
  built_ = true;
  for (auto& mb : method_builders_) mb->finish();
  for (const auto& f : name_fixups_) {
    uint16_t id = f.is_field ? prog_.find_field(f.name) : prog_.find_method(f.name);
    SOD_CHECK(id != kNoId,
              std::string(f.is_field ? "unknown field: " : "unknown method: ") + f.name);
    Method& m = prog_.method_mut(f.method_id);
    std::memcpy(m.code.data() + f.patch_at, &id, 2);
  }
  verify_program(prog_);
  return std::move(prog_);
}

}  // namespace sod::bc
