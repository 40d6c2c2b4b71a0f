#include "prep/emitter.h"

#include <cstring>

#include "support/panic.h"

namespace sod::prep {

using bc::Op;

void Emitter::map_old(uint32_t old_pc) {
  SOD_CHECK(!old_map_.count(old_pc), "old pc mapped twice");
  old_map_[old_pc] = here();
}

uint32_t Emitter::lookup_old(uint32_t old_pc) const {
  auto it = old_map_.find(old_pc);
  SOD_CHECK(it != old_map_.end(), "old pc " + std::to_string(old_pc) + " never mapped");
  return it->second;
}

int Emitter::new_label() {
  label_pc_.push_back(UINT32_MAX);
  return static_cast<int>(label_pc_.size() - 1);
}

void Emitter::bind(int label) {
  SOD_CHECK(label >= 0 && static_cast<size_t>(label) < label_pc_.size(), "bad label");
  SOD_CHECK(label_pc_[label] == UINT32_MAX, "label bound twice");
  label_pc_[label] = here();
}

void Emitter::op(Op o, int64_t operand) { bc::emit(code_, o, operand); }

void Emitter::branch_old(Op o, uint32_t old_target) {
  old_fixups_.push_back(OldFix{bc::emit(code_, o), old_target});
}

void Emitter::branch_label(Op o, int label) {
  label_fixups_.push_back(LabelFix{bc::emit(code_, o), label});
}

void Emitter::lookupswitch_old(const std::vector<std::pair<int64_t, uint32_t>>& pairs,
                               uint32_t default_old) {
  std::vector<size_t> at = bc::emit_switch(code_, default_old, pairs);
  old_fixups_.push_back(OldFix{at[0], default_old});
  for (size_t k = 0; k < pairs.size(); ++k)
    old_fixups_.push_back(OldFix{at[k + 1], pairs[k].second});
}

void Emitter::copy_instr(const bc::Method& m, uint32_t pc) {
  bc::Instr in = bc::decode(m.code, pc);
  if (bc::is_branch(in.op)) {
    branch_old(in.op, in.arg);
    return;
  }
  if (in.op == Op::LOOKUPSWITCH) {
    bc::SwitchInfo si = bc::decode_switch(m.code, pc);
    lookupswitch_old(si.pairs, si.default_target);
    return;
  }
  code_.insert(code_.end(), m.code.begin() + pc, m.code.begin() + pc + in.size);
}

void Emitter::append_fragment(const std::vector<uint8_t>& frag) {
  code_.insert(code_.end(), frag.begin(), frag.end());
}

std::vector<uint8_t> Emitter::finish() {
  for (const auto& f : old_fixups_) {
    uint32_t tgt = lookup_old(f.old_pc);
    std::memcpy(code_.data() + f.at, &tgt, 4);
  }
  for (const auto& f : label_fixups_) {
    SOD_CHECK(label_pc_[f.label] != UINT32_MAX, "unbound emitter label");
    std::memcpy(code_.data() + f.at, &label_pc_[f.label], 4);
  }
  return std::move(code_);
}

}  // namespace sod::prep
