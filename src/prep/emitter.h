// Low-level code emitter used by the preprocessor's rewriting passes.
//
// Rewrites work by re-emitting a method's code into a fresh buffer.
// Branch operands can refer to either
//   - *old* pcs (positions in the original code) which are remapped once
//     the pass records where each original boundary landed, or
//   - fresh labels for newly injected control flow.
// Instructions are encoded by bc::emit / bc::emit_switch; the Emitter only
// records where their targets must be patched.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bytecode/program.h"

namespace sod::prep {

class Emitter {
 public:
  uint32_t here() const { return static_cast<uint32_t>(code_.size()); }

  /// Record that original pc `old_pc` corresponds to the current position.
  void map_old(uint32_t old_pc);
  /// Translate an original pc after emission (panics if never mapped).
  uint32_t lookup_old(uint32_t old_pc) const;
  bool has_old(uint32_t old_pc) const { return old_map_.count(old_pc) != 0; }

  // --- label management for injected control flow ---
  int new_label();
  void bind(int label);

  // --- emission ---
  /// Any instruction but LOOKUPSWITCH, with its operand (see bc::emit).
  void op(bc::Op o, int64_t operand = 0);
  /// Branch to an original pc (remapped at finish()).
  void branch_old(bc::Op o, uint32_t old_target);
  /// Branch to an injected label.
  void branch_label(bc::Op o, int label);
  /// LOOKUPSWITCH whose targets are original pcs (remapped at finish());
  /// keys are emitted as given.
  void lookupswitch_old(const std::vector<std::pair<int64_t, uint32_t>>& pairs,
                        uint32_t default_old);

  /// Copy the instruction at `pc` of `m` verbatim, converting any branch
  /// targets into old-pc fixups.
  void copy_instr(const bc::Method& m, uint32_t pc);

  /// Append raw already-built fragment (no targets inside).
  void append_fragment(const std::vector<uint8_t>& frag);

  /// Resolve all fixups and return the code.  All referenced old pcs must
  /// have been mapped, all labels bound.
  std::vector<uint8_t> finish();

 private:
  struct OldFix {
    size_t at;
    uint32_t old_pc;
  };
  struct LabelFix {
    size_t at;
    int label;
  };
  std::vector<uint8_t> code_;
  std::unordered_map<uint32_t, uint32_t> old_map_;
  std::vector<OldFix> old_fixups_;
  std::vector<LabelFix> label_fixups_;
  std::vector<uint32_t> label_pc_;
};

}  // namespace sod::prep
