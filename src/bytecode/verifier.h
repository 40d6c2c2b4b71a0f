// Bytecode verifier.
//
// Runs a worklist dataflow over the typed operand stack, checking that
// every instruction's operands match, branch targets land on instruction
// boundaries, locals are accessed with the declared types, and every path
// terminates.  It computes max_stack and — crucially for SOD — validates
// the migration-safe-point invariant: each pc in Method::stmt_starts must
// have an empty operand stack on every path reaching it.
//
// Each step has three parts: a check of what the operand names (local
// type, pool index, field/method/native id, return type, NEWARRAY element
// type), the pops and push of bc::stack_effect, and the successors the op
// table's branch/terminator flags give.  Nothing here is per-opcode stack
// knowledge; that lives in the op table alone.
//
// The method header is checked too: parameters must fit num_locals, with
// each parameter slot's variable-table type equal to its declared type
// (the VM binds them at pc 0).  Malformed code, including an instruction
// cut short by the end of the code, is a thrown sod::Error, never an
// abort, so the admission gate can turn it into a diagnostic.
//
// The resulting StackMap (operand-stack depth per pc) is also consumed by
// the preprocessor when it flattens statements and plans handler
// injection.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bytecode/program.h"

namespace sod::bc {

struct StackMap {
  /// Operand stack depth at each instruction boundary; -1 if the pc is not
  /// an instruction boundary or is unreachable.
  std::vector<int32_t> depth;
  /// Sorted instruction-boundary pcs.
  std::vector<uint32_t> boundaries;
  uint16_t max_stack = 0;

  bool is_boundary(uint32_t pc) const {
    return pc < depth.size() && depth[pc] >= 0 &&
           std::binary_search(boundaries.begin(), boundaries.end(), pc);
  }
};

/// Verify one method; throws sod::Error with a diagnostic on invalid code.
/// `enforce_msp` controls the empty-stack-at-statement-start check; the
/// preprocessor disables it when analysing not-yet-flattened input.
StackMap verify_method(const Program& p, const Method& m, bool enforce_msp = true);

/// Verify all methods and fill in Method::max_stack.
void verify_program(Program& p);

}  // namespace sod::bc
