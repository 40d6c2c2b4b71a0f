// Statement flattening — the paper's bytecode rearrangement (Fig. 4a).
//
// Guarantees after the pass:
//   1. Every emitted statement start has an empty operand stack and is
//      recorded in Method::stmt_starts — these are the migration-safe
//      points (MSPs).
//   2. Every non-void call whose result is not immediately consumed by a
//      statement-terminal instruction is extracted into its own statement
//      storing to a fresh temp local ("tmp1 = r.nextInt()" in the paper's
//      example), so re-executing any statement from its start only
//      replays loads/pure expressions before reaching a call.
//   3. Exception-handler entries (operand stack = [exception]) keep their
//      leading POP/ASTORE and continue as regular statements.
//
// Together these make it safe to (a) capture a frame at any MSP with an
// empty operand stack, and (b) restore a *caller* frame by jumping to the
// statement start containing its pending INVOKE and re-executing it.
//
// The pass reads each instruction's stack signature from the op table
// (bc::stack_effect): an opcode that pushes folds its operands into one
// expression node, pure unless some operand or the opcode itself has an
// effect; a call becomes its own statement or temp; an opcode that pushes
// nothing ends the statement.  Only the choice of which consumers may keep
// a call result on the stack is the pass's own.
#pragma once

#include "bytecode/program.h"

namespace sod::prep {

struct FlattenStats {
  int temps_added = 0;
  int calls_extracted = 0;
  int statements_out = 0;
};

/// Flatten one method in place.  Throws sod::Error on shapes the pass
/// does not support (documented in DESIGN.md).
FlattenStats flatten_method(bc::Program& p, bc::Method& m);

}  // namespace sod::prep
