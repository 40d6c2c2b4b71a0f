// Per-statement dereference analysis.
//
// For each statement of a flattened method, recover which reference
// "bases" the statement dereferences and how each base can be re-obtained
// (its provenance):
//   - a local slot          (aload k; ... getfield f)
//   - a static field        (getstatic S.f; ... daload)
//   - a field of a base     (a.b.c chains)
//   - an element of a base  (arr[i].x)
//
// The object-fault pass turns these into repair calls inside the injected
// NullPointerException handler (paper Section III.C); the status-check
// pass turns them into inline "if (x.__status == 0) bringObj(x)" sequences
// (paper Fig. 5 B1, the JavaSplit baseline).
//
// The scan is one generic step per instruction: pop the operands
// bc::stack_effect names, record the base of the opcodes that dereference,
// push one node.  A node is re-emittable (its code can run again to
// recompute the value) only if every operand is and the opcode has no
// effect in the op table: calls and allocations never re-run.
#pragma once

#include <cstdint>
#include <vector>

#include "bytecode/program.h"

namespace sod::prep {

struct Repair {
  enum class Kind : uint8_t {
    Local,   ///< repair local `slot` (objman.bring_local)
    Static,  ///< repair static field `field` (objman.bring_static)
    Field,   ///< repair `base_frag`.field (objman.bring_field)
    Elem,    ///< repair `base_frag`[idx_frag] (objman.bring_elem)
    Probe,   ///< check-mode only: opaque ref base reached via `base_frag`
  };
  Kind kind = Kind::Local;
  uint16_t slot = 0;    ///< Local
  uint16_t field = 0;   ///< Static / Field
  std::vector<uint8_t> base_frag;  ///< Field / Elem / Probe
  std::vector<uint8_t> idx_frag;   ///< Elem
  /// Class of the base object when statically known from the dereferenced
  /// field (drives the __status field check in check mode).
  uint16_t owner_cls = bc::kNoId;

  bool same_as(const Repair& o) const {
    return kind == o.kind && slot == o.slot && field == o.field && base_frag == o.base_frag &&
           idx_frag == o.idx_frag;
  }
};

struct StmtScan {
  uint32_t start = 0;  ///< statement start pc
  uint32_t end = 0;    ///< exclusive
  /// Fault-mode repair sequence (ordered, deduped; excludes Probe).
  std::vector<Repair> repairs;
  /// Check-mode sequence (ordered, deduped; Local/Static/Probe kinds).
  std::vector<Repair> checks;
};

/// Scan a flattened method.  Statements with no dereferences produce
/// entries with empty repair/check lists.
std::vector<StmtScan> scan_statements(const bc::Program& p, const bc::Method& m);

}  // namespace sod::prep
