// Whole-program static analyzer over sod::bc::Program.
//
// Layers interprocedural facts on top of the per-method worklist verifier:
//
//   1. A call graph with reachability from the configured entry points,
//      rejecting INVOKEs of undefined (code-less, non-builtin) methods and
//      accounting for unreachable code.
//   2. A statics-effect analysis: which static fields each method reads and
//      writes, closed transitively through callees.  Classes none of whose
//      primitive statics are ever written anywhere in the program are
//      "statics-pure": refresh_primitive_statics can provably skip them
//      (statics mutate only via PUTSTATIC, and every node initializes
//      statics identically from the shared program, so an unwritten slot
//      always bit-compares equal and ships zero bytes).
//   3. A ref-escape analysis: which methods can return or store home refs
//      (ARETURN, or PUTSTATIC of a Ref-typed field), closed transitively,
//      so the ref-forwarding table only tracks classes that can chain.
//   4. A per-MSP captured-state bound: max locals + operand-stack depth
//      over the method's migration-safe points, exposed to placement as a
//      static migration-cost hint.
//
// analyze_program never throws: verifier failures and undefined callees
// become Diagnostics in the AdmissionReport, and `admitted` is simply
// "no diagnostics".  This is the admission gate the cluster runs on every
// tenant program before any class image ships.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bytecode/program.h"

namespace sod::analysis {

struct AnalysisOptions {
  /// Qualified entry-method names used as reachability roots.  Empty means
  /// every defined method is a root (the conservative lint default).
  std::vector<std::string> entries;
};

/// One admission failure, pointed at a class/method/pc.
struct Diagnostic {
  std::string cls;
  std::string method;
  uint32_t pc = UINT32_MAX;  ///< UINT32_MAX when no single pc applies
  std::string message;

  std::string str() const;
};

struct MethodFacts {
  uint16_t id = bc::kNoId;
  bool defined = false;    ///< has code (builtin stubs are code-less)
  bool reachable = false;  ///< from the configured entry roots
  std::vector<uint16_t> callees;        ///< direct INVOKE targets, sorted
  std::vector<uint16_t> statics_read;   ///< field ids, transitive, sorted
  std::vector<uint16_t> statics_written;
  bool writes_statics = false;            ///< any transitive PUTSTATIC
  bool writes_primitive_statics = false;  ///< transitive PUTSTATIC of I64/F64
  bool ref_escape = false;  ///< can return a ref or store one to a static
  uint32_t msp_count = 0;
  /// Max (num_locals + operand depth) over this method's MSPs — the static
  /// bound on per-frame captured state at any migration-safe point.
  uint32_t max_msp_state_slots = 0;
};

struct ClassFacts {
  uint16_t id = bc::kNoId;
  /// Some reachable method (of any class) writes a static field owned by
  /// this class.
  bool statics_written = false;
  /// Some reachable method writes a *primitive* (I64/F64) static of this
  /// class — the condition refresh_primitive_statics actually cares about.
  bool writes_primitive_statics = false;
  /// Some reachable method owned by this class can leak a ref (return or
  /// statically store one) — only these classes can chain forwarded refs.
  bool ref_escape = false;
  /// Max captured-state bound over this class's reachable methods' MSPs.
  uint32_t max_msp_state_slots = 0;
};

struct ProgramFacts {
  std::vector<MethodFacts> methods;  ///< indexed by method id
  std::vector<ClassFacts> classes;   ///< indexed by class id
  size_t reachable_methods = 0;
  size_t unreachable_methods = 0;  ///< defined but unreachable

  /// Safe to skip `cls` in refresh_primitive_statics?  True when no
  /// reachable code writes a primitive static owned by the class.
  bool class_statics_pure(uint16_t cls) const {
    return cls < classes.size() && !classes[cls].writes_primitive_statics;
  }
  bool class_ref_escape(uint16_t cls) const {
    return cls >= classes.size() || classes[cls].ref_escape;
  }
  uint32_t class_msp_state_slots(uint16_t cls) const {
    return cls < classes.size() ? classes[cls].max_msp_state_slots : 0;
  }
  /// Does `method` (by qualified name) transitively write any static?
  /// kNoId-safe; unknown names are conservatively "yes".
  bool method_writes_statics(const bc::Program& p, std::string_view name) const;
};

struct AdmissionReport {
  bool admitted = false;
  ProgramFacts facts;
  std::vector<Diagnostic> diagnostics;
};

/// Run the whole-program analysis.  Never throws; malformed methods and
/// effect violations surface as diagnostics (admitted == diagnostics.empty()).
AdmissionReport analyze_program(const bc::Program& p, const AnalysisOptions& opt = {});

}  // namespace sod::analysis
