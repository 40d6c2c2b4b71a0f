// Human-readable listings of methods and programs (javap equivalent).
#pragma once

#include <string>

#include "bytecode/program.h"

namespace sod::bc {

/// One instruction at `pc`, e.g. "17: invoke Point.getX".
std::string disasm_instr(const Program& p, const Method& m, uint32_t pc);

/// Full method listing: signature, locals, code, exception table, MSPs.
std::string disasm_method(const Program& p, const Method& m);

}  // namespace sod::bc
