#!/usr/bin/env bash
# Unreached-code gate: lists first-party functions that some sod_core
# object defines but that sodctl does not keep, one demangled symbol per
# line, and exits 1 if there are any.  sodctl is the only reacher: code
# that only tests call belongs in the tests' own library (tests/testlib.cpp),
# not in sod_core.  Meaningful only on a build whose linker drops
# unreferenced functions:
#
#   cmake -B build -S . -DCMAKE_BUILD_TYPE=Debug \
#     -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
#     -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
#   cmake --build build -j && scripts/unreached.sh build
set -euo pipefail

dir=${1:?usage: scripts/unreached.sh <build-dir>}
if [[ ! -f $dir/libsod_core.a || ! -x $dir/sodctl ]]; then
  echo "unreached.sh: no libsod_core.a and sodctl in $dir; build it first" >&2
  exit 2
fi

# Named exemptions, one extended regex per line with its reason.
exempt=(
  # The builder keeps one emitter per opcode, and the tests and the random
  # program generator emit every opcode; no scenario program uses these,
  # nor the exception-table and switch-table plumbing behind them.
  'sod::bc::MethodBuilder::(lookupswitch|ex_entry|throw_|pop|idiv|ineg|dneg)\('
  'sod::bc::MethodBuilder::ExFix'
  'std::pair<long, sod::bc::Label>'
)

# Defined text symbols (global/local/weak), demangled, in namespace sod.
functions() {
  nm --defined-only -C "$@" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ { sub(/^[^ ]+ [^ ]+ /, ""); print }' |
    grep -F 'sod::' | sort -u
}

defined=$(functions "$dir/libsod_core.a") || true
if [[ -z $defined ]]; then
  echo "unreached.sh: no sod:: functions read from $dir/libsod_core.a (is nm installed?)" >&2
  exit 2
fi
unreached=$(comm -23 <(echo "$defined") <(functions "$dir/sodctl") |
  grep -vE "$(IFS='|'; echo "${exempt[*]}")") || true
[[ -z $unreached ]] && exit 0
echo "$unreached"
exit 1
