#!/usr/bin/env bash
# Unreached-code gate: lists first-party functions that some sod_core
# object defines but that no linked binary (sodctl, test_*) keeps, one
# demangled symbol per line, and exits 1 if there are any.  Meaningful
# only on a build whose linker drops unreferenced functions:
#
#   cmake -B build -S . -DCMAKE_BUILD_TYPE=Debug \
#     -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
#     -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
#   cmake --build build -j && scripts/unreached.sh build
set -euo pipefail

dir=${1:?usage: scripts/unreached.sh <build-dir>}
shopt -s nullglob
bins=("$dir"/sodctl "$dir"/test_*)
if [[ ! -f $dir/libsod_core.a || ! -x $dir/sodctl ]]; then
  echo "unreached.sh: no libsod_core.a and sodctl in $dir; build it first" >&2
  exit 2
fi

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
unreached=$(comm -23 <(echo "$defined") <(functions "${bins[@]}"))
[[ -z $unreached ]] && exit 0
echo "$unreached"
exit 1
