#!/usr/bin/env bash
# Unreached-code gate: lists first-party functions that some sod_core
# object defines but that no linked binary (sodctl and the build's test_*
# targets) keeps, one demangled symbol per line, and exits 1 if there are
# any.  Meaningful only on a build whose linker drops unreferenced functions:
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

# The test binaries are the build's current test_* targets, not a glob of
# the dir: a stale binary of a deleted test must not keep its callees.
targets=$(cmake --build "$dir" --target help)
bins=("$dir"/sodctl)
for t in $(sed -nE 's/^(\.\.\. )?(test_[A-Za-z0-9_]+)(:.*)?$/\2/p' <<<"$targets" | sort -u); do
  if [[ ! -x $dir/$t ]]; then
    echo "unreached.sh: target $t is not built in $dir; build it first" >&2
    exit 2
  fi
  bins+=("$dir/$t")
done

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
