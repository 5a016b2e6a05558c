#!/usr/bin/env bash
# Link-map audit: print every strong (`T`) symbol defined in the src/
# libraries that no shipped executable keeps after --gc-sections.
#
# Usage: tools/dead_symbols.sh <build-dir> <perfbench-build-dir>
#
# Configure both builds with section-per-function and linker GC, e.g.
#   F="-ffunction-sections -fdata-sections"
#   cmake -S . -B build-gc -DCMAKE_BUILD_TYPE=Release \
#     "-DCMAKE_CXX_FLAGS=$F" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
#   cmake -S perfbench -B build-gc-pb -DCMAKE_BUILD_TYPE=Release \
#     "-DCMAKE_CXX_FLAGS=$F" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
# and build both.  Shipped executables are the benches, examples and tools
# of the first build and perfbench of the second; test binaries do not
# count.  The list is a candidate list, not a verdict: a function inlined
# into every caller in its own translation unit is listed although it is
# used, so grep each name before deleting it.  Always exits 0.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 <build-dir> <perfbench-build-dir>" >&2
    exit 2
fi
build=$1
perfbench_build=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mapfile -t libraries < <(find "$build/src" -name 'libgb_*.a' | sort)
if [[ ${#libraries[@]} -eq 0 ]]; then
    echo "$0: no src/ libraries under $build/src" >&2
    exit 2
fi
nm --defined-only -g "${libraries[@]}" 2>/dev/null |
    awk '$2 == "T" { print $3 }' | sort -u >"$tmp/defined"

executables=()
for candidate in "$build"/bench/* "$build"/examples/* "$build"/tools/* \
    "$perfbench_build"/perfbench; do
    if [[ -f $candidate && -x $candidate &&
        $(head -c 4 "$candidate") == $'\x7fELF' ]]; then
        executables+=("$candidate")
    fi
done
if [[ ${#executables[@]} -eq 0 ]]; then
    echo "$0: no executables found" >&2
    exit 2
fi
for exe in "${executables[@]}"; do
    nm --defined-only "$exe" | awk '{ print $3 }'
done | sort -u >"$tmp/kept"

comm -23 "$tmp/defined" "$tmp/kept" >"$tmp/dead"
echo "# ${#executables[@]} executables; $(wc -l <"$tmp/dead") of" \
    "$(wc -l <"$tmp/defined") src/ strong symbols kept by none"
c++filt <"$tmp/dead"
exit 0
