#!/usr/bin/env sh
# Guard against dead code in src/: every function a src/ library
# defines must be linked by some product binary or be named, with its
# reason, in scripts/unreached_keep.txt.
#
# The product binaries are uovd, uovfuzz, every bench, every example
# (uovc included) and perfbench's driver.  They are built at -O0 with
# one section per function and linked with --gc-sections, so each
# binary keeps exactly the functions its entry points reach.  A strong
# (T) function of a src/ library that no binary keeps is "unlinked".
#
# The check fails when
#   1. an unlinked function is missing from the keep-list, or
#   2. a keep-list entry is linked after all, or defined nowhere, so
#      the list never names more than it explains.
#
# Keep-list format: one entry a line, the demangled name exactly as
# `nm -C` prints it, then " # " and the reason it stays.  Lines that
# start with '#' are comments.
#
# Usage: scripts/check_unreached.sh [build-dir]
#   build-dir defaults to build-unreached/ at the repository root; the
#   perfbench driver is built under <build-dir>/perfbench.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-unreached"}
keep_list="$repo_root/scripts/unreached_keep.txt"
jobs=$(nproc 2> /dev/null || echo 2)

export LC_ALL=C

work=$(mktemp -d "${TMPDIR:-/tmp}/uov-unreached.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM

# Run one build step quietly; on failure show the end of its output.
quiet() {
    if ! "$@" > "$work/step.log" 2>&1; then
        tail -n 40 "$work/step.log" >&2
        echo "check_unreached: failed: $*" >&2
        exit 2
    fi
}

configure() { # source-dir build-dir
    quiet cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
        -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
}

# Every executable the bench, example, driver and fuzz trees declare.
targets=$(cd "$repo_root" && grep -ho \
    '^\(uov_add_bench\|uov_add_example\|add_executable\)([a-z0-9_][a-z0-9_]*' \
    bench/CMakeLists.txt examples/CMakeLists.txt \
    src/driver/CMakeLists.txt src/fuzz/CMakeLists.txt | sed 's/.*(//')

echo "== building $(echo "$targets" | wc -l) product binaries + perfbench_driver"
configure "$repo_root" "$build_dir"
# shellcheck disable=SC2086  # one word per target
quiet cmake --build "$build_dir" --parallel "$jobs" --target $targets
configure "$repo_root/perfbench" "$build_dir/perfbench"
quiet cmake --build "$build_dir/perfbench" --parallel "$jobs" \
    --target perfbench_driver

# Strong text symbols, demangled: the name is everything after the
# address and the type letter.
text_symbols() { # types files...
    types=$1
    shift
    nm -C --defined-only "$@" 2> /dev/null |
        sed -n "s/^[0-9a-f]* [$types] //p"
}

: > "$work/binaries"
for t in $targets perfbench_driver; do
    bin=$(find "$build_dir" -path '*/CMakeFiles' -prune -o \
        -type f -name "$t" -perm -u+x -print | head -n 1)
    if [ -z "$bin" ]; then
        echo "check_unreached: no binary built for target $t" >&2
        exit 2
    fi
    echo "$bin" >> "$work/binaries"
done
nbin=$(wc -l < "$work/binaries")

find "$build_dir/src" -name 'libuov_*.a' > "$work/libs"
# shellcheck disable=SC2046  # archive paths hold no spaces
text_symbols T $(cat "$work/libs") | sort -u > "$work/defined"
# shellcheck disable=SC2046
text_symbols TtWw $(cat "$work/binaries") | sort -u > "$work/linked"
comm -23 "$work/defined" "$work/linked" > "$work/unlinked"

if grep -v '^#' "$keep_list" | grep -v ' # ..*$' | grep -q .; then
    echo "check_unreached: keep-list entries without a ' # reason':" >&2
    grep -v '^#' "$keep_list" | grep -v ' # ..*$' | grep . >&2
    exit 2
fi
grep -v '^#' "$keep_list" | sed -n 's/ # .*$//p' | sort -u > "$work/kept"

status=0
comm -23 "$work/unlinked" "$work/kept" > "$work/missing"
if [ -s "$work/missing" ]; then
    echo "FAIL: src/ functions no product binary links; delete them," \
        "or list each in scripts/unreached_keep.txt with its reason:"
    sed 's/^/  /' "$work/missing"
    status=1
fi
comm -13 "$work/unlinked" "$work/kept" > "$work/stale"
if [ -s "$work/stale" ]; then
    echo "FAIL: keep-list entries that are linked or no longer defined;" \
        "remove them from scripts/unreached_keep.txt:"
    sed 's/^/  /' "$work/stale"
    status=1
fi

echo "$nbin product binaries, $(wc -l < "$work/defined") src/ functions," \
    "$(wc -l < "$work/unlinked") unlinked, $(wc -l < "$work/kept") on the keep-list"
exit "$status"
