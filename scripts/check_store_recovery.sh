#!/usr/bin/env sh
# Kill-9-mid-write recovery drill for the persistent result store.
#
# Repeatedly hard-kills a uovd run partway through solving a query
# batch into --store, then performs one clean run against the battered
# store file and asserts:
#
#   1. responses are byte-identical to a storeless reference run
#      (recovery never changes an answer), and
#   2. the final run served at least one answer from disk
#      (uov_service_store_hits_total > 0 in its --metrics dump -- the
#      kills really persisted work), and the dump passes
#      scripts/check_prometheus.py.
#
# Torn tails left by the kills are truncated at the next open (see
# src/service/store.h); this script is the end-to-end check that the
# repair discipline holds under real SIGKILL, not just the in-process
# fail points.
#
# Usage: scripts/check_store_recovery.sh [build-dir] [kill-rounds]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
rounds=${2:-3}
uovd="$build_dir/src/driver/uovd"

workdir=$(mktemp -d "${TMPDIR:-/tmp}/uov-store-recovery.XXXXXX")
trap 'rm -rf "$workdir"' EXIT INT TERM

queries="$workdir/queries.txt"
store="$workdir/results.store"

# A batch big enough that a SIGKILL a few milliseconds in lands while
# appends are still streaming: widening shortest/storage pairs.
: > "$queries"
k=1
while [ "$k" -le 40 ]; do
    echo "query shortest deps [1,0] [$k,1] [1,-$k]" >> "$queries"
    echo "query storage bounds 0..15 0..63 deps [1,0] [$k,1]" \
        >> "$queries"
    k=$((k + 1))
done

echo "== storeless reference run"
"$uovd" --input "$queries" --output "$workdir/reference.out"

i=1
while [ "$i" -le "$rounds" ]; do
    echo "== kill round $i/$rounds"
    "$uovd" --input "$queries" --store "$store" \
        --output /dev/null 2> "$workdir/kill$i.log" &
    pid=$!
    # Long enough to open the store and persist some answers, short
    # enough to die mid-batch.
    sleep 0.2
    kill -9 "$pid" 2> /dev/null || true
    wait "$pid" 2> /dev/null || true
    if [ -f "$store" ]; then
        echo "   store is $(wc -c < "$store") bytes after the kill"
    else
        echo "   store not created yet (killed before open)"
    fi
    i=$((i + 1))
done

echo "== clean run against the battered store"
"$uovd" --input "$queries" --store "$store" \
    --output "$workdir/final.out" \
    --metrics "$workdir/final.metrics.prom" \
    2> "$workdir/final.log"
cat "$workdir/final.log"

if ! cmp -s "$workdir/reference.out" "$workdir/final.out"; then
    echo "FAIL: recovered-store responses differ from the storeless" \
         "reference" >&2
    diff "$workdir/reference.out" "$workdir/final.out" >&2 || true
    exit 1
fi
echo "   responses byte-identical to the storeless reference"

python3 "$repo_root/scripts/check_prometheus.py" \
    "$workdir/final.metrics.prom"

python3 - "$workdir/final.metrics.prom" <<'EOF'
import sys

counters = {}
with open(sys.argv[1]) as f:
    for line in f:
        if line.startswith("#") or not line.strip():
            continue
        name, value = line.rsplit(None, 1)
        counters[name] = int(value)
hits = counters.get("uov_service_store_hits_total", 0)
loaded = counters.get("uov_service_store_loaded_total", 0)
print(f"   store hits: {hits}, records preloaded/loaded: {loaded}")
if hits <= 0 and loaded <= 0:
    sys.exit("FAIL: final run never touched persisted answers -- the "
             "kill rounds persisted nothing (raise the sleep?)")
EOF

echo "store recovery drill: OK"
