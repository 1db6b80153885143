#!/usr/bin/env sh
# Out-of-core smoke: proves the two file readers really run in bounded
# memory, not just that they exist. One workload is written as a text
# file and converted to the binary format (`grassp convert`); the mmap
# source folds the binary file and the chunked source streams the text
# file, each through `grassp run --input` under an address-space cap
# (ulimit -v) whose headroom over the process baseline is smaller than
# either file — any code path that materializes the whole input
# (loadWorkloadFile, a whole-file mmap) dies with ENOMEM, while the
# per-chunk windows and the text chunk reparse must pass and agree with
# each other bit-for-bit.
#
# The baseline is probed empirically (the binary maps Z3, so its VA
# floor is host-dependent): the smallest cap, in PROBE_STEP increments,
# under which an in-memory control run of the same shape succeeds.
#
# Usage: scripts/stream_smoke.sh [build-dir]
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
GRASSP="$BUILD/tools/grassp"
[ -x "$GRASSP" ] || {
    echo "error: $GRASSP not built (cmake --build $BUILD --target grassp)" >&2
    exit 1
}

WORK="${TMPDIR:-/tmp}/grassp-stream-smoke.$$"
mkdir -p "$WORK"
trap 'rm -rf "$WORK"' EXIT INT TERM

# The whole test is meaningless unless `ulimit -v` both (a) can be set
# and (b) is actually enforced — containers and some kernels accept the
# syscall and then ignore the cap. Probe both before doing any work and
# SKIP (exit 77, ctest's SKIP_RETURN_CODE) instead of failing
# spuriously: a binary that maps Z3 cannot possibly run under a 16 MiB
# address-space cap, so if it does, the cap is not being enforced.
if ! sh -c "ulimit -v 16384" 2>/dev/null; then
    echo "SKIP: ulimit -v unsupported (cannot set an address-space cap)"
    exit 77
fi
if sh -c "ulimit -v 16384 && exec '$GRASSP' list" >/dev/null 2>&1; then
    echo "SKIP: ulimit -v unsupported (cap set but not enforced)"
    exit 77
fi

# 8 Mi elements = 64 MiB of binary payload and about as much text; the
# cap's headroom over the probed baseline stays under 48 MiB (probe
# granularity + margin), so nothing may hold a whole file.
ELEMS=8388608
FILE_KB=$((64 * 1024))
MARGIN_KB=$((32 * 1024))
PROBE_STEP_KB=$((16 * 1024))
WORKERS=2
CHUNK_ELEMS=262144 # 2 MiB per resident chunk buffer.

echo "== writing $ELEMS-element text workload, converting it to binary =="
awk -v n="$ELEMS" 'BEGIN {
    srand(99); print "# grassp-workload " n
    for (i = 0; i < n; i++) print int(rand() * 2000001) - 1000000 }' \
    > "$WORK/big.txt"
"$GRASSP" convert "$WORK/big.txt" "$WORK/big.bin"

# Probe: smallest cap where an in-memory run of the same worker shape
# works at all. Everything the control needs (Z3 mappings, thread
# stacks, malloc arenas) is in the baseline; the margin added below is
# for per-chunk buffers only.
BASE_KB=""
CAP_KB=$PROBE_STEP_KB
CEIL_KB=$((4 * 1024 * 1024))
while [ "$CAP_KB" -le "$CEIL_KB" ]; do
    if sh -c "ulimit -v $CAP_KB && exec '$GRASSP' run sum 100000 $WORKERS" \
        >/dev/null 2>&1; then
        BASE_KB=$CAP_KB
        break
    fi
    CAP_KB=$((CAP_KB + PROBE_STEP_KB))
done
if [ -z "$BASE_KB" ]; then
    echo "SKIP: no working baseline cap up to ${CEIL_KB}KB" >&2
    exit 77
fi
CAP_KB=$((BASE_KB + MARGIN_KB))
echo "baseline cap ${BASE_KB}KB, capped run at ${CAP_KB}KB" \
     "(headroom $((CAP_KB - BASE_KB))KB < file ${FILE_KB}KB)"

run_capped() { # run_capped SOURCE FILE
    sh -c "ulimit -v $CAP_KB && exec '$GRASSP' run sum 1 $WORKERS \
        --input '$2' --source $1 --chunk-elems $CHUNK_ELEMS"
}

echo "== mmap source over the binary file under the cap =="
run_capped mmap "$WORK/big.bin" | tee "$WORK/mmap.out"
echo "== chunked source over the text file under the cap =="
run_capped chunked "$WORK/big.txt" | tee "$WORK/chunked.out"
grep -q '^source   = chunked' "$WORK/chunked.out" || {
    echo "FAIL: the text leg did not stream through the chunked source" >&2
    exit 1
}

# Compare the fold answers only — the trailing (0.0XXs) wall-clock on
# the serial line is incidental and differs between runs.
MM=$(grep '^serial' "$WORK/mmap.out" | awk '{print $3}')
CH=$(grep '^serial' "$WORK/chunked.out" | awk '{print $3}')
[ -n "$MM" ] && [ "$MM" = "$CH" ] || {
    echo "FAIL: mmap and chunked folds disagree: '$MM' vs '$CH'" >&2
    exit 1
}
echo "== stream smoke passed: both readers agree under the cap =="
