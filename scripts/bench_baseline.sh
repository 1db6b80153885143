#!/usr/bin/env sh
# Records the repo's performance baseline at fixed sizes and seeds:
#
#  1. bench_kernels --json  ->  BENCH_kernels.json at the repo root
#     (per-tier fold throughput for every Table-1 benchmark, the tier
#     speedups over the per-element VM, and the distinct kernel's
#     time(2N)/time(N) scaling ratio — ~2 is linear, ~4 was the old
#     O(n*k) membership scan);
#  2. bench_stream --json   ->  BENCH_stream.json at the repo root
#     (MergeTree incremental recompute: sustained append elements/sec
#     and the per-update latency vs a from-scratch refold at 256
#     chunks, every update differentially verified);
#  3. bench_parallel_cpp    ->  printed to stdout (the Table-2 style
#     serial-vs-parallel comparison on emitted C++);
#  4. bench_dist --json     ->  BENCH_dist.json at the repo root
#     (the multi-process runtime against the cluster model at 2^24
#     elements on 4 workers, one per core: cold and warm wall time, the
#     publication share of the warm run, and socket bytes per element —
#     O(1) bytes per shard, since shards travel as descriptors into
#     sealed memfd stripes);
#  5. bench_serve --json    ->  BENCH_serve.json at the repo root
#     (the synthesis service: cache-hit latency vs cold synth per hot
#     benchmark, served-run p50/p90 at 2^10, 2^16 and 2^20 elements next
#     to the same fold in process, and the shed/served split plus hit
#     p50/p99 while a synth flood saturates the solver pool);
#  6. bench_synthesis --json -> BENCH_synth.json at the repo root
#     (cold synthesis of all 27 Table-1 programs, one at a time: time,
#     SMT checks, Unknown verdicts and SMT fallbacks per program).
#
# Deterministic inputs (fixed N and seed) keep runs comparable across
# commits; see EXPERIMENTS.md for how to read the numbers.
#
# Usage: scripts/bench_baseline.sh [build-dir]
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"
N=1048576
SEED=99

cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j "$JOBS" \
    --target bench_kernels bench_stream bench_parallel_cpp bench_dist \
             bench_serve bench_synthesis

echo "== kernel tier throughput (N=$N seed=$SEED) -> BENCH_kernels.json =="
"$BUILD"/bench/bench_kernels --json --n "$N" --seed "$SEED" \
    > BENCH_kernels.json
"$BUILD"/bench/bench_kernels --n "$N" --seed "$SEED"

echo
echo "== ablation: same workload with the fused kernels disabled =="
"$BUILD"/bench/bench_kernels --no-specialize --n "$N" --seed "$SEED"

echo
echo "== ablation: same workload with the native jit tier disabled =="
"$BUILD"/bench/bench_kernels --no-native --n "$N" --seed "$SEED"

echo
echo "== incremental recompute (N=$N, 256 chunks) -> BENCH_stream.json =="
"$BUILD"/bench/bench_stream --json --n "$N" --seed "$SEED" \
    > BENCH_stream.json
"$BUILD"/bench/bench_stream --n "$N" --seed "$SEED"

echo
echo "== emitted parallel C++ (bench_parallel_cpp) =="
"$BUILD"/bench/bench_parallel_cpp

echo
echo "== dist runtime vs cluster model, cold + warm (N=2^24, 4 workers) =="
echo "==   -> BENCH_dist.json =="
"$BUILD"/bench/bench_dist 16777216 --workers 4 --shards 16 \
    --json BENCH_dist.json

echo
echo "== serve hot-path latency + overload shedding -> BENCH_serve.json =="
"$BUILD"/bench/bench_serve --json BENCH_serve.json

echo
echo "== cold synthesis of the 27 programs, --jobs 1 -> BENCH_synth.json =="
"$BUILD"/bench/bench_synthesis --json > BENCH_synth.json

echo
echo "baseline written to BENCH_kernels.json, BENCH_stream.json," \
     "BENCH_dist.json, BENCH_serve.json, and BENCH_synth.json"
