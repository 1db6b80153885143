#!/usr/bin/env sh
# One-command verification: the tier-1 build + full ctest suite, then a
# ThreadSanitizer build of the concurrency-heavy targets (runner, thread
# pool, process pool, parallel synthesis driver, chaos/fault-injection
# tests) so data
# races in the fault-tolerant paths fail loudly instead of flaking.
#
# Usage: scripts/check.sh [build-dir] [tsan-build-dir]
set -eu

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
TSAN="${2:-build-tsan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier 1: build + full test suite ($BUILD) =="
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

echo "== serve smoke: the synthesis service end to end (30s cap) =="
# Also registered with ctest as serve_smoke_cli; this explicit run keeps
# the service-layer gate visible even under a filtered ctest invocation.
timeout 30 scripts/serve_smoke.sh "$BUILD"

echo "== execution tiers selected per benchmark =="
cmake --build "$BUILD" -j "$JOBS" --target bench_kernels >/dev/null
"$BUILD"/bench/bench_kernels --tiers

echo "== tier 2: ThreadSanitizer over the concurrent paths ($TSAN) =="
# dist_smoke rides along: the coordinator is a single-threaded poll
# loop, but it runs the same ShardScheduler as the threaded runner
# (runtime_scheduler_test drives it alone), and its fork children must
# never inherit a torn lock from an instrumented parent.
cmake -B "$TSAN" -S . -DGRASSP_SANITIZE=thread >/dev/null
cmake --build "$TSAN" -j "$JOBS" --target \
    runtime_runner_test runtime_scheduler_test support_threadpool_test \
    support_cancel_test support_childproc_test smt_solver_test \
    synth_paralleldriver_test chaos_smoke dist_smoke
ctest --test-dir "$TSAN" --output-on-failure -j "$JOBS" \
    -R 'runtime_runner|runtime_scheduler|support_threadpool|support_cancel|support_childproc|smt_solver|paralleldriver|chaos_smoke|dist_smoke'

echo "== all checks passed =="
