#!/usr/bin/env bash
# Sanitizer matrix driver: build and test under ASan, UBSan, or TSan.
#
#   asan   -DSLIP_SANITIZE=address      full ctest suite
#   ubsan  -DSLIP_SANITIZE=undefined    full ctest suite (fatal UB)
#   tsan   -DSLIP_SANITIZE=thread       concurrency gate: the parallel
#          sweep engine tests, the coherence-lite tests, a multi-job
#          slip-bench sweep, sharded --run-threads 4 scenarios
#          (private-only and shared coherent sliced LLC), and the
#          run-threads metamorphic cases (both pipeline modes over
#          2-, 3- and 4-level shapes)
#
# The full-suite runs exclude obs_test's wall-clock overhead budget
# (ObsTest.DisabledPathUnderTwoPercentOfReferenceAccessTime): it
# compares against a fixed per-access cost measured on an
# uninstrumented Release build, which an instrumented build cannot
# meet. Every other obs_test case still runs.
#
# All output is captured to <build-dir>/sanitize_<mode>.log as well as
# the terminal, so CI can upload the log as an artifact on failure.
# Any sanitizer report fails the script.
#
# usage: tools/sanitize_check.sh <asan|ubsan|tsan> [build-dir]
#        (default build-dir: build-<mode>)

set -euo pipefail

mode=${1:-}
case "$mode" in
  asan)  sanitize=address ;;
  ubsan) sanitize=undefined ;;
  tsan)  sanitize=thread ;;
  *)
    echo "usage: tools/sanitize_check.sh <asan|ubsan|tsan> [build-dir]" >&2
    exit 2
    ;;
esac

repo_root=$(CDPATH='' cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${2:-"$repo_root/build-$mode"}

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"

cmake -B "$build_dir" -S "$repo_root" -DSLIP_SANITIZE="$sanitize" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
log="$build_dir/sanitize_$mode.log"
: > "$log"

# Everything below is mirrored into $log for CI artifact upload.
exec > >(tee -a "$log") 2>&1

case "$mode" in
  asan|ubsan)
    cmake --build "$build_dir" -j "$(nproc)" | tail -5
    echo "== full ctest suite ($mode) =="
    ( cd "$build_dir" && \
      GTEST_FILTER='-ObsTest.DisabledPathUnderTwoPercentOfReferenceAccessTime' \
      ctest --output-on-failure -j "$(nproc)" )
    ;;

  tsan)
    cmake --build "$build_dir" -j "$(nproc)" \
          --target sweep_runner_test slip_policy_test sweep_test \
                   coherence_test metamorphic_test slip-bench slip-sim \
          | tail -5

    echo "== sweep_runner_test (TSan) =="
    "$build_dir/tests/sweep_runner_test"

    echo "== slip_policy_test (TSan) =="
    "$build_dir/tests/slip_policy_test"

    echo "== coherence_test (TSan, merge-side invalidation replay) =="
    "$build_dir/tests/coherence_test"

    echo "== MetamorphicRunThreadsTest (TSan, both pipeline modes) =="
    "$build_dir/tests/metamorphic_test" \
        --gtest_filter='MetamorphicRunThreadsTest.*'

    echo "== slip-bench --jobs 4 (TSan, tiny sweep) =="
    SLIP_BENCH_REFS=20000 SLIP_BENCH_WARMUP=20000 \
    SLIP_BENCH_CACHE="$build_dir/tsan_bench_cache" \
        "$build_dir/bench/slip-bench" --jobs 4 \
        --only fig13_speedup,fig16_multicore > /dev/null

    echo "== slip-sim --run-threads 4 (TSan, sharded pipeline) =="
    "$build_dir/src/slip-sim" \
        --scenario "$repo_root/scenarios/hier3_multicore4.json" \
        --refs 20000 --warmup 20000 --run-threads 4 > /dev/null

    echo "== slip-sim --run-threads 4 (TSan, shared coherent LLC) =="
    "$build_dir/src/slip-sim" \
        --scenario "$repo_root/scenarios/hier3_shared4.json" \
        --refs 20000 --warmup 20000 --run-threads 4 > /dev/null
    ;;
esac

echo "sanitize_check($mode): OK"
