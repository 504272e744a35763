#!/bin/sh
# Trace ingestion smoke. Capture a workload with slip-trace (gzip when
# the build found zlib), inspect and validate it, and replay it through
# slip-bench's scenario front-end (the sweep engine path, with the
# content-hashed cache key) serially and pipelined, with separate cache
# directories emptied first, so both runs (and a rerun of the test) are
# real recomputations: the outputs must be byte-identical. Then:
#  - slip-sim --scenario and slip-bench --scenario reports carry the
#    same, non-empty provenance trace_hash;
#  - slip-sim --trace loops a short trace: 1,000 records measure the
#    5,000 references asked for;
#  - slip-sim --trace rejects an empty trace by name, writing no stats;
#  - slip-trace reads a trace from a pipe, plain and (with zlib) gzip,
#    while slip-sim --trace rejects a pipe by name and replays a
#    regular file redirected to /dev/stdin;
#  - slip-sim rejects --bench together with --trace, naming both.
#
# usage: trace_smoke.sh SLIP_TRACE SLIP_BENCH SLIP_SIM CAPTURE_NAME
#   CAPTURE_NAME is trace_smoke.trc2.gz with zlib, else trace_smoke.trc2
set -eu
trace=$1 bench=$2 sim=$3 work=trace_smoke
rm -rf "$work" && mkdir "$work"
t="$work/$4"

"$trace" capture --workload soplex --refs 60000 -o "$t"
"$trace" info "$t"
"$trace" validate "$t"
printf '{"name": "trace_smoke", "refs": 30000, "warmup": 30000, "workload": "trace:%s"}' \
    "$t" > "$work/scenario.json"
SLIP_BENCH_CACHE="$work/cache_rt1" "$bench" --scenario "$work/scenario.json" \
    --no-progress --report-dir "$work/reports" > "$work/rt1.out"
SLIP_BENCH_CACHE="$work/cache_rt4" SLIP_RUN_THREADS=4 "$bench" \
    --scenario "$work/scenario.json" --no-progress > "$work/rt4.out"
cmp "$work/rt1.out" "$work/rt4.out"

"$sim" --scenario "$work/scenario.json" --report "$work/sim.json" \
    > /dev/null
sim_hash=$(grep '"trace_hash"' "$work/sim.json" || true)
bench_hash=$(grep -h '"trace_hash"' "$work"/reports/*.json || true)
[ -n "$sim_hash" ] && [ "$sim_hash" = "$bench_hash" ] ||
    { echo "trace_hash: slip-sim '$sim_hash', slip-bench '$bench_hash'"
      exit 1; }

"$trace" capture --workload soplex --refs 1000 -o "$work/short.trc2"
"$sim" --trace "$work/short.trc2" --refs 5000 --warmup 0 \
    --stats "$work/short.txt"
grep -qx 'core0.accesses 5000' "$work/short.txt" ||
    { grep '^core0.accesses' "$work/short.txt"; exit 1; }

: > "$work/empty.trc2"
rc=0
"$sim" --trace "$work/empty.trc2" --refs 100 --stats "$work/empty.txt" \
    2> "$work/empty.err" || rc=$?
cat "$work/empty.err"
[ "$rc" -eq 1 ] && grep -q 'no trace records' "$work/empty.err" &&
    [ ! -e "$work/empty.txt" ] ||
    { echo "empty trace: exit $rc"; exit 1; }
# A trace: workload reopens and rewinds its file, so only slip-trace
# reads pipes; a regular file behind /dev/stdin still replays.
for f in "$t" "$work/short.trc2"; do
    cat "$f" | "$trace" validate /dev/stdin
done
rc=0
cat "$work/short.trc2" | "$sim" --trace /dev/stdin --refs 100 \
    --stats "$work/pipe.txt" 2> "$work/pipe.err" || rc=$?
cat "$work/pipe.err"
[ "$rc" -eq 1 ] && grep -q '/dev/stdin: not a regular file' "$work/pipe.err" &&
    [ ! -e "$work/pipe.txt" ] ||
    { echo "piped --trace: exit $rc"; exit 1; }
"$sim" --trace /dev/stdin --refs 5000 --warmup 0 \
    --stats "$work/stdin.txt" < "$work/short.trc2"
cmp "$work/short.txt" "$work/stdin.txt"

rc=0
"$sim" --bench mcf --trace "$work/short.trc2" --refs 100 \
    --stats "$work/both.txt" 2> "$work/both.err" || rc=$?
cat "$work/both.err"
[ "$rc" -eq 1 ] && grep -q -e '--bench and --trace are exclusive' \
    "$work/both.err" && [ ! -e "$work/both.txt" ] ||
    { echo "--bench with --trace: exit $rc"; exit 1; }
echo "trace_smoke: OK"
