#!/bin/sh
# slip-bench --scenario and slip-sim --scenario must run the same
# system (both take it from scenarioSystemConfig), so their run reports
# carry identical energy and result sections. Checked on the
# inclusive-LLC scenario and on an rd_block_pages=4 copy of
# golden_soplex_slip, each next to a twin lacking that one field, and
# on hier3_shared4 (whose LLC is named "llc", not "l3") next to a
# 2-slice twin: each pair must get distinct sweep keys, or the second
# would be served the first one's cached result.
#
# usage: scenario_parity.sh SLIP_BENCH SLIP_SIM SCENARIO_DIR
set -eu
bench=$1 sim=$2 scenarios=$3 work=scenario_parity
rm -rf "$work" && mkdir "$work"

sections() {
    sed -n '/^  "energy": {$/,/^  },$/p; /^  "result": {$/,/^  },$/p' "$1"
}

# check NAME SCENARIO TWIN
check() {
    SLIP_BENCH_CACHE="$work/cache" "$bench" --no-progress \
        --scenario "$2" --scenario "$3" --report-dir "$work/$1" \
        > "$work/$1.out"
    keys=$(sed -n 's/^scenario .* (\(.*\))$/\1/p' "$work/$1.out")
    [ "$(echo "$keys" | sort -u | wc -l)" -eq 2 ] ||
        { echo "$1: one sweep key for both: $keys"; exit 1; }
    "$sim" --scenario "$2" --report "$work/$1.sim.json" > /dev/null
    sections "$work/$1.sim.json" > "$work/$1.sim.txt"
    sections "$work/$1/$(echo "$keys" | head -n 1).json" \
        > "$work/$1.bench.txt"
    [ -s "$work/$1.sim.txt" ] &&
        diff "$work/$1.sim.txt" "$work/$1.bench.txt" ||
        { echo "$1: slip-bench and slip-sim disagree"; exit 1; }
    echo "$1: slip-bench matches slip-sim"
}

sed '/"inclusive_llc"/d' "$scenarios/hier3_inclusive.json" \
    > "$work/not_inclusive.json"
check inclusive "$scenarios/hier3_inclusive.json" \
    "$work/not_inclusive.json"

sed 's/^  "rd_bin_bits": 4,$/&\n  "rd_block_pages": 4,/' \
    "$scenarios/golden_soplex_slip.json" > "$work/rbp4.json"
grep -q '"rd_block_pages": 4' "$work/rbp4.json"
check rd_block_pages "$work/rbp4.json" \
    "$scenarios/golden_soplex_slip.json"

sed 's/^      "slices": 4,$/      "slices": 2,/' \
    "$scenarios/hier3_shared4.json" > "$work/shared2.json"
grep -q '"slices": 2' "$work/shared2.json"
check shared4 "$scenarios/hier3_shared4.json" "$work/shared2.json"
