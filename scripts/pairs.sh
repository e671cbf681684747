#!/usr/bin/env bash
# Paired benchmark runs: a parent checkout against a change checkout.
#
#   scripts/pairs.sh PARENT_DIR CHANGE_DIR FIRST_SEED N WORKLOAD...
#
# Builds each checkout's bartercast-benchmark once (into
# DIR/target/pairs-bench), then runs N alternating pairs per workload,
# untraced (`--trace 0`), at seeds FIRST_SEED .. FIRST_SEED+N-1; the
# parent goes first on even pairs and the change on odd ones. For every
# end-to-end metric BENCHMARK.json declares (name, `better` direction,
# bound) it prints each side's median and quartiles, the change of the
# medians in %, the pairs the change won, the parent's IQR as a share of
# its median, and the failed/attempted operation totals per side. A row
# is marked `WORSE` when the change's median is worse than the parent's
# by more than the bound, and `unresolved` when the parent's own IQR
# exceeds the bound. Raw result lines are kept in a temporary directory
# whose path is printed first. Run one process at a time: `shard_1m`
# alone takes ~1.2 GB.
set -euo pipefail

if [ $# -lt 5 ]; then
    sed -n '2,18p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
first="$3"
n="$4"
shift 4
spec="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)/BENCHMARK.json"

bin_of() {
    local dir="$1"
    cargo build --release --offline --manifest-path "$dir/benchmark/Cargo.toml" \
        --target-dir "$dir/target/pairs-bench" 1>&2
    echo "$dir/target/pairs-bench/release/bartercast-benchmark"
}
parent_bin="$(bin_of "$parent")"
change_bin="$(bin_of "$change")"

raw="$(mktemp -d)"
echo "raw results: $raw"
run() {  # run SIDE BIN WORKLOAD SEED: append the result object to raw/WORKLOAD.SIDE
    "$2" --workload "$3" --seed "$4" --trace 0 --out-dir "$raw/out-$1" | tail -n 1 >> "$raw/$3.$1"
}
for workload in "$@"; do
    for k in $(seq 0 $((n - 1))); do
        seed=$((first + k))
        if [ $((k % 2)) -eq 0 ]; then
            run parent "$parent_bin" "$workload" "$seed"
            run change "$change_bin" "$workload" "$seed"
        else
            run change "$change_bin" "$workload" "$seed"
            run parent "$parent_bin" "$workload" "$seed"
        fi
    done
done

python3 - "$spec" "$raw" "$@" <<'EOF'
import json, statistics, sys

spec, raw, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
metrics = json.load(open(spec))["end_to_end"]

def load(workload, side):
    return [json.loads(line) for line in open(f"{raw}/{workload}.{side}")]

def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3

head = ("metric", "parent q1/med/q3", "change q1/med/q3", "change", "won", "parent IQR", "verdict")
for workload in workloads:
    parent, change = load(workload, "parent"), load(workload, "change")
    print(f"\n{workload}: {len(parent)} pairs")
    for side, runs in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"  {side}: failed {failed} / attempted {attempted}, all correct: {correct}")
    print("  " + " | ".join(head))
    for m in metrics:
        name, lower, bound = m["name"], m["better"] == "lower", m["bound"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pq, cq = quartiles(p), quartiles(c)
        delta = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        iqr = (pq[2] - pq[0]) / pq[1] if pq[1] else 0.0
        worse = delta > bound if lower else delta < -bound
        verdict = "WORSE" if worse else ("unresolved" if iqr > bound else "ok")
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
        print(f"  {name} | {fmt(pq)} | {fmt(cq)} | {delta * 100:+.1f} % | "
              f"{won}/{len(p)} | {iqr * 100:.0f} % | {verdict}")
EOF
