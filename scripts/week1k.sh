#!/usr/bin/env bash
# The 1,000-peer week, a parent checkout against a change checkout.
#
#   scripts/week1k.sh PARENT_DIR CHANGE_DIR [N]
#
# Builds each checkout's `bartercast` binary once (release, into
# DIR/target/week1k), then runs
#
#   bartercast sim run --peers 1000 --policy rank --seed 1
#
# N times per side (default 3), alternating which side goes first: the
# parent on even runs, the change on odd ones. Every run's standard
# output must equal the first one's, byte for byte; the script fails
# on the first that differs. It prints each run's wall time and each
# side's median. One run takes about a minute on a 2-vCPU host; run
# nothing else beside it.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    sed -n '2,16p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
n="${3:-3}"

bin_of() {
    local dir="$1"
    cargo build --release --offline --manifest-path "$dir/Cargo.toml" \
        -p bartercast --bin bartercast --target-dir "$dir/target/week1k" 1>&2
    echo "$dir/target/week1k/release/bartercast"
}
parent_bin="$(bin_of "$parent")"
change_bin="$(bin_of "$change")"

raw="$(mktemp -d)"
trap 'rm -rf "$raw"' EXIT
# run SIDE BIN K: one week into raw/SIDE.K, its wall seconds appended
# to raw/SIDE.times, and its printout checked against the first run's
run() {
    local start end
    start="$(date +%s.%N)"
    "$2" sim run --peers 1000 --policy rank --seed 1 > "$raw/$1.$3" 2> /dev/null
    end="$(date +%s.%N)"
    python3 -c "print(f'{$end - $start:.1f}')" >> "$raw/$1.times"
    echo "$1 run $3: $(tail -n 1 "$raw/$1.times") s"
    if [ -f "$raw/first" ]; then
        if ! cmp -s "$raw/first" "$raw/$1.$3"; then
            echo "printout of $1 run $3 differs from the first run's:" >&2
            diff "$raw/first" "$raw/$1.$3" >&2 || true
            exit 1
        fi
    else
        cp "$raw/$1.$3" "$raw/first"
    fi
}
for k in $(seq 0 $((n - 1))); do
    if [ $((k % 2)) -eq 0 ]; then
        run parent "$parent_bin" "$k"
        run change "$change_bin" "$k"
    else
        run change "$change_bin" "$k"
        run parent "$parent_bin" "$k"
    fi
done

python3 - "$raw" <<'EOF'
import statistics, sys
raw = sys.argv[1]
med = {}
for side in ("parent", "change"):
    times = [float(t) for t in open(f"{raw}/{side}.times")]
    med[side] = statistics.median(times)
    print(f"{side}: median {med[side]:.1f} s over {len(times)} runs")
print(f"change: {100 * (med['change'] / med['parent'] - 1):+.1f} % in the median")
EOF
echo "all $((2 * n)) printouts identical:"
grep -E "meetings|speed ratio|system reputation" "$raw/first"
