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
# parent on even runs, the change on odd ones. The printouts are
# checked byte for byte:
#
# * each side's N printouts must be identical among themselves (the
#   script fails on the first run that differs from its side's first);
# * the parent's printout must be a prefix of the change's, so a change
#   may append lines to `sim run`'s printout but not alter one;
# * any other difference fails, and the appended lines are printed.
#
# It prints each run's wall time and each side's median. One run takes
# about a minute on a 2-vCPU host; run nothing else beside it.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    sed -n '2,22p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
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
# to raw/SIDE.times, and its printout checked against its side's first
run() {
    local start end
    start="$(date +%s.%N)"
    "$2" sim run --peers 1000 --policy rank --seed 1 > "$raw/$1.$3" 2> /dev/null
    end="$(date +%s.%N)"
    python3 -c "print(f'{$end - $start:.1f}')" >> "$raw/$1.times"
    echo "$1 run $3: $(tail -n 1 "$raw/$1.times") s"
    if [ -f "$raw/$1.first" ]; then
        if ! cmp -s "$raw/$1.first" "$raw/$1.$3"; then
            echo "printout of $1 run $3 differs from $1's first run's:" >&2
            diff "$raw/$1.first" "$raw/$1.$3" >&2 || true
            exit 1
        fi
    else
        cp "$raw/$1.$3" "$raw/$1.first"
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
parent_bytes="$(wc -c < "$raw/parent.first")"
if ! head -c "$parent_bytes" "$raw/change.first" | cmp -s - "$raw/parent.first"; then
    echo "the change's printout does not start with the parent's:" >&2
    diff "$raw/parent.first" "$raw/change.first" >&2 || true
    exit 1
fi
echo "each side's $n printouts identical, the parent's a prefix of the change's:"
grep -E "meetings|speed ratio|system reputation" "$raw/parent.first"
if [ "$(wc -c < "$raw/change.first")" -gt "$parent_bytes" ]; then
    echo "lines the change appends:"
    tail -c +"$((parent_bytes + 1))" "$raw/change.first"
fi
