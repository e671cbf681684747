#!/usr/bin/env bash
# The benchmark of record: one command that builds the benchmark
# package, runs the workloads, checks their outputs and prints every
# metric by name with its unit.
#
#   benchmark/run.sh                         all four workloads, untraced then traced
#   benchmark/run.sh --workload NAME         one workload, one process; the last line of
#       [--seed N] [--seconds S] [--trace [0|1]]   standard output is the result object
#   benchmark/run.sh --smoke                 small sizes, every gate, name check, unit tests
#
# Run it from the root of a checkout (it names its own files relative to
# where it lives, and cargo's target directory relative to where it is
# called from, which is how the driver sets CARGO_TARGET_DIR).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
bin="$target/release/bartercast-benchmark"
out="$here/out"

build() {
    # everything cargo prints goes to standard error: standard output
    # ends with the result object and nothing else
    cargo build --release --offline --manifest-path "$here/Cargo.toml" \
        --target-dir "$target" 1>&2
}

# The fingerprint's commit and toolchain (the driver's checkout is not a
# git repository: the commit then reads "unknown").
export BENCH_GIT_COMMIT="${BENCH_GIT_COMMIT:-$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)}"
export BENCH_RUSTC_VERSION="${BENCH_RUSTC_VERSION:-$(rustc -V 2>/dev/null || echo unknown)}"

workload=""
smoke=0
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; pass+=("$1" "$2"); shift 2 ;;
        --smoke) smoke=1; shift ;;
        --trace)
            # `--trace` alone means `--trace 1`
            if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then
                pass+=(--trace "$2"); shift 2
            else
                pass+=(--trace 1); shift
            fi ;;
        --seed|--seconds) pass+=("$1" "$2"); shift 2 ;;
        -h|--help) sed -n '2,13p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'; exit 0 ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

build

if [ "$smoke" = 1 ]; then
    CARGO_TARGET_DIR="$target" exec python3 "$here/report.py" smoke "$bin" "$root/BENCHMARK.json" "$here"
fi

if [ -n "$workload" ]; then
    exec "$bin" "${pass[@]}" --out-dir "$out"
fi

# every workload, end-to-end metrics with tracing off first, then the
# traced run for the per-layer metrics; one process each
for w in $("$bin" --list | awk '$1 == "workload" { print $2 }'); do
    for trace in 0 1; do
        "$bin" --workload "$w" "${pass[@]}" --trace "$trace" --out-dir "$out" | grep -v '^{'
    done
done
echo "results and traces: $out/"
