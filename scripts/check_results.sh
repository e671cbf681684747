#!/usr/bin/env bash
# Results drift gate: regenerate every figure and ablation CSV with this
# checkout's release binaries and compare them byte for byte with the
# ones committed under results/. The simulator is deterministic, so any
# difference means a change moved a paper result without saying so;
# a PR that means to regenerates results/ and EXPERIMENTS.md with it.
# scale.csv carries wall-clock columns and is not compared.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p bartercast-experiments
bin="${CARGO_TARGET_DIR:-target}/release"
fresh="$(mktemp -d)"
trap 'rm -rf "$fresh"' EXIT
for run in fig1 fig2 fig3 fig4 "fig4 evolution" ablation; do
    # $run unquoted: "fig4 evolution" is a binary and its panel argument
    BARTERCAST_RESULTS="$fresh" "$bin"/$run > /dev/null
done
if ! diff -r -x scale.csv results "$fresh"; then
    echo "error: results/ no longer matches what the experiment binaries write" >&2
    exit 1
fi
