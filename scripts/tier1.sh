#!/usr/bin/env bash
# Tier-1 gate. `cargo test` covers every crate's suites (the workspace
# sets `default-members`), so a new test file needs no entry here; this
# script adds only what `cargo test` cannot do.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release
cargo test -q
# The node runtime is single-threaded: nothing in the node or swarm
# sources reaches for `std::sync` (atomics, `Arc`, locks).
if grep -rn 'std::sync' crates/node/src crates/swarm/src; then
    echo "error: std::sync in the single-threaded node runtime" >&2
    exit 1
fi
# Every mutant in mutants.txt whose file this change touches must
# still be killed by the tests it names (one debug build in a scratch
# copy, then a rebuild of the mutated crate per entry). The full list
# (`bash scripts/mutants.sh`, ~7 min) runs at each re-anchor.
bash scripts/mutants.sh --changed
# The vendored proptest never reads or writes regression files (shrunk
# cases are pinned as explicit #[test]s); any proptest-regressions
# entry in the tree means a test pulled in the real crate or something
# is scribbling where it shouldn't.
if [ -n "$(find . -name '*proptest-regressions*' -not -path './target/*' \
    -not -path './benchmark/target/*' -print -quit)" ]; then
    echo "error: proptest-regressions drift detected" >&2
    exit 1
fi
# --workspace: clippy also lints the vendor/ stand-ins
cargo clippy --workspace --all-targets -- -D warnings
# Public API docs must build warning-free (broken intra-doc links,
# missing docs on public items under #![warn(missing_docs)] crates).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet
cargo fmt --all --check
# results/ must be what this checkout's experiment binaries write
# (~55 s: the figure binaries at paper scale, Figure 2 over ten seeds
# included, byte-for-byte diff).
bash scripts/check_results.sh
# The benchmark of record compiles against this workspace's public
# items; its smoke run (all four workloads at small sizes plus its own
# gates) makes a deletion it depends on fail here, not at the driver.
bash benchmark/run.sh --smoke
# The counts of record (scripts/counts.txt) must come out exactly:
# four traced `--seed 7` workload runs (~20 s warm).
bash scripts/counts.sh
