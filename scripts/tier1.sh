#!/usr/bin/env bash
# Tier-1 gate. `cargo test` covers every crate's suites (the workspace
# sets `default-members`), so a new test file needs no entry here; this
# script adds only what `cargo test` cannot do.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release
cargo test -q
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
# (~45 s: five figure binaries at paper scale, byte-for-byte diff).
bash scripts/check_results.sh
# The benchmark of record compiles against this workspace's public
# items; its smoke run (all four workloads at small sizes plus its own
# gates) makes a deletion it depends on fail here, not at the driver.
bash benchmark/run.sh --smoke
