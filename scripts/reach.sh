#!/usr/bin/env bash
# Reachability sweep: which `pub fn` under crates/*/src does no entry
# point reach?
#
#   scripts/reach.sh
#
# On a copy of the working tree under $TMPDIR (tracked and untracked
# files, ignored ones excepted) it rewrites every `pub fn` under
# crates/*/src to `pub(crate) fn`, then builds the workspace's
# libraries and binaries and the benchmark package (benchmark/), both
# with `--offline --release`. Every definition that a privacy error
# (E0603, E0624) or a re-export error (E0364) names gets its `pub` back,
# and the builds repeat until both pass. What is left is printed, one
# `file:line item` per `never used` warning: a function only tests (or
# nothing) call. Not part of tier-1; the copy keeps its own target
# directory, so a run costs two cold release builds plus one rebuild
# per round (~4 min on two cores). Point TMPDIR at a directory with
# room for two release target directories.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
tree="$scratch/tree"
mkdir -p "$tree"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -xf - -C "$tree"
export CARGO_TARGET_DIR="$scratch/target"
cd "$tree"

find crates/*/src -name '*.rs' -exec sed -i -E 's/\bpub fn /pub(crate) fn /g' {} +

# build LOG ARGS...: one JSON build log per call; never fails
build() {
    local log="$1"
    shift
    cargo build --offline --release --message-format=json "$@" >"$log" 2>/dev/null || true
}

# restore LOG: give back `pub` to each definition the log's privacy and
# re-export errors name; prints how many it restored, or `stuck` (and
# the other errors) when the build failed and none of its errors was one
# of those
restore() {
    python3 - "$1" <<'EOF'
import glob, json, os, re, sys

def rel(span):
    # the benchmark build names the workspace's files by absolute path
    return os.path.relpath(span["file_name"]) if os.path.isabs(span["file_name"]) else span["file_name"]

errors, fixes, failed = [], set(), False
for line in open(sys.argv[1]):
    try:
        msg = json.loads(line)
    except ValueError:
        continue
    failed |= msg.get("reason") == "build-finished" and not msg["success"]
    d = msg.get("message") if msg.get("reason") == "compiler-message" else None
    if not d or d["level"] != "error":
        continue
    code = (d.get("code") or {}).get("code")
    if code not in ("E0603", "E0624", "E0364"):
        if d["spans"] or code:
            errors.append(d["rendered"])
        continue
    name = re.search(r"`([^`]+)`", d["message"]).group(1).split("::")[-1]
    spans = d["spans"] + [s for c in d["children"] for s in c["spans"]]
    found = False
    for s in spans:
        text = s["text"][0]["text"] if s["text"] else ""
        if rel(s).startswith("crates/") and f"pub(crate) fn {name}" in text:
            fixes.add((rel(s), s["line_start"]))
            found = True
    if not found:
        # a re-export names its item at the `pub use`: the definition
        # is a free function of the same crate
        crate = rel(spans[0]).split("/src/")[0]
        for path in glob.glob(f"{crate}/src/**/*.rs", recursive=True):
            for n, text in enumerate(open(path), 1):
                if re.match(rf"pub\(crate\) fn {re.escape(name)}\b", text):
                    fixes.add((path, n))
                    found = True
    if not found:
        errors.append(d["rendered"])
# other errors next to a privacy error may be its cascade: fix first
if failed and not fixes:
    print("stuck")
    print("\n".join(errors), file=sys.stderr)
    sys.exit(0)
for path, n in fixes:
    lines = open(path).readlines()
    lines[n - 1] = lines[n - 1].replace("pub(crate) fn", "pub fn", 1)
    open(path, "w").writelines(lines)
print(len(fixes))
EOF
}

round=0
while :; do
    round=$((round + 1))
    build "$scratch/workspace.json" --workspace --lib --bins
    fixed="$(restore "$scratch/workspace.json")"
    if [ "$fixed" = 0 ]; then
        build "$scratch/benchmark.json" --manifest-path benchmark/Cargo.toml
        fixed="$(restore "$scratch/benchmark.json")"
    fi
    if [ "$fixed" = stuck ]; then
        echo "reach: round $round failed on an error it cannot fix" >&2
        exit 1
    fi
    echo "reach: round $round restored $fixed" >&2
    [ "$fixed" = 0 ] && break
done

python3 - "$scratch/workspace.json" "$scratch/benchmark.json" <<'EOF'
import json, os, sys

seen = set()
for path in sys.argv[1:]:
    for line in open(path):
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        d = msg.get("message") if msg.get("reason") == "compiler-message" else None
        if not d or "never used" not in d["message"]:
            continue
        for s in d["spans"]:
            if not s["is_primary"]:
                continue
            text = s["text"][0]
            item = text["text"][text["highlight_start"] - 1 : text["highlight_end"] - 1]
            file = os.path.relpath(s["file_name"]) if os.path.isabs(s["file_name"]) else s["file_name"]
            seen.add((file, s["line_start"], item))
for file, line, item in sorted(seen):
    print(f"{file}:{line} {item}")
EOF
