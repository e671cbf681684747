#!/usr/bin/env bash
# Mutation gate: every mutant in mutants.txt must be killed.
#
#   scripts/mutants.sh                  # every entry
#   scripts/mutants.sh --changed [BASE] # only entries whose file changed
#
# `--changed` keeps the entries whose `file:` differs between the
# working tree (untracked files included) and the merge base of BASE
# (default HEAD~1, the parent of a one-commit change) and HEAD, so a
# change runs the mutants of the files it touches; run the full list
# at each re-anchor.
# The working tree (tracked and untracked, ignored files excepted) is
# copied once into a scratch directory under $TMPDIR. There the script
# first runs every named test on the clean copy (each must pass), then,
# one entry at a time, applies the entry's exact `old -> new` edit,
# runs only that entry's tests (each must fail), and restores the
# file. The copy keeps one target directory, so a mutant rebuilds only
# the crates its file reaches. It fails loudly when an `old` text no
# longer occurs exactly once (a refactor must carry its mutants
# forward), when a mutant does not compile, when a named test does not
# exist, and when a mutant survives. mutants.txt documents the format.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
list="$repo/mutants.txt"

filter="" changed=""
case "${1:-}" in
    '') ;;
    --changed)
        filter=1
        base="$(cd "$repo" && git merge-base "${2:-HEAD~1}" HEAD)"
        changed="$(cd "$repo" && { git diff --name-only "$base"; git ls-files --others --exclude-standard; })"
        ;;
    *) sed -n '2,12p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2; exit 2 ;;
esac

# parse mutants.txt into parallel arrays; `kill` lines join with a tab
files=() olds=() news=() kills=() whys=()
flush() {
    if [ -n "$file" ] && { [ -z "$filter" ] || grep -qxF "$file" <<< "$changed"; }; then
        files+=("$file") olds+=("$old") news+=("$new") kills+=("$kill") whys+=("$why")
    fi
    file="" old="" new="" kill="" why=""
}
file="" old="" new="" kill="" why=""
while IFS= read -r line || [ -n "$line" ]; do
    case "$line" in
        '#'*) ;;
        '') flush ;;
        'why: '*) why="${line#why: }" ;;
        'file: '*) file="${line#file: }" ;;
        'old: '*) old="${line#old: }" ;;
        'new: '*) new="${line#new: }" ;;
        'kill: '*) kill="${kill:+$kill$'\t'}${line#kill: }" ;;
        *) echo "mutants.txt: unreadable line: $line" >&2; exit 1 ;;
    esac
done < "$list"
flush
if [ ${#files[@]} -eq 0 ]; then
    echo "mutants: no entry's file changed"
    exit 0
fi

scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
tree="$scratch/tree"
mkdir -p "$tree"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard |
    tar --null --ignore-failed-read -T - -cf - 2>/dev/null) | tar -xf - -C "$tree"
export CARGO_TARGET_DIR="$scratch/target"

# run_test ARGS: cargo test arguments whose last word is one test's
# full name; prints `ok`, `FAILED`, `missing` or `broken` (no build)
run_test() {
    local name="${1##* }" args="${1% *}" out
    # shellcheck disable=SC2086 # ARGS is a word list by design
    local line="^test $name( - should panic)? \.\.\. "
    if ! out="$(cd "$tree" && cargo test $args -- --exact "$name" 2>&1)"; then
        if grep -qE "${line}FAILED" <<< "$out"; then
            echo FAILED
        elif grep -qE '^error(\[E[0-9]+\])?:' <<< "$out"; then
            echo broken
        else
            echo missing
        fi
    elif grep -qE "${line}ok" <<< "$out"; then
        echo ok
    else
        echo missing
    fi
}

# replace FILE OLD NEW: the exact edit, `\n` in OLD/NEW meaning newline;
# exits 3 unless OLD occurs exactly once
replace() {
    python3 - "$@" <<'EOF'
import sys
path, old, new = sys.argv[1], *(a.replace("\\n", "\n") for a in sys.argv[2:])
text = open(path).read()
if text.count(old) != 1:
    sys.exit(3)
open(path, "w").write(text.replace(old, new))
EOF
}

status=0
echo "mutants: ${#files[@]} entries${filter:+ (files changed since $base)}, clean baseline first"
for k in "${!files[@]}"; do
    while IFS= read -r test; do
        result="$(run_test "$test")"
        if [ "$result" != ok ]; then
            echo "  baseline: '$test' is $result on the clean tree" >&2
            status=1
        fi
    done <<< "${kills[$k]//$'\t'/$'\n'}"
done
[ $status -eq 0 ] || exit 1

for k in "${!files[@]}"; do
    file="$tree/${files[$k]}"
    cp "$file" "$scratch/original"
    if ! replace "$file" "${olds[$k]}" "${news[$k]}"; then
        echo "STALE    ${files[$k]}: old text of '${whys[$k]}' does not occur exactly once" >&2
        status=1
        continue
    fi
    verdict=killed
    while IFS= read -r test; do
        result="$(run_test "$test")"
        case "$result" in
            FAILED) ;;
            ok) verdict=SURVIVED; echo "  '$test' passed" >&2 ;;
            *) verdict="${result^^}"; echo "  '$test' is $result" >&2 ;;
        esac
    done <<< "${kills[$k]//$'\t'/$'\n'}"
    printf '%-8s %s: %s\n' "$verdict" "${files[$k]}" "${whys[$k]}"
    [ "$verdict" = killed ] || status=1
    cp "$scratch/original" "$file"
done
exit $status
