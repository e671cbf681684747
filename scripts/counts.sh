#!/usr/bin/env bash
# Counts of record: every count scripts/counts.txt lists must come out
# exactly as recorded.
#
#   scripts/counts.sh
#
# For each workload counts.txt names, in file order, it runs
# `benchmark/run.sh --workload W --seed 7 --trace 1` once and reads the
# result object on the last line of its standard output. It fails
# listing every recorded metric whose value differs or whose name the
# result object lacks, and every workload whose result is not marked
# correct. The workloads run on virtual time or a fixed seed, so the
# check needs no quiet host (~20 s warm).
set -euo pipefail
cd "$(dirname "$0")/.."

list=scripts/counts.txt
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

for w in $(awk '!/^#/ && NF { print $1 }' "$list" | awk '!seen[$0]++'); do
    { bash benchmark/run.sh --workload "$w" --seed 7 --trace 1 2>"$scratch/$w.err" || true; } |
        tail -n 1 >"$scratch/$w.json"
done

python3 - "$list" "$scratch" <<'EOF'
import json, sys

listing, scratch = sys.argv[1], sys.argv[2]
results, bad, checked = {}, [], 0
for n, line in enumerate(open(listing), 1):
    if not line.strip() or line.startswith("#"):
        continue
    workload, metric, value = line.split()
    if workload not in results:
        text = open(f"{scratch}/{workload}.json").read()
        try:
            results[workload] = json.loads(text)
        except ValueError:
            err = open(f"{scratch}/{workload}.err").read().strip().splitlines()[-5:]
            bad.append(f"{workload}: no result object; run.sh said:\n    " + "\n    ".join(err))
            results[workload] = {"metrics": {}, "correct": True}
        if not results[workload].get("correct", False):
            bad.append(f"{workload}: result not correct")
    checked += 1
    got = results[workload]["metrics"].get(metric)
    if got is None:
        bad.append(f"{listing}:{n}: {workload} {metric}: missing")
    elif got["value"] != json.loads(value):
        bad.append(f"{listing}:{n}: {workload} {metric}: recorded {value}, got {json.dumps(got['value'])}")
if bad:
    print("counts: mismatches against " + listing + ":", file=sys.stderr)
    print("\n".join("  " + b for b in bad), file=sys.stderr)
    sys.exit(1)
print(f"counts: {checked} counts of record match")
EOF
