#!/usr/bin/env bash
# benchmark/repeat.sh N [FIRST_SEED]
#
# Run N untraced sets (every workload once per set, set i with seed
# FIRST_SEED + i, as the driver varies the seed between runs), print each
# end-to-end metric's min / median / max, and its spread — the distance
# between the first and third quartile as a share of the median — beside
# the bound BENCHMARK.json fixes for it. Exits non-zero when a spread
# exceeds its bound (set-up time excepted: it is bounded on its median).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
[ $# -ge 1 ] || { sed -n '2,9p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2; exit 2; }
exec python3 "$here/report.py" repeat "$1" "$here/run.sh" "$(dirname "$here")/BENCHMARK.json" "${2:-1}"
