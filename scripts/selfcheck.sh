#!/usr/bin/env bash
# Quick health check: CLI self-test, the full pytest suite, run once as is and
# once under python -O (invariant checks must not be asserts), the res/rres
# timing sweep of `ringres bench` (about 12 s; it must write its 30 rows), then
# a 1 s benchmark run per workload that must check every answer and fail no call.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
python3 -m ringres.cli selfcheck --seed "${1:-0}"
python3 -m pytest -q
python3 -O -m pytest -q
sweep=$(mktemp) && trap 'rm -f "$sweep"' EXIT
python3 -m ringres.cli bench --out "$sweep"
test "$(wc -l < "$sweep")" -eq 31 || { echo "bench: expected a header and 30 rows" >&2; exit 1; }
for w in zmod-euclid local-hensel small-modulus galois-bivariate; do
    # the last line of standard output is the run's JSON summary
    python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 | tail -n 1 |
        python3 -c 'import json, sys
w, r = sys.argv[1], json.load(sys.stdin)
print("benchmark smoke", w, "correct:", r["correct"], "failed:", r["failed"], "of", r["attempted"])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)' "$w"
done
