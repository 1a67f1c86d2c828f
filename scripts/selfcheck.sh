#!/usr/bin/env bash
# Quick health check: CLI self-test plus the full pytest suite, run once as
# is and once under python -O (invariant checks must not be asserts).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}
python3 -m ringres.cli selfcheck --seed "${1:-0}"
python3 -m pytest -q
python3 -O -m pytest -q
