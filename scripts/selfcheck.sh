#!/usr/bin/env bash
# Quick health check: CLI self-test, the full pytest suite, run once as is and
# once under python -O (invariant checks must not be asserts), the res/rres
# timing sweep of `ringres bench` (about 12 s; it must write its 30 rows), then
# a 1 s benchmark run per workload that must check every answer and fail no call,
# the outputs digest of a 5,000-call seeded corpus (about 5 s), which must
# equal DIGEST: the factorisations and reduced cofactors behind every output are
# unique, so a faster path must not change a byte; and the digest of a 300-call
# res_y corpus (about 5 s), which must equal RES_Y_DIGEST; and the digest of a
# 20,000-call GaloisRing.inv and find_irreducible corpus (about 2 s), which must
# equal INV_DIGEST: inverses are unique; and the digest of 60 calls on long
# Z/n chains, degrees 200-1100 (about 10 s), which must equal LONG_DIGEST: the
# 5,000-call corpus stops at degree 26; and the digest of 2,000 calls of
# invert_unit, invert_mod, divrem_primitive and fun_factor on units of R[x] of
# degree up to 40 (about 10 s), which must equal UNITS_DIGEST: no other corpus
# calls them directly; and the digest of 100 calls on long Galois chains,
# degrees 100-400 over the benchmark's three Galois rings (about 10 s), which
# must equal LONG_GALOIS_DIGEST: the main corpus stops at degree 10 over
# Galois rings; and the digest of 600 calls on long chains over small and
# many-factor moduli (510510, 30030, 1001, 2^31 - 1, 2, 3), degrees 200-1100
# (about 10 s), which must equal LONG_SMALL_DIGEST: there quotients of three
# or more coefficients are common.  Last, it prints the non-blank line count of
# src/ringres (not a gate).
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
DIGEST=2e3ccff5d3fc92e4a3e0fa87cfbb83e6fcf49f4c2ea5fe4120e3eb725e995530
got=$(python3 scripts/outputs_digest.py --seed 1 --calls 5000)
test "$got" = "$DIGEST" || { echo "outputs digest: $got, expected $DIGEST" >&2; exit 1; }
echo "outputs digest: $got"
RES_Y_DIGEST=c6a1a54efbee092ef827b49b9662f79ca60f4cd60c685f9c621c37025f066573
got=$(python3 scripts/outputs_digest.py --corpus res_y --seed 1 --calls 300)
test "$got" = "$RES_Y_DIGEST" || { echo "res_y outputs digest: $got, expected $RES_Y_DIGEST" >&2; exit 1; }
echo "res_y outputs digest: $got"
INV_DIGEST=54a3e88f8adad472aca773db498e3658268965d22e93439c48659574f8f30122
got=$(python3 scripts/outputs_digest.py --corpus inv --seed 1 --calls 20000)
test "$got" = "$INV_DIGEST" || { echo "inv outputs digest: $got, expected $INV_DIGEST" >&2; exit 1; }
echo "inv outputs digest: $got"
LONG_DIGEST=ba9266f05b4575da74cbf604e6c4743369be269756a225dff825364321f46a4c
got=$(python3 scripts/outputs_digest.py --corpus long --seed 1 --calls 60)
test "$got" = "$LONG_DIGEST" || { echo "long outputs digest: $got, expected $LONG_DIGEST" >&2; exit 1; }
echo "long outputs digest: $got"
UNITS_DIGEST=3c0b67c56546e717389f1a7fe6f39a6e44c48b4ad09e9bdc603d44434569a3bb
got=$(python3 scripts/outputs_digest.py --corpus units --seed 1 --calls 2000)
test "$got" = "$UNITS_DIGEST" || { echo "units outputs digest: $got, expected $UNITS_DIGEST" >&2; exit 1; }
echo "units outputs digest: $got"
LONG_GALOIS_DIGEST=81e8089ad65508b5ba46646709f5be9690e5adf356b20f82308a37132d9bbc0d
got=$(python3 scripts/outputs_digest.py --corpus long-galois --seed 1 --calls 100)
test "$got" = "$LONG_GALOIS_DIGEST" || { echo "long-galois outputs digest: $got, expected $LONG_GALOIS_DIGEST" >&2; exit 1; }
echo "long-galois outputs digest: $got"
LONG_SMALL_DIGEST=0e1c2eadadc79ddfd3f1b9f006f24137f990074b2bbb93896c124d9f2a4ab6de
got=$(python3 scripts/outputs_digest.py --corpus long-small --seed 1 --calls 600)
test "$got" = "$LONG_SMALL_DIGEST" || { echo "long-small outputs digest: $got, expected $LONG_SMALL_DIGEST" >&2; exit 1; }
echo "long-small outputs digest: $got"
echo "non-blank lines in src/ringres: $(cat src/ringres/*.py | grep -cv '^[[:space:]]*$')"
