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
# or more coefficients are common; and the digest of 100 calls on long chains
# over 1000003, 3^13 and 2^22 (about 8 s), which must equal LONG_7_DIGEST: no
# other long corpus packs 7-byte slots.  Last, it prints the non-blank line
# count of src/ringres (not a gate).
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
# one gate per row: the digest's name (as in the text above), its corpus, the
# calls made and the expected digest; a mismatch exits 1
while read -r _ corpus calls want; do
    what="$corpus outputs digest"
    [ "$corpus" != main ] || what="outputs digest"
    got=$(python3 scripts/outputs_digest.py --corpus "$corpus" --seed 1 --calls "$calls")
    test "$got" = "$want" || { echo "$what: $got, expected $want" >&2; exit 1; }
    echo "$what: $got"
done <<'DIGESTS'
DIGEST main 5000 2e3ccff5d3fc92e4a3e0fa87cfbb83e6fcf49f4c2ea5fe4120e3eb725e995530
RES_Y_DIGEST res_y 300 c6a1a54efbee092ef827b49b9662f79ca60f4cd60c685f9c621c37025f066573
INV_DIGEST inv 20000 54a3e88f8adad472aca773db498e3658268965d22e93439c48659574f8f30122
LONG_DIGEST long 60 ba9266f05b4575da74cbf604e6c4743369be269756a225dff825364321f46a4c
UNITS_DIGEST units 2000 3c0b67c56546e717389f1a7fe6f39a6e44c48b4ad09e9bdc603d44434569a3bb
LONG_GALOIS_DIGEST long-galois 100 81e8089ad65508b5ba46646709f5be9690e5adf356b20f82308a37132d9bbc0d
LONG_SMALL_DIGEST long-small 600 0e1c2eadadc79ddfd3f1b9f006f24137f990074b2bbb93896c124d9f2a4ab6de
LONG_7_DIGEST long-7 100 3ff6371842e2002c94fc001d051008161d2855edf6b4b3c717619997a43bf0a5
DIGESTS
echo "non-blank lines in src/ringres: $(cat src/ringres/*.py | grep -cv '^[[:space:]]*$')"
