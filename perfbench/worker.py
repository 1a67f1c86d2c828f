"""One workload in one fresh process: set up, time, trace, check.

Started by run.py.  Prints READY once set-up (import, input generation,
warm-up) is done, just before the first timed call; with --mode setup it
stops there.  With --mode run it prints report lines and, last, one JSON
object: correct, attempted, failed, and the values it measured by name.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import spans
import workloads
from verify import Verifier

# Pool rounds per workload: more than one 25 s run makes at the seed commit
# on a 2-vCPU VM; a faster program cycles through the pool again.
ROUNDS = {"zmod-euclid": 20, "local-hensel": 5, "small-modulus": 14, "galois-bivariate": 12}
# With --trace 1 the untraced loop takes this share of --seconds less, and the
# traced replay covers its first calls worth that share (and at least one
# round), so a traced run takes about as long as an untraced one.
TRACED_SHARE = 1 / 3
# Untraced per-operation medians, reported with the layer metrics (0 when the
# workload makes no such call), as are the p50 and p90 of all calls.  They
# vary too much from seed to seed to be bounded end-to-end metrics: see
# README.md.
OP_MEDIANS = {"res": "resultant.res.p50_ms", "res_ideal": "resultant.res_ideal.p50_ms",
              "rres": "resultant.rres.p50_ms", "bezout": "resultant.bezout.p50_ms",
              "res_y": "bivariate.res_y.p50_ms", "padic_gcd": "padic.gcd.p50_ms",
              "nf_norm": "numberfield.norm.p50_ms", "nf_min": "numberfield.min.p50_ms",
              "howell": "linalg.howell.p50_ms"}


# Host speed.  The VM this was tuned on changed speed by up to 1.8x within a
# minute, on ringres and on a plain loop alike.  Before every call, and once
# after the last, the loop times ref_seconds(), a fixed pure-Python
# big-integer kernel of about 1 ms.  Each call's time is multiplied by
# REF_NOMINAL_S over the mean of the kernel times just before and after it,
# so times are given for a host on which the kernel takes 1 ms.  Import
# times use the run's median kernel time, set-up times kernel times taken
# just before each set-up (run.py).  Report lines print the median factor
# and the raw figures.
REF_NOMINAL_S = 1e-3
_P64 = 18446744073709551557


def ref_seconds():
    t0 = perf_counter()
    a, acc = list(range(1, 257)), 0
    for _ in range(8):
        a = [(x * 6364136223846793005 + 1442695040888963407) % _P64 for x in a]
        for x in a:
            acc = (acc * x + 1) % _P64
    return perf_counter() - t0


def _scale(refs):
    return REF_NOMINAL_S / statistics.median(refs)


def _scaled(lats, refs):
    return [lat * 2 * REF_NOMINAL_S / (refs[i] + refs[i + 1]) for i, lat in enumerate(lats)]


def _call(fn, args):
    """(seconds, output, exception class name or None)."""
    t0 = perf_counter()
    try:
        res, err = fn(*args), None
    except Exception as exc:
        res, err = None, type(exc).__name__
    return perf_counter() - t0, res, err


def run_calls(rr, calls, tracer=None):
    """(_call for each call in order, kernel times around them), looking each
    function up now, so that a traced run calls the installed wrappers."""
    fns = {c.op: getattr(rr, c.op) for c in calls}
    out, refs = [], []
    for c in calls:
        refs.append(ref_seconds())
        out.append(_call(fns[c.op], c.args))
        if tracer is not None:
            tracer.stack[:] = [-1]
    refs.append(ref_seconds())
    return out, refs


def timed_loop(rr, pool, seconds, slots):
    """Closed loop, one caller: each call starts when the previous returns.
    Runs whole calls until they add up to `seconds`, and at least one call
    per slot; returns [(pool index, seconds, output, exception name)] and the
    kernel times around the calls."""
    fns = {c.op: getattr(rr, c.op) for c in pool}
    recs, refs, busy = [], [], 0.0
    while busy < seconds or len(recs) < slots:
        refs.append(ref_seconds())
        idx = len(recs) % len(pool)
        recs.append((idx, *_call(fns[pool[idx].op], pool[idx].args)))
        busy += recs[-1][1]
    refs.append(ref_seconds())
    return recs, refs


def mix_rate(recs, lats, failed_flags, slots):
    """Checked calls per second of the workload's mix, one call per slot.

    Each slot's mean call time counts once, however many of its calls the
    run made: the cheap calls of a round (nf_min takes 2 ms, nf_norm up to
    seconds) then weigh the same whether the run stopped just before or just
    after them.  A failed call counts its time and not as a call."""
    per = {}
    for (idx, *_), lat, bad in zip(recs, lats, failed_flags):
        per.setdefault(idx % slots, []).append((lat, bad))
    ok = sum(sum(not b for _, b in v) / len(v) for v in per.values())
    return ok / sum(statistics.fmean(l for l, _ in v) for v in per.values())


def ranked_quantile(lats, failed, q):
    """q-quantile of latencies in ms, a failed call ranking slower than every
    call of the run."""
    worst = max(lats)
    keys = sorted(l + worst if bad else l for l, bad in zip(lats, failed))
    return 1000 * keys[min(len(keys) - 1, int(q * len(keys)))]


def check_outputs(verifier, pool, recs, traced):
    """[(pool index, reason)] for every wrong answer.  Runs outside every
    timed region; a repeated input must repeat its output, and a traced
    replay must give the untraced output."""
    verdict, first_out, wrong = {}, {}, []
    for idx, _, res, err in recs:
        if err is not None:
            continue
        if idx not in verdict:
            try:
                verdict[idx] = verifier.check(pool[idx], res)
            except Exception as exc:          # a check that cannot run is a wrong answer
                verdict[idx] = f"check raised {type(exc).__name__}: {exc}"
            first_out[idx] = res
        elif res != first_out[idx]:
            wrong.append((idx, "repeat of a call gave another output"))
    wrong += [(i, v) for i, v in verdict.items() if v is not None]
    for (idx, _, res, err), (_, tres, terr) in zip(recs, traced or ()):
        if err is None and terr is None and res != tres:
            wrong.append((idx, "traced output differs from untraced output"))
    return wrong


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()

    sys.path.insert(0, str(root / "src"))
    import ringres as rr
    if root / "src" not in Path(rr.__file__).resolve().parents:
        raise SystemExit(f"ringres imported from {rr.__file__}, not from {root / 'src'}")
    origs, bindings = spans.discover()
    pool, slots = workloads.build(rr, args.workload, args.seed, ROUNDS[args.workload])
    run_calls(rr, workloads.warmup_calls(rr, args.workload, args.seed))
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    spans.check_untraced(origs, bindings)
    loop_seconds = args.seconds * (1 - TRACED_SHARE) if args.trace else args.seconds
    recs, refs = timed_loop(rr, pool, loop_seconds, slots)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = [r[1] for r in recs]
    lats = _scaled(raw, refs)
    scale = _scale(refs)

    traced = None
    if args.trace:
        budget, n, spent = TRACED_SHARE * args.seconds, 0, 0.0
        while n < len(recs) and (n < slots or spent < budget):
            spent += raw[n]
            n += 1
        tracer = spans.Tracer()
        tracer.install(origs, bindings)
        try:
            traced, trefs = run_calls(rr, [pool[r[0]] for r in recs[:n]], tracer)
        finally:
            tracer.restore()
        spans.check_untraced(origs, bindings)

    t_check = perf_counter()
    wrong = check_outputs(Verifier(rr, root), pool, recs, traced)
    t_check = perf_counter() - t_check
    bad = {i for i, _ in wrong}
    errors = Counter(err for _, _, _, err in recs if err)
    failed_flags = [err is not None or idx in bad for idx, _, _, err in recs]
    labels = [pool[r[0]].label for r in recs]
    ok = sum(not f for f in failed_flags)

    def p50(label):
        sel = [(l, f) for l, f, lab in zip(lats, failed_flags, labels) if lab == label]
        return ranked_quantile(*zip(*sel), 0.5) if sel else 0.0

    counts = Counter(labels)
    lossy = sum(1 for r in recs if r[2] is not None and pool[r[0]].label == "padic_gcd" and r[2].delta)
    print(f"workload {args.workload} seed {args.seed}: {len(recs)} calls in {sum(raw):.2f} s "
          f"(median time scale {scale:.3f}), "
          f"{ok} checked ok, raised {dict(errors)}, wrong {len(wrong)}, "
          f"padic_gcd with delta > 0: {lossy}; samples {dict(counts)}; "
          f"checks took {t_check:.1f} s", flush=True)
    for idx, why in wrong[:5]:
        print(f"WRONG {pool[idx].label} (pool #{idx}): {why}", flush=True)

    result = {"correct": not wrong, "attempted": len(recs), "failed": sum(failed_flags),
              "scale": scale}
    print("scaled medians: " + ", ".join(f"{label} {p50(label):.1f} ms" for label in counts)
          + f"; scaled p50/p90 {ranked_quantile(lats, failed_flags, 0.5):.1f}/"
          f"{ranked_quantile(lats, failed_flags, 0.9):.1f} ms; raw p50/p90 "
          f"{ranked_quantile(raw, failed_flags, 0.5):.1f}/{ranked_quantile(raw, failed_flags, 0.9):.1f} ms, "
          f"raw calls/s {ok / sum(raw):.3f}", flush=True)
    if not args.trace:
        values = {"calls_per_s": mix_rate(recs, lats, failed_flags, slots),
                  "peak_rss_mb": peak_rss_mb}
    else:
        values, top = tracer.summary()
        shares = {k[:-7]: v / top for k, v in values.items() if k.endswith(".self_s") and top}
        tscale = _scale(trefs)
        values.update({k: v * tscale for k, v in values.items() if k.endswith(".self_s")})
        trace_dir = root / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        tracer.save(trace_dir / f"spans-{args.workload}-{args.seed}.npz")
        ff = values["poly.fun_factor.calls"]
        values["poly.fun_factor.hensel_ratio"] = values.pop("poly.fun_factor.hensel") / ff if ff else 0.0
        failures = Counter(err for (idx, _, _, err) in recs
                           if err and pool[idx].op in spans.RESULTANT_ENTRIES)
        values["resultant.failed.calls"] = float(sum(failures.values()))
        values["resultant.failed.RecursionError"] = float(failures["RecursionError"])
        values["trace.overhead_ratio"] = sum(_scaled([t[0] for t in traced], trefs)) / sum(lats[:n])
        values["trace.calls"] = float(len(traced))
        for label, name in OP_MEDIANS.items():
            values[name] = p50(label)
        values["lat_p50_ms"] = ranked_quantile(lats, failed_flags, 0.5)
        values["lat_p90_ms"] = ranked_quantile(lats, failed_flags, 0.9)
        print(f"traced {len(traced)} calls, {len(tracer.t0)} spans, overhead x{values['trace.overhead_ratio']:.2f}; "
              f"self-time shares "
              + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]) if v >= 0.005),
              flush=True)
    result["values"] = values
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
