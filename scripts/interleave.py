"""Time two source trees call by call on one benchmark pool, alternating.

    python3 scripts/interleave.py OLD_TREE NEW_TREE --workload galois-bivariate --seed 1

Each tree's src/ringres is imported under its own package name, so both run
in this one process.  perfbench/workloads.py of the checkout holding this
script builds the same seeded pool once per tree (ROUNDS rounds of one call
per slot, after its warm-up calls), and every call then runs on both
trees back to back, in CPU time, the order flipping from call to call.  The
two trees must give equal outputs (compared by repr, an exception by its
class name); the first difference exits 1.  The pool is run PASSES times;
the first pass pays the cold caches (such as res_y's plans) as a
perfbench run does.  It prints each slot's mean call time on both trees and
the ratio of their mix rates (slots over the sum of slot means, as
perfbench's calls_per_s), new over old: above 1 the new tree is faster.
This is a measuring aid for before/after claims, not a gate.
"""
from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
ROUNDS, PASSES = 12, 3


def load(tree: Path, name: str):
    """tree/src/ringres as the package `name`."""
    pkg = tree.resolve() / "src" / "ringres"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def run(fn, args):
    """(CPU seconds, repr of the output or the exception's class name)."""
    t0 = process_time()
    try:
        out = fn(*args)
    except Exception as exc:
        return process_time() - t0, type(exc).__name__
    return process_time() - t0, repr(out)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    trees = [load(args.old, "ringres_old"), load(args.new, "ringres_new")]
    pools = []
    for rr in trees:
        for c in workloads.warmup_calls(rr, args.workload, args.seed):
            run(getattr(rr, c.op), c.args)
        pool, slots = workloads.build(rr, args.workload, args.seed, ROUNDS)
        pools.append([(getattr(rr, c.op), c.args) for c in pool])
    labels = [c.label for c in pool[:slots]]
    times = [[[] for _ in range(slots)] for _ in trees]
    for p in range(PASSES):
        for i, calls in enumerate(zip(*pools)):
            order = (0, 1) if (i + p) % 2 == 0 else (1, 0)
            outs = {}
            for t in order:
                dt, outs[t] = run(*calls[t])
                times[t][i % slots].append(dt)
            if outs[0] != outs[1]:
                print(f"pass {p}, call {i} ({pool[i].label}): outputs differ", file=sys.stderr)
                return 1
    means = [[statistics.fmean(ts) for ts in per] for per in times]
    print(f"{'slot':>4} {'label':<10} {'old ms':>9} {'new ms':>9} {'new/old':>8}")
    for i, label in enumerate(labels):
        a, b = means[0][i], means[1][i]
        print(f"{i:>4} {label:<10} {a * 1e3:>9.2f} {b * 1e3:>9.2f} {b / a:>8.3f}")
    rate = [slots / sum(m) for m in means]
    print(f"mix rate: old {rate[0]:.2f}/s, new {rate[1]:.2f}/s, new/old x{rate[1] / rate[0]:.3f}"
          f" ({args.workload}, seed {args.seed}, {ROUNDS} rounds, {PASSES} passes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
