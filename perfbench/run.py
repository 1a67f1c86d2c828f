"""ringres benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload zmod-euclid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; ringres is imported from ./src and
the number-field check reads ./tests/oracles.py.  Every process this starts is
a child that is waited for.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end_to_end ones of BENCHMARK.json, with --trace 1 its
per_layer ones, each with the unit declared there.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from worker import REF_NOMINAL_S, ref_seconds

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5        # fresh processes timed to READY; the last one also runs the workload
IMPORT_SAMPLES = 5
CHILD_TIMEOUT = 170


def _time_to_ready(cmd, cwd, keep_output):
    """Start cmd, return (seconds until it printed READY, its later output).
    The seconds are scaled to the host speed of the moment, as the worker
    scales call times: by REF_NOMINAL_S over the median of three kernel times
    taken just before the start."""
    scale = REF_NOMINAL_S / statistics.median(ref_seconds() for _ in range(3))
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = (perf_counter() - t0) * scale
        if line.strip() != "READY":
            raise RuntimeError(f"worker did not get ready: {line!r}")
        rest = proc.stdout.read() if keep_output else ""
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return ready, rest


def _import_seconds(root):
    """Cold `import ringres` in a fresh interpreter, timed inside it."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            "import ringres; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT, check=True)
    return float(out.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so that _time_to_ready kills and waits for its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    for need in ("BENCHMARK.json", "src/ringres/__init__.py", "tests/oracles.py"):
        if not (root / need).is_file():
            print(f"perfbench: {need} not found; run from the root of a ringres checkout",
                  file=sys.stderr)
            return 2

    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = [_time_to_ready(cmd + ["--mode", "setup"], root, False)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    ready, output = _time_to_ready(cmd, root, True)
    setups.append(ready)
    lines = output.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    values = result.pop("values")
    scale = result.pop("scale")          # host-speed factor of the run; see worker.py
    if args.trace:
        values["cli.import_s"] = scale * statistics.median(
            _import_seconds(root) for _ in range(IMPORT_SAMPLES))
    else:
        values["setup_s"] = statistics.median(setups)
    print(f"setup samples {[round(s, 3) for s in setups]} s", flush=True)
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
