"""Steadiness check: run one workload N times and summarize each metric.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload overlay_spill --runs 10 \\
        [--first-seed 1]

Each run gets its own seed (``first-seed``, ``first-seed + 1``, ...)
and the run length from ``BENCHMARK.json``.  For every end-to-end
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the metric's
bound.  A spread above the bound fails the check; one above a third of
the bound is flagged as not steady enough.  It also checks
that the share of failed operations is the same in every run.  With
``--json FILE`` the per-run values are saved, and ``--against FILE``
compares this set's medians with a saved set's, each within its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Tuple

from run import load_bench

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> Tuple[dict, str]:
    """(the run's JSON line, its calibration line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed} "
                         f"(exit {proc.returncode})")
    calib = next((ln for ln in lines if ln.startswith("calibration_ms")),
                 "")
    return json.loads(lines[-1]), calib


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", default=None,
                        help="save the per-run metric values here")
    parser.add_argument("--against", default=None,
                        help="compare medians with a set saved by --json")
    args = parser.parse_args(argv)
    bench = load_bench()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values: dict = {}
    shares = set()
    for k in range(args.runs):
        seed = args.first_seed + k
        out, calib = run_once(args.workload, seed, seconds)
        shares.add(out["failed"] / out["attempted"])
        print(f"seed {seed}: correct={out['correct']} "
              f"attempted={out['attempted']} failed={out['failed']} "
              + " ".join(f"{n}={v['value']:.4f}"
                         for n, v in out["metrics"].items())
              + f" [{calib}]", flush=True)
        for name, v in out["metrics"].items():
            values.setdefault(name, []).append(v["value"])
    ok = len(shares) == 1
    if not ok:
        print(f"FAIL: failed share differs between runs: {sorted(shares)}")
    saved = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            saved = json.load(fh)
    print(f"{'metric':18s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        bound = bounds[name]["bound"]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        verdict = ""
        if spread > bound:
            verdict, ok = "FAIL", False
        elif spread > bound / 3:
            verdict = "not steady (> bound/3)"
        if saved is not None and name in saved:
            before = statistics.median(saved[name])
            worse = ((med - before) / before
                     if bounds[name]["better"] == "lower"
                     else (before - med) / before)
            verdict += f" vs saved {before:.4f} ({worse:+.1%} worse)"
            if worse > bound:
                verdict += " FAIL"
                ok = False
        print(f"{name:18s} {med:11.4f} {q1:11.4f} {q3:11.4f} "
              f"{spread:8.2%} {bound:6.2f} {verdict}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(values, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
