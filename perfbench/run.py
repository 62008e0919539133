"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload overlay_spill --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric and, in the log only, the
wall-clock throughput and latencies.  ``--trace 1`` is the
traced run: it serves the same seeded list twice, each for half of
``--seconds`` — untraced, then with the engine's span trees on and the
layer wrappers of ``layers.py`` installed — and prints every per-layer
metric (or why one is absent), the plan shares of compiled shard
sub-queries and the tracing overhead, traced against untraced
``qps``.  Metric names and units come from ``BENCHMARK.json``;
every metric is defined on every workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it record the host and the operations attempted and failed per
operation type.  The exit code is 0 only for a run whose answers all
matched the reference; a run on which a metric of the manifest has no
value prints no result line and exits with 3.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("dashboard_http", "overlay_spill", "reload_mix")

#: Operation kind whose latency is the workload's query latency.
QUERY_KIND = {"dashboard_http": "pan", "overlay_spill": "overlay",
              "reload_mix": "query"}


def load_bench() -> dict:
    """``BENCHMARK.json``: the metric names, units, bounds, run length."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def units(bench: dict, section: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in order."""
    return {m["name"]: m["unit"] for m in bench[section]}


#: The timed list is cut into this many consecutive segments (in sending
#: order); ``qps`` is the median of their rates, so host interference
#: during one segment does not move it.
QPS_SEGMENTS = 10


def qps(phase) -> float:
    """Median over segments of completed operations per wall second."""
    ops = phase.ops
    n = len(ops)
    k = max(1, min(QPS_SEGMENTS, n))
    rates = []
    for j in range(k):
        seg = ops[j * n // k:(j + 1) * n // k]
        start = min(t_end - lat for _, _, lat, t_end in seg)
        end = max(t_end for _, _, _, t_end in seg)
        rates.append(sum(1 for op in seg if op[1]) / (end - start))
    return statistics.median(rates)


def end_to_end(phase) -> dict:
    """Every end-to-end metric, or None for one with no sample.

    All are CPU, simulated or memory figures: the host's vCPUs lose
    time to other guests (steal) in stretches of minutes, which moves
    wall-clock figures by up to half between back-to-back sets of runs
    and CPU time far less (see the README).
    """
    ok_ops = sum(1 for op in phase.ops if op[1])
    return {
        "setup_s": statistics.median(phase.setup_s),
        "cpu_ms_per_op": phase.cpu_s * 1e3 / ok_ops if ok_ops else None,
        "sim_ms_per_query": phase.sim_s * 1e3 / phase.executed
        if phase.executed else None,
        "peak_rss_mb": phase.rss_mib,
    }


def wall_clock(workload: str, phase) -> str:
    """Wall-clock figures for the log: ``qps``, the query kind's p50 and
    p90, and the p50 of every operation kind."""
    lat = sorted(phase.latencies(QUERY_KIND[workload]))
    parts = [f"qps={qps(phase):.2f}"]
    if len(lat) > 1:
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
        parts.append(f"{QUERY_KIND[workload]} p50="
                     f"{statistics.median(lat) * 1e3:.3f}ms "
                     f"p90={p90 * 1e3:.3f}ms")
    kinds = sorted({op[0] for op in phase.ops})
    parts += [f"{k} p50={statistics.median(phase.latencies(k)) * 1e3:.3f}ms"
              for k in kinds if phase.latencies(k)]
    return ", ".join(parts)


def op_counts(phases) -> dict:
    counts: dict = {}
    for phase in phases:
        for kind, ok, _, _ in phase.ops:
            c = counts.setdefault(kind, [0, 0])
            c[0] += 1
            c[1] += 0 if ok else 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: the engine sources ({SRC}/repro) are missing; "
              "run from a full checkout", file=sys.stderr)
        return 2
    bench = load_bench()
    sys.path.insert(0, SRC)
    import host
    import workloads

    print("host:", json.dumps(host.host_record()))
    if args.workload in workloads.SHM_OFF:
        print("config: shared-memory tile shipping off (shm_min_bytes=-1); "
              "with it on, concurrent shard scatters now and then return "
              "wrong overlays (ShmSegments race)")
    calib_before = host.calibration_ms()
    if args.trace:
        half = args.seconds / 2.0
        plain = workloads.run_phase(args.workload, args.seed, half,
                                    False, (1, 0))
        traced = workloads.run_phase(args.workload, args.seed, half,
                                     True, (1, 0))
        phases = [plain, traced]
    else:
        phases = [workloads.run_phase(args.workload, args.seed,
                                      args.seconds, False,
                                      workloads.SETUPS)]
    calib_after = host.calibration_ms()
    print(f"calibration_ms: before={calib_before:.1f} "
          f"after={calib_after:.1f} loadavg={os.getloadavg()[0]:.2f}")
    counts = op_counts(phases)
    print("ops:", ", ".join(f"{k} attempted={a} failed={f}"
                            for k, (a, f) in sorted(counts.items())))
    for phase in phases:
        for msg in phase.failures:
            print("failed:", msg)
        for msg in phase.errors:
            print("MISMATCH:", msg)
    correct = all(not p.errors and p.checked > 0 and p.checker_ok
                  for p in phases)
    if not all(p.checker_ok for p in phases):
        print("MISMATCH: the checker accepted a perturbed answer "
              "(or no answer had pairs to perturb)")
    print(f"checked answers: {sum(p.checked for p in phases)}")

    if args.trace:
        values, absent, shares = traced.layers
        qps_plain, qps_traced = qps(plain), qps(traced)
        print(f"tracing overhead: untraced qps={qps_plain:.2f} "
              f"traced qps={qps_traced:.2f} "
              f"overhead={(1 - qps_traced / qps_plain) * 100:.1f}%")
        print("plan shares of compiled shard sub-queries:",
              ", ".join(f"{k}={v:.4f}" for k, v in shares.items())
              or "none compiled")
        layer_units = units(bench, "per_layer")
        print(f"{'layer metric':32s} {'value':>14s}  unit")
        for name, unit in layer_units.items():
            if name in values:
                print(f"{name:32s} {values[name]:14.4f}  {unit}")
            else:
                why = absent.get(name, "not measured by this benchmark")
                print(f"{name:32s} {'absent':>14s}  ({why})")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layer_units.items() if name in values}
    else:
        e2e = end_to_end(phases[0])
        e2e_units = units(bench, "end_to_end")
        print(f"{'metric':20s} {'value':>12s}  unit")
        for name, unit in e2e_units.items():
            value = e2e.get(name)
            shown = "absent" if value is None else f"{value:12.4f}"
            print(f"{name:20s} {shown:>12s}  {unit}")
        print("setup_s samples:",
              ", ".join(f"{s:.4f}" for s in phases[0].setup_s))
        print("wall clock (not a metric):",
              wall_clock(args.workload, phases[0]))
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in e2e_units.items()
                   if e2e.get(name) is not None}
    section = "per_layer" if args.trace else "end_to_end"
    missing = [name for name in units(bench, section) if name not in metrics]
    if missing:
        # A result line without every metric of the manifest is not a
        # result: say which are missing and print none.
        print(f"perfbench: {section} metrics without a value on this "
              f"run: {', '.join(missing)}", file=sys.stderr)
        return 3
    attempted = sum(a for a, _ in counts.values())
    failed = sum(f for _, f in counts.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
