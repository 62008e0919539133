"""The dashboard_http engine process: set-up, then ``serve_http``.

Run by ``run.py``, not by hand.  Protocol on stdin/stdout, one JSON
line each way:

* after set-up it prints ``{"port", "setup_s", "pids"}`` (``pids`` is
  this process followed by its pool workers);
* on ``stop <json>`` from the client (the client's serve figures and
  the CPU of the engine and of its workers, for the per-layer table) it prints the engine counter
  deltas over everything served since set-up, plus the per-layer
  values when traced;
* it closes the engine, then, with ``--setups-after M`` > 0, sets up M
  more times and prints ``{"setup_s"}`` with their CPU times, and exits.

Usage: ``python3 perfbench/server.py --trace 0|1 --setups N
--setups-after M``
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import host  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from repro.data.datasets import build_dataset  # noqa: E402
from repro.engine import serve_http  # noqa: E402


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


async def main(trace: bool, setups: int, setups_after: int) -> None:
    ds = build_dataset(workloads.DATASET)
    rec = layers.Recorder() if trace else None
    restore = layers.install(rec) if trace else None
    engine, frontend, times = await workloads.set_up_many(
        ds, "dashboard_http", trace, setups, rec)
    try:
        server = await serve_http(frontend)
        port = server.sockets[0].getsockname()[1]
        if rec is not None:
            rec.reset_queries()
        before = layers.counters(engine)
        emit({"port": port, "setup_s": times,
              "pids": [os.getpid()] + host.child_pids()})
        loop = asyncio.get_running_loop()
        line = await loop.run_in_executor(None, sys.stdin.readline)
        server.close()
        await server.wait_closed()
        if not line.startswith("stop "):
            raise SystemExit("expected a stop command")
        client = json.loads(line[len("stop "):])
        after = layers.counters(engine)
        d = layers.delta(after, before)
        out = {"executed": d["executed"], "sim_seconds": d["sim_seconds"],
               "layers": None}
        if rec is not None:
            out["layers"] = layers.summarize(
                rec, d, after, client["cpu_s"],
                client["worker_cpu_s"], client["serve"])
        emit(out)
    finally:
        frontend.close()
        engine.close()
        if restore is not None:
            restore()
    del engine, frontend
    if setups_after > 0:
        emit({"setup_s": await workloads.set_up_after(
            ds, "dashboard_http", setups_after)})


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--setups-after", type=int, default=0)
    args = parser.parse_args()
    asyncio.run(main(bool(args.trace), max(1, args.setups),
                     args.setups_after))
