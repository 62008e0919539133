"""Per-layer timing for the traced run, recorded from outside the engine.

:func:`install` wraps public entry points of each layer with timers
(the engine's code is not changed); the engine itself is built with
``trace=True`` so every executed query also returns its span tree, from
which the scatter, gather, distribute, sweep and sweep-task times are
read.  Counter deltas (caches, pool, storage, budget) come from the
engine's public snapshots taken at the start and end of the timed list.
"""

from __future__ import annotations

import statistics
import threading
import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

from repro.engine.catalog import CatalogEntry
from repro.engine.optimizer import Optimizer
from repro.engine.pool import PoolClient, WorkerPool
from repro.engine.shard import ShardedEngine

MIB = float(1 << 20)

#: Plans whose shares of the compiled shard sub-queries are printed
#: beside the per-layer table.
PLANS = ("pq-index", "pbsm-grid", "sssj")


class Recorder:
    """Samples gathered by the wrappers (append-only, thread-safe)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (set-up and warm-up)."""
        with self.lock:
            self.execute_walls: List[float] = []
            self.fanout: List[int] = []
            self.register_walls: List[float] = []
            self.compile: List[Tuple[float, str]] = []
            self.submit_seconds = 0.0
            self.prestart_walls: List[float] = []
            self.builds: Dict[str, List[float]] = {
                "stream": [], "tree": [], "histogram": [],
            }
            self.queries: List[Dict[str, float]] = []
            self.task_walls: List[float] = []
            self.task_ops: List[int] = []
            self.plan_sim: List[float] = []

    def reset_queries(self, keep_catalog: bool = True) -> None:
        """Forget query-time samples; keep the last set-up's pool start
        and, with ``keep_catalog``, its catalog builds and registers."""
        with self.lock:
            keep = (self.builds, self.register_walls, self.prestart_walls)
        self.reset()
        with self.lock:
            self.prestart_walls = keep[2]
            if keep_catalog:
                self.builds, self.register_walls = keep[:2]

    def add(self, attr: str, value) -> None:
        with self.lock:
            getattr(self, attr).append(value)

    # -- span trees ------------------------------------------------------

    def record_trace(self, trace) -> None:
        """Fold one executed (non-cache-hit) scatter trace."""
        row = {"scatter": 0.0, "gather": 0.0, "dups": 0.0,
               "distribute": 0.0, "sweep": 0.0, "exec_gather": 0.0,
               "spilled": 0.0, "ops": 0.0}
        walls: List[float] = []
        ops: List[int] = []
        plan_sim: List[float] = []
        for child in trace.children:
            if child.name == "scatter":
                row["scatter"] = child.wall_seconds
            elif child.name == "gather":
                row["gather"] = child.wall_seconds
                row["dups"] = float(child.attrs.get("duplicates", 0))
        for shard in trace.find_all("shard"):
            execute = next(
                (c for c in shard.children if c.name == "execute"), None
            )
            if execute is None:
                continue
            plan_sim.append(execute.sim_io_seconds
                            + execute.sim_cpu_seconds)
            for phase in execute.children:
                if phase.name == "distribute":
                    row["distribute"] += phase.wall_seconds
                    row["spilled"] += float(
                        phase.attrs.get("spilled_rects", 0)
                    )
                elif phase.name == "sweep":
                    row["sweep"] += phase.wall_seconds
                    row["ops"] += phase.cpu_ops
                    for task in phase.children:
                        walls.append(task.wall_seconds)
                        ops.append(task.cpu_ops)
                elif phase.name == "gather":
                    row["exec_gather"] += phase.wall_seconds
        with self.lock:
            self.queries.append(row)
            self.task_walls.extend(walls)
            self.task_ops.extend(ops)
            self.plan_sim.extend(plan_sim)


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap the layers' public entry points; returns the undo."""
    orig_execute = ShardedEngine.execute
    orig_plan = ShardedEngine.plan_shards
    orig_register = ShardedEngine.register
    orig_compile = Optimizer.compile
    orig_submit = PoolClient.submit
    orig_prestart = WorkerPool.prestart

    def execute(self, query, *args, **kwargs):
        t0 = time.perf_counter()
        out = orig_execute(self, query, *args, **kwargs)
        rec.add("execute_walls", time.perf_counter() - t0)
        if not out.from_cache and out.trace is not None:
            rec.record_trace(out.trace)
        return out

    def plan_shards(self, query):
        participating, pruned = orig_plan(self, query)
        rec.add("fanout", len(participating))
        return participating, pruned

    def register(self, *args, **kwargs):
        t0 = time.perf_counter()
        orig_register(self, *args, **kwargs)
        rec.add("register_walls", time.perf_counter() - t0)

    def compile_(self, query):
        t0 = time.perf_counter()
        plan = orig_compile(self, query)
        rec.add("compile", (time.perf_counter() - t0, plan.strategy))
        return plan

    def submit(self, fn, payload, units=1):
        t0 = time.perf_counter()
        fut = orig_submit(self, fn, payload, units)
        dt = time.perf_counter() - t0
        with rec.lock:
            rec.submit_seconds += dt
        return fut

    def prestart(self):
        cold = not self.started
        t0 = time.perf_counter()
        orig_prestart(self)
        if cold:
            rec.add("prestart_walls", time.perf_counter() - t0)

    patches = [
        (ShardedEngine, "execute", execute),
        (ShardedEngine, "plan_shards", plan_shards),
        (ShardedEngine, "register", register),
        (Optimizer, "compile", compile_),
        (PoolClient, "submit", submit),
        (WorkerPool, "prestart", prestart),
    ] + [
        (CatalogEntry, prop, _first_access_timer(rec, prop))
        for prop in ("stream", "tree", "histogram")
    ]
    originals = [(cls, name, cls.__dict__[name])
                 for cls, name, _ in patches]
    for cls, name, replacement in patches:
        setattr(cls, name, replacement)

    def restore() -> None:
        for cls, name, original in originals:
            setattr(cls, name, original)

    return restore


def _first_access_timer(rec: Recorder, prop: str) -> property:
    """A property timing the first access to it on each entry (the
    lazy build); later accesses pass straight through."""
    getter = CatalogEntry.__dict__[prop].fget
    seen: "weakref.WeakSet[CatalogEntry]" = weakref.WeakSet()

    def timed(entry):
        if entry in seen:
            return getter(entry)
        t0 = time.perf_counter()
        value = getter(entry)
        wall = time.perf_counter() - t0
        with rec.lock:
            rec.builds[prop].append(wall)
        seen.add(entry)
        return value

    return property(timed)


# -- counter snapshots -------------------------------------------------------


def counters(engine: ShardedEngine) -> Dict[str, float]:
    """Cumulative engine counters; two of these bracket a timed list."""
    snap = engine.metrics_snapshot()
    rc = engine.cache.snapshot()
    art = engine.artifacts.snapshot()
    pool = engine.pool.snapshot()
    errors = snap.get("estimate_errors", {}) or {}
    return {
        "executed": engine.queries_executed,
        "sim_seconds": engine.sim_wall_total,
        "rc_hits": rc["hits"], "rc_misses": rc["misses"],
        "rc_evictions": rc["evictions"],
        "art_hits": art.get("hits", 0), "art_misses": art.get("misses", 0),
        "art_evictions": art.get("evictions", 0),
        "tasks_dispatched": pool["tasks_dispatched"],
        "tasks_inline": pool["tasks_inline"],
        "shm_bytes": pool["shm"]["bytes_packed"],
        "pages_read": snap["pages_read"],
        "pages_written": snap["pages_written"],
        "spilled_rects": snap["spilled_rects"],
        "io_abs_error": sum(e["abs_error_seconds"] for e in errors.values()),
        "io_actual": sum(e["actual_io_seconds"] for e in errors.values()),
        "high_water_bytes": engine.budget.snapshot().get(
            "high_water_bytes", 0),
    }


def delta(after: Dict[str, float], before: Dict[str, float]
          ) -> Dict[str, float]:
    return {k: after[k] - before[k] for k in after}


def _mean(xs) -> Optional[float]:
    return statistics.fmean(xs) if xs else None


def summarize(rec: Recorder, d: Dict[str, float], after: Dict[str, float],
              cpu_seconds: Optional[float],
              worker_cpu_seconds: Optional[float],
              serve: Dict[str, Optional[float]]
              ) -> Tuple[Dict[str, float], Dict[str, str], Dict[str, float]]:
    """(per-layer values, reasons for absent metrics, plan shares).

    ``d`` is the counter delta over the timed list, ``after`` the
    counters at its end, ``cpu_seconds`` and ``worker_cpu_seconds`` the
    CPU of the engine process with its pool workers and of the workers
    alone over the list, and ``serve`` the front-end figures the caller
    measured (``transport_ms``, ``queue_ms``, ``wall_ms``, ``failed``).
    Times are means per executed query unless the metric's description
    says otherwise.  Every metric is defined on every workload; one is
    absent only when the layer did not run at all in the timed list.
    """
    values: Dict[str, float] = {}
    absent: Dict[str, str] = {}
    shares: Dict[str, float] = {}
    executed = int(d["executed"])

    def put(name: str, value: Optional[float], why: str) -> None:
        if value is None:
            absent[name] = why
        else:
            values[name] = float(value)

    per_exec = (lambda x: x / executed) if executed else (lambda x: None)
    put("serve.transport_ms", serve.get("transport_ms"), "no served requests")
    put("serve.queue_ms", serve.get("queue_ms"), "no served requests")
    exec_ms = _mean(rec.execute_walls)
    dispatch = None
    if serve.get("wall_ms") is not None and exec_ms is not None:
        dispatch = serve["wall_ms"] - serve["queue_ms"] - exec_ms * 1e3
    put("serve.dispatch_ms", dispatch, "no served requests")
    put("serve.failed", serve.get("failed"), "no front-end on this run")
    put("shard.fanout", _mean(rec.fanout), "no executed query")
    rows = rec.queries
    for name, key in (("shard.scatter_ms", "scatter"),
                      ("shard.gather_ms", "gather"),
                      ("executor.distribute_ms", "distribute"),
                      ("executor.sweep_ms", "sweep"),
                      ("executor.gather_ms", "exec_gather")):
        m = _mean([r[key] for r in rows])
        put(name, None if m is None else m * 1e3, "no executed query")
    put("shard.cross_dups", _mean([r["dups"] for r in rows]),
        "no executed query")
    probes = d["rc_hits"] + d["rc_misses"]
    put("result_cache.hit_rate", d["rc_hits"] / probes if probes else None,
        "result cache never probed")
    values["result_cache.evictions"] = d["rc_evictions"]
    probes = d["art_hits"] + d["art_misses"]
    put("artifact_cache.hit_rate",
        d["art_hits"] / probes if probes else None,
        "no partitioned plan probed the artifact cache")
    values["artifact_cache.evictions"] = d["art_evictions"]
    compiles = rec.compile
    put("optimizer.compile_ms",
        statistics.median(w for w, _ in compiles) * 1e3
        if compiles else None, "no shard sub-query compiled")
    put("optimizer.sim_ms",
        _mean(rec.plan_sim) * 1e3 if rec.plan_sim else None,
        "no shard sub-query executed")
    if compiles:
        for strategy in PLANS:
            shares[strategy] = (sum(1 for _, s in compiles if s == strategy)
                                / len(compiles))
    put("optimizer.io_error",
        d["io_abs_error"] / d["io_actual"] if d["io_actual"] else None,
        "no simulated I/O in executed queries")
    put("executor.spilled_rects", per_exec(d["spilled_rects"]),
        "no executed query")
    tasks = d["tasks_dispatched"] + d["tasks_inline"]
    put("executor.inline_share", d["tasks_inline"] / tasks if tasks else None,
        "no partitioned plan ran (no sweep tasks)")
    put("pool.tasks", per_exec(d["tasks_dispatched"]), "no executed query")
    exec_wall = sum(rec.execute_walls)
    put("pool.submit_share",
        rec.submit_seconds / exec_wall if exec_wall > 0 else None,
        "no executed query")
    put("pool.shm_mb", per_exec(d["shm_bytes"] / MIB), "no executed query")
    put("pool.worker_cpu_share",
        worker_cpu_seconds / cpu_seconds
        if worker_cpu_seconds is not None and cpu_seconds else None,
        "CPU time not readable")
    put("sweep.task_ms",
        _mean(rec.task_walls) * 1e3 if rec.task_walls else None,
        "no sweep task ran")
    put("sweep.ops", per_exec(sum(r["ops"] for r in rows)),
        "no executed query")
    task_wall = sum(rec.task_walls)
    put("sweep.mops_per_s",
        sum(rec.task_ops) / task_wall / 1e6 if task_wall > 0 else None,
        "no sweep task ran")
    put("catalog.register_ms",
        _mean(rec.register_walls) * 1e3 if rec.register_walls else None,
        "no register call")
    for prop in ("stream", "tree", "histogram"):
        walls = rec.builds[prop]
        put(f"catalog.{prop}_ms", _mean(walls) * 1e3 if walls else None,
            f"no catalog {prop} built")
    put("catalog.prestart_ms",
        _mean(rec.prestart_walls) * 1e3 if rec.prestart_walls else None,
        "worker pool never started")
    put("storage.pages_read", per_exec(d["pages_read"]), "no executed query")
    put("storage.pages_written", per_exec(d["pages_written"]),
        "no executed query")
    values["budget.high_water_mb"] = after["high_water_bytes"] / MIB
    return values, absent, shares
