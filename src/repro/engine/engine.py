"""One strip replica's execution stack: catalog, optimizer, executor.

:class:`ShardReplica` is what every ``(shard, replica)`` slot of a
:class:`~repro.engine.shard.ShardedEngine` runs.  It owns its slice of
the data and the whole simulated hardware stack that slice is served
from — environment, disk, page store, LRU buffer pool — so two
replicas never share counters, and a long-lived replica's buffer pool
stays warm across queries (the serving advantage the paper's one-shot
experiments could not show).  Every sub-query flows

    optimize (cost model) -> execute

and the replica accounts for both stages: simulated I/O and CPU
seconds on its machine (with the partitioned executor's parallel CPU
savings applied) and raw page/byte counters, all recorded in its
:class:`~repro.engine.metrics.EngineMetrics`, which the coordinator
merges.

It also owns one :class:`~repro.engine.resources.ResourceBudget` — by
default the paper's internal-memory grant plus the ST buffer pool
(Section 5.1's 24 MB + 22 MB, scaled) — attached to the environment so
every layer of execution charges the same ledger: the buffer pool's
resident pages, external sorts' run-formation chunks, and the
partitioned executor's tile grants (with disk spill beyond them).
Sub-queries whose minimum grant exceeds the whole budget are refused
up front (:class:`~repro.engine.resources.AdmissionError`).

Result caching, latency tracking, slow-query logging, thread safety
and the pool lifecycle belong to the coordinator: a replica always runs
on the coordinator's shared worker pool, and the coordinator holds the
replica's lock around every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.join_result import JoinResult
from repro.engine.artifacts import ArtifactStore
from repro.engine.cache import ArtifactCache
from repro.engine.catalog import Catalog, GeometryMap
from repro.engine.executor import (
    DEFAULT_MIN_SHIP_RECTS,
    DEFAULT_TILE_BATCH_BYTES,
    DEFAULT_TILES_PER_SIDE,
    Executor,
)
from repro.engine.faults import FaultPlan
from repro.engine.metrics import EngineMetrics
from repro.engine.optimizer import Optimizer, PhysicalPlan, PlanActuals
from repro.engine.pool import DeadlineExceeded, WorkerPool
from repro.engine.query import Query
from repro.engine.resources import AdmissionError, ResourceBudget
from repro.engine.trace import Span, span_meter
from repro.geom.rect import Rect
from repro.sim.env import SimEnv
from repro.sim.machines import MACHINE_3, MachineSpec
from repro.sim.scale import DEFAULT_SCALE, ScaleConfig
from repro.storage.buffer_pool import BufferPool
from repro.storage.disk import Disk
from repro.storage.pages import PageStore


@dataclass
class EngineResult:
    """What ``execute`` hands back: the join result plus provenance."""

    query: Query
    result: JoinResult
    plan: Optional[PhysicalPlan]
    from_cache: bool
    wall_seconds: float
    sim_wall_seconds: float
    trace: Optional[Span] = None


class ShardReplica:
    """One replica of one shard strip: the full plan/execute stack."""

    def __init__(
        self,
        worker_pool: WorkerPool,
        scale: ScaleConfig = DEFAULT_SCALE,
        machine: MachineSpec = MACHINE_3,
        auto_index: bool = True,
        histogram_grid: int = 32,
        memory_bytes: Optional[int] = None,
        min_ship_rects: int = DEFAULT_MIN_SHIP_RECTS,
        artifact_cache_bytes: Optional[int] = None,
        artifact_dir: Optional[str] = None,
        tile_batch_bytes: int = DEFAULT_TILE_BATCH_BYTES,
        trace: bool = False,
        kernel: str = "auto",
        shm_min_bytes: Optional[int] = None,
        inline_plan_ops: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.scale = scale
        self.machine = machine
        # The enforced internal-memory contract.  The default mirrors
        # the paper's Section 5.1 split: the algorithms' memory grant
        # plus the tree join's LRU pool, both already scaled.
        self.budget = ResourceBudget(
            memory_bytes if memory_bytes is not None
            else scale.memory_bytes + scale.buffer_pool_bytes
        )
        self.env = SimEnv(scale=scale, machines=(machine,))
        self.env.budget = self.budget
        self.disk = Disk(self.env)
        self.store = PageStore(self.disk, scale.index_page_bytes)
        self.pool = BufferPool(
            self.store, scale.buffer_pool_pages, budget=self.budget
        )
        self.catalog = Catalog(
            self.disk, self.store, histogram_grid=histogram_grid
        )
        # The coordinator's shared worker pool, through a ref-counted
        # client so per-replica dispatch stays attributable.  The
        # artifact cache occupies only free budget bytes and is evicted
        # before it could ever starve a tile grant
        # (``artifact_cache_bytes=0`` disables it); ``artifact_dir``
        # additionally persists artifacts to a content-keyed sidecar,
        # so a restarted replica pointed at the same directory restores
        # its warm state lazily on first touch.
        self.worker_pool = worker_pool.client()
        self.artifacts = ArtifactCache(
            budget=self.budget, max_bytes=artifact_cache_bytes,
        )
        self.artifact_store = (
            ArtifactStore(artifact_dir, faults=faults)
            if artifact_dir else None
        )
        self.optimizer = Optimizer(
            self.catalog, machine, scale,
            workers=worker_pool.workers, auto_index=auto_index,
            budget=self.budget,
            artifacts=self.artifacts,
            tiles_per_side=DEFAULT_TILES_PER_SIDE,
            store=self.artifact_store,
        )
        # ``kernel`` selects the sweep implementation ("auto" resolves
        # to numpy when importable; results are bit-identical either
        # way).  ``shm_min_bytes`` tunes zero-copy tile shipping on
        # process pools: None keeps the executor default, negative
        # disables shared memory entirely (tiles pickle as before).
        # ``inline_plan_ops`` tunes cost-aware dispatch (repeat plans
        # measured cheaper than a pool round-trip sweep inline): None
        # keeps the executor default, 0 disables the memo.
        extra = {}
        if shm_min_bytes is not None:
            extra["shm_min_bytes"] = shm_min_bytes
        if inline_plan_ops is not None:
            extra["inline_plan_ops"] = inline_plan_ops
        self.executor = Executor(
            self.disk, machine, pool=self.pool, budget=self.budget,
            worker_pool=self.worker_pool, artifacts=self.artifacts,
            min_ship_rects=min_ship_rects,
            tile_batch_bytes=tile_batch_bytes,
            store=self.artifact_store,
            kernel=kernel,
            **extra,
        )
        self.kernel = self.executor.kernel
        self.metrics = EngineMetrics()
        #: Span trees per sub-query; the coordinator adopts them as
        #: ``shard`` subtrees of its scatter trace.
        self.tracing = bool(trace)

    # -- catalog management ----------------------------------------------

    def register(
        self,
        name: str,
        rects: Sequence[Rect],
        universe: Optional[Rect] = None,
        geometries: Optional[GeometryMap] = None,
    ) -> None:
        """(Re-)register a relation and invalidate its artifacts."""
        self.catalog.register(
            name, rects, universe=universe, geometries=geometries
        )
        self.artifacts.invalidate_relation(name)

    def drop(self, name: str) -> None:
        self.catalog.drop(name)
        self.artifacts.invalidate_relation(name)

    def prepare(self, *names: str) -> None:
        """Force-build streams, indexes and histograms now.

        The catalog builds lazily, which charges the build to the first
        query that needs it; benchmark-style callers prepare up front so
        every measured query starts from built representations, like
        the paper's build-once-measure-many runner.
        """
        for name in (names or self.catalog.names()):
            entry = self.catalog.get(name)
            entry.stream, entry.tree, entry.histogram  # noqa: B018
        # Boot the worker pool alongside the data structures: forking
        # the workers belongs to the build phase, not to whichever
        # query happens to be the first partitioned one.
        self.worker_pool.prestart()
        # Likewise, restore-heavy restarts should not pay the sidecar
        # reads on the first queries: stage the manifest's hottest
        # artifacts in the background while traffic ramps.
        if self.artifact_store is not None:
            self.artifact_store.start_prewarm()

    # -- execution -------------------------------------------------------

    def execute(self, query: Query, analyze: bool = False,
                cancel: Optional[Callable[[], None]] = None,
                ) -> EngineResult:
        """Plan and run one sub-query over this replica's slice.

        ``cancel`` is a cooperative cancellation checkpoint, honoured
        at entry and forwarded into the executor, whose partitioned
        path checks it per gathered task — and ships a CancelToken
        inside every pool payload so workers stop at tile boundaries
        too.  ``analyze`` attaches the measured actuals to the plan.
        """
        if cancel is not None:
            cancel()
        trace = (
            Span("query", query=query.describe())
            if self.tracing else None
        )
        # Snapshot counters before compiling: plan-time lazy builds
        # (streams, indexes, histograms) are charged to the query that
        # triggered them, as the catalog's laziness contract promises.
        obs = self.env.observer_for(self.machine)
        before = (
            self.env.page_reads, self.env.page_writes,
            self.env.bytes_read, self.env.bytes_written,
            self.env.cpu_ops, obs.io_seconds, obs.cpu_seconds,
        )
        t0 = time.perf_counter()
        with span_meter(self.env, self.machine, trace, "plan") as pspan:
            plan = self.optimizer.compile(query)
            if pspan is not None:
                pspan.attrs["strategy"] = plan.strategy
        if plan.min_grant_bytes > self.budget.total_bytes:
            # Admission control: even with maximal spilling this query
            # could not run under the replica's memory contract; refuse
            # it instead of degrading every other query.
            self.metrics.record_rejection()
            raise AdmissionError(
                f"query {query.describe()!r} needs a minimum grant of "
                f"{plan.min_grant_bytes} bytes but the engine budget is "
                f"{self.budget.total_bytes} bytes"
            )
        with span_meter(self.env, self.machine, trace, "execute",
                        strategy=plan.strategy) as espan:
            try:
                result = self.executor.execute(plan, self.catalog,
                                               trace=espan,
                                               cancel=cancel)
            except DeadlineExceeded:
                self.metrics.record_cancellation()
                raise
        wall = time.perf_counter() - t0

        d_pages_r = self.env.page_reads - before[0]
        d_pages_w = self.env.page_writes - before[1]
        d_bytes_r = self.env.bytes_read - before[2]
        d_bytes_w = self.env.bytes_written - before[3]
        d_cpu_ops = self.env.cpu_ops - before[4]
        d_io = obs.io_seconds - before[5]
        d_cpu = obs.cpu_seconds - before[6]
        # Partitioned plans overlap sweep CPU across workers; the
        # executor reports how many CPU-seconds the overlap hides.
        saved = float(result.detail.get("parallel_cpu_seconds_saved", 0.0))
        sim_wall = d_io + max(0.0, d_cpu - saved)

        strategy = str(result.detail.get("strategy", plan.strategy))
        spilled = int(result.detail.get("spilled_rects", 0))
        restores = int(result.detail.get("artifact_restores", 0))
        restore_bytes = int(result.detail.get("artifact_restore_bytes", 0))
        self.metrics.record_execution(
            strategy=strategy,
            n_pairs=result.n_pairs,
            pages_read=d_pages_r, pages_written=d_pages_w,
            bytes_read=d_bytes_r, bytes_written=d_bytes_w,
            cpu_ops=d_cpu_ops,
            sim_io_seconds=d_io, sim_cpu_seconds=d_cpu,
            sim_wall_seconds=sim_wall, wall_seconds=wall,
            spilled_rects=spilled,
            artifact_restores=restores,
            artifact_restore_bytes=restore_bytes,
        )
        self.metrics.record_estimate(
            strategy, plan.estimate.io_seconds, d_io
        )
        if analyze:
            # EXPLAIN ANALYZE contract: the actuals attached to the
            # plan are the exact deltas just fed to the metrics, so
            # ``plan.explain()`` and the metrics snapshot can never
            # disagree about what a query cost.
            plan.actuals = PlanActuals(
                pages_read=d_pages_r, pages_written=d_pages_w,
                bytes_read=d_bytes_r, bytes_written=d_bytes_w,
                cpu_ops=d_cpu_ops,
                sim_io_seconds=d_io, sim_cpu_seconds=d_cpu,
                sim_wall_seconds=sim_wall, wall_seconds=wall,
                pairs=result.n_pairs,
                spilled_rects=spilled,
                artifact_restores=restores,
                artifact_restore_bytes=restore_bytes,
            )
        if trace is not None:
            # The root span carries the whole sub-query's deltas — the
            # same numbers record_execution saw — so summing a trace
            # always reconciles with the metrics.
            trace.wall_seconds = time.perf_counter() - t0
            trace.pages_read = d_pages_r
            trace.pages_written = d_pages_w
            trace.bytes_read = d_bytes_r
            trace.bytes_written = d_bytes_w
            trace.cpu_ops = d_cpu_ops
            trace.sim_io_seconds = d_io
            trace.sim_cpu_seconds = d_cpu
            trace.attrs.update({
                "strategy": strategy,
                "pairs": result.n_pairs,
                "sim_wall_seconds": sim_wall,
            })
        return EngineResult(
            query=query, result=result, plan=plan, from_cache=False,
            wall_seconds=wall, sim_wall_seconds=sim_wall, trace=trace,
        )

    def explain(self, query: Query) -> str:
        """The physical plan as text, without executing the join.

        Pricing the index paths needs page counts, so explaining a
        query on an unprepared catalog can trigger the same lazy
        stream/index/histogram builds planning does.  That build I/O is
        charged to the environment but to no query — the per-query
        metrics invariant covers ``execute`` only.  Call
        :meth:`prepare` first for a side-effect-free explain.
        """
        return self.optimizer.compile(query).explain()
