"""Differential tests for the runtime-selected sweep kernels.

The contract under test: the numpy kernel is *bit-identical* to the
pure-python reference — same pairs, same emit order, same ``cpu_ops``
and ``max_active_items`` accounting — at every level it plugs in
(batched sweep, tile task, whole engine over serial/thread/process
pools).  Alongside parity, the suite pins kernel resolution semantics
(``auto``/``REPRO_KERNEL``/explicit) and the hygiene of shared-memory
tile shipping: segments are reference-counted, survive worker crashes,
and never outlive the engine.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.core import kernels
from repro.core.columnar import COLUMN_BYTES_PER_RECT, ColumnarTile
from repro.core.sweep import forward_sweep_pairs_batched
from repro.engine import Query, ShardedEngine, WorkerPool
from repro.engine import executor as executor_mod
from repro.engine.executor import _OpCounter, sweep_tile_task
from repro.geom.rect import Rect

from tests.conftest import (
    GENERATORS,
    TEST_SCALE,
    _clustered,
    _uniform,
    brute_reference,
)

UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="numpy not importable"
)


def _pair_rids(pairs):
    return [(a.rid, b.rid) for a, b in pairs]


# -- kernel resolution -------------------------------------------------------


class TestResolveKernel:
    def test_explicit_python(self):
        assert kernels.resolve_kernel("python") == "python"

    def test_bad_name_raises(self):
        with pytest.raises(ValueError, match="kernel must be one of"):
            kernels.resolve_kernel("fortran")

    @needs_numpy
    def test_auto_prefers_numpy(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV_VAR, raising=False)
        assert kernels.resolve_kernel("auto") == "numpy"

    def test_env_var_forces_python_fallback(self, monkeypatch):
        monkeypatch.setenv(kernels.KERNEL_ENV_VAR, "python")
        assert kernels.resolve_kernel("auto") == "python"
        # ...but never overrides an explicit request.
        if kernels.numpy_available():
            assert kernels.resolve_kernel("numpy") == "numpy"

    def test_auto_without_numpy_falls_back(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_ENV_VAR, raising=False)
        monkeypatch.setattr(kernels, "_numpy_available", False)
        assert kernels.resolve_kernel("auto") == "python"

    def test_explicit_numpy_without_numpy_raises(self, monkeypatch):
        monkeypatch.setattr(kernels, "_numpy_available", False)
        with pytest.raises(ValueError, match="not importable"):
            kernels.resolve_kernel("numpy")

    def test_engine_surfaces_resolved_kernel(self):
        engine = ShardedEngine(
            shards=1, scale=TEST_SCALE, workers=1, pool_kind="serial",
            kernel="python",
        )
        try:
            assert engine.kernel == "python"
            assert engine.metrics_snapshot()["kernel"] == "python"
        finally:
            engine.close()


# -- batched-sweep parity ----------------------------------------------------


@needs_numpy
class TestSweepParity:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_join_matches_python_exactly(self, name):
        rng = random.Random(hash(name) % 1000)
        a = GENERATORS[name](rng, 230)
        b = GENERATORS[name](rng, 170, 10_000)
        env_py, env_np = _OpCounter(), _OpCounter()
        pairs_py, stats_py = forward_sweep_pairs_batched(a, b, env_py)
        pairs_np, stats_np = kernels.sweep_pairs_batched(
            "numpy", a, b, env_np,
        )
        assert _pair_rids(pairs_np) == _pair_rids(pairs_py)
        assert stats_np == stats_py
        assert env_np.cpu_ops == env_py.cpu_ops

    def test_presorted_parity_and_validation(self):
        rng = random.Random(5)
        a = sorted(_uniform(rng, 200), key=lambda r: (r.ylo, r.xlo))
        b = sorted(_uniform(rng, 150, 10_000),
                   key=lambda r: (r.ylo, r.xlo))
        env_py, env_np = _OpCounter(), _OpCounter()
        pairs_py, stats_py = forward_sweep_pairs_batched(
            a, b, env_py, presorted=True,
        )
        pairs_np, stats_np = kernels.sweep_pairs_batched(
            "numpy", a, b, env_np, presorted=True,
        )
        assert _pair_rids(pairs_np) == _pair_rids(pairs_py)
        assert stats_np == stats_py
        assert env_np.cpu_ops == env_py.cpu_ops
        # A presorted=True claim over unsorted input is a caller bug:
        # the vectorized kernel rejects it instead of mis-sweeping.
        from repro.core.kernels import np_sweep
        shuffled = list(reversed(a))
        with pytest.raises(ValueError, match="not sorted by ylo"):
            np_sweep.sweep_pairs_batched(shuffled, b, _OpCounter(),
                                         presorted=True)

    def test_inverted_y_interval_falls_back(self):
        # yhi < ylo is outside the vectorized model; the dispatcher
        # must fall back to the python kernel, not crash or diverge.
        rng = random.Random(9)
        a = _uniform(rng, 120)
        a.append(Rect(0.4, 0.5, 0.6, 0.2, 9_999))  # inverted
        b = _uniform(rng, 90, 10_000)
        from repro.core.kernels import np_sweep
        assert np_sweep.sweep_pairs_batched(a, b, _OpCounter()) is None
        env_py, env_np = _OpCounter(), _OpCounter()
        pairs_py, stats_py = forward_sweep_pairs_batched(a, b, env_py)
        pairs_np, stats_np = kernels.sweep_pairs_batched(
            "numpy", a, b, env_np,
        )
        assert _pair_rids(pairs_np) == _pair_rids(pairs_py)
        assert stats_np == stats_py
        assert env_np.cpu_ops == env_py.cpu_ops

    def test_columnar_tile_inputs(self):
        rng = random.Random(13)
        a = _clustered(rng, 260)
        b = _clustered(rng, 260, 10_000)
        ta = ColumnarTile.from_rects(a)
        tb = ColumnarTile.from_rects(b)
        env_py, env_np = _OpCounter(), _OpCounter()
        pairs_py, stats_py = forward_sweep_pairs_batched(a, b, env_py)
        pairs_np, stats_np = kernels.sweep_pairs_batched(
            "numpy", ta, tb, env_np,
        )
        assert _pair_rids(pairs_np) == _pair_rids(pairs_py)
        assert stats_np == stats_py
        assert env_np.cpu_ops == env_py.cpu_ops


# -- tile-task parity --------------------------------------------------------


@needs_numpy
class TestTileTaskParity:
    GRID_SPEC = (0.0, 1.0, 0.0, 1.0, 2, 4)  # 2x2 tiles, 4 partitions

    def _run(self, side_a, side_b, self_join, window=None):
        """Both kernels over every partition; identical 4-tuples."""
        for part_id in range(self.GRID_SPEC[5]):
            out = {}
            for kernel in ("python", "numpy"):
                payload = (part_id, self.GRID_SPEC, side_a, side_b,
                           self_join, True, window, kernel)
                out[kernel] = sweep_tile_task(payload)
            assert out["numpy"] == out["python"], (
                f"kernel divergence on partition {part_id}"
            )

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_columnar_join(self, name, monkeypatch):
        monkeypatch.setattr(executor_mod, "NUMPY_MIN_TILE_RECTS", 1)
        rng = random.Random(len(name))
        ta = ColumnarTile.from_rects(GENERATORS[name](rng, 300))
        tb = ColumnarTile.from_rects(
            GENERATORS[name](rng, 240, 10_000),
        )
        self._run(ta, tb, False)

    def test_columnar_self_join(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "NUMPY_MIN_TILE_RECTS", 1)
        tile = ColumnarTile.from_rects(_clustered(random.Random(3), 320))
        self._run(tile, None, True)

    def test_windowed_join(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "NUMPY_MIN_TILE_RECTS", 1)
        rng = random.Random(21)
        ta = ColumnarTile.from_rects(_uniform(rng, 300))
        tb = ColumnarTile.from_rects(_uniform(rng, 240, 10_000))
        self._run(ta, tb, False, window=Rect(0.2, 0.7, 0.1, 0.6, 0))

    def test_rect_list_sides(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "NUMPY_MIN_LIST_RECTS", 1)
        rng = random.Random(27)
        self._run(_uniform(rng, 280), _uniform(rng, 200, 10_000), False)

    def test_below_cutoff_stays_python(self, monkeypatch):
        # Tiny tiles skip the vectorized path entirely — results are
        # identical by construction, so only the wall clock may differ.
        calls = []
        monkeypatch.setattr(executor_mod, "_np_sweep",
                            lambda: calls.append(1))
        tile = ColumnarTile.from_rects(_uniform(random.Random(1), 40))
        payload = (0, self.GRID_SPEC, tile, None, True, True, None,
                   "numpy")
        sweep_tile_task(payload)
        assert not calls, "numpy kernel engaged below the size cutoff"


# -- engine-level parity across pool kinds -----------------------------------


@needs_numpy
class TestEngineParity:
    def _engine(self, kernel, pool_kind, rects_a, rects_b):
        engine = ShardedEngine(
            shards=1, scale=TEST_SCALE, workers=2, pool_kind=pool_kind,
            cache_capacity=0, min_ship_rects=0, kernel=kernel,
            shm_min_bytes=0,
        )
        engine.register("a", rects_a, universe=UNIT)
        if rects_b is not None:
            engine.register("b", rects_b, universe=UNIT)
        return engine

    @pytest.mark.parametrize("pool_kind",
                             ("serial", "thread", "process"))
    def test_pairs_and_accounting_match(self, pool_kind, monkeypatch):
        monkeypatch.setattr(executor_mod, "NUMPY_MIN_TILE_RECTS", 1)
        monkeypatch.setattr(executor_mod, "NUMPY_MIN_LIST_RECTS", 1)
        rng = random.Random(17)
        a = GENERATORS["clustered"](rng, 300)
        b = GENERATORS["skewed"](rng, 260, 10_000)
        ref = sorted(brute_reference(a, b))
        query = Query(relations=("a", "b"))
        outcomes = {}
        for kernel in ("python", "numpy"):
            engine = self._engine(kernel, pool_kind, a, b)
            try:
                out = engine.execute(query)
                outcomes[kernel] = (
                    sorted(out.result.pairs),
                    engine.sim_wall_total,
                    engine.metrics_snapshot()["pages_read"],
                )
            finally:
                engine.close()
        assert outcomes["numpy"][0] == ref
        # Same pairs AND the same simulated cost: op accounting is
        # kernel-invariant, only the wall clock may move.
        assert outcomes["numpy"] == outcomes["python"]


# -- shared-memory shipping hygiene ------------------------------------------


class TestShmShipping:
    def test_pack_view_roundtrip(self):
        rects = _uniform(random.Random(2), 120)
        tile = ColumnarTile.from_rects(rects)
        buf = bytearray(64 + len(tile) * COLUMN_BYTES_PER_RECT)
        written = tile.pack_into(buf, 64)
        assert written == len(tile) * COLUMN_BYTES_PER_RECT
        view = ColumnarTile.view_over(memoryview(buf), 64, len(tile))
        assert len(view) == len(tile)
        assert view.decode() == tile.decode()

    def test_dead_tile_never_lends_its_segment_slot(self):
        # Two tiles packed into one segment; one dies while its sibling
        # keeps the segment alive.  Fresh tiles of the same length —
        # which CPython allocates at the dead tile's address when
        # nothing else is allocated in between — must each ship their
        # own bytes, never the dead tile's slot.
        from repro.engine.pool import resolve_shm_tile

        pool = WorkerPool(1, kind="thread")
        shm = pool.shm
        if not shm.enabled:
            pytest.skip("no shared memory on this host")
        rng = random.Random(41)
        batches = [_uniform(rng, 50, 10_000 * (i + 2)) for i in range(200)]
        keep = ColumnarTile.from_rects(_uniform(rng, 50))
        drop = ColumnarTile.from_rects(_uniform(rng, 50, 1_000))
        refs = shm.refs_for([keep, drop])
        assert refs is not None and refs[0].segment == refs[1].segment
        shm.task_done({refs[0].segment})
        del drop
        for rects in batches:
            fresh = ColumnarTile()
            fresh.extend(rects)
            (ref,) = shm.refs_for([fresh])
            assert resolve_shm_tile(ref).decode() == rects
            shm.task_done({ref.segment})
            del fresh
        del keep
        assert shm.open_segments == 0
        pool.shutdown()

    def _shm_engine(self, shm_min_bytes):
        engine = ShardedEngine(
            shards=1, scale=TEST_SCALE, workers=2, pool_kind="process",
            cache_capacity=0, min_ship_rects=0, kernel="python",
            shm_min_bytes=shm_min_bytes,
        )
        rects = _clustered(random.Random(23), 400)
        engine.register("a", rects, universe=UNIT)
        return engine, rects

    def test_shm_and_pickle_agree_and_release(self):
        query = Query(relations=("a", "a"))
        results = {}
        for label, threshold in (("shm", 0), ("pickle", -1)):
            engine, rects = self._shm_engine(threshold)
            try:
                out = engine.execute(query)
                results[label] = sorted(out.result.pairs)
                shm = engine.pool.shm
                if label == "shm":
                    assert shm.segments_created > 0
                else:
                    assert shm.segments_created == 0
            finally:
                engine.close()
            assert shm.open_segments == 0, "segments leaked past close"
        assert results["shm"] == results["pickle"]
        assert results["shm"] == sorted(brute_reference(rects))

    def test_worker_crash_leaks_nothing(self):
        from concurrent.futures import BrokenExecutor

        class _BrokenStub:
            def submit(self, fn, payload):
                raise BrokenExecutor("workers died")

            def shutdown(self, wait=True):
                pass

        query = Query(relations=("a", "a"))
        engine, rects = self._shm_engine(0)
        ref = sorted(brute_reference(rects))
        try:
            out = engine.execute(query)
            assert sorted(out.result.pairs) == ref
            # Rug-pull: the pool dies with shm-shipped tasks pending.
            # Recovery must re-run them inline against the coordinator's
            # own segments, then demote without leaking a single one.
            engine.pool._executor = _BrokenStub()
            out = engine.execute(query)
            assert sorted(out.result.pairs) == ref
        finally:
            engine.close()
        shm = engine.pool.shm
        assert shm.open_segments == 0
        assert shm.mapped_segments == 0
        leftovers = [
            n for n in os.listdir("/dev/shm")
            if n.startswith(f"repro-{os.getpid()}-")
        ] if os.path.isdir("/dev/shm") else []
        assert not leftovers, f"leaked shm files: {leftovers}"

    def test_negative_threshold_disables_shm(self):
        engine, _ = self._shm_engine(-1)
        try:
            engine.execute(Query(relations=("a", "a")))
            snap = engine.pool.snapshot()["shm"]
            assert snap["segments_created"] == 0
            assert snap["bytes_packed"] == 0
        finally:
            engine.close()
