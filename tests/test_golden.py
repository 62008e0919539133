"""Golden accounting: the one-shard engine, pinned to exact figures.

The figures below were captured with the former single-engine front
door (``SpatialQueryEngine``, removed when ``ShardedEngine`` became the
only engine) on the same serving workload: ``run_workload`` over
``make_workload(universe, 60, seed=3)`` against ``engine_for_dataset``
at quick scale with 2 workers on the default process pool.  The
one-shard engine must reproduce the pairs and the simulated
accounting bit for bit — any drift means the scatter/gather layer
changed what a query costs, not just where it runs.
"""

from __future__ import annotations

import pytest

from repro.engine import engine_for_dataset, make_workload, run_workload
from repro.sim.scale import QUICK_SCALE

#: dataset -> (sim_wall_seconds, pages read, CPU ops, pairs returned).
GOLDEN = {
    "NJ": (0.049762123170166, 109, 39_448, 5_689),
    "DISK1": (0.27761629659668136, 602, 318_506, 56_357),
}


@pytest.mark.parametrize("dataset", sorted(GOLDEN))
def test_one_shard_reproduces_single_engine_accounting(dataset):
    engine = engine_for_dataset(dataset, QUICK_SCALE, workers=2)
    try:
        assert engine.shards == 1
        queries = make_workload(engine.universe_of("roads"), 60, seed=3)
        report = run_workload(engine, queries)
    finally:
        engine.close()
    m = report["metrics"]
    got = (report["sim_wall_seconds"], m["pages_read"], m["cpu_ops"],
           report["pairs_returned"])
    assert got == GOLDEN[dataset]
