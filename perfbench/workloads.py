"""The three workloads: operation lists, engine set-up and timed runs.

Every workload serves Table 2's DISK1 dataset at the default 1/256
scale (23,558 road and 4,539 hydro rectangles) through the public
surface: a 2-shard :class:`ShardedEngine` on a 2-worker process pool
under the default paper-scaled memory budget, behind a
:class:`ServingFrontend` (and, for ``dashboard_http``, ``serve_http``
in a separate server process).  Operation lists come from ``--seed``;
the dataset itself is fixed.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import socket
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import host
import layers
import reference
from repro.data.datasets import build_dataset
from repro.engine import Query, ServingFrontend, ShardedEngine
from repro.geom.rect import Rect

DATASET = "DISK1"
SHARDS = 2
WORKERS = 2
#: Set-ups per untraced run, before the timed list (the last one serves
#: it) and after it; ``setup_s`` is the median of their CPU times.  All
#: come before it: after it, the process is larger on ``reload_mix``
#: (every reload grows it), and set-ups cost more CPU by an amount that
#: depends on how many cycles the run fitted in.
SETUPS = (9, 0)

# dashboard_http: each round of 20 requests holds exactly 12 repeats of
# the fixed panels and 8 fresh pans (the 60/40 mix without sampling
# noise); pan and panel sides are 3-8% of the extent.
PANELS = 24
PANEL_SEED = 20000
ZIPF_S = 1.1
DASH_ROUND = 20
DASH_REPEATS = 12
CONNECTIONS = 2
SMALL_SIDES = (0.03, 0.08)

# overlay_spill: rounds of 6 overlays whose sides are stratified over
# 40-100% of the extent, so every round has the same size mix.
OVERLAY_ROUND = 6
OVERLAY_SIDES = (0.40, 1.00)

# reload_mix: a cycle re-registers hydro with 10% of its rectangles
# moved by up to 2% of the extent, prepares, then queries 8 fixed
# windows (3-8% sides) and one fixed region (20% sides, which plans to
# the partitioned pbsm-grid join) on the new version.
RELOAD_WINDOWS = 8
RELOAD_REGION = (0.40, 0.60, 0.40, 0.60)
WATCH_SEED = 30000
MOVED_SHARE = 0.10
MOVE_FRACTION = 0.02

#: Workloads on which shared-memory tile shipping (on by default) is
#: turned off with ``shm_min_bytes=-1``, so tiles cross to the pool
#: pickled.  With it on, the two shards' concurrent scatters on the
#: shared pool now and then return overlays with pairs missing
#: (``ShmSegments``; see the FOUND line in CHANGES.md), and a wrong
#: answer that comes only on some runs cannot be counted as a steady
#: failure.  The other workloads run the engine's default.  Empty this
#: set once the race is mended, so the default path is measured.
SHM_OFF = frozenset({"overlay_spill"})

#: ``peak_rss_mb`` is read when this many rounds (reload cycles) of the
#: timed list have completed, or at its end if it is shorter, so that
#: it does not depend on how many rounds a run fits in: re-registering
#: hydro grows the engine process on every reload cycle.
RSS_ROUNDS = {"dashboard_http": 100, "overlay_spill": 10,
              "reload_mix": 60}

Window = Tuple[float, float, float, float]


# -- operation lists -----------------------------------------------------------


def stratified(rng: random.Random, n: int, lo: float, hi: float
               ) -> List[float]:
    """n values, one drawn from each of n equal bins of [lo, hi]."""
    vals = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(vals)
    return vals


def place(rng: random.Random, u: Rect, fw: float, fh: float) -> Window:
    w = (u.xhi - u.xlo) * fw
    h = (u.yhi - u.ylo) * fh
    x = rng.uniform(u.xlo, u.xhi - w)
    y = rng.uniform(u.ylo, u.yhi - h)
    return (x, x + w, y, y + h)


def windows(rng: random.Random, u: Rect, n: int, sides) -> List[Window]:
    fw = stratified(rng, n, *sides)
    fh = stratified(rng, n, *sides)
    return [place(rng, u, a, b) for a, b in zip(fw, fh)]


def dashboard_ops(seed: int, u: Rect, rounds: int
                  ) -> Tuple[List[Window], List[Tuple[str, int, Window]]]:
    """(panels, ops); an op is (kind, panel index or -1, window).

    The panel set is the same for every seed (a dashboard's panels do
    not change between runs); the seed draws the request sequence and
    the fresh pans.
    """
    panels = windows(random.Random(PANEL_SEED), u, PANELS, SMALL_SIDES)
    rng = random.Random(seed)
    cum, acc = [], 0.0
    for k in range(PANELS):
        acc += 1.0 / (k + 1) ** ZIPF_S
        cum.append(acc)
    ops: List[Tuple[str, int, Window]] = []
    for _ in range(rounds):
        kinds = (["panel"] * DASH_REPEATS
                 + ["pan"] * (DASH_ROUND - DASH_REPEATS))
        rng.shuffle(kinds)
        pans = iter(windows(rng, u, DASH_ROUND - DASH_REPEATS,
                            SMALL_SIDES))
        for kind in kinds:
            if kind == "panel":
                k = rng.choices(range(PANELS), cum_weights=cum)[0]
                ops.append(("panel", k, panels[k]))
            else:
                ops.append(("pan", -1, next(pans)))
    return panels, ops


def overlay_ops(seed: int, u: Rect, rounds: int) -> List[Window]:
    rng = random.Random(seed)
    out: List[Window] = []
    for _ in range(rounds):
        out.extend(windows(rng, u, OVERLAY_ROUND, OVERLAY_SIDES))
    return out


def f32(x: float) -> float:
    return float(np.float32(x))


def moved_version(rng: random.Random, base: List[Rect], u: Rect
                  ) -> Tuple[np.ndarray, List[Rect]]:
    """(moved indices, new rectangles): 10% of ``base`` shifted.

    Moved rectangles stay inside the universe and keep float32-exact
    corners, like the generator's (the streams store float32).
    """
    n = len(base)
    idx = sorted(rng.sample(range(n), int(n * MOVED_SHARE)))
    span_x = (u.xhi - u.xlo) * MOVE_FRACTION
    span_y = (u.yhi - u.ylo) * MOVE_FRACTION
    moved = []
    for i in idx:
        r = base[i]
        w, h = r.xhi - r.xlo, r.yhi - r.ylo
        xlo = min(max(r.xlo + rng.uniform(-span_x, span_x), u.xlo),
                  u.xhi - w)
        ylo = min(max(r.ylo + rng.uniform(-span_y, span_y), u.ylo),
                  u.yhi - h)
        moved.append(Rect(f32(xlo), f32(xlo + w), f32(ylo), f32(ylo + h),
                          r.rid))
    return np.array(idx, dtype=np.int64), moved


def apply_version(base: List[Rect], idx: np.ndarray, moved: List[Rect]
                  ) -> List[Rect]:
    out = list(base)
    for i, r in zip(idx.tolist(), moved):
        out[i] = r
    return out


# -- engine set-up -------------------------------------------------------------

#: Fixed warm-up windows (fractions of the extent), the same for every
#: seed: four small pans and one half-extent overlay (``reload_mix``
#: also warms its region).
WARM_PANS = [(0.20, 0.25, 0.20, 0.25), (0.70, 0.75, 0.20, 0.25),
             (0.20, 0.25, 0.70, 0.75), (0.70, 0.75, 0.70, 0.75)]
WARM_OVERLAY = (0.25, 0.75, 0.25, 0.75)


def frac_window(u: Rect, f) -> Window:
    w, h = u.xhi - u.xlo, u.yhi - u.ylo
    return (u.xlo + w * f[0], u.xlo + w * f[1],
            u.ylo + h * f[2], u.ylo + h * f[3])


def query(window: Window) -> Query:
    return Query(relations=("roads", "hydro"), window=Rect(*window, 0))


async def submit_ok(frontend: ServingFrontend, window: Window,
                    query_class: str):
    resp = await frontend.submit(query(window), query_class)
    if not resp.ok:
        raise RuntimeError(f"warm-up query failed: {resp.status} "
                           f"{resp.error}")
    return resp


async def set_up(ds, workload: str, trace: bool
                 ) -> Tuple[ShardedEngine, ServingFrontend, float]:
    """Engine construction, register, prepare and the fixed warm-up.

    Returns the engine, its front-end and the CPU seconds all of it
    took: this process's (every thread) plus the pool workers it
    started (data generation is done before and not counted).  CPU
    time, unlike wall time, does not count the time the hypervisor
    gives this machine's vCPUs to other guests (steal).
    """
    u = ds.universe
    children = set(host.child_pids())
    cpu0 = time.process_time()
    engine = ShardedEngine(shards=SHARDS, workers=WORKERS, trace=trace,
                           shm_min_bytes=-1 if workload in SHM_OFF
                           else None)
    engine.register("roads", ds.roads, universe=u)
    engine.register("hydro", ds.hydro, universe=u)
    engine.prepare()
    frontend = ServingFrontend(engine)
    if workload == "overlay_spill":
        await submit_ok(frontend, frac_window(u, WARM_OVERLAY), "batch")
    else:
        if workload == "reload_mix":
            idx, moved = moved_version(random.Random(0), ds.hydro, u)
            engine.register("hydro", apply_version(ds.hydro, idx, moved),
                            universe=u)
            engine.prepare("hydro")
            await submit_ok(frontend, frac_window(u, RELOAD_REGION),
                            "interactive")
        for f in WARM_PANS:
            await submit_ok(frontend, frac_window(u, f), "interactive")
    workers = [p for p in host.child_pids() if p not in children]
    return engine, frontend, (time.process_time() - cpu0
                              + host.cpu_seconds_of(workers))


async def set_up_many(ds, workload: str, trace: bool, n: int,
                      rec: Optional[layers.Recorder]):
    """Set up ``n`` times, keeping the last engine; CPU times of all.

    The previous engine is closed and collected before each set-up, so
    freeing it is not timed as part of the next one.
    """
    times = []
    engine = frontend = None
    for _ in range(n):
        if frontend is not None:
            frontend.close()
            engine.close()
            engine = frontend = None
        gc.collect()
        if rec is not None:
            rec.reset()
        engine, frontend, dt = await set_up(ds, workload, trace)
        times.append(dt)
    return engine, frontend, times


# -- results -------------------------------------------------------------------


class Phase:
    """What one timed list produced."""

    def __init__(self) -> None:
        #: (kind, ok, latency seconds, completion perf_counter time)
        self.ops: List[Tuple[str, bool, float, float]] = []
        self.elapsed = 0.0
        self.setup_s: List[float] = []
        self.cpu_s = 0.0
        self.worker_cpu_s = 0.0
        self.rss_mib: Optional[float] = None
        self.executed = 0
        self.sim_s = 0.0
        #: Answers that disagree with the reference (the run is wrong).
        self.errors: List[str] = []
        #: Operations that failed (counted; the run may still be right).
        self.failures: List[str] = []
        self.checked = 0
        self.checker_ok = False
        #: (per-layer values, why absent, plan shares) when traced
        self.layers: Optional[tuple] = None

    def note_rss(self, pid: int) -> None:
        """Read the engine process's peak RSS, once (see RSS_ROUNDS)."""
        if self.rss_mib is None:
            self.rss_mib = host.peak_rss_mib(pid)

    def latencies(self, kind: str) -> List[float]:
        return [op[2] for op in self.ops if op[0] == kind and op[1]]

    def fail(self, msg: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(msg)

    def mismatch(self, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(msg)


def _serve_figures(resps) -> Dict[str, Optional[float]]:
    """Mean front-end wall, queue and transport ms over served responses.

    ``resps`` holds ``(round trip ms, wall ms, queue ms)`` per served
    request, ``None`` per failed one.  Transport is the round trip the
    caller timed minus the wall time the front-end reports: HTTP and
    the client on ``dashboard_http``, the hand-off through the
    front-end's future on the in-process workloads.
    """
    ok = [r for r in resps if r is not None]
    if not ok:
        return {}
    return {"transport_ms": statistics.fmean(t - w for t, w, _ in ok),
            "wall_ms": statistics.fmean(w for _, w, _ in ok),
            "queue_ms": statistics.fmean(q for _, _, q in ok)}


def _served(resp, t0: float, t1: float) -> Optional[tuple]:
    """One in-process response's entry for :func:`_serve_figures`."""
    if not resp.ok:
        return None
    return ((t1 - t0) * 1e3, resp.wall_seconds * 1e3,
            resp.queue_seconds * 1e3)


# -- in-process workloads ------------------------------------------------------


async def set_up_after(ds, workload: str, n: int) -> List[float]:
    """CPU times of ``n`` untraced set-ups after the timed list."""
    if n <= 0:
        return []
    engine, frontend, times = await set_up_many(ds, workload, False, n,
                                                None)
    frontend.close()
    engine.close()
    return times


async def _in_process(ds, workload: str, seed: int, seconds: float,
                      trace: bool, setups: Tuple[int, int]) -> Phase:
    phase = Phase()
    rec = layers.Recorder() if trace else None
    restore = layers.install(rec) if trace else None
    try:
        engine, frontend, phase.setup_s = await set_up_many(
            ds, workload, trace, setups[0], rec)
        try:
            if workload == "overlay_spill":
                await _overlay(ds, seed, seconds, engine, frontend, phase,
                               rec)
            else:
                await _reload(ds, seed, seconds, engine, frontend, phase,
                              rec)
        finally:
            frontend.close()
            engine.close()
    finally:
        if restore is not None:
            restore()
    del engine, frontend
    phase.setup_s += await set_up_after(ds, workload, setups[1])
    return phase


class _Window:
    """Brackets a timed list: wall clock, CPU and engine counters."""

    def __init__(self, engine: ShardedEngine) -> None:
        self.engine = engine
        self.pids = [os.getpid()] + host.child_pids()
        self.workers = self.pids[1:]
        self.before = layers.counters(engine)
        self.cpu0 = host.cpu_seconds_of(self.pids)
        self.wcpu0 = host.cpu_seconds_of(self.workers)
        self.t0 = time.perf_counter()

    def close(self, phase: Phase, rec: Optional[layers.Recorder],
              serve: Dict[str, Optional[float]]) -> None:
        phase.elapsed = time.perf_counter() - self.t0
        phase.cpu_s = host.cpu_seconds_of(self.pids) - self.cpu0
        phase.worker_cpu_s = host.cpu_seconds_of(self.workers) - self.wcpu0
        phase.note_rss(os.getpid())
        after = layers.counters(self.engine)
        d = layers.delta(after, self.before)
        phase.executed = int(d["executed"])
        phase.sim_s = d["sim_seconds"]
        if rec is not None:
            phase.layers = layers.summarize(
                rec, d, after, phase.cpu_s, phase.worker_cpu_s, serve)


async def _overlay(ds, seed, seconds, engine, frontend, phase, rec) -> None:
    u = ds.universe
    rounds = max(4, int(seconds * 3))
    ops = overlay_ops(seed, u, rounds)
    answers: List[Optional[tuple]] = []
    sample: Optional[Tuple[int, np.ndarray]] = None
    resps = []
    if rec is not None:
        rec.reset_queries()
    win = _Window(engine)
    deadline = win.t0 + seconds
    for i, w in enumerate(ops):
        if i % OVERLAY_ROUND == 0:
            if time.perf_counter() >= deadline:
                break
            if i == RSS_ROUNDS["overlay_spill"] * OVERLAY_ROUND:
                phase.note_rss(os.getpid())
        t0 = time.perf_counter()
        resp = await frontend.submit(query(w), "batch")
        t1 = time.perf_counter()
        ok = resp.ok
        phase.ops.append(("overlay", ok, t1 - t0, t1))
        answers.append(None)
        if ok:
            keys = reference.keys_of(resp.result.result.pairs)
            answers[-1] = reference.summarize(keys)
            if sample is None and len(keys):
                sample = (i, keys)
        resps.append(_served(resp, t0, t1))
        if not ok:
            phase.fail(f"overlay {i}: {resp.status} {resp.error}")
    serve = _serve_figures(resps)
    serve["failed"] = float(sum(1 for r in resps if r is None))
    win.close(phase, rec, serve)
    ref = reference.FullJoin(ds.roads, ds.hydro)
    for i, got in enumerate(answers):
        if got is None:
            continue
        err = reference.check_pairs(got, ref.window_keys(ops[i]))
        phase.checked += 1
        if err is not None:
            phase.mismatch(f"overlay {i}: {err}")
    phase.checker_ok = sample is not None and (
        reference.checker_rejects_perturbed(
            sample[1], ref.window_keys(ops[sample[0]])))


async def _reload(ds, seed, seconds, engine, frontend, phase, rec) -> None:
    u = ds.universe
    # The watched windows are the same for every seed, like the
    # dashboard's panels; the seed draws which rectangles move where.
    wins = windows(random.Random(WATCH_SEED), u, RELOAD_WINDOWS,
                   SMALL_SIDES)
    wins.append(frac_window(u, RELOAD_REGION))
    rng = random.Random(seed)
    versions: List[Tuple[np.ndarray, np.ndarray]] = []
    answers: List[Tuple[int, int, Optional[tuple]]] = []
    sample: Optional[Tuple[int, int, np.ndarray]] = None
    resps = []
    if rec is not None:
        # Registers and catalog builds are timed on the reloads of the
        # list, not on the set-up's.
        rec.reset_queries(keep_catalog=False)
    win = _Window(engine)
    deadline = win.t0 + seconds
    cycle = 0
    while time.perf_counter() < deadline:
        if cycle == RSS_ROUNDS["reload_mix"]:
            phase.note_rss(os.getpid())
        idx, moved = moved_version(rng, ds.hydro, u)
        versions.append((idx, reference.boxes(moved)[0]))
        rects = apply_version(ds.hydro, idx, moved)
        t0 = time.perf_counter()
        try:
            engine.register("hydro", rects, universe=u)
            engine.prepare("hydro")
            ok = True
        except Exception as exc:  # noqa: BLE001 - counted as failed
            ok = False
            phase.fail(f"reload {cycle}: {type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        phase.ops.append(("reload", ok, t1 - t0, t1))
        for j, w in enumerate(wins):
            kind = "query" if j < RELOAD_WINDOWS else "region"
            t0 = time.perf_counter()
            resp = await frontend.submit(query(w), "interactive")
            t1 = time.perf_counter()
            ok = resp.ok
            phase.ops.append((kind, ok, t1 - t0, t1))
            got = None
            if ok:
                keys = reference.keys_of(resp.result.result.pairs)
                got = reference.summarize(keys)
                if sample is None and len(keys):
                    sample = (cycle, j, keys)
            answers.append((cycle, j, got))
            resps.append(_served(resp, t0, t1))
            if not ok:
                phase.fail(f"{kind} {cycle}/{j}: {resp.status} {resp.error}")
        cycle += 1
    serve = _serve_figures(resps)
    serve["failed"] = float(sum(1 for r in resps if r is None))
    win.close(phase, rec, serve)
    a, rid_a = reference.boxes(ds.roads)
    b0, rid_b = reference.boxes(ds.hydro)

    def version(c: int) -> np.ndarray:
        idx, moved = versions[c]
        b = b0.copy()
        b[idx] = moved
        return b

    current, b = -1, b0
    for c, j, got in answers:
        if c != current:
            current, b = c, version(c)
        if got is None:
            continue
        expected = reference.windowed_keys(a, rid_a, b, rid_b, wins[j])
        err = reference.check_pairs(got, expected)
        phase.checked += 1
        if err is not None:
            kind = "query" if j < RELOAD_WINDOWS else "region"
            phase.mismatch(f"{kind} {c}/{j}: {err}")
    phase.checker_ok = sample is not None and (
        reference.checker_rejects_perturbed(sample[2], reference.windowed_keys(
            a, rid_a, version(sample[0]), rid_b, wins[sample[1]])))


# -- dashboard_http ------------------------------------------------------------

SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "server.py")
#: Longest wait for the server's ready line (set-ups included).
SERVER_START_TIMEOUT = 120.0


class HttpConnection:
    """A minimal HTTP/1.1 keep-alive client for ``POST /query``.

    The load generator shares the host's cores with the server, so it
    is kept cheap: requests are pre-encoded bytes, and only the status
    line and the ``Content-Length``/``Connection`` headers are parsed.
    It reconnects after the server closes a connection (the server
    caps requests per connection).
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.buf = b""

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        self.buf = b""

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buf += chunk

    def post(self, request: bytes) -> Tuple[int, bytes]:
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port),
                                                 timeout=60)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(request)
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, _, self.buf = self.buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length, close = 0, False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        while len(self.buf) < length:
            self._fill()
        body, self.buf = self.buf[:length], self.buf[length:]
        if close:
            self.close()
        return status, body


def encode_request(window: Window) -> bytes:
    body = json.dumps({"relations": ["roads", "hydro"],
                       "window": list(window)}).encode()
    return (b"POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)) + body


def _read_line(proc: subprocess.Popen, timeout: float) -> dict:
    box: Dict[str, object] = {}

    def reader() -> None:
        box["line"] = proc.stdout.readline()

    t = threading.Thread(target=reader, daemon=True)
    t.start()
    t.join(timeout)
    line = box.get("line")
    if not line:
        raise RuntimeError("dashboard server did not answer")
    return json.loads(line)


def _dashboard(ds, seed: int, seconds: float, trace: bool,
               setups: Tuple[int, int]) -> Phase:
    phase = Phase()
    u = ds.universe
    panels, ops = dashboard_ops(seed, u, max(10, int(seconds * 100)))
    proc = subprocess.Popen(
        [sys.executable, SERVER, "--trace", str(int(trace)),
         "--setups", str(setups[0]), "--setups-after", str(setups[1])],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = _read_line(proc, SERVER_START_TIMEOUT)
        phase.setup_s = ready["setup_s"]
        pids = ready["pids"]
        requests = [encode_request(w) for _, _, w in ops]
        results: List[Optional[tuple]] = [None] * len(ops)
        lock = threading.Lock()
        cursor = [0]
        cpu0 = host.cpu_seconds_of(pids)
        wcpu0 = host.cpu_seconds_of(pids[1:])
        t_start = time.perf_counter()
        deadline = t_start + seconds

        def client() -> None:
            conn = HttpConnection(ready["port"])
            try:
                while True:
                    with lock:
                        i = cursor[0]
                        if i >= len(ops) or (
                                i % DASH_ROUND == 0
                                and time.perf_counter() >= deadline):
                            return
                        cursor[0] = i + 1
                    if i == RSS_ROUNDS["dashboard_http"] * DASH_ROUND:
                        phase.note_rss(pids[0])
                    t0 = time.perf_counter()
                    try:
                        status, data = conn.post(requests[i])
                        t1 = time.perf_counter()
                        results[i] = (status, json.loads(data), t1 - t0, t1)
                    except (OSError, ValueError, IndexError) as exc:
                        t1 = time.perf_counter()
                        results[i] = (0, {"error": repr(exc)}, t1 - t0, t1)
                        conn.close()
            finally:
                conn.close()

        threads = [threading.Thread(target=client)
                   for _ in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        phase.elapsed = time.perf_counter() - t_start
        phase.cpu_s = host.cpu_seconds_of(pids) - cpu0
        phase.worker_cpu_s = host.cpu_seconds_of(pids[1:]) - wcpu0
        phase.note_rss(pids[0])
        served = []
        #: panel -> index of its first and of its second served answer
        first: Dict[int, int] = {}
        repeats: Dict[int, int] = {}
        for i, res in enumerate(results):
            if res is None:
                continue
            kind, panel, _w = ops[i]
            status, body, rtt, t1 = res
            ok = status == 200 and body.get("status") == "ok"
            phase.ops.append((kind, ok, rtt, t1))
            if not ok:
                phase.fail(f"{kind} {i}: HTTP {status} {body}")
                continue
            served.append((rtt * 1e3, body["wall_ms"], body["queue_ms"]))
            if panel >= 0:
                if panel not in first:
                    first[panel] = i
                else:
                    repeats.setdefault(panel, i)
                    err = reference.check_count(
                        body["pairs"], results[first[panel]][1]["pairs"],
                        "its first answer")
                    if err is not None:
                        phase.mismatch(f"panel {panel} repeat {i}: {err}")
        serve = _serve_figures(served)
        serve["failed"] = float(sum(1 for op in phase.ops if not op[1]))
        proc.stdin.write("stop " + json.dumps(
            {"serve": serve, "cpu_s": phase.cpu_s,
             "worker_cpu_s": phase.worker_cpu_s}) + "\n")
        proc.stdin.flush()
        stats = _read_line(proc, 60.0)
        phase.executed = stats["executed"]
        phase.sim_s = stats["sim_seconds"]
        if stats.get("layers") is not None:
            phase.layers = tuple(stats["layers"])
        proc.stdin.close()
        if setups[1] > 0:
            phase.setup_s += _read_line(proc, SERVER_START_TIMEOUT)["setup_s"]
        proc.wait(timeout=60)
        if proc.returncode != 0:
            phase.mismatch(f"dashboard server exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    ref = reference.FullJoin(ds.roads, ds.hydro)
    expected: Dict[Window, int] = {}
    for i, res in enumerate(results):
        if res is None or res[0] != 200 or res[1].get("status") != "ok":
            continue
        w = ops[i][2]
        if w not in expected:
            expected[w] = ref.window_count(w)
        err = reference.check_count(res[1]["pairs"], expected[w])
        phase.checked += 1
        if err is not None:
            phase.mismatch(f"{ops[i][0]} {i}: {err}")
    # The checker's self-test perturbs served answers: the first
    # repeated panel with pairs, against the reference and against its
    # first answer.
    def pairs(i: int) -> int:
        return results[i][1]["pairs"]

    sample = next((p for p in sorted(repeats, key=repeats.get)
                   if pairs(first[p]) > 0), None)
    phase.checker_ok = sample is not None and (
        reference.count_checker_rejects_perturbed(
            pairs(first[sample]), expected[panels[sample]])
        and reference.count_checker_rejects_perturbed(
            pairs(repeats[sample]), pairs(first[sample])))
    return phase


def run_phase(workload: str, seed: int, seconds: float, trace: bool,
              setups: Tuple[int, int]) -> Phase:
    ds = build_dataset(DATASET)
    if workload == "dashboard_http":
        return _dashboard(ds, seed, seconds, trace, setups)
    return asyncio.run(_in_process(ds, workload, seed, seconds, trace,
                                   setups))
