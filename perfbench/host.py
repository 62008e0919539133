"""Host record and OS readings: CPU time and peak memory from /proc.

None of this is a metric of the engine.  The host record (core count,
interpreter and numpy versions, load average, a fixed CPU calibration
loop timed before and after the run) lets a reader recognise a run made
on a slowed or busy host.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from typing import Dict, Iterable, Optional

_TICKS = os.sysconf("SC_CLK_TCK")

#: Iterations of the calibration loop (about 0.1 s of pure Python).
CALIBRATION_ITERATIONS = 1_000_000


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python loop, in milliseconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i & 7
    elapsed = time.perf_counter() - t0
    if acc < 0:  # never true; keeps the loop's result live
        raise AssertionError(acc)
    return elapsed * 1e3


def host_record() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "platform": sys.platform,
    }


def cpu_seconds(pid: int) -> Optional[float]:
    """User + system CPU seconds of one live process, or None if gone."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as fh:
            stat = fh.read()
    except OSError:
        return None
    # Field 2 (comm) may hold spaces; the fields after it start past ')'.
    fields = stat[stat.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def cpu_seconds_of(pids: Iterable[int]) -> float:
    return sum(cpu_seconds(p) or 0.0 for p in pids)


def peak_rss_mib(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids() -> list:
    """Pids of this process's live multiprocessing children (pool workers)."""
    import multiprocessing

    return [p.pid for p in multiprocessing.active_children()]
