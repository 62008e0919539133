"""An independent numpy reference join and the answer checker.

Nothing here imports the engine: rectangles arrive as plain
``(xlo, xhi, ylo, yhi, rid)`` tuples.  The join rule is the engine's:
closed intervals (touching rectangles intersect), and a windowed query
keeps a pair when the two rectangles' common intersection meets the
window.  A pair is identified by the key ``rid_a << 32 | rid_b``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

#: Rectangles of the probe side joined per numpy broadcast.
CHUNK = 256

Window = Tuple[float, float, float, float]


def boxes(rects: Iterable[Sequence[float]]) -> Tuple[np.ndarray, np.ndarray]:
    """(n, 4) float64 corner array and (n,) int64 rid array."""
    arr = np.array([tuple(r[:5]) for r in rects], dtype=np.float64)
    if arr.size == 0:
        return np.zeros((0, 4)), np.zeros(0, dtype=np.int64)
    return arr[:, :4].copy(), arr[:, 4].astype(np.int64)


def intersecting_pairs(a: np.ndarray, b: np.ndarray
                       ) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays (ia, ib) of every intersecting pair a[ia] x b[ib].

    ``a`` is sorted by xlo once; each chunk of ``b`` is broadcast only
    against the slice of ``a`` whose xlo can reach it (xlo within the
    widest ``a`` rectangle of the chunk's x-range).
    """
    if len(a) == 0 or len(b) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    order_a = np.argsort(a[:, 0], kind="stable")
    sa = a[order_a]
    max_w = float(np.max(sa[:, 1] - sa[:, 0]))
    order_b = np.argsort(b[:, 0], kind="stable")
    out_a, out_b = [], []
    for start in range(0, len(b), CHUNK):
        idx_b = order_b[start:start + CHUNK]
        cb = b[idx_b]
        lo = np.searchsorted(sa[:, 0], cb[:, 0].min() - max_w, "left")
        hi = np.searchsorted(sa[:, 0], cb[:, 1].max(), "right")
        ca = sa[lo:hi]
        m = ((ca[None, :, 0] <= cb[:, None, 1])
             & (cb[:, None, 0] <= ca[None, :, 1])
             & (ca[None, :, 2] <= cb[:, None, 3])
             & (cb[:, None, 2] <= ca[None, :, 3]))
        jb, ja = np.nonzero(m)
        out_a.append(order_a[lo + ja])
        out_b.append(idx_b[jb])
    return np.concatenate(out_a), np.concatenate(out_b)


def window_mask(a: np.ndarray, b: np.ndarray, ia: np.ndarray,
                ib: np.ndarray, window: Window) -> np.ndarray:
    """Which pairs' common intersection meets ``window`` (closed)."""
    xlo, xhi, ylo, yhi = window
    pa, pb = a[ia], b[ib]
    return ((np.maximum(pa[:, 0], pb[:, 0]) <= xhi)
            & (xlo <= np.minimum(pa[:, 1], pb[:, 1]))
            & (np.maximum(pa[:, 2], pb[:, 2]) <= yhi)
            & (ylo <= np.minimum(pa[:, 3], pb[:, 3])))


def pair_keys(rid_a: np.ndarray, rid_b: np.ndarray) -> np.ndarray:
    return (rid_a.astype(np.int64) << 32) | rid_b.astype(np.int64)


def keys_of(pairs) -> np.ndarray:
    """An engine answer's list of (rid_a, rid_b) as int64 keys."""
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return np.zeros(0, dtype=np.int64)
    return pair_keys(arr[:, 0], arr[:, 1])


class FullJoin:
    """All intersecting pairs of two relations, filtered per window.

    Built once (about a second for DISK1 at 1/256 scale); every
    windowed answer is then a vectorized filter over the pair list.
    """

    def __init__(self, a_rects, b_rects) -> None:
        self.a, self.rid_a = boxes(a_rects)
        self.b, self.rid_b = boxes(b_rects)
        self.ia, self.ib = intersecting_pairs(self.a, self.b)
        self.keys = pair_keys(self.rid_a[self.ia], self.rid_b[self.ib])

    def window_keys(self, window: Window) -> np.ndarray:
        m = window_mask(self.a, self.b, self.ia, self.ib, window)
        return np.sort(self.keys[m])

    def window_count(self, window: Window) -> int:
        return int(np.count_nonzero(
            window_mask(self.a, self.b, self.ia, self.ib, window)
        ))


def windowed_keys(a: np.ndarray, rid_a: np.ndarray, b: np.ndarray,
                  rid_b: np.ndarray, window: Window) -> np.ndarray:
    """Sorted keys of one small-window join, without a full join.

    Both sides are first cut to the rectangles meeting the window: a
    pair whose common intersection meets the window has both members
    meeting it.
    """
    xlo, xhi, ylo, yhi = window

    def cut(x: np.ndarray) -> np.ndarray:
        return np.nonzero((x[:, 0] <= xhi) & (xlo <= x[:, 1])
                          & (x[:, 2] <= yhi) & (ylo <= x[:, 3]))[0]

    sel_a, sel_b = cut(a), cut(b)
    ca, cb = a[sel_a], b[sel_b]
    ia, ib = intersecting_pairs(ca, cb)
    m = window_mask(ca, cb, ia, ib, window)
    return np.sort(pair_keys(rid_a[sel_a[ia[m]]], rid_b[sel_b[ib[m]]]))


def summarize(keys: np.ndarray) -> Tuple[int, bool, bytes]:
    """(pairs, any pair duplicated, digest of the sorted pair set).

    What the benchmark keeps of each answer until it is checked, so a
    run holds no pair lists.
    """
    ordered = np.sort(keys)
    dup = len(ordered) > 1 and bool(np.any(ordered[1:] == ordered[:-1]))
    return len(ordered), dup, _digest(ordered)


def _digest(ordered: np.ndarray) -> bytes:
    return hashlib.blake2b(ordered.astype(np.int64).tobytes(),
                           digest_size=16).digest()


def check_pairs(got: Tuple[int, bool, bytes], expected: np.ndarray
                ) -> Optional[str]:
    """None when the summarized answer ``got`` is exactly ``expected``
    (sorted reference keys).

    A duplicated pair is reported as such: the scatter/gather layer
    must deduplicate boundary-replicated results.
    """
    n, dup, digest = got
    if dup:
        return "duplicate pair in answer"
    if n != len(expected):
        return f"{n} pairs returned, reference has {len(expected)}"
    if digest != _digest(expected):
        return "pair set differs from the reference"
    return None


def check_count(got: int, expected: int, against: str = "reference"
                ) -> Optional[str]:
    if got != expected:
        return f"{got} pairs returned, {against} has {expected}"
    return None


def checker_rejects_perturbed(answer: np.ndarray,
                              expected: np.ndarray) -> bool:
    """True when the checker accepts ``answer`` (keys of an accepted
    answer with pairs) and flags a dropped, a duplicated, an extra and
    a replaced pair."""
    if len(answer) == 0 or check_pairs(summarize(answer), expected):
        return False
    dropped = answer[1:]
    duplicated = np.concatenate([answer, answer[:1]])
    extra = np.concatenate([answer, [int(answer.max()) + 1]])
    replaced = answer.copy()
    replaced[0] = int(answer.max()) + 1
    return all(
        check_pairs(summarize(p), expected) is not None
        for p in (dropped, duplicated, extra, replaced)
    )


def count_checker_rejects_perturbed(got: int, expected: int) -> bool:
    """True when :func:`check_count` accepts the served count ``got``
    (one with pairs) and flags it raised or lowered by one."""
    return (got > 0 and check_count(got, expected) is None
            and check_count(got + 1, expected) is not None
            and check_count(got - 1, expected) is not None)
