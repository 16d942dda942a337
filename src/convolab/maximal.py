"""Non-centered maximal operator on grid functions.

Discrete model: an interval is a window of consecutive nodes ``a..b``; its
measure is ``(b-a+1)*dx`` and its integral is ``dx * sum |f|`` over the
window, so the interval average is the plain arithmetic mean of |f| on the
window (the singleton window then dominates the point value, matching the
continuum ``Mf >= |f|``).  Windows are confined to ``[-L, L]``: outside the
domain the function is modeled as zero, which only lowers averages.

Two routes are provided.  ``oracle`` enumerates the means of all O(n^2)
windows with a prefix-sum scan.  It takes the start nodes in blocks of
rows, each block one matrix of window means with a suffix maximum along
its rows; every mean is the same subtraction and division as in a scan of
one start node at a time, so the result is bit-identical to that scan.
``fast`` is a divide-and-conquer over the prefix-sum graph: the best
window containing a node is the steepest chord of the prefix sums across
the node, so windows crossing the midpoint are resolved by tangent queries
against the upper hull of the prefix points, built in a loop over Python
floats.  The sums are counted from that midpoint, so rounding does not
grow with the length of the whole array, and one routine serves both
halves: the right half runs it on the reversed block.  The recursion stops
at blocks of at most ``_BASE_SIZE`` nodes, which the oracle's all-windows
scan solves outright.  Both routes must agree to 1e-12; the oracle defines
correctness.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .grid import Grid, GridFunction, random_mixture
from .spaces import SpaceNorm, space_norm

# Blocks of at most this many nodes are solved by the all-windows scan.
# Kept below 256 so that the quick grid (n = 256) still runs a hull merge.
_BASE_SIZE = 128

# The all-windows scan takes rows in blocks of at most this many entries,
# so its buffers stay small at every n.
_ROW_BLOCK = 2**14


def _oracle_scan(av: np.ndarray) -> np.ndarray:
    n = av.size
    S = np.concatenate(([0.0], np.cumsum(av)))
    out = np.zeros(n)
    rows = max(1, _ROW_BLOCK // n)
    # row i of a block starts at a0 + i and column k ends at a0 + k; a
    # window that ends before it starts gets length 1 and a mean <= 0
    # (av >= 0), so it never raises a real window's suffix max
    span = np.arange(n) - np.arange(rows)[:, None] + 1
    lens = np.maximum(span, 1).astype(float)
    before = span < 1
    buf = np.empty((rows, n))
    for a0 in range(0, n, rows):
        r, w = min(rows, n - a0), n - a0
        means = buf[:r, :w]
        np.subtract(S[a0 + 1:], S[a0:a0 + r, None], out=means)
        np.divide(means, lens[:r, :w], out=means)
        # suffix max over the end node: best window [a..b] with b >= j
        rev = means[:, ::-1]
        np.maximum.accumulate(rev, axis=1, out=rev)
        # a window that starts after node a0 + k does not hold it
        means[before[:r, :w]] = 0.0
        np.maximum(out[a0:], means.max(axis=0), out=out[a0:])
    return out


def _upper_hull(xs: np.ndarray, ys: np.ndarray):
    hx, hy = [], []
    for x, y in zip(xs.tolist(), ys.tolist()):
        while len(hx) >= 2 and (
            (hy[-1] - hy[-2]) * (x - hx[-1]) <= (y - hy[-1]) * (hx[-1] - hx[-2])
        ):
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    return np.asarray(hx), np.asarray(hy)


def _steepest_to_upper(pxs, pys, hx, hy):
    """Max slope from each left point to a concave chain on its right.

    The slope along the chain is unimodal in the vertex index, so a
    vectorized binary search finds the tangent vertex per query point.
    """
    m = hx.size
    lo = np.zeros(pxs.size, dtype=np.int64)
    hi = np.full(pxs.size, m - 1, dtype=np.int64)
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) // 2
        nxt = np.minimum(mid + 1, m - 1)
        s1 = (hy[mid] - pys) * (hx[nxt] - pxs)
        s2 = (hy[nxt] - pys) * (hx[mid] - pxs)
        move = active & (s1 < s2)
        lo = np.where(move, mid + 1, lo)
        hi = np.where(active & ~move, mid, hi)
    return (hy[lo] - pys) / (hx[lo] - pxs)


def _crossing_means(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Best mean, per start in ``left``, of a window that ends in ``right``.

    Sums are counted from the split between the halves, so they grow with
    the window, not with the position in the whole array.  The window
    ``left[a:] + right[:j+1]`` has as its mean the slope of the chord from
    the left point ``(a - m, -sum(left[a:]))`` to the right point
    ``(j + 1, sum(right[:j+1]))``, whose steepest value is a tangent to the
    upper hull of the right points.
    """
    m = left.size
    rx = np.arange(1, right.size + 1, dtype=float)
    hx, hy = _upper_hull(rx, np.cumsum(right))
    px = np.arange(-m, 0, dtype=float)
    py = -np.cumsum(left[::-1])[::-1]
    return _steepest_to_upper(px, py, hx, hy)


def _fast_scan(av: np.ndarray) -> np.ndarray:
    out = np.zeros(av.size)

    def solve(lo: int, hi: int) -> None:
        if hi - lo + 1 <= _BASE_SIZE:
            out[lo:hi + 1] = _oracle_scan(av[lo:hi + 1])
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        solve(mid + 1, hi)
        # windows crossing the split: the best one holding a left node
        # starts at or before it; reversing the block gives the same
        # windows and slopes for the right nodes
        left, right = av[lo:mid + 1], av[mid + 1:hi + 1]
        best_l = np.maximum.accumulate(_crossing_means(left, right))
        best_r = np.maximum.accumulate(_crossing_means(right[::-1], left[::-1]))
        np.maximum(out[lo:mid + 1], best_l, out=out[lo:mid + 1])
        np.maximum(out[mid + 1:hi + 1], best_r[::-1], out=out[mid + 1:hi + 1])

    solve(0, av.size - 1)
    return out


def maximal_function(f: GridFunction, mode: str = "fast") -> GridFunction:
    """Maximal function of |f| over node windows, per the discrete model."""
    if mode not in ("fast", "oracle"):
        raise ValueError(f"mode must be 'fast' or 'oracle', got {mode!r}")
    av = np.abs(f.values)
    vals = _fast_scan(av) if mode == "fast" else _oracle_scan(av)
    return GridFunction(f.grid, vals)


def maximal_norm_estimate(
    space: SpaceNorm,
    trials: int,
    seed: int,
    grid: Optional[Grid] = None,
) -> float:
    """Lower bound for the operator norm of the maximal operator.

    Maximizes ``|Mf| / |f|`` over random nonzero probes.  This is a lower
    bound only; certified upper bounds are out of scope.  Unsupported at
    the endpoint exponents, where the operator is unbounded (p = 1) or the
    estimate is trivial (p = inf).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if math.isinf(space.p) or not space.p > 1.0:
        raise ValueError("maximal norm estimate requires 1 < p < inf")
    from .spaces import DEFAULT_GRID

    grid = grid or DEFAULT_GRID
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        f = random_mixture(grid, rng)
        nf = space_norm(space, f)
        if nf == 0.0:
            continue
        best = max(best, space_norm(space, maximal_function(f)) / nf)
    return best
