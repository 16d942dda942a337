"""Non-centered maximal operator on grid functions.

Discrete model: an interval is a window of consecutive nodes ``a..b``; its
measure is ``(b-a+1)*dx`` and its integral is ``dx * sum |f|`` over the
window, so the interval average is the plain arithmetic mean of |f| on the
window (the singleton window then dominates the point value, matching the
continuum ``Mf >= |f|``).  Windows are confined to ``[-L, L]``: outside the
domain the function is modeled as zero, which only lowers averages.

Two routes are provided, both behind ``maximal_scan``: it takes one row
of |f| values or a ``(trials, n)`` stack of rows and scans each row as on
its own.  ``maximal_function`` wraps it for one grid function; no
command calls it, and it stays for the library API and the benchmark.
``oracle`` enumerates the means of all O(n^2) windows with a prefix-sum
scan.  It takes the start nodes in blocks of ``_ROW_BLOCK`` rows, each
block one matrix of window means.  The block's prefix sums are counted
from its first start node, so their rounding grows with the window, not
with the node's position in the row.  Past the block's first r columns
every row starts at or before the node, so there the column max is taken
first and then one suffix max over the end node; only an r x (r+1) head,
whose last column is each row's max over the tail, needs the suffix max
along its rows and the mask of windows that start after the node.  Every
mean is the same subtraction and division as in a scan of one start node
at a time with the same sums, and a max is exact, so the result is
bit-identical to that scan; a 2-D stack of rows gets each row's scan, bit
for bit.  A block of k rows of r start nodes and w end nodes writes its
means into the first k*r*w entries of one flat buffer, as a contiguous
(k, r, w) array; its divisors are windows of one ramp of window lengths,
one window per row, so no (r, n) divisor table is stored.

``fast`` merges blocks bottom-up over the prefix-sum graph: the best
window containing a node is the steepest chord of the prefix sums across
the node.  Each row is zero-padded to k leaves of B <= ``_BASE_SIZE``
nodes, k a power of two.  The pad is exact: a window that runs into it has
the same float sum (>= 0) over a longer length, so its mean is never above
that of the real window holding the same nodes.  One all-windows scan of
the k x B leaves of every row solves them all.  Each level then pairs
neighbouring blocks and resolves the windows crossing each split by
tangent queries against the upper hull of the prefix points on the far
side, with one hull call and one tangent search for all pairs of all rows;
the right halves run as the reversed pairs.  A padded row holds k*B nodes,
a multiple of every level's pair length, so no pair crosses from one row
into the next and a stack gives each row the values of its own scan.
Vectorised passes first drop the points that lie on or below the chord of
their neighbours, until a pass removes less than a quarter of them; a
monotone-chain loop over Python floats builds each hull from the rest.
The sums are counted from each split, so rounding does not grow with the
length of the whole array.  Both routes must agree to 1e-12; the oracle
defines correctness.

Scans share no state, so threads may run them at once, and the oracle's
subtractions, divisions and max reductions release the GIL.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction

# Blocks of at most this many nodes are solved by the all-windows scan.
# Kept below 256 so that the quick grid (n = 256) still runs a hull merge.
_BASE_SIZE = 128

# The all-windows scan takes its start nodes in blocks of this many rows.
# A block of r rows pays a row-wise suffix max over r*(r+1) entries and a
# fixed cost per block; r = 32 is close to the cheapest sum for n from 128
# to 4096.
_ROW_BLOCK = 32


def _oracle_scan(av: np.ndarray) -> np.ndarray:
    # rows of a 2-D stack are scanned side by side, each as on its own
    stack = np.atleast_2d(av)
    k, n = stack.shape
    # one buffer of prefix sums, refilled from each block's first start node
    S = np.zeros((k, n + 1))
    out = np.zeros((k, n))
    rows = min(_ROW_BLOCK, n)
    # row i of a block starts at a0 + i and column j ends at a0 + j; a
    # window that ends before it starts gets length 1 and a mean <= 0
    # (av >= 0), so it never raises a real window's suffix max.  Row i of
    # the lengths is the window of one ramp that starts i nodes before
    # row 0's, so all rows read the same n + rows values
    ramp = np.maximum(np.arange(1.0 - rows, n + 1), 1.0)
    lens = np.lib.stride_tricks.sliding_window_view(ramp, n)[:0:-1]
    before = np.tri(rows, k=-1, dtype=bool)
    # each block's means fill the front of one flat buffer, contiguous
    buf = np.empty(k * rows * n)
    for a0 in range(0, n, rows):
        r, w = min(rows, n - a0), n - a0
        np.cumsum(stack[:, a0:], axis=1, out=S[:, 1:w + 1])
        means = buf[:k * r * w].reshape(k, r, w)
        np.subtract(S[:, None, 1:w + 1], S[:, :r, None], out=means)
        np.divide(means, lens[:r, :w], out=means)
        if w > r:
            # every row starts before the nodes past the first r columns,
            # so the best window holding one of them is a suffix max of
            # the column max over the end node
            tail = means[:, :, r:]
            cols = tail.max(axis=1)[:, ::-1]
            best = np.maximum.accumulate(cols, axis=1)[:, ::-1]
            np.maximum(out[:, a0 + r:], best, out=out[:, a0 + r:])
            # column r stands for the whole tail in the head's suffix max
            means[:, :, r] = tail.max(axis=2)
        # suffix max over the end node in the head and its tail column:
        # best window [a..b] with b >= j
        rev = means[:, :, r::-1]
        np.maximum.accumulate(rev, axis=2, out=rev)
        # a window that starts after node a0 + j does not hold it
        head = means[:, :, :r]
        np.copyto(head, 0.0, where=before[:r, :r])
        np.maximum(out[:, a0:a0 + r], head.max(axis=1), out=out[:, a0:a0 + r])
    return out.reshape(av.shape)


def _upper_hull(xs: np.ndarray, ys: np.ndarray, starts: np.ndarray):
    """Upper hull of each run of points, the runs laid end to end.

    ``starts`` flags the first point of each run.  Returns the hull
    vertices of all runs laid end to end, and the index where each begins.
    """
    # a point on or below the chord of its neighbours is no hull vertex,
    # so whole passes of them are dropped before the loop; the ends of each
    # run are kept, since their neighbours across the run edge belong to
    # another hull.  Stopping after a pass that removes less than a quarter
    # of the points keeps the passes O(size)
    ends = starts | np.append(starts[1:], True)
    while True:
        keep = ends.copy()
        keep[1:-1] |= ((ys[1:-1] - ys[:-2]) * (xs[2:] - xs[1:-1])
                       > (ys[2:] - ys[1:-1]) * (xs[1:-1] - xs[:-2]))
        size = xs.size
        xs, ys, starts, ends = xs[keep], ys[keep], starts[keep], ends[keep]
        if 4 * xs.size > 3 * size:
            break
    hx, hy, first = [], [], []
    base = 0
    for x, y, s in zip(xs.tolist(), ys.tolist(), starts.tolist()):
        if s:
            base = len(hx)
            first.append(base)
        while len(hx) >= base + 2 and (
            (hy[-1] - hy[-2]) * (x - hx[-1]) <= (y - hy[-1]) * (hx[-1] - hx[-2])
        ):
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    return np.asarray(hx), np.asarray(hy), np.asarray(first)


def _steepest_to_upper(pxs, pys, hx, hy, lo, hi):
    """Max slope from each left point to a concave chain on its right.

    Query ``i`` looks at the chain ``hx[lo[i]:hi[i] + 1]``.  The slope
    along a chain is unimodal in the vertex index, so a vectorized binary
    search finds the tangent vertex per query point.
    """
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) // 2
        nxt = np.minimum(mid + 1, hi)
        s1 = (hy[mid] - pys) * (hx[nxt] - pxs)
        s2 = (hy[nxt] - pys) * (hx[mid] - pxs)
        move = active & (s1 < s2)
        lo = np.where(move, mid + 1, lo)
        hi = np.where(active & ~move, mid, hi)
    return (hy[lo] - pys) / (hx[lo] - pxs)


def _crossing_means(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Best mean, per start in a row of ``left``, of a window that ends in
    the same row of ``right``.

    Sums are counted from the split between the two rows, so they grow with
    the window, not with the position in the whole array.  The window
    ``left[a:] + right[:j+1]`` has as its mean the slope of the chord from
    the left point ``(a - m, -sum(left[a:]))`` to the right point
    ``(j + 1, sum(right[:j+1]))``, whose steepest value is a tangent to the
    upper hull of the right points.  All rows share one hull call and one
    tangent search, each row's right points being one run.
    """
    rows, m = left.shape
    rx = np.tile(np.arange(1.0, m + 1), rows)
    hx, hy, first = _upper_hull(rx, np.cumsum(right, axis=1).ravel(), rx == 1.0)
    last = np.append(first[1:], hx.size) - 1
    px = np.arange(-m, 0, dtype=float)
    py = -np.cumsum(left[:, ::-1], axis=1)[:, ::-1]
    lo = np.repeat(first[:, None], m, axis=1)
    hi = np.repeat(last[:, None], m, axis=1)
    return _steepest_to_upper(px, py, hx, hy, lo, hi)


def _fast_scan(av: np.ndarray) -> np.ndarray:
    # each row becomes k leaves of ``size`` nodes, k a power of two; the
    # zero pad at its end raises no real node's value, and no pair of
    # blocks crosses from one row into the next (see the module docstring)
    stack = np.atleast_2d(av)
    t, n = stack.shape
    k = 1
    while -(-n // k) > _BASE_SIZE:
        k *= 2
    size = -(-n // k)
    width = k * size
    a = np.zeros((t, width))
    a[:, :n] = stack
    out = _oracle_scan(a.reshape(t * k, size)).reshape(t, width)
    while size < width:
        # windows crossing each split: the best one holding a left node
        # starts at or before it; the reversed pair gives the same windows
        # and slopes for the right nodes
        pairs = a.reshape(-1, 2, size)
        means = _crossing_means(
            np.concatenate((pairs[:, 0], pairs[:, 1, ::-1])),
            np.concatenate((pairs[:, 1], pairs[:, 0, ::-1])))
        best = np.maximum.accumulate(means, axis=1)
        halves = out.reshape(-1, 2, size)
        np.maximum(halves[:, 0], best[:len(pairs)], out=halves[:, 0])
        np.maximum(halves[:, 1], best[len(pairs):, ::-1], out=halves[:, 1])
        size *= 2
    return out[:, :n].reshape(av.shape)


def maximal_scan(av: np.ndarray, mode: str = "fast") -> np.ndarray:
    """Maximal function of each row of ``av`` (|f| values, >= 0) over node
    windows, per the discrete model; a 1-D array is one row."""
    if mode not in ("fast", "oracle"):
        raise ValueError(f"mode must be 'fast' or 'oracle', got {mode!r}")
    return _fast_scan(av) if mode == "fast" else _oracle_scan(av)


def maximal_function(f: GridFunction, mode: str = "fast") -> GridFunction:
    """Maximal function of |f| over node windows, per the discrete model."""
    return GridFunction(f.grid, maximal_scan(np.abs(f.values), mode))
