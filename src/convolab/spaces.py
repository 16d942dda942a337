"""Concrete function-space norms: Lp and power-weighted Lp.

The abstract lattice norm is represented by this closed family, which is
enough to exercise every lattice axiom numerically and admits closed-form
oracle values.  A space takes ``1 < p < inf`` and ``-1 < gamma < p - 1``:
the A_p power weights, exactly those for which the maximal operator is
bounded on the space and on its associate, as the paper assumes of X.

``space_norms`` is the one norm routine: it takes a ``(k, n)`` stack of
node values and returns the norm of each row, with the weight the grid
computes once per gamma.  ``space_norm`` is its one-row case for a grid
function.  The axiom harness ``verify_axioms`` draws all its random
scalars before the first check, one generator call per kind
(``grid.draw_mixtures``) except the weights u, drawn block by block, and
evaluates its probes as stacks (``grid.mixture_stack``): one norm call per
chunk of trials takes the fourteen functions of each of its trials, and
each axiom is then checked once over all trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .grid import Grid, GridFunction, draw_mixtures, mixture_stack, stacks

_TINY = np.finfo(float).tiny  # the smallest normal float64


@dataclass(frozen=True)
class SpaceNorm:
    """Descriptor of an Lp(w) norm with weight ``w(x) = |x|^gamma``."""

    p: float
    gamma: float = 0.0

    def __post_init__(self):
        if not (1.0 < self.p < math.inf and -1.0 < self.gamma < self.p - 1.0):
            raise ValueError(
                f"space needs 1 < p < inf and -1 < gamma < p - 1, where the "
                f"maximal operator is bounded; got p={self.p}, gamma={self.gamma}")

    @property
    def is_unweighted_l2(self) -> bool:
        """p = 2 and gamma = 0: the multiplier norm is ``max_k |a(xi_k)|``,
        so the bounds the commands check there are theorems of the model."""
        return self.p == 2.0 and self.gamma == 0.0


def space_norms(space: SpaceNorm, grid: Grid, rows: np.ndarray) -> np.ndarray:
    """Norm of each row of a ``(k, n)`` stack of node values on ``grid``.

    ``(dx * sum |f|^p w)^(1/p)`` per row; a 1-D array is one row.  The weight
    is the grid's, and gamma = 0 makes no weight pass.  A non-finite integrand
    raises ``ValueError``; the nodes are scanned only if a row total is not
    finite.  A nonzero row whose total, or ``dx`` times it, underflowed is
    summed again divided by its ``max|f|`` and its norm multiplied back by
    it, as the norm is homogeneous.  Overflow is left to ``np.errstate``.

    An integer p is multiplied out by squaring, in place on ``|f|``: p = 2
    is one ``np.square``, bit-identical to ``|f|**2.0``.  libm's ``pow``,
    which ``|f|**p`` calls at other p, costs about 4 ns a node, 18 ns at an
    exact zero and over 100 ns where the power underflows, against about
    1 ns a multiplication.  A multiplied power differs from ``pow``'s by a
    few roundings, which moves a norm by at most a few units in the last
    place.
    """
    # float64, so that a boolean or integer stack can be powered in place
    integrand = _integrand(space, grid, np.abs(rows).astype(float, copy=False))
    totals = integrand.sum(axis=-1)
    # a non-finite integrand makes its row total non-finite, while a total
    # that overflows from finite values is an infinite norm
    if not np.all(np.isfinite(totals)) and not np.all(np.isfinite(integrand)):
        raise ValueError("norm integrand has a non-finite value at a node")
    mass = grid.dx * totals
    # np.power, not **: a float64 scalar's ** rounds apart from an array's,
    # and a row must get the same norm alone as in a stack
    norms = np.power(mass, 1.0 / space.p)
    lowest = mass if grid.dx < 1.0 else totals  # the smaller of the two
    if lowest.min() < _TINY:
        # every other row, and a zero one, is divided by 1: the same norm
        peaks = np.max(np.abs(rows), axis=-1)
        scale = np.where((lowest < _TINY) & (peaks > 0), peaks, 1.0)
        totals = _integrand(space, grid, np.abs(rows) / scale[..., None]).sum(axis=-1)
        norms = scale * np.power(grid.dx * totals, 1.0 / space.p)
    return norms


def _integrand(space: SpaceNorm, grid: Grid, x: np.ndarray) -> np.ndarray:
    """``x^p w`` for a float stack ``x`` of ``|f|``.  An integer p is
    multiplied out by square-and-multiply, squaring ``x`` in place: one more
    array at most, none when p is a power of 2."""
    if float(space.p).is_integer():
        power, k = None, int(space.p)
        while k:
            if k & 1:
                if power is None:
                    power = x if k == 1 else x.copy()
                else:
                    power *= x
            k >>= 1
            if k:
                np.square(x, out=x)
    else:
        power = x**space.p
    if space.gamma != 0.0:  # x * 1.0 == x: no weight pass at gamma = 0
        power *= grid.power_weight(space.gamma)
    return power


def space_norm(space: SpaceNorm, f: GridFunction) -> float:
    """Evaluate the norm of ``f``: the one-row case of :func:`space_norms`."""
    return float(space_norms(space, f.grid, f.values))


def associate_space(space: SpaceNorm) -> SpaceNorm:
    """Dual-exponent rule: p' = p/(p-1) and gamma' = -gamma*p'/p.

    With these parameters the Hoelder pairing |int f g| <= |f| |g|' holds.
    gamma' = -gamma/(p - 1) lies in (-1, p' - 1) when gamma lies in
    (-1, p - 1), so the associate of a space is a space.
    """
    p_dual = space.p / (space.p - 1.0)
    return SpaceNorm(p_dual, -space.gamma * p_dual / space.p)


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    worst_slack: float


def verify_axioms(
    space: SpaceNorm,
    trials: int,
    seed: int,
    grid: Grid,
) -> list[AxiomCheck]:
    """Property harness for the five lattice-norm axioms.

    Checks, on pseudo-random sampled functions: homogeneity and the
    triangle inequality (A1, 1e-9 relative); monotonicity under pointwise
    domination (A2, additive 1e-12); monotone convergence of norms along
    truncation sequences increasing to f (A3); finiteness of indicator
    norms (A4); and the embedding int_E |f| <= C_E * norm(f) with the
    empirical constant reported as the slack (A5).  A slack that is NaN,
    or an A5 constant that is not finite, fails its axiom.

    The harness first draws the probes f and g of every trial (rows 2i and
    2i + 1 of ``grid.draw_mixtures(grid, rng, 2 trials)``), then alpha,
    then a, then b - a for every trial, each kind in one call.  The trials
    then run in the blocks of ``grid.stacks(trials, 2 n)``, and each block
    in the chunks of ``grid.stacks(len(block), 14 n)`` (a block of 32 and
    chunks of 4 at n = 256, 8 and 1 at n = 1024).  Each block draws its
    trials' weights u as one ``rng.random((k, n))`` call, so the u of all
    blocks are one ``(trials, n)`` stream and no result depends on the
    block sizes.  One ``space_norms`` call per chunk takes its fourteen
    rows per trial into one ``(trials, 14)`` array of norms, and each axiom
    is then checked once over all trials.  A trial with norm(f) = 0 fails
    A1 and is left out of every other check.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    L, n = grid.half_width, grid.size
    # truncations f * chi_[-mL/8, mL/8), m = 1..8, increase to f
    cuts = np.array([(grid.t >= -m * L / 8) & (grid.t < m * L / 8)
                     for m in range(1, 9)])
    zero_ok = space_norms(space, grid, np.zeros((1, n)))[0] == 0.0
    draws = draw_mixtures(grid, rng, 2 * trials)
    alphas = rng.uniform(0.1, 10.0, trials)
    starts = rng.uniform(-L, 0.5 * L, trials)
    ends = starts + rng.uniform(0.1, 0.5 * L, trials)
    norms, masses = np.empty((trials, 14)), np.empty(trials)
    for block in stacks(trials, 2 * n):
        k, trial = len(block), slice(block.start, block.stop)
        fg = np.abs(mixture_stack(grid, draws[2 * block.start:2 * block.stop]))
        f, g = fg[0::2], fg[1::2]
        u, alpha = rng.random((k, n)), alphas[trial]
        chi = (grid.t >= starts[trial, None]) & (grid.t < ends[trial, None])

        # per trial: f, g, alpha f, f + g, f u with 0 <= u <= 1, the
        # truncations of f, and the indicator chi of a random interval [a, b)
        for chunk in stacks(k, 14 * n):
            c = slice(chunk.start, chunk.stop)
            rows = np.empty((len(chunk), 14, n))
            rows[:, 0], rows[:, 1] = f[c], g[c]
            rows[:, 2] = alpha[c, None] * f[c]
            rows[:, 3] = f[c] + g[c]
            rows[:, 4] = f[c] * u[c]
            rows[:, 5:13] = f[c, None] * cuts
            rows[:, 13] = chi[c]
            norms[block.start + c.start:block.start + c.stop] = space_norms(
                space, grid, rows.reshape(-1, n)).reshape(-1, 14)
        # the rectangle rule of ``quadrature``, as its complex sum per row
        masses[trial] = (grid.dx * (f * chi).astype(complex).sum(axis=1)).real

    # f is a nonzero probe, and a lattice norm vanishes only on 0: a trial
    # with norm(f) = 0 fails A1 and is left out of every other check
    live = norms[:, 0] != 0.0
    nf, ng, n_hom, n_tri, n_dom = norms[live, :5].T
    n_cuts, nchi = norms[live, 5:13], norms[live, 13]
    with np.errstate(all="ignore"):  # broken norms give inf and NaN
        hom = abs(n_hom - alphas[live] * nf) / (alphas[live] * nf)
        tri = (n_tri - (nf + ng)) / (nf + ng)
        prev = np.column_stack([np.zeros(len(nf)), n_cuts[:, :-1]])
        last = abs(n_cuts[:, -1] - nf)
        c_emp = masses[live] / nf
        checks = [  # (axiom, slacks, passes)
            ("A1", 0.0, zero_ok and live.all()),
            # A1: positive homogeneity and the triangle inequality
            ("A1", hom, hom <= 1e-9),
            ("A1", tri, tri <= 1e-9),
            # A2: |h| <= |f| pointwise implies norm(h) <= norm(f)
            ("A2", n_dom - nf, n_dom - nf <= 1e-12),
            # A3: the truncation norms increase, and the last one is norm(f)
            ("A3", prev - n_cuts, n_cuts >= prev - 1e-12),
            ("A3", last, last <= 1e-12),
            # A4: the indicator of a finite interval has finite norm
            ("A4", nchi, np.isfinite(nchi)),
            # A5: integral over E against the norm; the constant is empirical
            ("A5", c_emp, np.isfinite(c_emp)),
        ]
        # fmax, as max(worst, slack) per check would, passes over NaN slacks
        return [AxiomCheck(
            ax, all(np.all(ok) for a, _, ok in checks if a == ax),
            float(np.fmax.reduce(np.concatenate(
                [np.ravel(s) for a, s, _ in checks if a == ax]), initial=0.0)))
            for ax in ("A1", "A2", "A3", "A4", "A5")]
