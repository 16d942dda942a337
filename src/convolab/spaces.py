"""Concrete function-space norms: Lp and power-weighted Lp.

The abstract lattice norm is represented by this closed family, which is
enough to exercise every lattice axiom numerically and admits closed-form
oracle values.  For ``p < inf`` the weight exponent must satisfy the
Muckenhoupt power-weight condition ``-1 < gamma < p - 1``, which keeps the
maximal operator bounded on the space and on its associate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Grid, GridFunction, make_grid, quadrature, random_mixture

DEFAULT_GRID = make_grid(8.0, 256)


@dataclass(frozen=True)
class SpaceNorm:
    """Descriptor of an Lp(w) norm with weight ``w(x) = |x|^gamma``."""

    p: float
    gamma: float = 0.0

    def __post_init__(self):
        if math.isinf(self.p):
            if self.gamma != 0.0:
                raise ValueError("p = inf supports only gamma = 0")
            return
        if not 1.0 <= self.p:
            raise ValueError(f"exponent must satisfy 1 <= p <= inf, got {self.p}")
        # unweighted Lp is a lattice norm at every exponent; a nontrivial
        # power weight must satisfy the Muckenhoupt condition
        if self.gamma != 0.0 and not (-1.0 < self.gamma < self.p - 1.0):
            raise ValueError(
                f"power weight gamma={self.gamma} violates -1 < gamma < p-1 "
                f"for p={self.p} (maximal-operator boundedness fails)"
            )


def weight_values(space: SpaceNorm, grid: Grid) -> np.ndarray:
    """Samples of |x|^gamma with the origin node regularized.

    The singularity at 0 is integrable under the weight condition; the node
    at exactly 0 uses w(0)=0 for gamma>0 and is capped at the value one node
    away for gamma<0, so quadrature converges without infinities.
    """
    if space.gamma == 0.0:
        return np.ones(grid.size)
    with np.errstate(divide="ignore"):
        w = np.abs(grid.t) ** space.gamma
    origin = grid.size // 2  # t = 0 is always a node (n even)
    if space.gamma > 0:
        w[origin] = 0.0
    else:
        w[origin] = grid.dx**space.gamma
    return w


def space_norm(space: SpaceNorm, f: GridFunction) -> float:
    """Evaluate the norm of ``f``: (int |f|^p w)^(1/p), or max |f| at p=inf."""
    if math.isinf(space.p):
        return float(np.max(np.abs(f.values)))
    w = weight_values(space, f.grid)
    integrand = GridFunction(f.grid, np.abs(f.values) ** space.p * w)
    return float(quadrature(integrand).real) ** (1.0 / space.p)


def associate_space(space: SpaceNorm) -> SpaceNorm:
    """Dual-exponent rule: p' = p/(p-1) and gamma' = -gamma*p'/p.

    With these parameters the Hoelder pairing |int f g| <= |f| |g|' holds.
    Only 1 < p < inf is supported: at the endpoints the associate space
    exists but the maximal operator is unbounded there, so the standing
    hypotheses fail.
    """
    if math.isinf(space.p) or space.p == 1.0:
        raise ValueError("associate space supported only for 1 < p < inf")
    p_dual = space.p / (space.p - 1.0)
    return SpaceNorm(p_dual, -space.gamma * p_dual / space.p)


def _random_nonneg(grid: Grid, rng: np.random.Generator) -> GridFunction:
    f = random_mixture(grid, rng)
    return GridFunction(grid, np.abs(f.values))


@dataclass(frozen=True)
class AxiomCheck:
    axiom: str
    passed: bool
    worst_slack: float

    def to_json(self) -> dict:
        return {"axiom": self.axiom, "pass": self.passed,
                "worst_slack": self.worst_slack}


def verify_axioms(
    space: SpaceNorm,
    trials: int,
    seed: int,
    grid: Optional[Grid] = None,
) -> list[AxiomCheck]:
    """Property harness for the five lattice-norm axioms.

    Checks, on pseudo-random sampled functions: homogeneity and the
    triangle inequality (A1, 1e-9 relative); monotonicity under pointwise
    domination (A2, additive 1e-12); monotone convergence of norms along
    truncation sequences increasing to f (A3); finiteness of indicator
    norms (A4); and the embedding int_E |f| <= C_E * norm(f) with the
    empirical constant reported as the slack (A5).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = grid or DEFAULT_GRID
    rng = np.random.default_rng(seed)
    L = grid.half_width

    a1_ok, a1_worst = True, 0.0
    a2_ok, a2_worst = True, 0.0
    a3_ok, a3_worst = True, 0.0
    a4_ok, a4_worst = True, 0.0
    a5_worst = 0.0

    zero = GridFunction(grid, np.zeros(grid.size))
    if space_norm(space, zero) != 0.0:
        a1_ok = False

    for _ in range(trials):
        f = _random_nonneg(grid, rng)
        g = _random_nonneg(grid, rng)
        nf, ng = space_norm(space, f), space_norm(space, g)
        if nf == 0.0:
            # f is a nonzero probe, and a lattice norm vanishes only on 0
            a1_ok = False
            continue

        # A1: positive homogeneity and the triangle inequality
        alpha = rng.uniform(0.1, 10.0)
        hom = abs(space_norm(space, alpha * f) - alpha * nf) / (alpha * nf)
        tri = (space_norm(space, f + g) - (nf + ng)) / (nf + ng)
        a1_worst = max(a1_worst, hom, tri)
        if not (hom <= 1e-9 and tri <= 1e-9):
            a1_ok = False

        # A2: |h| <= |f| pointwise implies norm(h) <= norm(f)
        damp = rng.uniform(0.0, 1.0, grid.size)
        h = GridFunction(grid, f.values * damp)
        slack = space_norm(space, h) - nf
        a2_worst = max(a2_worst, slack)
        if not slack <= 1e-12:
            a2_ok = False

        # A3: truncations f * chi_[-mL/8, mL/8) increase to f
        prev = 0.0
        for m in range(1, 9):
            cut = (grid.t >= -m * L / 8) & (grid.t < m * L / 8)
            fm = GridFunction(grid, f.values * cut)
            nm = space_norm(space, fm)
            a3_worst = max(a3_worst, prev - nm)
            if not nm >= prev - 1e-12:
                a3_ok = False
            prev = nm
        a3_worst = max(a3_worst, abs(prev - nf))
        if not abs(prev - nf) <= 1e-12:
            a3_ok = False

        # A4: indicator of a random finite interval has finite norm
        a = rng.uniform(-L, 0.5 * L)
        b = a + rng.uniform(0.1, 0.5 * L)
        chi = GridFunction(grid, ((grid.t >= a) & (grid.t < b)).astype(float))
        nchi = space_norm(space, chi)
        a4_worst = max(a4_worst, nchi)
        if not math.isfinite(nchi):
            a4_ok = False

        # A5: integral over E against the norm; the constant is empirical
        restric = GridFunction(grid, np.abs(f.values) * chi.values.real)
        c_emp = float(quadrature(restric).real) / nf
        a5_worst = max(a5_worst, c_emp)

    a5_ok = math.isfinite(a5_worst)
    return [
        AxiomCheck("A1", a1_ok, a1_worst),
        AxiomCheck("A2", a2_ok, a2_worst),
        AxiomCheck("A3", a3_ok, a3_worst),
        AxiomCheck("A4", a4_ok, a4_worst),
        AxiomCheck("A5", a5_ok, a5_worst),
    ]
