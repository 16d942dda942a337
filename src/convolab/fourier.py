"""Convolution operators, mollifier families, and multiplier-norm checks.

The multiplier operator is realized diagonally: transform, multiply by the
symbol sampled at the frequency nodes (no cell averaging, so indicator
supports stay sharp), transform back, as one FFT pair (``filter_spectrum``).
Convolution multiplies by the kernel's spectrum in the same way, exactly;
against direct quadrature convolution this differs only by circular wrap
near the domain boundary, so tests keep supports in the middle half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InconclusiveError
from .grid import (
    Grid,
    GridFunction,
    ProfileLike,
    bump_profile,
    dft_pair,
    filter_spectrum,
    indicator_profile,
    make_grid,
    quadrature,
    random_mixture,
    sample,
)
from .maximal import maximal_function
from .spaces import DEFAULT_GRID, SpaceNorm, space_norm
from .symbols import Symbol, symbol_norms

# smallest kernel scale the grid can renormalize reliably, in units of dx
_MIN_DELTA_CELLS = 0.5


def apply_multiplier(a: Symbol, f: GridFunction) -> GridFunction:
    """Apply the convolution operator with symbol ``a`` to ``f``."""
    return filter_spectrum(f, a(f.grid.xi))


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Convolution via the transform pair (spectra multiply exactly)."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch between convolution operands")
    return filter_spectrum(f, dft_pair(g, "forward").values)


def _running_radial_max(grid: Grid, av: np.ndarray) -> np.ndarray:
    """Phi(t_j) = max of av over nodes with |t_i| >= |t_j|."""
    order = np.argsort(-np.abs(grid.t), kind="stable")
    out = np.empty_like(av)
    out[order] = np.maximum.accumulate(av[order])
    return out


@dataclass(frozen=True)
class Mollifier:
    """A unit-integral kernel with its radial majorant and scaling rule.

    ``gaussian`` is the control kernel (positive, radially decreasing, its
    own majorant).  ``bump_spectrum`` is the band-limited kernel whose
    transform is the compactly supported bump exp(1/(x^2-1)) on (-1, 1):
    scaled copies are built directly from frequency samples of the dilated
    bump, which keeps the band limit exact on the grid (a spatial resample
    of the dilated kernel would leak outside the band through the finite
    window).
    """

    kind: str
    grid: Grid
    kernel: GridFunction
    majorant: GridFunction
    majorant_l1: float

    def scaled(self, delta: float) -> GridFunction:
        """The kernel at scale delta, renormalized to unit quadrature."""
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        g = self.grid
        if self.kind == "bump_spectrum" and 1.0 / delta >= g.freq_edge:
            raise ValueError(
                f"scaled band [-{1.0 / delta}, {1.0 / delta}] exceeds the "
                "frequency window"
            )
        if delta < _MIN_DELTA_CELLS * g.dx:
            raise ValueError(
                f"delta={delta} below grid resolution ({_MIN_DELTA_CELLS} * dx "
                f"= {_MIN_DELTA_CELLS * g.dx})"
            )
        return _unit_mass_kernel(self.kind, g, delta)


def _unit_mass_kernel(kind: str, grid: Grid, delta: float) -> GridFunction:
    """The ``kind`` kernel at scale ``delta``, renormalized to unit quadrature."""
    if kind == "gaussian":
        vals = np.exp(-(grid.t / delta) ** 2 / 2.0) / (delta * math.sqrt(2 * math.pi))
        raw = GridFunction(grid, vals)
    else:
        raw = dft_pair(GridFunction(grid, bump_profile(delta * grid.xi)), "inverse")
    mass = quadrature(raw)
    if abs(mass) < 1e-14:
        raise ValueError(f"degenerate kernel normalization at delta={delta}")
    return GridFunction(grid, raw.values / mass)


def make_mollifier(kind: str, grid: Grid) -> Mollifier:
    """Construct the kernel, its radial majorant, and the majorant's mass."""
    if kind not in ("gaussian", "bump_spectrum"):
        raise ValueError(f"kind must be 'gaussian' or 'bump_spectrum', got {kind!r}")
    kernel = _unit_mass_kernel(kind, grid, 1.0)
    majorant = GridFunction(grid, _running_radial_max(grid, np.abs(kernel.values)))
    majorant_l1 = float(quadrature(majorant).real)
    return Mollifier(kind, grid, kernel, majorant, majorant_l1)


@dataclass(frozen=True)
class MollifyRow:
    delta: float
    error: float
    bound: float
    pointwise_ok: bool


def mollify_sweep(
    f: GridFunction,
    phi: Mollifier,
    deltas: Sequence[float],
    space: SpaceNorm,
) -> list[MollifyRow]:
    """Smooth ``f`` at each scale and track convergence and the domination.

    For each delta the row carries the approximation error
    ``|f * phi_delta - f|``, the smoothed norm ``|f * phi_delta|``, and
    whether ``|f * phi_delta| <= majorant_l1 * Mf + 1e-8`` held at every
    node (the pointwise maximal-function domination; the norm-level bound
    follows from it by lattice monotonicity).
    """
    if f.grid != phi.grid:
        raise ValueError("grid mismatch between function and mollifier")
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise ValueError("deltas must hold at least one scale")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("deltas must be sorted strictly decreasing")
    mf = maximal_function(f, "fast").values.real
    ceiling = phi.majorant_l1 * mf + 1e-8
    rows = []
    for delta in deltas:
        smoothed = convolve(f, phi.scaled(delta))
        err = space_norm(space, smoothed - f)
        bnd = space_norm(space, smoothed)
        ok = bool(np.all(np.abs(smoothed.values) <= ceiling))
        rows.append(MollifyRow(delta, err, bnd, ok))
    return rows


def multiplier_norm_lower_bound(
    a: Symbol,
    space: SpaceNorm,
    trials: int,
    seed: int,
    grid: Optional[Grid] = None,
) -> float:
    """Max Rayleigh ratio ``|W(a) f| / |f|`` over probe functions.

    Always a lower bound for the operator norm.  The probe set also holds
    the pure-frequency probe at the argmax node: it is an eigenvector of
    the operator with constant modulus, so in every lattice norm its ratio
    is ``max_k |a(x_k)|``, which at (p=2, gamma=0) is the norm itself.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = grid or DEFAULT_GRID
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        f = random_mixture(grid, rng, complex_values=True)
        nf = space_norm(space, f)
        if nf == 0.0:
            continue
        best = max(best, space_norm(space, apply_multiplier(a, f)) / nf)

    spike = np.zeros(grid.size, dtype=complex)
    spike[int(np.argmax(np.abs(a(grid.xi))))] = 1.0
    probe = dft_pair(GridFunction(grid, spike), "inverse")
    ratio = space_norm(space, apply_multiplier(a, probe)) / space_norm(space, probe)
    return max(best, ratio)


@dataclass(frozen=True)
class StechkinReport:
    lower: float
    v_norm: float
    ratio: float
    calibration: str
    violation: bool

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "v_norm": self.v_norm,
            "ratio": self.ratio,
            "calibration": self.calibration,
            "violation": self.violation,
        }


def stechkin_check(
    a: Symbol,
    space: SpaceNorm,
    trials: int,
    seed: int,
    grid: Optional[Grid] = None,
) -> StechkinReport:
    """Compare the operator-norm lower bound against the variation norm.

    At p=2 the multiplier norm is the sup norm, which never exceeds the
    variation norm, so ``ratio <= 1`` is asserted (c = 1).  For other
    exponents the constant is not constructive; the ratio is recorded as an
    empirical observation, never asserted.
    """
    norms = symbol_norms(a)
    lower = multiplier_norm_lower_bound(a, space, trials, seed, grid)
    ratio = lower / norms.v_norm if norms.v_norm > 0 else math.inf
    exact = space.p == 2.0 and space.gamma == 0.0
    violation = bool(exact and ratio > 1.0 + 1e-9)
    return StechkinReport(
        lower=lower,
        v_norm=norms.v_norm,
        ratio=ratio,
        calibration="exact (c=1 at p=2)" if exact else "uncalibrated, empirical ratio",
        violation=violation,
    )


@dataclass(frozen=True)
class EmbeddingReport:
    sup_f: float
    sup_xf: float
    norm_f: float
    norm_indicator: float
    norm_maximal_indicator: float
    lhs: float
    rhs: float
    ok: bool

    def to_json(self) -> dict:
        return {
            "sup_f": self.sup_f,
            "sup_xf": self.sup_xf,
            "norm_f": self.norm_f,
            "norm_indicator": self.norm_indicator,
            "norm_maximal_indicator": self.norm_maximal_indicator,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ok": self.ok,
        }


def schwartz_embedding_check(
    f_expr: ProfileLike,
    space: SpaceNorm,
    grid: Optional[Grid] = None,
) -> EmbeddingReport:
    """Verify the rapid-decay embedding bound on a concrete space.

    For decaying smooth ``f`` the norm is dominated by
    ``sup|f| * |chi_[-1,1]| + sup|x f(x)| * |M chi_[-1,1]|``; both sides
    are computed numerically and the inequality asserted with 1e-8 slack.
    A descriptor whose ``|x f(x)|`` does not decay over the window is
    rejected as inconclusive.
    """
    grid = grid or DEFAULT_GRID
    f = sample(f_expr, grid)

    # dense sampling (8x the grid) for the two decay seminorms
    dense = np.linspace(-grid.half_width, grid.half_width, 8 * grid.size + 1)
    fd = sample(f_expr, make_grid(grid.half_width, 8 * grid.size)).values
    dense = dense[:-1]
    sup_f = float(np.max(np.abs(fd)))
    xf = np.abs(dense * fd)
    sup_xf = float(np.max(xf))
    outer = np.abs(dense) > 0.9 * grid.half_width
    if sup_xf > 0 and float(np.max(xf[outer])) > 0.5 * sup_xf:
        raise InconclusiveError(
            "descriptor does not decay over the window: |x f(x)| is still "
            "near its maximum in the outer 10% band"
        )

    chi = sample(indicator_profile(-1.0, 1.0), grid)
    mchi = maximal_function(chi, "fast")
    norm_f = space_norm(space, f)
    norm_chi = space_norm(space, chi)
    norm_mchi = space_norm(space, mchi)
    rhs = sup_f * norm_chi + sup_xf * norm_mchi
    return EmbeddingReport(
        sup_f=sup_f,
        sup_xf=sup_xf,
        norm_f=norm_f,
        norm_indicator=norm_chi,
        norm_maximal_indicator=norm_mchi,
        lhs=norm_f,
        rhs=rhs,
        ok=bool(norm_f <= rhs + 1e-8),
    )
