"""Convolution operators, mollifier families, and multiplier-norm checks.

The multiplier operator is realized diagonally: transform, multiply by the
symbol sampled at the frequency nodes (no cell averaging, so indicator
supports stay sharp), transform back, as one FFT pair (``filter_spectrum``).
Convolution and mollification multiply by the kernel's spectrum in the
same way, exactly; a mollifier carries its unit-mass spectrum, so no kernel
is transformed.  Against direct quadrature convolution this differs only by
circular wrap near the domain boundary, so tests keep supports in the middle
half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (
    STACK_NODES,
    Grid,
    GridFunction,
    bump_profile,
    dft_pair,
    draw_mixture,
    filter_rows,
    filter_spectrum,
    mixture_stack,
    quadrature,
)
from .maximal import maximal_function
from .spaces import SpaceNorm, space_norm, space_norms
from .symbols import Symbol, symbol_norms

# smallest kernel scale the grid resolves, in units of dx
_MIN_DELTA_CELLS = 0.5


def apply_multiplier(a: Symbol, f: GridFunction) -> GridFunction:
    """Apply the convolution operator with symbol ``a`` to ``f``."""
    return filter_spectrum(f, a(f.grid.xi))


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Convolution via the transform pair (spectra multiply exactly)."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch between convolution operands")
    return filter_spectrum(f, dft_pair(g, "forward").values)


@dataclass(frozen=True)
class Mollifier:
    """A unit-mass kernel family given by its spectrum, with a majorant.

    ``gaussian`` is the control kernel (positive, radially decreasing, its
    own majorant).  ``bump_spectrum`` is the band-limited kernel whose
    transform is the compactly supported bump exp(1/(x^2-1)) on (-1, 1):
    its spectrum at scale delta is the dilated bump sampled at the
    frequency nodes, which keeps the band limit exact on the grid (a
    spatial resample of the dilated kernel would leak outside the band
    through the finite window).  ``kernel`` is the unit-scale kernel,
    ``majorant`` its radial majorant and ``majorant_l1`` the majorant's
    mass.  ``rungs`` walks the one ladder of scales that ``mollify_sweep``
    and ``density_experiment`` share, set by the grid alone.
    """

    kind: str
    grid: Grid

    def spectrum(self, delta: float) -> np.ndarray:
        """Transform of the kernel at scale delta at ``grid.xi``, unit mass.

        The samples are divided by their value at ``x = 0``, the kernel's
        mass, so smoothing is ``filter_spectrum(f, spectrum(delta))``.
        """
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        g = self.grid
        if delta < _MIN_DELTA_CELLS * g.dx:
            raise ValueError(
                f"delta={delta} below grid resolution ({_MIN_DELTA_CELLS} * dx "
                f"= {_MIN_DELTA_CELLS * g.dx})"
            )
        if self.kind == "gaussian":
            raw = GridFunction(g, np.exp(-(g.t / delta) ** 2 / 2.0))
            hat = dft_pair(raw, "forward").values
        else:
            hat = bump_profile(delta * g.xi)
        return hat / hat[g.size // 2]

    def rungs(self, f: GridFunction, space: SpaceNorm):
        """Yield ``(delta, f * phi_delta, |f * phi_delta - f|)`` down the ladder.

        delta = 1, 1/2, 1/4, ... down to the grid floor
        ``_MIN_DELTA_CELLS * dx``, which is the last rung (the only one when
        the floor is at least 1).  At the bump kernel's floor the band
        ``[-1/delta, 1/delta]`` still lies inside the frequency window.
        """
        floor = _MIN_DELTA_CELLS * self.grid.dx
        delta = max(1.0, floor)
        while True:
            smoothed = filter_spectrum(f, self.spectrum(delta))
            yield delta, smoothed, space_norm(space, smoothed - f)
            if delta == floor:
                return
            delta = max(delta / 2, floor)

    @cached_property
    def kernel(self) -> GridFunction:
        return dft_pair(GridFunction(self.grid, self.spectrum(1.0)), "inverse")

    @cached_property
    def majorant(self) -> GridFunction:
        # Phi(t_j) = max of |kernel| over nodes with |t_i| >= |t_j|
        av = np.abs(self.kernel.values)
        order = np.argsort(-np.abs(self.grid.t), kind="stable")
        out = np.empty_like(av)
        out[order] = np.maximum.accumulate(av[order])
        return GridFunction(self.grid, out)

    @cached_property
    def majorant_l1(self) -> float:
        return float(quadrature(self.majorant).real)


def make_mollifier(kind: str, grid: Grid) -> Mollifier:
    """The ``kind`` mollifier family on ``grid``."""
    if kind not in ("gaussian", "bump_spectrum"):
        raise ValueError(f"kind must be 'gaussian' or 'bump_spectrum', got {kind!r}")
    return Mollifier(kind, grid)


@dataclass(frozen=True)
class MollifyRow:
    delta: float
    error: float
    bound: float
    pointwise_ok: bool


def mollify_sweep(
    f: GridFunction, phi: Mollifier, space: SpaceNorm
) -> list[MollifyRow]:
    """Smooth ``f`` at each rung of ``phi.rungs`` and track the domination.

    Each row carries the approximation error ``|f * phi_delta - f|``, the
    smoothed norm ``|f * phi_delta|``, and whether
    ``|f * phi_delta| <= majorant_l1 * Mf + 1e-8`` held at every node (the
    pointwise maximal-function domination; the norm-level bound follows from
    it by lattice monotonicity).  A grid whose ladder has a single rung
    (dx >= 2) is rejected: one row shows no convergence.
    """
    if f.grid != phi.grid:
        raise ValueError("grid mismatch between function and mollifier")
    mf = maximal_function(f, "fast").values.real
    ceiling = phi.majorant_l1 * mf + 1e-8
    rows = [
        MollifyRow(delta, err, space_norm(space, smoothed),
                   bool(np.all(np.abs(smoothed.values) <= ceiling)))
        for delta, smoothed, err in phi.rungs(f, space)
    ]
    if len(rows) < 2:
        raise ValueError(f"grid too coarse to mollify: dx={f.grid.dx} leaves "
                         "one scale on the ladder")
    return rows


def multiplier_norm_lower_bound(
    a: Symbol,
    space: SpaceNorm,
    trials: int,
    seed: int,
    grid: Grid,
) -> float:
    """Max Rayleigh ratio ``|W(a) f| / |f|`` over probe functions.

    Always a lower bound for the operator norm.  The ``trials`` random
    complex mixtures are drawn and filtered as stacks of at most
    ``STACK_NODES`` nodes, one FFT pair per stack.  The probe set also holds
    the pure-frequency probe at the argmax node: it is an eigenvector of
    the operator with constant modulus, so in every lattice norm its ratio
    is ``max_k |a(x_k)|``, which at (p=2, gamma=0) is the norm itself.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    m = a(grid.xi)
    best = 0.0
    chunk = max(1, STACK_NODES // grid.size)
    for done in range(0, trials, chunk):
        probes = mixture_stack(grid, [
            draw_mixture(grid, rng, complex_values=True)
            for _ in range(min(chunk, trials - done))])
        nf = space_norms(space, grid, probes)
        live = nf != 0.0
        images = space_norms(space, grid, filter_rows(probes, m))
        best = max([best, *(images[live] / nf[live]).tolist()])

    spike = np.zeros(grid.size, dtype=complex)
    spike[int(np.argmax(np.abs(m)))] = 1.0
    probe = dft_pair(GridFunction(grid, spike), "inverse")
    norm = space_norm(space, probe)
    if norm == 0.0:
        # the probe's modulus is 1/(2L), whose powers underflow on a wide grid
        raise ValueError(f"the pure-frequency probe has norm 0 on the grid "
                         f"L={grid.half_width:.12g} n={grid.size}")
    return max(best, space_norm(space, filter_spectrum(probe, m)) / norm)


@dataclass(frozen=True)
class StechkinReport:
    lower: float
    v_norm: float
    sup_norm: float
    ratio: float
    calibration: str
    violation: bool


def stechkin_check(
    a: Symbol,
    space: SpaceNorm,
    trials: int,
    seed: int,
    grid: Grid,
) -> StechkinReport:
    """Compare the operator-norm lower bound against the variation norm.

    ``ratio = lower / v_norm`` is the reported Stechkin number.  At p=2 the
    multiplier norm is ``max_k |a(xi_k)|``, at most the sup norm, so
    ``lower <= sup_norm * (1 + 1e-9)`` is asserted.  For other exponents
    the constant is not constructive; the ratio is recorded as an
    empirical observation, never asserted.
    """
    norms = symbol_norms(a)
    lower = multiplier_norm_lower_bound(a, space, trials, seed, grid)
    ratio = lower / norms.v_norm if norms.v_norm > 0 else math.inf
    exact = space.is_unweighted_l2
    violation = bool(exact and lower > norms.sup_norm * (1.0 + 1e-9))
    return StechkinReport(
        lower=lower,
        v_norm=norms.v_norm,
        sup_norm=norms.sup_norm,
        ratio=ratio,
        calibration=("exact: lower <= sup_norm, the norm at p=2" if exact
                     else "uncalibrated, empirical ratio"),
        violation=violation,
    )
