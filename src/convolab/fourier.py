"""Convolution operators, mollifier families, and the multiplier-norm bound.

The multiplier operator is realized diagonally: transform, multiply by the
symbol sampled at the frequency nodes (no cell averaging, so indicator
supports stay sharp), transform back, as one FFT pair on a ``(k, n)``
stack (``filter_rows``).  Convolution and mollification multiply by the
kernel's spectrum, exactly: the mollifier ladder is one stack of spectra.
Against direct quadrature convolution this differs only by circular wrap
near the domain boundary, so tests keep supports in the middle half.
``multiplier_norm_lower_bound`` measures the Rayleigh ratios of the
multiplier on probe functions; which bound on them is a theorem is the
``stechkin`` command's to decide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid import (
    Grid,
    GridFunction,
    bump_profile,
    dft_pair,
    draw_mixtures,
    filter_rows,
    mixture_stack,
    quadrature,
    stacks,
)
from .maximal import maximal_scan
from .spaces import SpaceNorm, space_norm, space_norms
from .symbols import Symbol

# smallest kernel scale the grid resolves, in units of dx
_MIN_DELTA_CELLS = 0.5


def apply_multiplier(a: Symbol, f: GridFunction) -> GridFunction:
    """Apply the convolution operator with symbol ``a`` to ``f``."""
    return GridFunction(f.grid, filter_rows(f.values, a(f.grid.xi)))


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """Convolution via the transform pair (spectra multiply exactly)."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch between convolution operands")
    return GridFunction(f.grid, filter_rows(f.values, dft_pair(g, "forward").values))


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
    mass.  ``ladder`` smooths down the one ladder of scales, set by the
    grid alone, that ``mollify_sweep`` and ``density_experiment`` share.
    """

    kind: str
    grid: Grid

    def __post_init__(self):
        if self.kind not in ("gaussian", "bump_spectrum"):
            raise ValueError("kind must be 'gaussian' or 'bump_spectrum', "
                             f"got {self.kind!r}")

    def spectrum(self, delta: float) -> np.ndarray:
        """Transform of the kernel at scale delta at ``grid.xi``, unit mass.

        The samples are divided by their value at ``x = 0``, the kernel's
        mass, so smoothing is ``filter_rows(f.values, spectrum(delta))``.
        """
        g = self.grid
        if not delta >= _MIN_DELTA_CELLS * g.dx:  # a NaN delta fails too
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

    def ladder(self, f: GridFunction, space: SpaceNorm):
        """``(deltas, smoothed, errors)``: the scales delta = d, d/2, d/4, ...
        from d = min(1, L) down to the grid floor ``_MIN_DELTA_CELLS * dx``
        (the only rung when the floor is at least 1; at most
        1 + ceil(log2 n) rungs), the ``(rungs, n)`` stack of ``f * phi_delta``
        and each ``|f * phi_delta - f|``, in one :func:`filter_rows` and one
        :func:`space_norms` call.  At the bump kernel's floor the band
        ``[-1/delta, 1/delta]`` still lies inside the frequency window.  An
        ``f`` of norm 0 in ``space`` raises ``ValueError``, since every rung
        would match it: a zero ``f``, or one nonzero only where the weight
        is 0.  So does an ``f`` on another grid than the mollifier's.
        """
        if f.grid != self.grid:
            raise ValueError("grid mismatch between function and mollifier")
        if space_norm(space, f) == 0.0:
            raise ValueError(f"f is zero in the space p={space.p:g}, gamma="
                             f"{space.gamma:g}: the check would pass vacuously")
        floor = _MIN_DELTA_CELLS * self.grid.dx
        deltas = [max(min(1.0, self.grid.half_width), floor)]
        while deltas[-1] > floor:
            deltas.append(max(deltas[-1] / 2, floor))
        smoothed = filter_rows(f.values, np.stack([self.spectrum(d) for d in deltas]))
        return deltas, smoothed, space_norms(space, self.grid, smoothed - f.values)

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


class MollifyRow(NamedTuple):
    delta: float
    error: float
    bound: float
    pointwise_ok: bool


def mollify_sweep(
    f: GridFunction, phi: Mollifier, space: SpaceNorm
) -> list[MollifyRow]:
    """Smooth ``f`` at each rung of ``phi.ladder`` and track the domination.

    Each row carries the approximation error ``|f * phi_delta - f|``, the
    smoothed norm ``|f * phi_delta|``, and whether
    ``|f * phi_delta| <= majorant_l1 * Mf + 1e-8`` held at every node (the
    pointwise maximal-function domination; the norm-level bound follows from
    it by lattice monotonicity).  A grid whose ladder has a single rung
    (dx >= 2) is rejected: one row shows no convergence.
    """
    mf = maximal_scan(np.abs(f.values))
    deltas, smoothed, errors = phi.ladder(f, space)
    if len(deltas) < 2:
        raise ValueError(f"grid too coarse to mollify: dx={f.grid.dx} leaves "
                         "one scale on the ladder")
    bounds = space_norms(space, f.grid, smoothed)
    dominated = np.all(np.abs(smoothed) <= phi.majorant_l1 * mf + 1e-8, axis=1)
    return [MollifyRow(*row) for row in zip(
        deltas, errors.tolist(), bounds.tolist(), dominated.tolist())]


class MultiplierLowerBound(NamedTuple):
    lower: float  # the largest Rayleigh ratio over every probe
    spike: float  # the ratio of the pure-frequency probe alone


def multiplier_norm_lower_bound(
    m: np.ndarray,
    space: SpaceNorm,
    trials: int,
    seed: int,
    grid: Grid,
) -> MultiplierLowerBound:
    """Max Rayleigh ratio ``|W(a) f| / |f|`` over probe functions.

    ``m`` is the symbol sampled at the frequency nodes, ``a(grid.xi)``, the
    one sample the caller also checks.  The ratio is always a lower bound
    for the operator norm.  Probe 0 is the pure-frequency probe at the
    argmax node, an eigenvector of the operator with constant modulus: in
    every lattice norm its ratio, returned as ``spike``, is ``max_k |m_k|``,
    which at (p=2, gamma=0) is the norm itself.  Probes 1 to ``trials`` are
    random complex mixtures from one :func:`grid.draw_mixtures` call.  All
    are filtered in the stacks of :func:`grid.stacks`, one FFT pair per
    stack, by ``m / max|m|``; the norm is homogeneous, so the ratios are
    scaled back by ``max|m|``, and no power of an image overflows, whatever
    the symbol's scale.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    peak = float(np.max(np.abs(m)))
    if peak == 0.0:
        raise ValueError("the symbol is zero at every frequency node of the "
                         "grid: the check would pass vacuously")
    if 1 / peak == math.inf:
        # numpy divides a complex m by peak as m * (1 / peak)
        raise ValueError(f"max|a(xi_k)| = {peak:g} is too small to scale the "
                         "symbol by: its reciprocal overflows")
    spike = np.arange(grid.size) == np.argmax(np.abs(m))
    spike = dft_pair(GridFunction(grid, spike), "inverse").values
    draws = draw_mixtures(grid, np.random.default_rng(seed), trials,
                          complex_values=True)
    ratios = []
    for stack in stacks(trials + 1, grid.size):
        # probe i > 0 is the mixture of draws[i - 1]
        probes = mixture_stack(grid, draws[max(stack.start - 1, 0):stack.stop - 1])
        if stack.start == 0:
            probes = np.concatenate((spike[None], probes))
        nf = space_norms(space, grid, probes)
        live = nf != 0.0
        images = space_norms(space, grid, filter_rows(probes, m / peak))
        ratios += (images[live] / nf[live]).tolist()
    return MultiplierLowerBound(peak * max(ratios), peak * ratios[0])
