"""Decay sweeps of the limit operators and their band-limited probes.

Conjugating the convolution operator by a modulation shifts its symbol,
``e_h W(a) e_{-h} = W(a(. + h))``: on a band-limited input whose spectrum
lives in a segment K, it acts like the symbol restricted to K + h.  When
the symbol is (numerically) equivalent to zero at infinity, pushing h
toward +inf drives the image to zero; the sweep measures that decay row by
row against the tail-supremum bound with the exact indicator variation
constant 3.  It builds its own probe, the bump envelope over the band,
rounds each requested shift to the frequency lattice ``h = m * dxi``, where
the identity is exact, and filters the probe with the samples ``a(xi + h)``
of all shifts in one stack; the modulations are the identity's test
oracle.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .grid import Grid, GridFunction, bump_profile, dft_pair, filter_rows
from .spaces import SpaceNorm, space_norm, space_norms
from .symbols import Symbol, symbol_norms, tail_truncate


def band_limited_probe(grid: Grid, band: tuple[float, float]) -> GridFunction:
    """A test function whose spectrum vanishes identically outside ``band``.

    Built directly in frequency, a bump envelope over the band transformed
    back and scaled to peak modulus 1.  The out-of-band spectral mass is
    exactly zero.
    """
    lo, hi = band
    if not lo < hi:
        raise ValueError(f"band must be an interval, got {band}")
    if hi >= grid.freq_edge or lo <= -grid.freq_edge:
        raise ValueError(f"band {band} exceeds the frequency window edge "
                         f"pi/dx = {grid.freq_edge:.6g}")
    env = bump_profile((2.0 * grid.xi - (lo + hi)) / (hi - lo))
    f = dft_pair(GridFunction(grid, env), "inverse")
    peak = float(np.max(np.abs(f.values)))
    if peak == 0.0:
        raise ValueError("band too narrow for this grid: probe vanished, so "
                         "the check would pass vacuously")
    return GridFunction(grid, f.values / peak)


class SweepRow(NamedTuple):
    shift: float
    norm: float
    bound: float
    within_bound: bool


def limit_operator_sweep(
    symbol: Symbol,
    grid: Grid,
    band: tuple[float, float],
    shifts: Sequence[float],
    space: SpaceNorm,
) -> list[SweepRow]:
    """Measure the conjugated norms against the tail bound, shift by shift.

    The probe is :func:`band_limited_probe` over ``band``, the bump
    envelope whose spectrum vanishes outside it.  Each shift rounds to the
    nearest lattice shift ``h = m * dxi``, where the conjugation identity is
    exact; the rows run over the distinct steps m >= 1 in increasing order,
    each reporting its h, and ``band + h`` must stay inside the frequency
    window.  The symbol's declared tail limits must both be zero, or the
    limit operator is not zero and the tail bound says nothing about it.  A
    symbol zero at every node ``xi + h`` is refused: every bound would hold
    vacuously.

    For each shift the row compares ``r = |W(a(. + h)) probe|``, the norm
    of ``e_h W(a) e_{-h} probe``, against ``B = 3 * T * |probe|``; the k
    images are one :func:`filter_rows` call on the stack of ``a(xi + h)``.
    ``T`` comes from one :func:`symbol_norms` call on ``tail_truncate(a, N)``
    with ``N = inf(band) + h`` (the largest cutoff whose complement contains
    the shifted band).  At p = 2 and gamma = 0 it is the sup norm of the
    tail, and the bound is a theorem for the discrete model, asserted by
    callers; in other spaces it is the variation norm and the bound is
    reported with no calibrated constant.
    """
    probe = band_limited_probe(grid, band)
    lo, hi = band
    targets = [float(h) for h in shifts]
    steps = np.array([h / grid.dxi for h in targets])  # float division: inf, no warning
    if not np.all(np.isfinite(steps)):
        raise ValueError(f"shifts must be finite and at most dxi = {grid.dxi:.6g} "
                         f"times the largest float, got {targets}")
    steps = np.unique(np.rint(steps))  # sorted, without repeats
    if not (steps.size and steps[0] >= 1):
        raise ValueError(f"shifts must be non-empty and each at least half a "
                         f"lattice step ({grid.dxi / 2:.6g}), got {targets}")
    shifts = grid.dxi * steps
    if hi + shifts[-1] >= grid.freq_edge:
        raise ValueError(f"band {band} + largest lattice shift {shifts[-1]:.6g} "
                         f"ends at {hi + shifts[-1]:.6g}, past the frequency "
                         f"window edge pi/dx = {grid.freq_edge:.6g}")
    tail = symbol.tail
    if tail is not None and (tail.limit_neg != 0 or tail.limit_pos != 0):
        raise ValueError(
            f"symbol {symbol.label} is not equivalent to zero at "
            f"infinity: a(-inf) = {tail.limit_neg:.12g}, "
            f"a(+inf) = {tail.limit_pos:.12g}"
        )
    spectra = symbol(grid.xi + shifts[:, None])
    if not np.any(spectra):
        raise ValueError(f"symbol {symbol.label} is zero at every frequency "
                         "node xi + h of the sweep: the check would pass "
                         "vacuously")
    p2 = space.is_unweighted_l2
    nf = space_norm(space, probe)
    norms = space_norms(space, grid, filter_rows(probe.values, spectra))
    rows = []
    for h, r in zip(shifts.tolist(), norms.tolist()):
        tail = symbol_norms(tail_truncate(symbol, lo + h))
        bound = 3.0 * (tail.sup_norm if p2 else tail.v_norm) * nf
        rows.append(SweepRow(h, r, bound, bool(r <= bound + 1e-8)))
    return rows
