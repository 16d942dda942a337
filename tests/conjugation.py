"""Modulation conjugation: the test oracle of the limit-operator sweep.

``limit_operator_sweep`` filters its probe with the shifted symbol
``a(. + h)``.  The theorem names the conjugated operator
``e_h W(a) e_{-h}``; here it is built the long way, with one modulation
on each side of ``W(a)``, so tests can check the identity the sweep relies
on.  On a lattice shift, with a band-limited input whose band stays inside
the frequency window, the two agree to machine level.
``random_band_limited_probe`` gives the identity tests inputs with an
uneven spectrum over the band, and ``out_of_band_mass`` checks that the
density tests' approximants are confined to their band.
"""

import math

import numpy as np

from convolab import Grid, GridFunction, Symbol, apply_multiplier, dft_pair
from convolab.grid import bump_profile


def modulate(f: GridFunction, lam: float) -> GridFunction:
    """Multiply sample-wise by ``e^{i lam t}`` (isometric in every norm)."""
    return GridFunction(f.grid, f.values * np.exp(1j * lam * f.grid.t))


def conjugated_apply(a: Symbol, h: float, f: GridFunction) -> GridFunction:
    """The conjugated operator ``e_h . W(a) . e_{-h}`` applied to ``f``."""
    return modulate(apply_multiplier(a, modulate(f, -h)), h)


def random_band_limited_probe(
    grid: Grid, band: tuple[float, float], seed: int
) -> GridFunction:
    """A probe whose spectrum vanishes outside ``band``: the bump envelope
    of ``band_limited_probe`` times ``1 + c/(2 max(1, max|c|))``, where c
    is a cosine series of orders 0..3 over the band with complex normal
    coefficients drawn from ``seed``, scaled to peak modulus 1."""
    lo, hi = band
    u = (2.0 * grid.xi - (lo + hi)) / (hi - lo)
    rng = np.random.default_rng(seed)
    mask = np.abs(u) < 1.0
    coef = np.zeros(grid.size, dtype=complex)
    phase = np.pi * u[mask]
    for m in range(4):
        coef[mask] += (rng.normal() + 1j * rng.normal()) * np.cos(m * phase)
    hat = bump_profile(u) * (1.0 + 0.5 * coef / max(1, np.max(np.abs(coef))))
    f = dft_pair(GridFunction(grid, hat), "inverse")
    return GridFunction(grid, f.values / float(np.max(np.abs(f.values))))


def out_of_band_mass(f: GridFunction, band: tuple[float, float]) -> float:
    """Spectral energy of ``f`` outside the closed ``band``, relative to all.

    Infinite for the zero function, which is confined to no band.
    """
    hat = dft_pair(f, "forward").values
    inside = (f.grid.xi >= band[0]) & (f.grid.xi <= band[1])
    energy = np.abs(hat) ** 2
    total = float(np.sum(energy))
    outside = float(np.sum(energy[~inside]))
    return outside / total if total else math.inf
