"""Modulation conjugation: the test oracle of the limit-operator sweep.

``limit_operator_sweep`` filters its probe with the shifted symbol
``a(. + h)``.  The theorem names the conjugated operator
``e_h W(a) e_{-h}``; here it is built the long way, with one modulation
on each side of ``W(a)``, so tests can check the identity the sweep relies
on.  On a lattice shift, with a band-limited input whose band stays inside
the frequency window, the two agree to machine level.
"""

import numpy as np

from convolab import GridFunction, Symbol, apply_multiplier


def modulate(f: GridFunction, lam: float) -> GridFunction:
    """Multiply sample-wise by ``e^{i lam t}`` (isometric in every norm)."""
    return GridFunction(f.grid, f.values * np.exp(1j * lam * f.grid.t))


def conjugated_apply(a: Symbol, h: float, f: GridFunction) -> GridFunction:
    """The conjugated operator ``e_h . W(a) . e_{-h}`` applied to ``f``."""
    return modulate(apply_multiplier(a, modulate(f, -h)), h)
