import numpy as np
import pytest

from convolab import (
    SpaceNorm,
    apply_multiplier,
    conjugated_apply,
    make_grid,
    shift_symbol,
    space_norm,
    symbol_norms,
    tail_truncate,
)


@pytest.fixture(scope="session")
def std_grid():
    return make_grid(8.0, 256)


@pytest.fixture(scope="session")
def fine_grid():
    return make_grid(16.0, 1024)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def dft_matrix(grid, direction):
    """Independent dense realization of the transform pair (oracle)."""
    phase = np.outer(grid.t, grid.xi)
    if direction == "forward":
        return grid.dx * np.exp(1j * phase).T
    return (grid.dxi / (2 * np.pi)) * np.exp(-1j * phase)


def identity_residual(a, h, f):
    """L2 distance from the conjugated operator to the direct route
    ``W(a(. + h)) f`` of the shifted symbol (oracle of the identity)."""
    direct = apply_multiplier(shift_symbol(a, h), f)
    return space_norm(SpaceNorm(2.0), conjugated_apply(a, h, f) - direct)


def tail_sup(a, cutoff):
    """Supremum of |a| over ``|x| > cutoff``: the truncation's sup norm."""
    return symbol_norms(tail_truncate(a, cutoff)).sup_norm
