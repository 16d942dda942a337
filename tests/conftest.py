import numpy as np
import pytest

from convolab import (
    SpaceNorm,
    SymbolNorms,
    apply_multiplier,
    conjugated_apply,
    make_grid,
    shift_symbol,
    space_norm,
    symbol_norms,
    tail_truncate,
)
from convolab.symbols import _base_nodes


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


def refined_norms(a):
    """Oracle of ``symbol_norms``: the base-node partition refined uniformly,
    doubling from 64 nodes per segment until the variation sum moves by less
    than 1e-9, plus the declared tail terms; the sup norm is taken over the
    base nodes and a dense 513-node sample of the window."""
    base = _base_nodes(a)
    window = base[-1]

    def partition_sum(per_segment):
        inner = np.linspace(base[:-1], base[1:], per_segment + 1, axis=1)[:, :-1]
        vals = a(np.concatenate([inner.ravel(), base[-1:]]))
        return float(np.abs(np.diff(vals)).sum())

    per_seg, var = 64, partition_sum(64)
    while True:
        assert per_seg * len(base) < 4_000_000, f"{a.label}: no convergence"
        per_seg *= 2
        new = partition_sum(per_seg)
        if abs(new - var) < 1e-9:
            var = max(var, new)
            break
        var = new

    edge_lo, edge_hi = complex(a(-window)[()]), complex(a(window)[()])
    var += abs(edge_lo - a.tail.limit_neg) + abs(a.tail.limit_pos - edge_hi)
    dense = np.concatenate([base, np.linspace(-window, window, 513)])
    sup = float(np.max(np.abs(a(dense))))
    sup = max(sup, abs(a.tail.limit_neg), abs(a.tail.limit_pos))
    return SymbolNorms(sup, var, sup + var)
