import math

import numpy as np
import pytest

from convolab import (
    AxiomCheck,
    GridFunction,
    SpaceNorm,
    SymbolNorms,
    apply_multiplier,
    dft_pair,
    filter_spectrum,
    make_grid,
    quadrature,
    shift_symbol,
    space_norm,
    spaces,
    symbol_norms,
    tail_truncate,
)
from convolab.grid import stacks
from convolab.symbols import _base_nodes
from conjugation import conjugated_apply


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


# ---------------------------------------------------------------------------
# one-probe-at-a-time oracles of the stacked probe harnesses, and the
# (p, gamma) spaces and (L, n) grids they are compared on

ORACLE_SPACES = [(2.0, 0.0), (1.5, 0.0), (3.0, -0.5), (3.0, 1.0)]
ORACLE_GRIDS = [(8.0, 256), (16.0, 1024)]


def patch_stack_budget(monkeypatch, module, budget):
    """Make ``module``'s probe loops plan their stacks with ``budget`` nodes
    per call: 1 gives one probe or trial per stack, a huge budget one stack
    for all of them."""
    monkeypatch.setattr(module, "stacks",
                        lambda count, nodes: stacks(count, nodes, budget))


def draws_by_kind(grid, rng, count, complex_values=False):
    """Oracle of ``draw_mixtures``: each kind of scalar drawn for all
    ``count`` probes by one ``rng.uniform`` or ``rng.standard_normal`` call
    with ``size=``, in draw order, then one tuple per probe."""
    L = grid.half_width * 0.5
    c = rng.uniform(-0.8 * L, 0.8 * L, size=(count, 4))
    spread = 2 * rng.uniform(0.2, 1.5, size=(count, 4)) ** 2
    amp = rng.standard_normal(size=(count, 4))
    if complex_values:
        amp = amp + 1j * rng.standard_normal(size=(count, 4))
    a = rng.uniform(-0.8 * L, 0.4 * L, size=count)
    b = a + rng.uniform(0.2, 0.5 * L, size=count)
    height = rng.standard_normal(size=count)
    return [(*(x for j in range(4) for x in (c[i, j], spread[i, j], amp[i, j])),
             a[i], b[i], height[i]) for i in range(count)]


def mixture_by_bump(grid, draw):
    """Oracle of one row of ``mixture_stack``: the probe of one draw of
    ``draws_by_kind`` or row of ``draw_mixtures``, each bump added on its
    own to a complex accumulation."""
    t = grid.t
    *bumps, a, b, height = draw
    vals = np.zeros(grid.size, dtype=complex)
    for c, spread, amp in zip(bumps[0::3], bumps[1::3], bumps[2::3]):
        vals += amp * np.exp(-((t - c.real) ** 2) / spread.real)
    vals += height * ((t >= a.real) & (t < b.real))
    if np.max(np.abs(vals)) < 1e-12:
        vals[grid.size // 2] = 1.0
    return GridFunction(grid, vals)


def axioms_by_trial(space, trials, seed, grid):
    """Oracle of ``verify_axioms``: the draws of its contract, every trial's
    f and g, then alpha, a, b - a and u for all trials, and the checks one
    trial at a time."""
    rng = np.random.default_rng(seed)
    L = grid.half_width
    draws = draws_by_kind(grid, rng, 2 * trials)
    alphas = rng.uniform(0.1, 10.0, size=trials).tolist()
    starts = rng.uniform(-L, 0.5 * L, size=trials)
    ends = starts + rng.uniform(0.1, 0.5 * L, size=trials)
    us = rng.uniform(0.0, 1.0, size=(trials, grid.size))
    cuts = np.array([(grid.t >= -m * L / 8) & (grid.t < m * L / 8)
                     for m in range(1, 9)])
    worst = dict.fromkeys(("A1", "A2", "A3", "A4", "A5"), 0.0)
    failed = set()

    def check(axiom, slack, ok):
        worst[axiom] = max(worst[axiom], slack)
        if not ok:
            failed.add(axiom)
        return ok

    def norms(*rows):
        # looked up per call, so a test that patches the norm patches this
        return spaces.space_norms(space, grid, np.vstack(rows)).tolist()

    check("A1", 0.0, norms(np.zeros(grid.size)) == [0.0])
    for i in range(trials):
        f = np.abs(mixture_by_bump(grid, draws[2 * i]).values)
        g = np.abs(mixture_by_bump(grid, draws[2 * i + 1]).values)
        nf, ng = norms(f, g)
        if not check("A1", 0.0, nf != 0.0):
            continue
        alpha, u = alphas[i], us[i]
        chi = (grid.t >= starts[i]) & (grid.t < ends[i])
        n_hom, n_tri, n_dom, *n_cuts, nchi = norms(
            alpha * f, f + g, f * u, f * cuts, chi)
        hom = abs(n_hom - alpha * nf) / (alpha * nf)
        check("A1", hom, hom <= 1e-9)
        tri = (n_tri - (nf + ng)) / (nf + ng)
        check("A1", tri, tri <= 1e-9)
        check("A2", n_dom - nf, n_dom - nf <= 1e-12)
        prev = 0.0
        for nm in n_cuts:
            check("A3", prev - nm, nm >= prev - 1e-12)
            prev = nm
        check("A3", abs(prev - nf), abs(prev - nf) <= 1e-12)
        check("A4", nchi, math.isfinite(nchi))
        c_emp = float(quadrature(GridFunction(grid, f * chi)).real) / nf
        check("A5", c_emp, math.isfinite(c_emp))
    return [AxiomCheck(ax, ax not in failed, w) for ax, w in worst.items()]


def multiplier_bound_by_trial(a, space, trials, seed, grid):
    """Oracle of ``multiplier_norm_lower_bound``: one probe at a time; the
    bound over every probe and the spike probe's ratio, each filtered by
    ``a / max|a|`` and scaled back by ``max|a|``."""
    m = a(grid.xi)
    peak = float(np.max(np.abs(m)))
    rng = np.random.default_rng(seed)
    best = 0.0
    for draw in draws_by_kind(grid, rng, trials, complex_values=True):
        f = mixture_by_bump(grid, draw)
        nf = space_norm(space, f)
        if nf != 0.0:
            best = max(best, space_norm(space, filter_spectrum(f, m / peak)) / nf)
    spike = np.zeros(grid.size, dtype=complex)
    spike[int(np.argmax(np.abs(m)))] = 1.0
    probe = dft_pair(GridFunction(grid, spike), "inverse")
    ratio = (space_norm(space, filter_spectrum(probe, m / peak))
             / space_norm(space, probe))
    return peak * max(best, ratio), peak * ratio
