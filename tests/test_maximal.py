import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convolab.maximal as maximal
from convolab import (
    GridFunction,
    SpaceNorm,
    make_grid,
    maximal_function,
    maximal_scan,
    sample,
    space_norm,
)
from convolab.grid import STACK_NODES
import maximal_estimate
from conftest import ORACLE_GRIDS, ORACLE_SPACES, patch_stack_budget
from maximal_estimate import maximal_estimate_by_trial, maximal_norm_estimate


def brute_force_maximal(av):
    """Independent oracle: literal triple loop over windows."""
    n = len(av)
    out = np.zeros(n)
    for a in range(n):
        total = 0.0
        for b in range(a, n):
            total += av[b]
            mean = total / (b - a + 1)
            for j in range(a, b + 1):
                out[j] = max(out[j], mean)
    return out


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    def test_both_modes_match_literal_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        g = make_grid(4.0, 24)
        f = GridFunction(g, rng.normal(size=24) + 1j * rng.normal(size=24))
        expected = brute_force_maximal(np.abs(f.values))
        for mode in ("fast", "oracle"):
            got = maximal_function(f, mode).values.real
            assert np.max(np.abs(got - expected)) < 1e-13

    def test_fast_equals_oracle_random(self, rng):
        for trial in range(40):
            n = int(rng.choice([8, 16, 34, 64, 128, 256]))
            g = make_grid(8.0, n)
            vals = rng.normal(size=n)
            if trial % 5 == 0:
                vals = (rng.uniform(size=n) > 0.6).astype(float)  # plateaus
            f = GridFunction(g, vals)
            fast = maximal_function(f, "fast").values.real
            oracle = maximal_function(f, "oracle").values.real
            assert np.max(np.abs(fast - oracle)) <= 1e-12


def _assert_scans_agree(n, rng):
    # the scans themselves: grids have even sizes, the blocks need not
    noise = np.abs(rng.normal(size=n))
    plateaus = (rng.uniform(size=n) > 0.6).astype(float)
    for av in (noise, plateaus):
        gap = np.max(np.abs(maximal._fast_scan(av) - maximal._oracle_scan(av)))
        assert gap <= 1e-12


class TestBlockedScan:
    """The hull merge above the all-windows leaves, checked on its own."""

    # 1, 2, 3, 127, 1025 and 4097 nodes are zero-padded to whole leaves
    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1, 2, 3, 127, 1025, 4097])
    def test_pure_divide_and_conquer_matches_oracle(self, n, rng, monkeypatch):
        monkeypatch.setattr(maximal, "_BASE_SIZE", 1)
        _assert_scans_agree(n, rng)

    @pytest.mark.parametrize("n", [129, 257, 1000, 4096, 1, 2, 3, 127, 1025, 4097])
    def test_sizes_straddling_block_edges_match_oracle(self, n, rng):
        _assert_scans_agree(n, rng)


def _row_loop_scan(av, dtype=np.float64, row_block=None):
    """All-windows scan one start node at a time, in ``dtype``.

    With ``row_block``, each start node's sums are counted from the first
    start node of its block of that many, as in the blocked oracle: in
    float64 it is then the reference the oracle must match bit for bit.
    Without, the sums run from the first node; in extended precision it is
    the reference for rounding drift.
    """
    av = np.asarray(av, dtype=dtype)
    n = av.size
    out = np.zeros(n, dtype=dtype)
    for a in range(n):
        if a % (row_block or n) == 0:
            a0 = a
            S = np.concatenate((np.zeros(1, dtype=dtype), np.cumsum(av[a0:])))
        means = (S[a - a0 + 1:] - S[a - a0]) / np.arange(1, n - a + 1)
        np.maximum(out[a:], np.maximum.accumulate(means[::-1])[::-1], out=out[a:])
    return out


def _scan_inputs(n, rng):
    t = np.linspace(-8.0, 8.0, n)
    noise = np.abs(rng.normal(size=n))
    plateaus = (rng.uniform(size=n) > 0.6).astype(float)
    return noise, plateaus, np.exp(-t * t / 2)


# sizes up to 300 on both sides of every multiple of 32 (so of 64), where
# blocks of 32 or 64 rows start and end, and a few primes between them
_EDGE_SIZES = sorted({1, 2, 3, 7, 13, 47, 101, 151, 211, 293}
                     | {m + d for m in range(32, 301, 32) for d in (-1, 0, 1)})


class TestOracleRowBlocks:
    """The blocked all-windows scan repeats the row loop's arithmetic exactly."""

    @pytest.mark.parametrize(
        "sizes, row_block, stacked",
        [(_EDGE_SIZES, None, False), (_EDGE_SIZES, 64, False),
         ((1000, 1024), None, False), ((1000, 1024, 4096), 64, False),
         ((1000, 1024), 1, False),
         (_EDGE_SIZES, None, True), (_EDGE_SIZES, 64, True),
         ((1000, 1024, 4096), None, True), ((1000, 1024, 4096), 64, True),
         ((1000, 1024), 1, True)],
        ids=["n1-300-None", "n1-300-64", "n1000-1024-None", "n1000-4096-64",
             "n1000-1024-1", "n1-300-None-stacked", "n1-300-64-stacked",
             "n1000-4096-None-stacked", "n1000-4096-64-stacked",
             "n1000-1024-1-stacked"])
    def test_bit_identical_to_row_loop(self, sizes, row_block, stacked, rng,
                                       monkeypatch):
        # rows per block: one block up to n = 32 (64), ragged last blocks
        # above it, and one-row blocks whose head is a single column plus
        # the tail's stand-in; each row of a 2-D stack is checked against
        # the row loop too.  1000 ends in a ragged block and 1024 in a whole
        # one at 32 and 64 rows; 4096 adds no block edge, only longer rows
        if row_block is not None:
            monkeypatch.setattr(maximal, "_ROW_BLOCK", row_block)
        for n in sizes:
            inputs = _scan_inputs(n, rng)
            got = (maximal._oracle_scan(np.stack(inputs)) if stacked
                   else [maximal._oracle_scan(av) for av in inputs])
            for row, av in zip(got, inputs):
                want = _row_loop_scan(av, row_block=maximal._ROW_BLOCK)
                assert np.array_equal(row, want), n


class TestStackedFastScan:
    """A stack of rows gets each row's own fast scan, bit for bit."""

    # 8 and 250 stay in one leaf; 256 and up merge; 250 and 1000 pad
    @pytest.mark.parametrize("n", [8, 250, 256, 1000, 1024, 4096])
    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_rows_bit_identical_to_one_row_scans(self, n, rows, rng):
        # noise, plateaus and a Gaussian side by side, in turn
        inputs = [av for _ in range(3) for av in _scan_inputs(n, rng)][:rows]
        got = maximal._fast_scan(np.stack(inputs))
        assert got.shape == (rows, n)
        for row, av in zip(got, inputs):
            assert np.array_equal(row, maximal._fast_scan(av)), n


class TestStridedInput:
    """Both routes scan a strided view bit for bit as its contiguous copy."""

    # block edges: one ragged block of 31 rows, 32 + 1, 4 * 32 + 1 (and a
    # padded second leaf), 32 * 32 + 1
    @pytest.mark.parametrize("n", [31, 33, 129, 1025])
    @pytest.mark.parametrize("mode", ["fast", "oracle"])
    def test_views_scan_as_their_copies(self, n, mode, rng):
        base = np.abs(rng.normal(size=(3, 2 * n)))
        views = {
            "reversed rows": base[::-1, :n],
            "reversed columns": base[:, n - 1::-1],
            "Fortran-ordered stack": np.asfortranarray(base[:, :n]),
            "every other column": base[:, ::2],
            "one row, every other node": base[1, ::2],
        }
        for name, av in views.items():
            want = maximal_scan(np.ascontiguousarray(av), mode)
            assert np.array_equal(maximal_scan(av, mode), want), name


def _plain_upper_hull(xs, ys):
    """Monotone-chain upper hull with no pruning pass before the loop."""
    hx, hy = [], []
    for x, y in zip(xs.tolist(), ys.tolist()):
        while len(hx) >= 2 and (
            (hy[-1] - hy[-2]) * (x - hx[-1]) <= (y - hy[-1]) * (hx[-1] - hx[-2])
        ):
            hx.pop()
            hy.pop()
        hx.append(x)
        hy.append(y)
    return np.asarray(hx), np.asarray(hy)


def _concave_then_spike(n):
    # its prefix sums are concave up to the spike: no point of that run is
    # below its neighbours' chord, so the pruning stops after one pass and
    # the loop pops the whole run
    return np.r_[np.exp(-np.linspace(0, 4, n - 1)), 50.0]


class TestHullPruning:
    """Pruning before the monotone-chain loop drops no hull vertex."""

    @pytest.mark.parametrize("n", [3, 64, 1000, 4096])
    def test_same_vertices_as_plain_chain(self, n, rng):
        xs = np.arange(1, n + 1, dtype=float)
        shapes = {
            "noise": rng.normal(size=n),
            "plateaus": (rng.uniform(size=n) > 0.6).astype(float),
            "zeros": np.zeros(n),
            # an exact slope keeps every triple collinear in floating point
            "ramp": 0.5 * xs,
            "spike": _concave_then_spike(n),
        }
        one_run = np.arange(n) == 0
        for name, arr in shapes.items():
            for ys in (arr, np.cumsum(arr)):
                got = maximal._upper_hull(xs, ys, one_run)
                want = _plain_upper_hull(xs, ys)
                assert np.array_equal(got[0], want[0]), name
                assert np.array_equal(got[1], want[1]), name
        # one call on every shape laid end to end as runs: each run gets
        # the hull of that run alone, though x falls back at each run start
        runs = [ys for arr in shapes.values() for ys in (arr, np.cumsum(arr))]
        hx, hy, firsts = maximal._upper_hull(
            np.tile(xs, len(runs)), np.concatenate(runs), np.tile(one_run, len(runs)))
        assert firsts.size == len(runs)
        for ys, gx, gy in zip(runs, np.split(hx, firsts[1:]), np.split(hy, firsts[1:])):
            want = _plain_upper_hull(xs, ys)
            assert np.array_equal(gx, want[0])
            assert np.array_equal(gy, want[1])

    @pytest.mark.parametrize("n", [1000, 1025, 4096])
    def test_fast_scan_matches_oracle_where_pruning_stalls(self, n):
        # a constant 0.1 has near-collinear prefix sums, where the pruned
        # and the plain chain may keep different vertices by rounding
        t = np.linspace(0.0, 8.0, n)
        for av in (_concave_then_spike(n), np.exp(-t * t / 2), np.full(n, 0.1)):
            gap = np.max(np.abs(maximal._fast_scan(av) - maximal._oracle_scan(av)))
            assert gap <= 1e-12


@pytest.fixture(scope="module")
def noise_and_exact_scan():
    """4096 nodes of |N(0,1)| noise and their scan in extended precision."""
    if np.finfo(np.longdouble).eps >= 1e-18:
        pytest.skip("long double is no wider than float64 here")
    av = np.abs(np.random.default_rng(0).normal(size=4096))
    return av, _row_loop_scan(av, np.longdouble)


def test_fast_scan_error_does_not_grow_with_n(noise_and_exact_scan):
    # sums counted from each split keep the merge error at a few ulp; sums
    # over the whole array drift like n (1.7e-13 at this size)
    av, exact = noise_and_exact_scan
    assert np.max(np.abs(maximal._fast_scan(av) - exact)) < 2e-14


def test_oracle_error_does_not_grow_with_n(noise_and_exact_scan):
    # sums counted from each row block's first start node; counted from the
    # first node of the array they drifted to 2.3e-13 here
    av, exact = noise_and_exact_scan
    assert np.max(np.abs(maximal._oracle_scan(av) - exact)) < 2e-14


def test_routes_agree_at_32768_nodes():
    # maximal-check's first trial at --grid-n 32768 and seed 42, where the
    # oracle's drift once reached 1.8e-12
    av = np.abs(np.random.default_rng(42).normal(size=(1, 32768)))
    gap = np.max(np.abs(maximal_scan(av, "fast") - maximal_scan(av, "oracle")))
    assert gap <= 1e-12


class TestDiscreteModel:
    def test_indicator_average_at_two(self):
        # brute force over intervals containing t=2 gives the [-1, 2] window
        g = make_grid(8.0, 512)
        chi = sample("indicator(-1,1)", g)
        m = maximal_function(chi, "oracle").values.real
        j = int(np.argmin(np.abs(g.t - 2.0)))
        # 64 unit nodes over 97 window nodes on this grid; continuum 2/3
        assert m[j] == pytest.approx(64 / 97, abs=1e-13)
        assert m[j] == pytest.approx(2 / 3, abs=2 * g.dx)

    def test_constant_fixed_point(self, std_grid):
        c = GridFunction(std_grid, np.full(std_grid.size, 2.5))
        m = maximal_function(c).values.real
        assert np.max(np.abs(m - 2.5)) < 1e-14

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_dominates_pointwise(self, seed):
        g = make_grid(8.0, 64)
        r = np.random.default_rng(seed)
        f = GridFunction(g, r.normal(size=64) + 1j * r.normal(size=64))
        m = maximal_function(f).values.real
        assert np.all(m >= np.abs(f.values) - 1e-14)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31), alpha=st.floats(-4, 4, allow_nan=False))
    def test_sublinear(self, seed, alpha):
        g = make_grid(8.0, 64)
        r = np.random.default_rng(seed)
        f = GridFunction(g, r.normal(size=64))
        h = GridFunction(g, r.normal(size=64))
        mf = maximal_function(f).values.real
        mh = maximal_function(h).values.real
        msum = maximal_function(GridFunction(g, f.values + h.values)).values.real
        assert np.all(msum <= mf + mh + 1e-12)
        mscaled = maximal_function(GridFunction(g, alpha * f.values)).values.real
        assert np.max(np.abs(mscaled - abs(alpha) * mf)) < 1e-12


class TestDecayInequality:
    def test_reciprocal_bound_outside_unit_interval(self):
        # chi_{|t|>1}(t)/|t| <= M chi_[-1,1](t) at every node with |t| > 1
        # (needs +-1 on the lattice, hence power-of-two sizes at L=8)
        for n in (256, 512):
            g = make_grid(8.0, n)
            m = maximal_function(sample("indicator(-1,1)", g), "fast").values.real
            outside = np.abs(g.t) > 1.0
            lhs = 1.0 / np.abs(g.t[outside])
            assert np.all(lhs <= m[outside] + 1e-12)

    def test_converges_to_continuum_profile(self):
        targets = (1.5, 2.0, 4.0)
        errors = []
        for n in (256, 1024, 4096):
            g = make_grid(8.0, n)
            m = maximal_function(sample("indicator(-1,1)", g), "fast").values.real
            worst = 0.0
            for t0 in targets:
                j = int(np.argmin(np.abs(g.t - t0)))
                worst = max(worst, abs(m[j] - 2.0 / (1.0 + abs(g.t[j]))))
            errors.append(worst)
            assert worst <= 2 * g.dx
        assert errors[-1] < errors[0]


class TestNormEstimate:
    def test_at_least_one(self, std_grid):
        assert maximal_norm_estimate(SpaceNorm(2.0), 5, 1, std_grid) >= 1.0

    def test_indicator_probe_ratio_exceeds_one(self, std_grid):
        chi = sample("indicator(0,1)", std_grid)
        space = SpaceNorm(2.0)
        ratio = space_norm(space, maximal_function(chi)) / space_norm(space, chi)
        assert ratio > 1.0

    def test_weighted_space(self, std_grid):
        est = maximal_norm_estimate(SpaceNorm(3.0, 1.0), 5, 2, std_grid)
        assert est >= 1.0 and math.isfinite(est)

    def test_endpoints_rejected(self, std_grid):
        with pytest.raises(ValueError):
            maximal_norm_estimate(SpaceNorm(1.0), 2, 0, std_grid)
        with pytest.raises(ValueError):
            maximal_norm_estimate(SpaceNorm(math.inf), 2, 0, std_grid)

    @pytest.mark.parametrize("L,n", ORACLE_GRIDS)
    @pytest.mark.parametrize("p,gamma", ORACLE_SPACES)
    def test_equals_one_probe_oracle(self, p, gamma, L, n):
        # 1 probe, and one stack and a ragged remainder
        grid = make_grid(L, n)
        space = SpaceNorm(p, gamma)
        for trials in (1, STACK_NODES // n + 4):
            assert (maximal_norm_estimate(space, trials, trials, grid)
                    == maximal_estimate_by_trial(space, trials, trials, grid))

    @pytest.mark.parametrize("L,n", ORACLE_GRIDS)
    def test_same_result_for_any_stack_budget(self, L, n, monkeypatch):
        # the probes are drawn before the first stack
        grid = make_grid(L, n)
        space = SpaceNorm(3.0, -0.5)
        trials = STACK_NODES // n + 3
        want = maximal_norm_estimate(space, trials, 5, grid)
        for budget in (1, 10**9):
            patch_stack_budget(monkeypatch, maximal_estimate, budget)
            assert maximal_norm_estimate(space, trials, 5, grid) == want

    def test_one_scan_and_two_norm_calls_per_stack(self, monkeypatch):
        grid = make_grid(16.0, 1024)
        calls = []

        def spy(name, exact, rows_at):
            def call(*args):
                calls.append((name, args[rows_at].shape))
                return exact(*args)
            monkeypatch.setattr(maximal_estimate, name, call)

        spy("space_norms", maximal_estimate.space_norms, 2)
        spy("maximal_scan", maximal_estimate.maximal_scan, 0)
        maximal_norm_estimate(SpaceNorm(2.0), 20, 1, grid)
        want = []
        for rows in (16, 4):
            shape = (rows, grid.size)
            want += [("space_norms", shape), ("maximal_scan", shape),
                     ("space_norms", shape)]
        assert calls == want
