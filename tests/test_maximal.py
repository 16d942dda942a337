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
    maximal_norm_estimate,
    sample,
    space_norm,
)


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

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_pure_divide_and_conquer_matches_oracle(self, n, rng, monkeypatch):
        monkeypatch.setattr(maximal, "_BASE_SIZE", 1)
        _assert_scans_agree(n, rng)

    @pytest.mark.parametrize("n", [129, 257, 1000, 4096])
    def test_sizes_straddling_block_edges_match_oracle(self, n, rng):
        _assert_scans_agree(n, rng)


def _row_loop_scan(av, dtype=np.float64):
    """All-windows scan one start node at a time, in ``dtype``.

    In float64 it is the reference the blocked oracle must match bit for
    bit; in extended precision it is the reference for rounding drift.
    """
    av = np.asarray(av, dtype=dtype)
    n = av.size
    S = np.concatenate((np.zeros(1, dtype=dtype), np.cumsum(av)))
    out = np.zeros(n, dtype=dtype)
    for a in range(n):
        means = (S[a + 1:] - S[a]) / np.arange(1, n - a + 1)
        np.maximum(out[a:], np.maximum.accumulate(means[::-1])[::-1], out=out[a:])
    return out


def _scan_inputs(n, rng):
    t = np.linspace(-8.0, 8.0, n)
    noise = np.abs(rng.normal(size=n))
    plateaus = (rng.uniform(size=n) > 0.6).astype(float)
    return noise, plateaus, np.exp(-t * t / 2)


class TestOracleRowBlocks:
    """The blocked all-windows scan repeats the row loop's arithmetic exactly."""

    @pytest.mark.parametrize("row_block", [None, 64])
    @pytest.mark.parametrize("sizes", [range(1, 301), (1000, 1024, 4096)],
                             ids=["n1-300", "n1000-4096"])
    def test_bit_identical_to_row_loop(self, sizes, row_block, rng, monkeypatch):
        # 64 entries per block: ragged last blocks below n = 64, one row
        # per block above it
        if row_block is not None:
            monkeypatch.setattr(maximal, "_ROW_BLOCK", row_block)
        for n in sizes:
            for av in _scan_inputs(n, rng):
                assert np.array_equal(maximal._oracle_scan(av), _row_loop_scan(av)), n


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                    reason="long double is no wider than float64 here")
def test_fast_scan_error_does_not_grow_with_n():
    # sums counted from each split keep the merge error at a few ulp; sums
    # over the whole array drift like n (1.7e-13 at this size)
    av = np.abs(np.random.default_rng(0).normal(size=4096))
    err = np.max(np.abs(maximal._fast_scan(av) - _row_loop_scan(av, np.longdouble)))
    assert err < 2e-14


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
        msum = maximal_function(f + h).values.real
        assert np.all(msum <= mf + mh + 1e-12)
        mscaled = maximal_function(alpha * f).values.real
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
    def test_at_least_one(self):
        assert maximal_norm_estimate(SpaceNorm(2.0), trials=5, seed=1) >= 1.0

    def test_indicator_probe_ratio_exceeds_one(self, std_grid):
        chi = sample("indicator(0,1)", std_grid)
        space = SpaceNorm(2.0)
        ratio = space_norm(space, maximal_function(chi)) / space_norm(space, chi)
        assert ratio > 1.0

    def test_weighted_space(self):
        est = maximal_norm_estimate(SpaceNorm(3.0, 1.0), trials=5, seed=2)
        assert est >= 1.0 and math.isfinite(est)

    def test_endpoints_rejected(self):
        with pytest.raises(ValueError):
            maximal_norm_estimate(SpaceNorm(1.0), trials=2, seed=0)
        with pytest.raises(ValueError):
            maximal_norm_estimate(SpaceNorm(math.inf), trials=2, seed=0)
