import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convolab import (
    GridFunction,
    Mollifier,
    SpaceNorm,
    band_limited_probe,
    density_experiment,
    dft_pair,
    limit_operator_sweep,
    make_grid,
    parse_symbol,
    quadrature,
    sample,
    space_norm,
    symbol_norms,
    tail_truncate,
)
from convolab.grid import filter_rows
from conjugation import (conjugated_apply, modulate, out_of_band_mass,
                         random_band_limited_probe)
from conftest import dft_matrix, identity_residual, tail_sup

L2 = SpaceNorm(2.0)


class TestModulate:
    def test_zero_shift_is_identity(self, std_grid, rng):
        f = GridFunction(std_grid, rng.normal(size=std_grid.size))
        assert np.array_equal(modulate(f, 0.0).values, f.values)

    @settings(max_examples=20, deadline=None)
    @given(lam=st.floats(-50, 50, allow_nan=False), p=st.sampled_from([1.5, 2.0, 3.0]))
    def test_isometry_every_norm(self, lam, p):
        g = make_grid(8.0, 64)
        r = np.random.default_rng(99)
        f = GridFunction(g, r.normal(size=64) + 1j * r.normal(size=64))
        space = SpaceNorm(p)
        assert space_norm(space, modulate(f, lam)) == pytest.approx(
            space_norm(space, f), rel=1e-12
        )

    def test_lattice_shift_rolls_spectrum(self, rng):
        # matrix oracle at n=16: modulating by +m*dxi evaluates the spectrum
        # at x + m*dxi, i.e. rolls the bins down by m (circularly)
        g = make_grid(4.0, 16)
        f = GridFunction(g, rng.normal(size=16) + 1j * rng.normal(size=16))
        m = 3
        F = dft_matrix(g, "forward")
        hat_mod = F @ modulate(f, m * g.dxi).values
        hat = F @ f.values
        assert np.max(np.abs(hat_mod - np.roll(hat, -m))) < 1e-10


class TestConjugatedApply:
    def test_identity_symbol_commutes(self, std_grid):
        f = band_limited_probe(std_grid, (1.0, 2.0))
        h = 8 * std_grid.dxi
        a = parse_symbol("const(1)")
        assert identity_residual(a, h, f) < 1e-12
        assert np.max(np.abs(conjugated_apply(a, h, f).values - f.values)) < 1e-12

    def test_support_disjointness_annihilates(self, std_grid):
        # band [1,2] shifted by 5 misses supp a = [-1,1] entirely
        f = band_limited_probe(std_grid, (1.0, 2.0))
        h = round(5.0 / std_grid.dxi) * std_grid.dxi
        res = conjugated_apply(parse_symbol("indicator(-1,1)"), h, f)
        assert space_norm(L2, res) < 1e-10

    def test_residual_against_matrix_oracle(self):
        # dense check at n=32 that both evaluation routes realize the same map
        g = make_grid(4.0, 32)
        a = parse_symbol("arctan")
        h = 8 * g.dxi
        F, Finv = dft_matrix(g, "forward"), dft_matrix(g, "inverse")
        direct_op = Finv @ np.diag(a(g.xi + h)) @ F
        f = random_band_limited_probe(g, (1.0, 2.0), 5)
        res = conjugated_apply(a, h, f)
        oracle_vals = direct_op @ f.values
        assert np.max(np.abs(res.values - oracle_vals)) < 1e-10
        assert identity_residual(a, h, f) < 1e-10

    def test_random_band_limited_triples(self, std_grid, rng):
        symbols = [parse_symbol(s) for s in
                   ("arctan", "rational_decay(1)", "indicator(-2,3)")]
        for trial in range(20):
            a = symbols[trial % len(symbols)]
            lo = rng.uniform(-10, 5)
            band = (lo, lo + rng.uniform(0.5, 4.0))
            f = random_band_limited_probe(std_grid, band, trial)
            h = rng.integers(1, 40) * std_grid.dxi
            if band[1] + h >= std_grid.freq_edge:
                continue
            assert identity_residual(a, h, f) < 1e-10

    def test_uniform_bound_via_shifted_diagonal(self):
        # conjugation re-diagonalizes with the shifted symbol: on the band
        # the operator norm is max |a| over band + h (uniform in h at p=2)
        g = make_grid(4.0, 32)
        a = parse_symbol("rational_decay(1)")
        band_idx = (g.xi >= 0.5) & (g.xi <= 2.5)
        sup_a = float(np.max(np.abs(a(g.xi))))
        # band + h must stay inside the frequency window (edge ~ 12.6)
        for h in (4 * g.dxi, 8 * g.dxi, 12 * g.dxi):
            cols = []
            for k in np.nonzero(band_idx)[0]:
                spike = np.zeros(g.size, dtype=complex)
                spike[k] = 1.0
                probe = dft_pair(GridFunction(g, spike), "inverse")
                out = conjugated_apply(a, h, probe)
                cols.append(dft_pair(out, "forward").values)
            # frequency coefficients are isometric to L2 up to one constant
            # factor on both sides, so the plain spectral norm is the
            # operator norm on the band subspace
            op = np.column_stack(cols)
            norm = float(np.linalg.norm(op, 2))
            expected = float(np.max(np.abs(a(g.xi[band_idx] + h))))
            assert norm == pytest.approx(expected, abs=1e-10)
            assert norm <= sup_a + 1e-10


class TestLimitOperatorSweep:
    def test_compact_symbol_annihilates_past_threshold(self, std_grid):
        shifts = (1, 2, 4, 8, 16, 32)
        rows = limit_operator_sweep(parse_symbol("indicator(-1,1)"), std_grid,
                                    (1.0, 2.0), shifts, L2)
        for row in rows:
            if 1.0 + row.shift > 1.0:  # inf(band) + h beyond supp a
                assert row.norm < 1e-10
            assert row.within_bound

    def test_rational_decay_quarters_per_doubling(self, std_grid):
        shifts = (8.0, 16.0, 32.0)
        rows = limit_operator_sweep(parse_symbol("rational_decay(1)"), std_grid,
                                    (1.0, 2.0), shifts, L2)
        for r1, r2 in zip(rows, rows[1:]):
            ratio = r2.norm / r1.norm
            assert 0.25 / 2 <= ratio <= 0.25 * 2
        assert all(r.within_bound for r in rows)

    def test_monotone_decay_for_decaying_tail(self, std_grid):
        shifts = (4, 6, 8, 12, 16, 24, 32)
        rows = limit_operator_sweep(parse_symbol("rational_decay(1)"), std_grid,
                                    (1.0, 2.0), shifts, L2)
        for r1, r2 in zip(rows, rows[1:]):
            assert r2.norm <= r1.norm + 1e-10

    @pytest.mark.parametrize("space", [L2, SpaceNorm(3.0, -0.5)],
                             ids=["L2", "weighted-L3"])
    @pytest.mark.parametrize("L,n,targets", [(8.0, 256, (4, 8, 16, 32)),
                                             (16.0, 1024, (8, 16, 32))],
                             ids=["quick", "fine"])
    def test_norms_equal_the_conjugation_oracle(self, L, n, targets, space):
        # the sweep filters with a(xi + h); the theorem names e_h W(a) e_{-h}
        grid = make_grid(L, n)
        a = parse_symbol("rational_decay(1)")
        f = band_limited_probe(grid, (1.0, 2.0))
        rows = limit_operator_sweep(a, grid, (1.0, 2.0), targets, space)
        floor = 1e-14 * space_norm(space, f)
        for row in rows:
            want = space_norm(space, conjugated_apply(a, row.shift, f))
            assert abs(row.norm - want) <= max(1e-12 * want, floor)

    def test_other_exponent_reports_variation_bound(self, std_grid):
        shifts = (8.0, 16.0)
        rows = limit_operator_sweep(parse_symbol("rational_decay(1)"), std_grid,
                                    (1.0, 2.0), shifts, SpaceNorm(3.0))
        assert all(r.bound > 0 for r in rows)

    @pytest.mark.parametrize("space,tail", [
        (L2, tail_sup),
        (SpaceNorm(3.0), lambda a, n: symbol_norms(tail_truncate(a, n)).v_norm),
    ])
    def test_bound_is_three_tail_norms_times_probe(self, std_grid, space, tail):
        a = parse_symbol("rational_decay(1)")
        f = band_limited_probe(std_grid, (1.0, 2.0))
        shifts = (8.0, 16.0)
        rows = limit_operator_sweep(a, std_grid, (1.0, 2.0), shifts, space)
        nf = space_norm(space, f)
        for row in rows:
            assert row.bound == 3.0 * tail(a, 1.0 + row.shift) * nf

    def test_shifts_round_to_sorted_distinct_steps(self, std_grid):
        # 8.1, 8.0, 4.1 and 4.0 lie 21, 20, 10 and 10 lattice steps out
        a = parse_symbol("rational_decay(1)")
        lattice = std_grid.dxi * np.array([10, 20, 21])
        rows = limit_operator_sweep(a, std_grid, (1.0, 2.0),
                                    (8.1, 4.0, 8.0, 4.1), L2)
        assert [r.shift for r in rows] == lattice.tolist()
        assert rows == limit_operator_sweep(a, std_grid, (1.0, 2.0), lattice, L2)

    def test_config_validation(self, std_grid):
        a = parse_symbol("const(1)")
        # below half a lattice step a shift rounds to the zero step; 1e308
        # is finite, but 1e308 / dxi is not
        for shifts, match in [([], "half a lattice step"),
                              ([0.1], "half a lattice step"),
                              ([-4.0, 4.0], "half a lattice step"),
                              ([math.nan], "finite"), ([math.inf], "finite"),
                              ([1e308], "finite")]:
            with pytest.raises(ValueError, match=match):
                limit_operator_sweep(a, std_grid, (1.0, 2.0), shifts, L2)
        with pytest.raises(ValueError, match="window"):
            limit_operator_sweep(a, std_grid, (1.0, 2.0), [130.0], L2)
        with pytest.raises(ValueError, match="band must be an interval"):
            limit_operator_sweep(a, std_grid, (2.0, 1.0), (4.0,), L2)

    @pytest.mark.parametrize("text", ["arctan", "const(1)",
                                      "truncate(arctan,3)"])
    def test_symbol_not_vanishing_at_infinity_rejected(self, std_grid, text):
        # the limit operator of such a symbol is not zero, so the tail bound
        # would pass a sweep the theorem does not cover
        with pytest.raises(ValueError, match="not equivalent to zero at infinity"):
            limit_operator_sweep(parse_symbol(text), std_grid, (1.0, 2.0), (4.0,), L2)


@dataclass(frozen=True)
class S0Probe:
    values: GridFunction
    band: tuple[float, float]
    out_of_band_mass: float


def s0_test_function(g_expr, delta, grid):
    """Band-limit a smooth compactly supported function by mollification.

    Filtering with the unit-mass spectrum of the band-limited kernel at
    scale delta confines the spectrum to ``(-1/delta, 1/delta)`` and keeps
    the function's mass; the relative out-of-band spectral mass is
    verified below 1e-9 and returned.
    """
    if 1.0 / delta >= grid.freq_edge:
        raise ValueError("band [-1/delta, 1/delta] exceeds the frequency window")
    if delta < 4.0 * grid.dx:
        raise ValueError(f"delta={delta} below grid resolution (need >= 4*dx)")
    g = sample(g_expr, grid)
    body = np.abs(g.values)
    peak = float(np.max(body))
    tails = body[np.abs(grid.t) > grid.half_width / 2]
    if peak == 0.0 or (tails.size and float(np.max(tails)) > 1e-12 * peak):
        raise ValueError("descriptor must be supported well inside [-L/2, L/2]")
    spectrum = Mollifier("bump_spectrum", grid).spectrum(delta)
    f = GridFunction(grid, filter_rows(g.values, spectrum))
    band = (-1.0 / delta, 1.0 / delta)
    mass_out = out_of_band_mass(f, band)
    if mass_out >= 1e-9:
        raise ValueError(f"band-limit failed: out-of-band mass {mass_out:.3e}")
    return S0Probe(f, band, mass_out)


class TestS0TestFunction:
    def test_band_limit_and_mass(self, fine_grid):
        probe = s0_test_function("bump", 1.0, fine_grid)
        hat = dft_pair(probe.values, "forward")
        outside = np.abs(fine_grid.xi) > 1.0
        assert np.max(np.abs(hat.values[outside])) < 1e-9
        assert probe.out_of_band_mass < 1e-9
        assert probe.band == (-1.0, 1.0)

    def test_halving_delta_doubles_band(self, fine_grid):
        wide = s0_test_function("bump", 0.5, fine_grid)
        assert wide.band == (-2.0, 2.0)
        assert wide.out_of_band_mass < 1e-9

    @pytest.mark.parametrize("delta", [1.0, 0.5])
    @pytest.mark.parametrize("L, n", [(8, 256), (16, 1024), (64, 4096)])
    def test_mass_preserved(self, L, n, delta):
        g = make_grid(float(L), n)
        f = sample("bump", g)
        probe = s0_test_function("bump", delta, g)
        assert abs(quadrature(probe.values) - quadrature(f)) < 1e-14

    def test_preconditions(self, fine_grid):
        with pytest.raises(ValueError, match="resolution"):
            s0_test_function("bump", fine_grid.dx, fine_grid)
        with pytest.raises(ValueError, match="window"):
            s0_test_function("bump", 1.0 / (2 * fine_grid.freq_edge), fine_grid)
        with pytest.raises(ValueError, match="supported"):
            s0_test_function("gaussian(12,1)", 1.0, fine_grid)


class TestDensityExperiment:
    def test_indicator_reaches_tenth(self):
        g = make_grid(16.0, 4096)
        chi = sample("indicator(-1,1)", g)
        result = density_experiment(chi, 0.1, L2)
        assert result.achieved < 0.1
        assert out_of_band_mass(result.approximant, result.band) < 1e-9

    def test_band_limited_input_converges_immediately(self, fine_grid):
        probe = s0_test_function("bump", 0.5, fine_grid)
        result = density_experiment(probe.values, 0.25, L2)
        assert result.achieved < 0.25
        assert result.delta == 1.0  # first scale tried already suffices

    def test_huge_epsilon_still_returns_genuine_approximant(self, fine_grid):
        chi = sample("indicator(-1,1)", fine_grid)
        eps = 10.0 * space_norm(L2, chi)
        result = density_experiment(chi, eps, L2)
        assert result.achieved < eps
        assert out_of_band_mass(result.approximant, result.band) < 1e-9
        # no shortcut: the result is a genuinely mollified band-limited probe
        assert space_norm(L2, result.approximant) > 0.0

    def test_unreachable_floor_reports_best(self, std_grid):
        chi = sample("indicator(-1,1)", std_grid)
        result = density_experiment(chi, 1e-6, L2)
        assert result.achieved >= 1e-6
        assert result.delta == 0.5 * std_grid.dx
        # the closest rung is still a genuine band-limited approximant
        assert out_of_band_mass(result.approximant, result.band) < 1e-9
        error = GridFunction(std_grid, result.approximant.values - chi.values)
        assert result.achieved == space_norm(L2, error)

    def test_grid_floor_reports_best_error(self, fine_grid):
        # on (16, 1024) the floor rung dx/2 = 1/64 is the closest, at 0.110
        chi = sample("indicator(-1,1)", fine_grid)
        result = density_experiment(chi, 0.1, L2)
        assert result.delta == 0.015625
        _, _, errors = Mollifier("bump_spectrum", fine_grid).ladder(chi, L2)
        assert result.achieved == min(errors) == errors[-1]
        assert 0.11 < result.achieved < 0.111

    @pytest.mark.parametrize("L", [20.0, 24.0])
    def test_ladder_ends_on_the_grid_floor(self, L):
        # dx/2 is no power of two here, so the last rung is the floor itself
        g = make_grid(L, 256)
        chi = sample("indicator(-1,1)", g)
        missed = density_experiment(chi, 1e-6, L2)
        assert missed.achieved >= 1e-6
        assert missed.delta == 0.5 * g.dx
        floor = density_experiment(chi, missed.achieved * (1 + 1e-12), L2)
        assert floor.delta == 0.5 * g.dx
        assert out_of_band_mass(floor.approximant, floor.band) < 1e-9

    def test_epsilon_validated(self, std_grid):
        with pytest.raises(ValueError):
            density_experiment(sample("bump", std_grid), 0.0, L2)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, std_grid, eps):
        with pytest.raises(ValueError, match="finite"):
            density_experiment(sample("bump", std_grid), eps, L2)

    def test_zero_function_rejected(self, std_grid):
        with pytest.raises(ValueError, match="vacuously"):
            density_experiment(sample("const(0)", std_grid), 0.1, L2)
