import math

import numpy as np
import pytest

from convolab import (
    Grid,
    GridFunction,
    SpaceNorm,
    associate_space,
    make_grid,
    quadrature,
    random_mixture,
    sample,
    space_norm,
    space_norms,
    spaces,
    verify_axioms,
)
from convolab.grid import STACK_NODES
from conftest import (ORACLE_GRIDS, ORACLE_SPACES, axioms_by_trial,
                      patch_stack_budget)

# the broken norms below that are built on the exact one call it through
# this name, which patching ``spaces.space_norms`` leaves in place
_exact_norm = space_norms


def _zero_norm(space, f):
    return 0.0


def _squared_norm(space, f):
    # monotone, but not homogeneous
    return float(_exact_norm(space, f.grid, f.values)) ** 2


def _roughness_norm(space, f):
    # a norm, but not a lattice norm: damping a function roughens it
    return (float(_exact_norm(space, f.grid, f.values))
            + float(np.abs(np.diff(f.values)).sum()))


def _moment_norm(space, f):
    # |int t f(t) dt| cancels between the half-lines, so truncations of a
    # nonnegative f need not increase, nor does damping f by u <= 1 need
    # to shrink it
    return abs(float(quadrature(GridFunction(f.grid, f.grid.t * f.values)).real))


def _nan_norm(space, f):
    return math.nan


def _unregularized_weight_norm(space, f):
    # L2(|t|^-1/2) with the weight left infinite at the node t = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.abs(f.grid.t) ** -0.5
        return float(np.sum(np.abs(f.values) ** 2 * w) * f.grid.dx) ** 0.5


def _row_wise(norm):
    """A stacked norm routine that applies ``norm`` to one row at a time."""
    def norms(space, grid, rows):
        return np.array([norm(space, GridFunction(grid, row)) for row in rows])
    return norms


class TestSpaceNorm:
    def test_unit_indicator_l2(self):
        g = make_grid(8.0, 4096)
        chi = sample("indicator(0,1)", g)
        assert space_norm(SpaceNorm(2.0), chi) == pytest.approx(1.0, abs=2 * g.dx)

    def test_unit_indicator_sup(self, std_grid):
        chi = sample("indicator(0,1)", std_grid)
        assert space_norm(SpaceNorm(math.inf), chi) == 1.0

    def test_weighted_indicator_closed_form(self):
        # oracle: (int_0^1 x dx)^(1/3) = 2^(-1/3) = 0.7937005259840998
        g = make_grid(8.0, 4096)
        chi = sample("indicator(0,1)", g)
        got = space_norm(SpaceNorm(3.0, 1.0), chi)
        assert got == pytest.approx(0.7937005259840998, abs=2 * g.dx)

    def test_invalid_spaces(self):
        with pytest.raises(ValueError):
            SpaceNorm(0.5)
        with pytest.raises(ValueError):
            SpaceNorm(2.0, 1.0)  # needs gamma < p - 1
        with pytest.raises(ValueError):
            SpaceNorm(3.0, -1.0)
        with pytest.raises(ValueError):
            SpaceNorm(math.inf, 1.0)

    def test_muckenhoupt_boundary_admits_interior(self):
        SpaceNorm(3.0, 1.0)  # -1 < 1 < 2 holds
        SpaceNorm(1.0, -0.5)


_NORM_SPACES = [SpaceNorm(1.5), SpaceNorm(2.0), SpaceNorm(3.0, -0.5),
                SpaceNorm(3.0, 1.0), SpaceNorm(math.inf)]


def _norm_stack(grid, rng):
    # complex and real mixtures, a truncated one, a constant and zeros
    rows = [random_mixture(grid, rng, complex_values=True).values
            for _ in range(4)]
    rows += [np.abs(random_mixture(grid, rng).values) for _ in range(4)]
    rows += [rows[0] * (np.abs(grid.t) < 2.0), np.full(grid.size, 0.5),
             np.zeros(grid.size), random_mixture(grid, rng).values]
    return np.array(rows)


class TestSpaceNorms:
    """The stacked norm routine, row by row."""

    @pytest.mark.parametrize("space", _NORM_SPACES, ids=str)
    def test_rows_bit_identical_to_one_row_calls(self, space, std_grid, rng):
        rows = _norm_stack(std_grid, rng)
        got = space_norms(space, std_grid, rows)
        assert got.shape == (len(rows),)
        for norm, row in zip(got, rows):
            assert norm == space_norms(space, std_grid, row)
            assert norm == space_norm(space, GridFunction(std_grid, row))

    @pytest.mark.parametrize("space", _NORM_SPACES, ids=str)
    def test_rows_match_complex_sum_reference(self, space, std_grid, rng):
        # the rectangle rule through quadrature, as a complex sum
        rows = _norm_stack(std_grid, rng)
        w = std_grid.power_weight(space.gamma)
        for norm, row in zip(space_norms(space, std_grid, rows), rows):
            if math.isinf(space.p):
                want = float(np.max(np.abs(row)))
            else:
                integrand = GridFunction(std_grid, np.abs(row) ** space.p * w)
                want = float(quadrature(integrand).real) ** (1.0 / space.p)
            assert norm == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("space", _NORM_SPACES, ids=str)
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_integrand_raises(self, space, bad, std_grid, rng):
        rows = _norm_stack(std_grid, rng)
        rows[5, 17] = bad
        with pytest.raises(ValueError, match="non-finite"):
            space_norms(space, std_grid, rows)

    @pytest.mark.parametrize("space", [SpaceNorm(1.5), SpaceNorm(2.0),
                                       SpaceNorm(3.0), SpaceNorm(3.0, -0.5)],
                             ids=str)
    def test_overflowing_sum_of_finite_rows_is_infinite(self, space, std_grid,
                                                         rng):
        # every |f|^p w is finite near 1e307, and their sum overflows
        rows = _norm_stack(std_grid, rng)
        rows[3] = 10.0 ** (307 / space.p)
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = space_norms(space, std_grid, rows)
        assert got[3] == math.inf
        assert np.isfinite(np.delete(got, 3)).all()

    def test_no_weight_pass_at_gamma_zero(self, std_grid, rng, monkeypatch):
        def weight(grid, gamma):
            raise AssertionError("weight sampled at gamma = 0")

        rows = _norm_stack(std_grid, rng)
        want = [space_norms(SpaceNorm(p), std_grid, rows) for p in (1.5, 2.0)]
        monkeypatch.setattr(Grid, "power_weight", weight)
        for p, norms in zip((1.5, 2.0), want):
            assert np.array_equal(space_norms(SpaceNorm(p), std_grid, rows),
                                  norms)

    # at n = 256 4 trials fill one chunk and 32 one block; 6 leaves a ragged
    # last chunk, 34 a ragged last block of one ragged chunk.  At n = 1024 a
    # chunk is one trial and a block 8; 10 leaves a ragged last block
    @pytest.mark.parametrize("L,n,trials", [
        *((8.0, 256, t) for t in (1, 4, 6, 32, 34)),
        *((16.0, 1024, t) for t in (1, 8, 10)),
    ])
    def test_axiom_harness_makes_one_call_per_chunk(self, L, n, trials,
                                                    monkeypatch):
        # the zero function, then per chunk of k trials one call on its
        # 14 k rows, each call within the node budget
        calls = []

        def spy(space, grid, rows):
            calls.append(rows.shape)
            return _exact_norm(space, grid, rows)

        monkeypatch.setattr(spaces, "space_norms", spy)
        verify_axioms(SpaceNorm(3.0, -0.5), trials=trials, seed=7,
                      grid=make_grid(L, n))
        chunk = STACK_NODES // (14 * n)
        block = STACK_NODES // (2 * n)
        assert (chunk, block) == {256: (4, 32), 1024: (1, 8)}[n]
        want = [(1, n)]
        for done in range(0, trials, block):
            K = min(block, trials - done)
            want += [(14 * min(chunk, K - lo), n) for lo in range(0, K, chunk)]
        assert calls == want
        assert all(rows * n <= STACK_NODES for rows, _ in calls)
        assert sum(rows for rows, _ in calls) == 1 + 14 * trials


def _pow_norms(space, grid, rows):
    """``space_norms`` through libm's ``pow``: ``|f|**p`` at a float p."""
    integrand = np.abs(rows) ** float(space.p)
    if space.gamma != 0.0:
        integrand = integrand * grid.power_weight(space.gamma)
    return np.power(grid.dx * integrand.sum(axis=-1), 1.0 / space.p)


def _power_rows(grid, rng):
    # real mixtures whose even nodes hold exact zeros, 1e-200 (every power
    # underflows to 0) and values whose square, cube, fourth or fifth power
    # is subnormal; a Gaussian with 1e-200 tails and zeros beyond; zeros
    tiny = [0.0, 1e-200, 1e-160, 1e-105, 1e-80, 1e-62]
    rows = [random_mixture(grid, rng).values.real.copy() for _ in range(2)]
    for row in rows:
        row[::2] = np.resize(tiny, grid.size // 2)
    gauss = np.exp(-grid.t**2)
    gauss[np.abs(grid.t) > 4.0] = 1e-200
    gauss[np.abs(grid.t) > 6.0] = 0.0
    return np.array(rows + [gauss, np.zeros(grid.size)])


class TestIntegerPower:
    """Integer p is multiplied out; other p go through ``pow``."""

    @pytest.mark.parametrize("space", [SpaceNorm(1.0), SpaceNorm(1.0, -0.5),
                                       SpaceNorm(2.0), SpaceNorm(2.0, -0.5)],
                             ids=str)
    def test_p1_and_p2_bit_identical_to_pow(self, space, std_grid, rng):
        rows = _power_rows(std_grid, rng)
        assert np.array_equal(space_norms(space, std_grid, rows),
                              _pow_norms(space, std_grid, rows))

    @pytest.mark.parametrize("space", [SpaceNorm(p, gamma) for p in (3.0, 4.0, 5.0)
                                       for gamma in (0.0, -0.5, 1.0)], ids=str)
    def test_higher_powers_within_rounding_of_pow(self, space, std_grid, rng):
        rows = _power_rows(std_grid, rng)
        kept = rows.copy()
        got = space_norms(space, std_grid, rows)
        want = _pow_norms(space, std_grid, rows)
        assert np.array_equal(rows, kept)  # the power works on a copy
        assert got[-1] == want[-1] == 0.0
        assert np.all(np.abs(got - want) <= 4e-16 * want)
        for norm, row in zip(got, rows):
            assert norm == space_norms(space, std_grid, row)

    def test_integer_and_float_exponents_agree(self, std_grid, rng):
        rows = _power_rows(std_grid, rng)
        assert SpaceNorm(3) == SpaceNorm(3.0)
        assert np.array_equal(space_norms(SpaceNorm(3), std_grid, rows),
                              space_norms(SpaceNorm(3.0), std_grid, rows))

    @pytest.mark.parametrize("space", [SpaceNorm(1.0, -0.5), SpaceNorm(2.0),
                                       SpaceNorm(3.0, -0.5)], ids=str)
    def test_boolean_rows_are_powered_as_floats(self, space, std_grid):
        mask = np.abs(std_grid.t) < 1.0
        assert (space_norms(space, std_grid, mask)
                == space_norms(space, std_grid, mask.astype(float)))

    def test_overflowing_cube_raises_under_errstate(self, std_grid):
        # 1e103 squares to 1e206; the cube overflows in the multiplication
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            space_norms(SpaceNorm(3.0), std_grid, np.full(std_grid.size, 1e103))


class TestPowerWeight:
    """The weight each grid computes once per gamma."""

    @pytest.mark.parametrize("gamma", [-0.9, -0.5, 0.5, 1.0])
    def test_equals_fresh_formula_with_origin_patch(self, gamma):
        grid = make_grid(8.0, 256)
        with np.errstate(divide="ignore"):
            want = np.abs(grid.t) ** gamma
        want[grid.size // 2] = 0.0 if gamma > 0 else grid.dx**gamma
        got = grid.power_weight(gamma)
        assert got.tobytes() == want.tobytes()

    def test_same_read_only_array_on_repeat_calls(self):
        grid = make_grid(8.0, 256)
        w = grid.power_weight(-0.5)
        assert grid.power_weight(-0.5) is w
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 1.0

    def test_equal_grids_get_their_own_arrays(self):
        first, second = make_grid(8.0, 256), make_grid(8.0, 256)
        assert first == second and first is not second
        w = first.power_weight(-0.5)
        assert second.power_weight(-0.5) is not w
        assert np.array_equal(second.power_weight(-0.5), w)


class TestAssociateSpace:
    def test_self_dual(self):
        dual = associate_space(SpaceNorm(2.0))
        assert dual == SpaceNorm(2.0, 0.0)

    def test_dual_exponent(self):
        dual = associate_space(SpaceNorm(3.0))
        assert dual.p == pytest.approx(1.5)
        assert dual.gamma == 0.0

    def test_weighted_dual(self):
        dual = associate_space(SpaceNorm(3.0, 1.0))
        assert dual.p == pytest.approx(1.5)
        assert dual.gamma == pytest.approx(-0.5)

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_endpoints_unsupported(self, p):
        with pytest.raises(ValueError):
            associate_space(SpaceNorm(p))

    @pytest.mark.parametrize("space", [SpaceNorm(2.0), SpaceNorm(3.0, 1.0),
                                       SpaceNorm(1.5)])
    def test_hoelder_pairing_random(self, space, std_grid, rng):
        dual = associate_space(space)
        for _ in range(100):
            f = random_mixture(std_grid, rng)
            g = random_mixture(std_grid, rng)
            pairing = abs(quadrature(GridFunction(std_grid,
                                                  f.values * g.values)))
            bound = space_norm(space, f) * space_norm(dual, g)
            assert pairing <= bound * (1 + 1e-9) + 1e-12


class TestAxiomHarness:
    @pytest.mark.parametrize("p,gamma", [(2.0, 0.0), (3.0, 1.0), (1.5, 0.0)])
    def test_all_axioms_pass(self, p, gamma, std_grid):
        checks = verify_axioms(SpaceNorm(p, gamma), trials=50, seed=7,
                               grid=std_grid)
        assert [c.axiom for c in checks] == ["A1", "A2", "A3", "A4", "A5"]
        assert all(c.passed for c in checks)

    @pytest.mark.parametrize("broken,failing", [
        (_zero_norm, ["A1"]),
        (_squared_norm, ["A1"]),
        (_roughness_norm, ["A2", "A3"]),
        (_moment_norm, ["A2", "A3"]),
        # infinite and NaN norms fail every check they reach
        (_unregularized_weight_norm, ["A1", "A2", "A3", "A4"]),
        (_nan_norm, ["A1", "A2", "A3", "A4", "A5"]),
    ])
    def test_broken_norm_fails(self, monkeypatch, broken, failing, std_grid):
        # the one-trial oracle makes the harness's draws and its checks, and
        # gives the same whole report, NaN and inf slacks passed over alike
        monkeypatch.setattr(spaces, "space_norms", _row_wise(broken))
        checks = verify_axioms(SpaceNorm(2.0), trials=20, seed=7, grid=std_grid)
        assert [c.axiom for c in checks if not c.passed] == failing
        assert checks == axioms_by_trial(SpaceNorm(2.0), 20, 7, std_grid)

    @pytest.mark.parametrize("L,n", ORACLE_GRIDS)
    @pytest.mark.parametrize("p,gamma", ORACLE_SPACES)
    def test_equals_one_trial_oracle(self, p, gamma, L, n):
        # trials 1, one full chunk, one chunk and a ragged remainder, one
        # full block of (f, g) probes, and one block and a ragged remainder
        grid = make_grid(L, n)
        chunk = max(1, STACK_NODES // (14 * n))
        block = max(chunk, STACK_NODES // (2 * n))
        space = SpaceNorm(p, gamma)
        for trials in sorted({1, chunk, chunk + 2, block, block + 2}):
            assert (verify_axioms(space, trials, seed=trials, grid=grid)
                    == axioms_by_trial(space, trials, trials, grid))

    @pytest.mark.parametrize("L,n", ORACLE_GRIDS)
    def test_same_result_for_any_stack_budget(self, L, n, monkeypatch):
        # every trial's scalars are drawn before the first block and u is
        # one stream, so one trial per call and all trials in one call
        # check the same numbers as the default blocks of 32 or 8
        grid = make_grid(L, n)
        space = SpaceNorm(3.0, -0.5)
        trials = 2 * (STACK_NODES // (2 * n)) + 3
        want = verify_axioms(space, trials, 5, grid)
        assert want == axioms_by_trial(space, trials, 5, grid)
        for budget in (1, 10**9):
            patch_stack_budget(monkeypatch, spaces, budget)
            assert verify_axioms(space, trials, 5, grid) == want

    def test_homogeneity_exact(self, std_grid, rng):
        f = random_mixture(std_grid, rng)
        space = SpaceNorm(2.0)
        doubled = GridFunction(std_grid, 2.0 * f.values)
        assert space_norm(space, doubled) == pytest.approx(
            2.0 * space_norm(space, f), rel=1e-12
        )

    def test_lattice_monotone(self, std_grid, rng):
        f = random_mixture(std_grid, rng)
        half = GridFunction(std_grid, 0.5 * f.values)
        space = SpaceNorm(2.0)
        assert space_norm(space, half) <= space_norm(space, f)

    def test_trials_validated(self, std_grid):
        with pytest.raises(ValueError):
            verify_axioms(SpaceNorm(2.0), trials=0, seed=1, grid=std_grid)

    def test_report_is_json_ready(self, std_grid):
        checks = verify_axioms(SpaceNorm(2.0), trials=5, seed=3, grid=std_grid)
        for c in checks:
            d = c.to_json()
            assert set(d) == {"axiom", "pass", "worst_slack"}
