import math
from dataclasses import dataclass

import numpy as np
import pytest

from convolab import (
    GridFunction,
    InconclusiveError,
    Grid,
    Mollifier,
    SpaceNorm,
    Symbol,
    apply_multiplier,
    band_limited_probe,
    cli,
    convolve,
    dft_pair,
    fourier,
    make_grid,
    maximal_function,
    mollify_sweep,
    multiplier_norm_lower_bound,
    parse_symbol,
    quadrature,
    random_mixture,
    sample,
    space_norm,
)
from convolab.grid import STACK_NODES, filter_rows
from conftest import (
    ORACLE_GRIDS,
    ORACLE_SPACES,
    dft_matrix,
    multiplier_bound_by_trial,
    patch_stack_budget,
)

L2 = SpaceNorm(2.0)


def three_transform_multiplier(f, m):
    """Reference route: forward transform, multiply by ``m``, inverse transform."""
    hat = dft_pair(f, "forward")
    return dft_pair(GridFunction(f.grid, hat.values * m), "inverse").values


# (L, n): dx and n powers of two, so the cancelled scales are exact
EXACT_GRIDS = [(8.0, 256), (16.0, 1024), (16.0, 4096)]
ROUNDED_GRIDS = [(5.0, 200), (8.0, 1000)]
REFERENCE_SYMBOLS = ["arctan", "indicator(-1,1)", "rational_decay(1)"]


def _operator_pairs(L, n):
    """(one FFT pair, reference) for each operator call: the reference is
    the three-transform route, and for one function filtered by a stack of
    spectra it is one 1-D call per spectrum."""
    grid = make_grid(L, n)
    rng = np.random.default_rng(n)
    f = random_mixture(grid, rng, complex_values=True)
    g = random_mixture(grid, rng, complex_values=True)
    for text in REFERENCE_SYMBOLS:
        a = parse_symbol(text)
        yield apply_multiplier(a, f).values, three_transform_multiplier(f, a(grid.xi))
    ref = three_transform_multiplier(f, dft_pair(g, "forward").values)
    yield convolve(f, g).values, ref
    spectra = np.array([parse_symbol(text)(grid.xi) for text in REFERENCE_SYMBOLS])
    yield (filter_rows(f.values, spectra),
           np.array([filter_rows(f.values, m) for m in spectra]))


@pytest.mark.parametrize("L,n", EXACT_GRIDS)
def test_one_fft_pair_is_bit_identical_on_power_of_two_grids(L, n):
    for got, ref in _operator_pairs(L, n):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("L,n", ROUNDED_GRIDS)
def test_one_fft_pair_matches_reference_to_rounding(L, n):
    for got, ref in _operator_pairs(L, n):
        assert np.max(np.abs(got - ref)) <= 4e-15 * np.max(np.abs(ref))


def direct_convolution(f, g):
    """Independent oracle: literal quadrature sum, zero outside the domain."""
    n = f.grid.size
    full = np.convolve(f.values, g.values)
    return f.grid.dx * full[n // 2 : n // 2 + n]


class TestApplyMultiplier:
    def test_identity_symbol(self, std_grid, rng):
        f = random_mixture(std_grid, rng, complex_values=True)
        out = apply_multiplier(parse_symbol("const(1)"), f)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_modulation_symbol_translates(self, std_grid, rng):
        # e^{i tau x} in frequency is translation by tau in space (circular)
        f = random_mixture(std_grid, rng, complex_values=True)
        m = 12
        tau = m * std_grid.dx
        e_tau = Symbol(lambda x: np.exp(1j * tau * x), label="e_tau")
        out = apply_multiplier(e_tau, f)
        assert np.max(np.abs(out.values - np.roll(f.values, m))) < 1e-10

    def test_disjoint_frequency_supports_annihilate(self, std_grid):
        f = band_limited_probe(std_grid, (6.0, 7.0))
        out = apply_multiplier(parse_symbol("indicator(-1,1)"), f)
        assert space_norm(L2, out) < 1e-10

    def test_composition_is_pointwise_product(self, std_grid, rng):
        a = parse_symbol("rational_decay(1)")
        b = parse_symbol("arctan")
        ab = Symbol(lambda x: a(x) * b(x), label="a*b")
        f = random_mixture(std_grid, rng, complex_values=True)
        two_step = apply_multiplier(a, apply_multiplier(b, f))
        one_step = apply_multiplier(ab, f)
        assert np.max(np.abs(two_step.values - one_step.values)) < 1e-10

    def test_l2_bound_with_equality_probe(self, std_grid, rng):
        a = parse_symbol("rational_decay(1)")
        peak = float(np.max(np.abs(a(std_grid.xi))))
        for _ in range(20):
            f = random_mixture(std_grid, rng, complex_values=True)
            ratio = space_norm(L2, apply_multiplier(a, f)) / space_norm(L2, f)
            assert ratio <= peak + 1e-10
        spike = np.zeros(std_grid.size, dtype=complex)
        spike[int(np.argmax(np.abs(a(std_grid.xi))))] = 1.0
        probe = dft_pair(GridFunction(std_grid, spike), "inverse")
        ratio = space_norm(L2, apply_multiplier(a, probe)) / space_norm(L2, probe)
        assert ratio == pytest.approx(peak, abs=1e-10)


class TestConvolve:
    def test_indicator_square_is_hat(self):
        g = make_grid(8.0, 2048)
        chi = sample("indicator(0,1)", g)
        got = convolve(chi, chi)
        oracle = direct_convolution(chi, chi)
        center = np.abs(g.t) < g.half_width / 2
        assert np.max(np.abs(got.values[center] - oracle[center])) < 1e-8
        j = int(np.argmin(np.abs(g.t - 1.0)))
        assert got.values[j].real == pytest.approx(1.0, abs=2 * g.dx)

    def test_matches_direct_quadrature(self, std_grid, rng):
        f = random_mixture(std_grid, rng)
        h = random_mixture(std_grid, rng)
        got = convolve(f, h).values
        oracle = direct_convolution(f, h)
        center = np.abs(std_grid.t) < std_grid.half_width / 2
        assert np.max(np.abs(got[center] - oracle[center])) < 1e-8

    def test_narrow_kernel_approximates_identity(self, fine_grid):
        f = sample("gaussian", fine_grid)
        phi = Mollifier("gaussian", fine_grid)
        errors = [
            space_norm(L2, GridFunction(
                fine_grid, filter_rows(f.values, phi.spectrum(w)) - f.values))
            for w in (0.5, 0.25, 0.125)
        ]
        assert errors[2] < errors[1] < errors[0]
        assert errors[2] < 0.01

    def test_youngs_inequality(self, std_grid, rng):
        for _ in range(100):
            f = random_mixture(std_grid, rng)
            h = random_mixture(std_grid, rng)
            lhs = space_norm(L2, convolve(f, h))
            l1 = quadrature(GridFunction(std_grid, np.abs(h.values))).real
            rhs = space_norm(L2, f) * l1
            assert lhs <= rhs * (1 + 1e-9) + 1e-12

    def test_grid_mismatch(self, rng):
        f = GridFunction(make_grid(8.0, 64), np.ones(64))
        h = GridFunction(make_grid(8.0, 128), np.ones(128))
        with pytest.raises(ValueError, match="mismatch"):
            convolve(f, h)


class TestMollifier:
    def test_gaussian_normalization_and_majorant(self, fine_grid):
        phi = Mollifier("gaussian", fine_grid)
        assert abs(quadrature(phi.kernel) - 1.0) < 1e-10
        assert phi.majorant_l1 == pytest.approx(1.0, abs=1e-8)

    def test_bump_spectrum_band_limit(self, fine_grid):
        phi = Mollifier("bump_spectrum", fine_grid)
        hat = dft_pair(phi.kernel, "forward")
        outside = np.abs(fine_grid.xi) > 1.0
        assert np.max(np.abs(hat.values[outside])) < 1e-10
        assert abs(quadrature(phi.kernel) - 1.0) < 1e-10

    def test_bump_majorant_dominates_kernel(self, fine_grid):
        phi = Mollifier("bump_spectrum", fine_grid)
        assert np.all(
            phi.majorant.values.real >= np.abs(phi.kernel.values) - 1e-15
        )
        assert phi.majorant_l1 >= 1.0

    def test_scaled_conv_stays_in_scaled_band(self, fine_grid):
        phi = Mollifier("bump_spectrum", fine_grid)
        g = sample("bump", fine_grid)
        for delta in (1.0, 0.5):
            out = GridFunction(fine_grid, filter_rows(g.values, phi.spectrum(delta)))
            hat = dft_pair(out, "forward")
            dead = np.abs(delta * fine_grid.xi) >= 1.0
            assert np.max(np.abs(hat.values[dead])) < 1e-9

    def test_scale_validation(self, fine_grid):
        phi = Mollifier("gaussian", fine_grid)
        with pytest.raises(ValueError, match="resolution"):
            phi.spectrum(0.1 * fine_grid.dx)
        for delta in (-1.0, math.nan):  # NaN would give a NaN spectrum
            with pytest.raises(ValueError, match="resolution"):
                phi.spectrum(delta)
        bump = Mollifier("bump_spectrum", fine_grid)
        with pytest.raises(ValueError, match="resolution"):
            bump.spectrum(1.0 / (2 * fine_grid.freq_edge))

    @pytest.mark.parametrize("kind", ["gaussian", "bump_spectrum"])
    def test_unit_scale_is_the_kernel(self, kind, fine_grid):
        phi = Mollifier(kind, fine_grid)
        kernel = dft_pair(GridFunction(fine_grid, phi.spectrum(1.0)), "inverse")
        assert np.array_equal(kernel.values, phi.kernel.values)

    @pytest.mark.parametrize("delta", [1.0, 0.5, 0.1])
    def test_spectrum_unit_mass_and_exact_band(self, delta, fine_grid):
        bump = Mollifier("bump_spectrum", fine_grid).spectrum(delta)
        gauss = Mollifier("gaussian", fine_grid).spectrum(delta)
        centre = fine_grid.size // 2
        assert bump[centre] == 1.0 and gauss[centre] == 1.0
        dead = np.abs(delta * fine_grid.xi) >= 1.0
        assert dead.any() and not bump[dead].any()

    def test_unknown_kind(self, fine_grid):
        with pytest.raises(ValueError, match="kind"):
            Mollifier("sinc", fine_grid)

    def test_misspelt_kind_raises_when_built(self, fine_grid):
        # a misspelt kind once built a mollifier with the bump's spectrum
        with pytest.raises(ValueError) as err:
            Mollifier("gausian", fine_grid)
        assert str(err.value) == ("kind must be 'gaussian' or 'bump_spectrum', "
                                  "got 'gausian'")

    @pytest.mark.parametrize("kind", ["gaussian", "bump_spectrum"])
    @pytest.mark.parametrize("grid_name", ["std_grid", "fine_grid"])
    def test_majorant_matches_loop_reference(self, kind, grid_name, request):
        grid = request.getfixturevalue(grid_name)
        phi = Mollifier(kind, grid)
        av = np.abs(phi.kernel.values)
        expected = np.empty_like(av)
        running = 0.0
        for i in np.argsort(-np.abs(grid.t), kind="stable"):
            running = max(running, av[i])
            expected[i] = running
        got = phi.majorant.values
        assert got.real.tobytes() == expected.tobytes()
        assert not got.imag.any()


def density_command(f, phi, out):
    """The ``density`` command at epsilon 1e-6 on phi's grid, whose ``f``,
    ``indicator(-1,1)``, must be the ``f`` given."""
    assert np.array_equal(f.values, sample("indicator(-1,1)", phi.grid).values)
    config = out / "density.ini"
    config.write_text(f"[grid]\nL = {phi.grid.half_width!r}\nn = {phi.grid.size}\n"
                      "[density]\nf = indicator(-1,1)\nepsilon = 1e-6\n")
    # 1e-6 is below every rung's error: the run fails its gate, not its input
    assert cli.main(["density", "--config", str(config),
                     "--out", str(out)]) == cli.ASSERTION_FAILURE


class TestMollifySweep:
    # on the fine grid (16, 1024) the ladder is 1 .. dx/2 = 1/64

    def test_smooth_probe_second_order(self, fine_grid):
        f = sample("gaussian", fine_grid)
        phi = Mollifier("gaussian", fine_grid)
        rows = mollify_sweep(f, phi, L2)
        errs = [r.error for r in rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-3
        for e1, e2 in zip(errs, errs[1:]):
            assert 0.25 / 1.5 <= e2 / e1 <= 0.25 * 1.5
        assert all(r.pointwise_ok for r in rows)

    def test_indicator_probe_half_order_trend(self, fine_grid):
        chi = sample("indicator(-1,1)", fine_grid)
        phi = Mollifier("gaussian", fine_grid)
        rows = mollify_sweep(chi, phi, L2)
        errs = [r.error for r in rows]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        # resolved scales follow the boundary-layer rate sqrt(delta)
        for e1, e2 in zip(errs[1:5], errs[2:6]):
            assert 0.5 <= e2 / e1 <= 0.85
        assert all(r.pointwise_ok for r in rows)

    def test_pointwise_bound_both_kernels(self, fine_grid):
        for kind in ("gaussian", "bump_spectrum"):
            phi = Mollifier(kind, fine_grid)
            for probe in ("gaussian", "indicator(-1,1)"):
                rows = mollify_sweep(sample(probe, fine_grid), phi, L2)
                assert all(r.pointwise_ok for r in rows)

    @pytest.mark.parametrize("L,n,last", [(8.0, 256, 1 / 32), (16.0, 1024, 1 / 64),
                                          (24.0, 256, 0.09375)])
    def test_ladder_halves_down_to_the_grid_floor(self, L, n, last):
        grid = make_grid(L, n)
        f = sample("gaussian", grid)
        deltas, smoothed, errors = Mollifier("gaussian", grid).ladder(f, L2)
        assert smoothed.shape == (len(deltas), n) and errors.shape == (len(deltas),)
        halvings = [1 / 2**i for i in range(len(deltas) - 1)]
        assert deltas == halvings + [last]
        assert last == 0.5 * grid.dx and halvings[-1] / 2 <= last

    def test_ladder_refuses_a_function_on_another_grid(self):
        # smoothing with another grid's spectra gave errors 0.509, 0.256,
        # 0.088 where f's own grid gives 0.362, 0.125, 0.035
        f = sample("gaussian", make_grid(16.0, 256))
        with pytest.raises(ValueError, match="grid mismatch"):
            Mollifier("gaussian", make_grid(8.0, 256)).ladder(f, L2)

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    def test_ladder_refuses_a_function_of_norm_zero(self, gamma):
        # the zero function, and at gamma > 0 one nonzero only at t = 0,
        # where the weight is 0: every rung would match it
        grid = make_grid(8.0, 256)
        f = GridFunction(grid, (np.arange(grid.size) == grid.size // 2) * (gamma > 0))
        with pytest.raises(ValueError, match="f is zero in the space"):
            Mollifier("gaussian", grid).ladder(f, SpaceNorm(2.0, gamma))

    @pytest.mark.parametrize("caller, norm_calls", [
        (lambda f, phi, out: phi.ladder(f, L2), 1),
        (lambda f, phi, out: mollify_sweep(f, phi, L2), 2),
        (density_command, 1)],
        ids=["ladder", "mollify_sweep", "density"])
    def test_ladder_is_one_filter_call_and_one_norm_call(
            self, caller, norm_calls, fine_grid, tmp_path, capsys, monkeypatch):
        # every rung in one (rungs, n) stack: one filter call and one norm
        # call on smoothed - f; mollify_sweep adds the smoothed norms
        calls = []

        def spy(name):
            exact = getattr(fourier, name)

            def call(*args):
                calls.append((name, np.shape(args[-1])))
                return exact(*args)
            monkeypatch.setattr(fourier, name, call)

        spy("filter_rows")
        spy("space_norms")
        f = sample("indicator(-1,1)", fine_grid)
        caller(f, Mollifier("bump_spectrum", fine_grid), tmp_path)
        stack = (7, fine_grid.size)  # delta = 1 .. 1/64
        assert calls == [("filter_rows", stack),
                         *[("space_norms", stack)] * norm_calls]


class TestMultiplierNormLowerBound:
    def test_trials_validated(self, std_grid):
        m = parse_symbol("indicator(-1,1)")(std_grid.xi)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            multiplier_norm_lower_bound(m, L2, 0, 1, std_grid)

    def test_against_dense_operator_oracle(self, rng):
        # assemble Finv diag(a) F explicitly and take its spectral norm
        g = make_grid(4.0, 16)
        for label in ("indicator(-1,1)", "rational_decay(1)", "arctan"):
            a = parse_symbol(label)
            dense = dft_matrix(g, "inverse") @ np.diag(a(g.xi)) @ dft_matrix(
                g, "forward"
            )
            # operator norm on L2 of the grid: the dx weights cancel
            oracle = float(np.linalg.norm(dense, 2))
            got = multiplier_norm_lower_bound(a(g.xi), L2, trials=5, seed=3,
                                              grid=g)
            assert got.lower == pytest.approx(oracle, abs=1e-10)

    def test_indicator_diagonal_norm(self, std_grid):
        got = multiplier_norm_lower_bound(
            parse_symbol("indicator(-1,1)")(std_grid.xi), L2, trials=5, seed=1,
            grid=std_grid)
        assert got.lower == pytest.approx(1.0, abs=1e-10)

    def test_rational_peak_at_zero_node(self, std_grid):
        got = multiplier_norm_lower_bound(
            parse_symbol("rational_decay(1)")(std_grid.xi), L2, trials=5, seed=1,
            grid=std_grid)
        assert got.lower == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("p, gamma", [(3.0, -0.5), (1.5, 0.0)])
    def test_spike_probe_reaches_symbol_max_in_every_space(self, p, gamma):
        # the pure-frequency probe is an eigenvector of W(a) with constant
        # modulus; random probes alone stay far below max|a| for arctan
        g = make_grid(8.0, 256)
        a = parse_symbol("arctan")
        peak = float(np.max(np.abs(a(g.xi))))
        got = multiplier_norm_lower_bound(a(g.xi), SpaceNorm(p, gamma), trials=5,
                                          seed=1, grid=g)
        assert abs(got.spike - peak) <= 1e-12 * peak
        assert got.lower >= got.spike

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_identity_symbol_any_exponent(self, p, std_grid):
        got = multiplier_norm_lower_bound(
            parse_symbol("const(1)")(std_grid.xi), SpaceNorm(p), trials=10, seed=2,
            grid=std_grid)
        assert got.lower == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("L,n", ORACLE_GRIDS)
    @pytest.mark.parametrize("p,gamma", ORACLE_SPACES)
    def test_equals_one_probe_oracle(self, p, gamma, L, n):
        # 1 probe, one full stack, and one stack and a ragged remainder
        grid = make_grid(L, n)
        space = SpaceNorm(p, gamma)
        chunk = STACK_NODES // n
        for trials in (1, chunk, chunk + 4):
            for text in ("arctan", "indicator(-1,1)"):
                a = parse_symbol(text)
                assert (multiplier_norm_lower_bound(a(grid.xi), space, trials,
                                                    trials, grid)
                        == multiplier_bound_by_trial(a, space, trials, trials, grid))

    @pytest.mark.parametrize("L,n", ORACLE_GRIDS)
    def test_same_result_for_any_stack_budget(self, L, n, monkeypatch):
        # the probes are drawn before the first stack, so one probe per
        # call and all probes in one call give the same bound; in L^3 a
        # random probe beats the indicator's pure-frequency probe
        grid = make_grid(L, n)
        space = SpaceNorm(3.0, -0.5)
        m = parse_symbol("indicator(-1,1)")(grid.xi)
        trials = STACK_NODES // n + 3
        want = multiplier_norm_lower_bound(m, space, trials, 5, grid)
        for budget in (1, 10**9):
            patch_stack_budget(monkeypatch, fourier, budget)
            assert multiplier_norm_lower_bound(m, space, trials, 5, grid) == want

    @pytest.mark.parametrize("trials", [1, 16, 20])
    def test_one_fft_pair_and_two_norm_calls_per_stack(self, trials,
                                                       monkeypatch):
        # one loop over the stacks of trials + 1 probes, the spike probe
        # first, each of at most STACK_NODES nodes: its probes' norms, one
        # filter call, its images' norms
        grid = make_grid(16.0, 1024)
        calls = []

        def spy(name, exact, rows_at):
            def call(*args):
                calls.append((name, args[rows_at].shape))
                return exact(*args)
            monkeypatch.setattr(fourier, name, call)

        spy("space_norms", fourier.space_norms, 2)
        spy("filter_rows", fourier.filter_rows, 0)
        m = parse_symbol("arctan")(grid.xi)
        got = multiplier_norm_lower_bound(m, SpaceNorm(3.0), trials, seed=1,
                                          grid=grid)
        chunk = STACK_NODES // grid.size
        assert chunk == 16
        want = []
        for done in range(0, trials + 1, chunk):
            shape = (min(chunk, trials + 1 - done), grid.size)
            want += [("space_norms", shape), ("filter_rows", shape),
                     ("space_norms", shape)]
        assert calls == want
        assert all(rows * n <= STACK_NODES for _, (rows, n) in calls)
        peak = np.max(np.abs(m))
        assert abs(got.spike - peak) <= 1e-12 * peak

    @pytest.mark.parametrize("scale", [1e-160, 1e-104, 1e300])
    @pytest.mark.parametrize("p, gamma", [(2.0, 0.0), (3.0, -0.5)])
    def test_bound_scales_with_the_symbol(self, scale, p, gamma):
        # the filter is m / max|m|: the powers of the images of a tiny or a
        # huge symbol neither underflow nor overflow
        grid = make_grid(8.0, 256)
        m = parse_symbol("arctan")(grid.xi)
        space = SpaceNorm(p, gamma)
        want = multiplier_norm_lower_bound(m, space, 5, 1, grid)
        got = multiplier_norm_lower_bound(scale * m, space, 5, 1, grid)
        assert got.lower == pytest.approx(scale * want.lower, rel=1e-14)
        assert got.spike == pytest.approx(scale * want.spike, rel=1e-14)


@dataclass(frozen=True)
class EmbeddingReport:
    sup_f: float
    sup_xf: float
    norm_f: float
    norm_indicator: float
    norm_maximal_indicator: float
    lhs: float
    rhs: float
    ok: bool


def schwartz_embedding_check(f_expr, space: SpaceNorm, grid: Grid) -> EmbeddingReport:
    """Verify the rapid-decay embedding bound on a concrete space.

    For decaying smooth ``f`` the norm is dominated by
    ``sup|f| * |chi_[-1,1]| + sup|x f(x)| * |M chi_[-1,1]|``; both sides
    are computed numerically and the inequality asserted with 1e-8 slack.
    A descriptor whose ``|x f(x)|`` does not decay over the window is
    rejected as inconclusive.
    """
    f = sample(f_expr, grid)

    # dense sampling (8x the grid) for the two decay seminorms
    dense = make_grid(grid.half_width, 8 * grid.size)
    fd = sample(f_expr, dense).values
    sup_f = float(np.max(np.abs(fd)))
    xf = np.abs(dense.t * fd)
    sup_xf = float(np.max(xf))
    outer = np.abs(dense.t) > 0.9 * grid.half_width
    if sup_xf > 0 and float(np.max(xf[outer])) > 0.5 * sup_xf:
        raise InconclusiveError(
            "descriptor does not decay over the window: |x f(x)| is still "
            "near its maximum in the outer 10% band"
        )

    chi = sample("indicator(-1,1)", grid)
    mchi = maximal_function(chi, "fast")
    norm_f = space_norm(space, f)
    norm_chi = space_norm(space, chi)
    norm_mchi = space_norm(space, mchi)
    rhs = sup_f * norm_chi + sup_xf * norm_mchi
    return EmbeddingReport(
        sup_f=sup_f,
        sup_xf=sup_xf,
        norm_f=norm_f,
        norm_indicator=norm_chi,
        norm_maximal_indicator=norm_mchi,
        lhs=norm_f,
        rhs=rhs,
        ok=bool(norm_f <= rhs + 1e-8),
    )


class TestSchwartzEmbedding:
    def test_gaussian_strict_slack(self, std_grid):
        report = schwartz_embedding_check("gaussian", L2, std_grid)
        assert report.ok
        assert report.lhs < report.rhs

    def test_zero_function(self, std_grid):
        report = schwartz_embedding_check("const(0)", L2, std_grid)
        assert report.ok
        assert report.lhs == report.rhs == 0.0

    def test_weighted_space(self, std_grid):
        report = schwartz_embedding_check("xgaussian", SpaceNorm(3.0, 1.0), std_grid)
        assert report.ok

    def test_non_decaying_descriptor_inconclusive(self, std_grid):
        with pytest.raises(InconclusiveError):
            schwartz_embedding_check("const(1)", L2, std_grid)
