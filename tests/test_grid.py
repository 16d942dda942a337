import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convolab import (
    GridFunction,
    dft_pair,
    draw_mixtures,
    make_grid,
    mixture_stack,
    quadrature,
    random_mixture,
    sample,
)
from convolab.grid import STACK_NODES, stacks
from conftest import dft_matrix, draws_by_kind, mixture_by_bump


class TestMakeGrid:
    def test_definitional_arithmetic(self):
        g = make_grid(8.0, 16)
        assert g.dx == 1.0
        assert g.dxi == pytest.approx(math.pi / 8)
        assert g.xi[0] == pytest.approx(-math.pi)
        assert g.xi[-1] == pytest.approx(7 * math.pi / 8)
        assert len(g.t) == len(g.xi) == 16

    def test_step_product_identity(self):
        g = make_grid(math.pi, 8)
        assert g.dx * g.dxi == pytest.approx(2 * math.pi / 8, rel=1e-15)

    @pytest.mark.parametrize("L,n", [(-1.0, 16), (0.0, 16), (8.0, 7), (8.0, 4)])
    def test_invalid_arguments(self, L, n):
        with pytest.raises(ValueError):
            make_grid(L, n)


class TestSample:
    def test_indicator_half_open(self):
        g = make_grid(8.0, 16)
        f = sample("indicator(-1,1)", g)
        expected = {(-1.0): 1.0, 0.0: 1.0}
        for t, v in zip(g.t, f.values):
            assert v.real == expected.get(t, 0.0)

    def test_bump_value_at_origin(self, std_grid):
        f = sample("bump", std_grid)
        origin = std_grid.size // 2
        assert f.values[origin].real == pytest.approx(math.exp(-1), abs=1e-15)

    def test_constant(self, std_grid):
        f = sample("const(1)", std_grid)
        assert np.all(f.values == 1.0)

    @pytest.mark.parametrize(
        "text", ["indicator(nan,1)", "indicator(1)", "gaussian(0,1,7)",
                 "const(1,2)", "xgaussian(2)", "rational_decay(1,2)"],
    )
    def test_bad_arguments_rejected(self, text, std_grid):
        with pytest.raises(ValueError, match="arguments"):
            sample(text, std_grid)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
    def test_rational_decay(self, std_grid, s):
        f = sample(f"rational_decay({s})", std_grid)
        np.testing.assert_allclose(f.values, (1.0 + std_grid.t**2) ** -s, rtol=1e-15)

    def test_rational_decay_exponent_positive(self, std_grid):
        with pytest.raises(ValueError, match="positive"):
            sample("rational_decay(0)", std_grid)

    def test_non_finite_rejected(self, std_grid):
        with pytest.raises(ValueError, match="non-finite"):
            # t = 0 is a node, where this descriptor blows up
            sample(lambda t: np.where(t == 0.0, np.inf, t), std_grid)


class TestQuadrature:
    def test_indicator_length(self):
        g = make_grid(8.0, 2048)
        assert quadrature(sample("indicator(-1,1)", g)).real == pytest.approx(
            2.0, abs=2 * g.dx
        )

    def test_normalized_gaussian(self):
        # oracle: int over [-8, 8] = erf(8/sqrt(2)) = 1 - 1.2e-15
        g = make_grid(8.0, 512)
        f = sample(
            lambda t: np.exp(-(t**2) / 2) / math.sqrt(2 * math.pi), g
        )
        assert quadrature(f).real == pytest.approx(1.0, abs=1e-8)

    def test_zero(self, std_grid):
        assert quadrature(sample("const(0)", std_grid)) == 0.0


class TestTransformPair:
    def test_round_trip_random(self, rng):
        g = make_grid(8.0, 256)
        f = GridFunction(g, rng.normal(size=256) + 1j * rng.normal(size=256))
        back = dft_pair(dft_pair(f, "forward"), "inverse")
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_round_trip_both_orders(self, n, rng):
        g = make_grid(8.0, n)
        f = GridFunction(g, rng.normal(size=n) + 1j * rng.normal(size=n))
        fwd_inv = dft_pair(dft_pair(f, "forward"), "inverse")
        inv_fwd = dft_pair(dft_pair(f, "inverse"), "forward")
        assert np.max(np.abs(fwd_inv.values - f.values)) < 1e-12
        assert np.max(np.abs(inv_fwd.values - f.values)) < 1e-12

    def test_gaussian_closed_form(self):
        # under this convention the Gaussian maps to sqrt(2*pi) * itself
        g = make_grid(16.0, 1024)
        hat = dft_pair(sample(lambda t: np.exp(-(t**2) / 2), g), "forward")
        exact = math.sqrt(2 * math.pi) * np.exp(-(g.xi**2) / 2)
        interior = np.abs(g.xi) <= 6.0
        rel = np.abs(hat.values[interior] - exact[interior]) / exact[interior]
        assert np.max(rel) < 1e-6

    def test_parseval_constant_small_matrix_oracle(self, rng):
        # verify the 2*pi unitarity constant against the dense kernel matrix
        g = make_grid(4.0, 16)
        F = dft_matrix(g, "forward")
        gram = F.conj().T @ F
        expected = (2 * math.pi / g.dxi) * g.dx * np.eye(16)
        assert np.max(np.abs(gram - expected)) < 1e-12

    @pytest.mark.parametrize("n", [64, 256])
    def test_parseval_identity(self, n, rng):
        g = make_grid(8.0, n)
        f = GridFunction(g, rng.normal(size=n) + 1j * rng.normal(size=n))
        hat = dft_pair(f, "forward")
        lhs = np.sum(np.abs(hat.values) ** 2) * g.dxi
        rhs = 2 * math.pi * np.sum(np.abs(f.values) ** 2) * g.dx
        assert abs(lhs - rhs) <= 1e-10 * rhs

    @pytest.mark.parametrize("n", [8, 64, 96, 256])
    def test_direct_summation_matches_fft(self, n, rng):
        g = make_grid(8.0, n)
        f = GridFunction(g, rng.normal(size=n) + 1j * rng.normal(size=n))
        for direction in ("forward", "inverse"):
            fast = dft_pair(f, direction)
            slow = dft_matrix(g, direction) @ f.values
            assert np.max(np.abs(fast.values - slow)) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(-5, 5, allow_nan=False),
        beta=st.floats(-5, 5, allow_nan=False),
        seed=st.integers(0, 2**31),
    )
    def test_linearity(self, alpha, beta, seed):
        g = make_grid(8.0, 64)
        r = np.random.default_rng(seed)
        f = GridFunction(g, r.normal(size=64))
        h = GridFunction(g, r.normal(size=64))
        lhs = dft_pair(GridFunction(g, alpha * f.values + beta * h.values),
                       "forward").values
        rhs = alpha * dft_pair(f, "forward").values + beta * dft_pair(h, "forward").values
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_values_are_a_private_copy(self, dtype):
        src = np.arange(64, dtype=dtype)
        f = GridFunction(make_grid(8.0, 64), src)
        assert not np.shares_memory(f.values, src)
        assert src.flags.writeable and not f.values.flags.writeable
        src[0] = 7.0
        assert f.values[0] == 0.0


class TestMixtureStack:
    """Drawn probes evaluated as one stack, against one probe at a time."""

    @pytest.mark.parametrize("L,n", [(8.0, 256), (16.0, 1024), (5.0, 200)])
    @pytest.mark.parametrize("complex_values", [False, True],
                             ids=["real", "complex"])
    def test_rows_equal_sequential_random_mixtures(self, L, n,
                                                   complex_values):
        # random_mixture is the one-probe case: a stack of one-probe draws
        # holds the probes of as many random_mixture calls
        grid = make_grid(L, n)
        drawn, one = (np.random.default_rng(n) for _ in range(2))
        draws = np.vstack([draw_mixtures(grid, drawn, 1, complex_values)
                           for _ in range(12)])
        stack = mixture_stack(grid, draws)
        assert stack.shape == (12, n)
        for row, draw in zip(stack, draws):
            assert np.array_equal(
                row, random_mixture(grid, one, complex_values).values)
            assert np.array_equal(row, mixture_by_bump(grid, draw).values)
        assert drawn.bit_generator.state == one.bit_generator.state

    @pytest.mark.parametrize("L,n", [(8.0, 256), (16.0, 1024), (5.0, 200)])
    @pytest.mark.parametrize("complex_values", [False, True],
                             ids=["real", "complex"])
    def test_rows_equal_one_row_evaluations(self, L, n, complex_values):
        grid = make_grid(L, n)
        draws = draw_mixtures(grid, np.random.default_rng(n), 12,
                              complex_values)
        stack = mixture_stack(grid, draws)
        for i, row in enumerate(stack):
            assert np.array_equal(row, mixture_stack(grid, draws[i:i + 1])[0])
            assert np.array_equal(row, mixture_by_bump(grid, draws[i]).values)

    @pytest.mark.parametrize("L,n", [(8.0, 256), (16.0, 1024), (3.0, 64)])
    @pytest.mark.parametrize("complex_values", [False, True],
                             ids=["real", "complex"])
    def test_draws_equal_uniform_and_normal_calls(self, L, n, complex_values):
        # one rng.uniform or rng.standard_normal call per kind of scalar,
        # with the same generator state after
        grid = make_grid(L, n)
        for seed in range(20):
            fast, oracle = (np.random.default_rng(seed) for _ in range(2))
            for count in (1, 3, 40):
                draws = draw_mixtures(grid, fast, count, complex_values)
                assert draws.shape == (count, 15)
                assert draws.dtype == (np.complex128 if complex_values
                                       else np.float64)
                assert np.array_equal(
                    draws, draws_by_kind(grid, oracle, count, complex_values))
            assert fast.bit_generator.state == oracle.bit_generator.state

    @pytest.mark.parametrize("L,n", [(8.0, 256), (16.0, 1024), (3.0, 64)])
    def test_real_draws_stack_in_float64(self, L, n):
        grid = make_grid(L, n)
        rng = np.random.default_rng(n)
        real = draw_mixtures(grid, rng, 8)
        stack = mixture_stack(grid, real)
        assert stack.dtype == np.float64
        cplx = mixture_stack(grid, draw_mixtures(grid, rng, 8, True))
        assert cplx.dtype == np.complex128
        # the same draws as complex numbers accumulate in complex128
        as_complex = mixture_stack(grid, real.astype(complex))
        assert as_complex.dtype == np.complex128
        assert not as_complex.imag.any()
        assert np.array_equal(stack, as_complex.real)
        assert np.array_equal(np.abs(stack), np.abs(as_complex))
        f = random_mixture(grid, np.random.default_rng(n))
        one = mixture_stack(grid, draw_mixtures(grid, np.random.default_rng(n),
                                                1))
        assert np.array_equal(f.values, one[0]) and not f.values.imag.any()

    def test_vanishing_row_gets_the_centre_node(self, std_grid):
        # zero amplitudes and height: the row falls back to a unit spike
        zero = (0.0, 1.0, 0.0) * 4 + (-1.0, 1.0, 0.0)
        live = draw_mixtures(std_grid, np.random.default_rng(0), 1)[0]
        stack = mixture_stack(std_grid, np.array([live, zero]))
        spike = np.zeros(std_grid.size)
        spike[std_grid.size // 2] = 1.0
        assert np.array_equal(stack[1], spike)
        assert np.count_nonzero(stack[0]) > 1


class TestStacks:
    """The one planner of how many probes a harness takes per call."""

    # 16 items of 1024 nodes fill the default budget; 20 leaves a ragged
    # last range, and 5 items of 12 * 256 nodes fill it at the axiom chunk
    @pytest.mark.parametrize("count,nodes,budget,sizes", [
        (16, 1024, STACK_NODES, [16]),
        (20, 1024, STACK_NODES, [16, 4]),
        (12, 12 * 256, STACK_NODES, [5, 5, 2]),
        (9, 1024, 4096, [4, 4, 1]),
        (1, 256, 4096, [1]),
        (0, 256, 4096, []),
    ])
    def test_ranges_cover_the_items_in_order_within_the_budget(
            self, count, nodes, budget, sizes):
        got = stacks(count, nodes, budget)
        assert [len(r) for r in got] == sizes
        assert [i for r in got for i in r] == list(range(count))
        assert all(len(r) * nodes <= budget for r in got)

    def test_items_wider_than_the_budget_go_one_per_range(self):
        got = stacks(3, 2 * STACK_NODES)
        assert got == [range(0, 1), range(1, 2), range(2, 3)]
        assert stacks(2, STACK_NODES + 1, STACK_NODES) == [range(0, 1),
                                                            range(1, 2)]

    def test_default_budget_is_the_stack_budget(self):
        assert stacks(40, 1024) == stacks(40, 1024, STACK_NODES)
        assert STACK_NODES == 2**14
