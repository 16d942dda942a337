import math
import warnings

import numpy as np
import pytest

from convolab import (
    InconclusiveError,
    Symbol,
    TailBehavior,
    parse_symbol,
    shift_symbol,
    symbol_norms,
    tail_truncate,
)
from conftest import refined_norms, tail_sup


def _scaled(a, alpha):
    tail = TailBehavior(a.tail.radius, alpha * a.tail.limit_neg,
                        alpha * a.tail.limit_pos)
    return Symbol(lambda x: alpha * a(x), a.breakpoints, tail,
                  f"{alpha}*{a.label}")


def _added(a, b):
    # valid for positive combinations of symbols whose tails decay to 0
    # in the same direction (sums of monotone tails stay monotone)
    tail = TailBehavior(
        max(a.tail.radius, b.tail.radius),
        a.tail.limit_neg + b.tail.limit_neg,
        a.tail.limit_pos + b.tail.limit_pos,
    )
    return Symbol(lambda x: a(x) + b(x), a.breakpoints + b.breakpoints,
                  tail, f"{a.label}+{b.label}")


def _sin_inverse():
    # sin(1/x) has infinite variation near 0, so its declaration is false
    def fn(x):
        x = np.asarray(x, float)
        safe = np.where(x == 0.0, 1e-300, x)
        return np.sin(1.0 / safe)

    return Symbol(fn, (0.0,), TailBehavior(1.0, 0.0, 0.0), "sin(1/x)")


def _oscillating_imag():
    # monotone real part, oscillating imaginary part
    return Symbol(lambda x: np.arctan(x) + 1j * np.sin(x), (),
                  TailBehavior(0.0, -math.pi / 2, math.pi / 2),
                  "arctan+i*sin")


# every descriptor the tests take norms of, truncations included
ORACLE_DESCRIPTORS = [
    "indicator(-1,1)", "indicator(-2,1)", "indicator(0.5,3)",
    "indicator(-2,3)", "indicator(6,7)", "shift(indicator(6,7),6)",
    "shift(indicator(2,3),-1)", "truncate(shift(indicator(6,7),6),5)",
    "const(-2.5)", "const(0.7)", "const(1)", "const(2)", "arctan",
    "shift(arctan,13.7)", "rational_decay(0.5)", "rational_decay(1)",
    "rational_decay(2)", "truncate(const(1),2)", "truncate(const(1),17)",
    "truncate(indicator(-1,1),2)",
] + [f"truncate(rational_decay(1),{n})" for n in (1, 2, 3, 4, 8, 16)] + [
    f"truncate({inner},{n})"
    for inner in ("rational_decay(1)", "indicator(-1,1)")
    for n in (5, 6, 9, 10, 17, 18, 33, 34)
]


def _oracle_symbols():
    yield from (parse_symbol(text) for text in ORACLE_DESCRIPTORS)
    for text, alpha in (("indicator(-2,1)", -3.0), ("rational_decay(1)", 0.5),
                        ("arctan", 2.0)):
        yield _scaled(parse_symbol(text), alpha)
    yield _added(_scaled(parse_symbol("indicator(-1,1)"), 1.5),
                 _scaled(parse_symbol("rational_decay(2)"), 0.7))
    yield _added(parse_symbol("indicator(0.5,3)"), parse_symbol("rational_decay(1)"))
    yield _added(parse_symbol("rational_decay(1)"), parse_symbol("rational_decay(2)"))


class TestGrammar:
    def test_parse_nested(self):
        a = parse_symbol("truncate(shift(indicator(6,7),6),5)")
        assert a(np.array([0.5]))[0] == 0.0  # truncation zeroes [-5,5]
        assert a(np.array([5.5]))[0] == 0.0  # shifted support was [0,1]

    def test_unknown_descriptor(self):
        with pytest.raises(ValueError, match="unknown symbol"):
            parse_symbol("mystery(1)")

    @pytest.mark.parametrize(
        "text",
        ["indicator(1)", "indicator(nan,1)", "shift(arctan,nan)",
         "truncate(arctan,inf)", "arctan(5)", "const(1,2)"],
    )
    def test_bad_arguments_rejected(self, text):
        with pytest.raises(ValueError, match="arguments"):
            parse_symbol(text)

    def test_indicator_is_closed(self):
        a = parse_symbol("indicator(-1,1)")
        assert list(a(np.array([-1.0, 1.0, 1.0 + 1e-12])).real) == [1.0, 1.0, 0.0]


class TestSymbolNorms:
    def test_indicator_constants_exact(self, rng):
        for _ in range(10):
            c = rng.uniform(-10, 9)
            d = c + rng.uniform(0.1, 5)
            norms = symbol_norms(parse_symbol(f"indicator({c},{d})"))
            assert abs(norms.sup_norm - 1.0) < 1e-12
            assert abs(norms.variation - 2.0) < 1e-12
            assert abs(norms.v_norm - 3.0) < 1e-12

    def test_constant_symbol(self):
        norms = symbol_norms(parse_symbol("const(-2.5)"))
        assert norms == pytest.approx((2.5, 0.0, 2.5), abs=1e-12)

    def test_arctan_range(self):
        norms = symbol_norms(parse_symbol("arctan"))
        assert norms.sup_norm == pytest.approx(math.pi / 2, abs=1e-12)
        assert norms.variation == pytest.approx(math.pi, abs=1e-12)
        assert norms.v_norm == pytest.approx(3 * math.pi / 2, abs=1e-12)

    def test_rational_decay(self):
        norms = symbol_norms(parse_symbol("rational_decay(1)"))
        assert norms.sup_norm == pytest.approx(1.0, abs=1e-10)
        assert norms.variation == pytest.approx(2.0, abs=1e-10)

    def test_undeclared_tail_is_inconclusive(self):
        bare = Symbol(np.cos)
        with pytest.raises(InconclusiveError):
            symbol_norms(bare)

    def test_window_wider_than_floats_is_inconclusive(self):
        # W = 1e308 makes the window's width 2e308 = inf, and its samples
        # inf and NaN; at W = 1e307 the window samples cleanly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InconclusiveError, match="overflows"):
                symbol_norms(parse_symbol("shift(arctan,1e308)"))
        norms = symbol_norms(parse_symbol("shift(arctan,1e307)"))
        assert norms == pytest.approx((math.pi / 2, math.pi, 1.5 * math.pi))

    def test_non_finite_sample_is_inconclusive(self):
        # a NaN norm would let stechkin's sup gate, lower > nan, pass
        a = parse_symbol("rational_decay(1)")
        one_nan = Symbol(lambda x: np.where(x == 0.0, np.nan, a(x)),
                         a.breakpoints, a.tail, "one_nan")  # 0 is a sample node
        for bad in (shift_symbol(a, math.nan), one_nan):
            with pytest.raises(InconclusiveError, match="non-finite"):
                symbol_norms(bad)

    @pytest.mark.parametrize("a,refused", [
        pytest.param(_sin_inverse(), True, id="sin_inverse"),
        pytest.param(_oscillating_imag(), True, id="oscillating_imag"),
        pytest.param(parse_symbol("truncate(rational_decay(1),9)"), False,
                     id="truncated_jump"),
    ])
    def test_unbounded_variation_refuses_to_converge(self, a, refused):
        # a declaration that is false between breakpoints is refused; a
        # declared jump at a breakpoint (the cutoff of a truncation) is not
        if refused:
            with pytest.raises(InconclusiveError, match="monotone"):
                symbol_norms(a)
        else:
            assert symbol_norms(a).variation > 0

    @pytest.mark.parametrize("a", list(_oracle_symbols()),
                             ids=lambda a: a.label)
    def test_matches_refined_oracle(self, a):
        got, want = symbol_norms(a), refined_norms(a)
        assert got == pytest.approx(want, abs=1e-12, rel=0)

    def test_scaling_homogeneity(self, rng):
        base = [parse_symbol("indicator(-2,1)"), parse_symbol("rational_decay(1)"),
                parse_symbol("arctan")]
        for a in base:
            va = symbol_norms(a).variation
            for alpha in (-3.0, 0.5, 2.0):
                vs = symbol_norms(_scaled(a, alpha)).variation
                assert abs(vs - abs(alpha) * va) <= 1e-9

    def test_subadditivity(self, rng):
        pool = [parse_symbol("indicator(-1,1)"), parse_symbol("indicator(0.5,3)"),
                parse_symbol("rational_decay(1)"), parse_symbol("rational_decay(2)")]
        for _ in range(10):
            a = _scaled(pool[rng.integers(len(pool))], float(rng.uniform(0.2, 3)))
            b = _scaled(pool[rng.integers(len(pool))], float(rng.uniform(0.2, 3)))
            vsum = symbol_norms(_added(a, b)).variation
            va = symbol_norms(a).variation
            vb = symbol_norms(b).variation
            assert vsum <= va + vb + 1e-9


class TestShift:
    def test_shift_moves_support(self):
        a = shift_symbol(parse_symbol("indicator(6,7)"), 6.0)
        assert a(np.array([0.0, 0.5, 1.0, 1.5])).real.tolist() == [1, 1, 1, 0]

    def test_shift_by_zero_is_identity(self):
        a = parse_symbol("rational_decay(1)")
        assert shift_symbol(a, 0.0) is a

    def test_norms_shift_invariant(self):
        a = parse_symbol("arctan")
        shifted = shift_symbol(a, 13.7)
        na, ns = symbol_norms(a), symbol_norms(shifted)
        assert ns.v_norm == pytest.approx(3 * math.pi / 2, abs=1e-9)
        assert na.v_norm == pytest.approx(3 * math.pi / 2, abs=1e-9)

    def test_indicator_shift_invariant(self):
        norms = symbol_norms(shift_symbol(parse_symbol("indicator(6,7)"), 6.0))
        assert norms == pytest.approx((1.0, 2.0, 3.0), abs=1e-12)


class TestTruncate:
    def test_pointwise_values(self):
        a = tail_truncate(parse_symbol("const(1)"), 2.0)
        assert a(np.array([1.0]))[0] == 0.0
        assert a(np.array([3.0]))[0] == 1.0

    def test_disjoint_support_unchanged(self):
        a = parse_symbol("indicator(6,7)")
        t = tail_truncate(a, 5.0)
        x = np.linspace(-10, 10, 2001)
        assert np.array_equal(t(x), a(x))

    def test_truncated_tail_sup_norm(self):
        # sup over |x|>10 of (1+x^2)^(-1) = 1/101, approached from the right
        t = tail_truncate(parse_symbol("rational_decay(1)"), 10.0)
        norms = symbol_norms(t)
        assert norms.sup_norm == pytest.approx(1.0 / 101.0, abs=1e-9)

    @pytest.mark.parametrize("cutoff", [9.0, 33.5])
    def test_truncated_tail_sup_is_not_read_low(self, cutoff):
        # a side probe at N(1 + 1e-9) alone reads 1/(1 + N^2) about 2e-9 low
        t = tail_truncate(parse_symbol("rational_decay(1)"), cutoff)
        exact = 1.0 / (1.0 + cutoff * cutoff)
        assert symbol_norms(t).sup_norm == pytest.approx(exact, rel=1e-15)

    def test_invalid_cutoff(self):
        with pytest.raises(ValueError):
            tail_truncate(parse_symbol("const(1)"), -1.0)


class TestTailSup:
    def test_rational_value(self):
        assert tail_sup(parse_symbol("rational_decay(1)"), 3.0) == pytest.approx(
            0.1, abs=1e-9
        )

    def test_compact_support_vanishes(self):
        assert tail_sup(parse_symbol("indicator(-1,1)"), 2.0) == 0.0

    def test_constant(self):
        assert tail_sup(parse_symbol("const(1)"), 17.0) == 1.0

    def test_monotone_in_cutoff(self):
        a = parse_symbol("rational_decay(1)")
        values = [tail_sup(a, n) for n in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(v2 <= v1 + 1e-12 for v1, v2 in zip(values, values[1:]))
        assert values[-1] < 1e-2

    def test_undeclared_tail_is_inconclusive(self):
        with pytest.raises(InconclusiveError):
            tail_sup(Symbol(np.cos), 1.0)
