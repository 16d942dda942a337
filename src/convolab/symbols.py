"""Multiplier symbols as structured frequency functions.

A symbol is a bounded function on the real line together with enough
declared structure to make its variation and tail suprema computable:

- ``breakpoints``: the finite set of jump/kink/monotonicity-change points;
  between consecutive breakpoints the symbol is monotone on any compact
  window.
- ``tail``: beyond ``tail.radius`` the symbol is monotone on each side and
  approaches the declared limits at -inf/+inf.

Total variation is a supremum over all partitions and is not computable
for arbitrary measurable functions.  The declarations above reduce it to
one pass over a fixed sample between breakpoints plus exact analytic tail
terms; a sample that is not monotone between breakpoints shows them false,
and the symbol is refused with ``InconclusiveError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .grid import float_args, parse_call, rational_decay

# relative offset used to probe one-sided values next to a breakpoint
_SIDE_EPS = 1e-9
# uniform samples per segment between consecutive base nodes
_PER_SEGMENT = 128


class InconclusiveError(RuntimeError):
    """A quantity cannot be certified from the declared structure.

    Raised e.g. when a symbol lacks a tail declaration and the sampling
    window alone cannot bound a supremum over an unbounded region.
    """


@dataclass(frozen=True)
class TailBehavior:
    """Declares that the symbol is monotone on each side beyond ``radius``.

    ``limit_neg`` and ``limit_pos`` are the values approached at -inf and
    +inf.  Monotonicity pins the tail variation to the exact telescoped
    range and bounds tail suprema by endpoint values.
    """

    radius: float
    limit_neg: complex
    limit_pos: complex


@dataclass(frozen=True)
class Symbol:
    """A bounded frequency function with declared variation structure."""

    fn: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple[float, ...] = ()
    tail: Optional[TailBehavior] = None
    label: str = "<callable>"

    def __post_init__(self):
        bps = tuple(sorted(float(b) for b in self.breakpoints))
        object.__setattr__(self, "breakpoints", bps)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.fn(x), dtype=complex)
        if out.ndim == 0:
            out = np.full(x.shape, complex(out))
        return out

    def __repr__(self):
        return f"Symbol({self.label})"


class SymbolNorms(NamedTuple):
    sup_norm: float
    variation: float
    v_norm: float


# ---------------------------------------------------------------------------
# grammar

def parse_symbol(text: str) -> Symbol:
    """Parse the compact symbol grammar.

    ``indicator(c,d)`` | ``const(k)`` | ``arctan`` | ``rational_decay(s)``
    | ``shift(<sym>,h)`` | ``truncate(<sym>,N)``
    """
    name, args = parse_call(text, "symbol")
    if name == "indicator":
        c, d = float_args(name, args, (None, None))
        if not c < d:
            raise ValueError(f"indicator needs c < d, got ({c}, {d})")
        return Symbol(lambda x: ((x >= c) & (x <= d)).astype(float), (c, d),
                      TailBehavior(max(abs(c), abs(d)), 0.0, 0.0),
                      f"indicator({c},{d})")
    if name == "const":
        (k,) = float_args(name, args, (1.0,))
        return Symbol(lambda x: np.full_like(np.asarray(x, float), k), (),
                      TailBehavior(0.0, k, k), f"const({k})")
    if name == "arctan":
        float_args(name, args, ())
        return Symbol(np.arctan, (), TailBehavior(0.0, -math.pi / 2, math.pi / 2),
                      "arctan")
    if name == "rational_decay":
        (s,) = float_args(name, args, (1.0,))
        if s <= 0:
            raise ValueError("rational_decay exponent must be positive")
        return Symbol(lambda x: rational_decay(x, s), (0.0,),
                      TailBehavior(0.0, 0.0, 0.0), f"rational_decay({s})")
    if name in ("shift", "truncate"):
        if len(args) != 2:
            raise ValueError(f"{name} needs (<symbol>, number), got {args}")
        (x,) = float_args(name, args[1:], (None,))
        inner = parse_symbol(args[0])
        return shift_symbol(inner, x) if name == "shift" else tail_truncate(inner, x)
    raise ValueError(f"unknown symbol descriptor {name!r}")


# ---------------------------------------------------------------------------
# structural transforms

def shift_symbol(a: Symbol, h: float) -> Symbol:
    """The translated symbol ``x -> a(x + h)``; norms are shift-invariant."""
    if h == 0:
        return a
    tail = None
    if a.tail is not None:
        tail = TailBehavior(a.tail.radius + abs(h), a.tail.limit_neg, a.tail.limit_pos)
    return Symbol(
        lambda x, _a=a, _h=h: _a(np.asarray(x, float) + _h),
        tuple(b - h for b in a.breakpoints),
        tail,
        f"shift({a.label},{h})",
    )


def tail_truncate(a: Symbol, cutoff: float) -> Symbol:
    """Zero the symbol on ``(-N, N)``, keeping it unchanged for ``|x| >= N``.

    The values at the breakpoints ``+-N`` make the sup norm read ``sup |a|``
    over ``|x| > N`` for an ``a`` continuous at ``+-N``; a side probe at
    ``N(1 + _SIDE_EPS)`` alone reads a decaying ``a`` about 2e-9 low.
    Where ``a`` jumps at ``+-N`` the sup also counts ``|a(+-N)|``.
    """
    if not cutoff > 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")

    def fn(x, _a=a, _n=cutoff):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) >= _n, _a(x), 0.0)

    bps = tuple(b for b in a.breakpoints if abs(b) > cutoff) + (-cutoff, cutoff)
    tail = None
    if a.tail is not None:
        tail = TailBehavior(
            max(a.tail.radius, cutoff), a.tail.limit_neg, a.tail.limit_pos
        )
    return Symbol(fn, bps, tail, f"truncate({a.label},{cutoff})")


# ---------------------------------------------------------------------------
# norms

def _side_probes(points) -> np.ndarray:
    """Points just left/right of each breakpoint (one-sided value probes)."""
    out = []
    for b in points:
        eps = _SIDE_EPS * max(1.0, abs(b))
        out.extend((b - eps, b + eps))
    return np.asarray(out, dtype=float)


def _base_nodes(a: Symbol) -> np.ndarray:
    """``-W``, ``W`` and the breakpoints in between with their side probes;
    ``W >= 16`` holds every breakpoint and the tail radius with margin 1."""
    bp_reach = max((abs(b) for b in a.breakpoints), default=0.0)
    window = max(16.0, bp_reach + 1.0, a.tail.radius + 1.0)
    inner = [b for b in a.breakpoints if abs(b) < window]
    nodes = np.concatenate(
        ([-window, window], np.asarray(inner, float), _side_probes(inner))
    )
    nodes = np.unique(nodes)
    return nodes[(nodes >= -window) & (nodes <= window)]


def symbol_norms(a: Symbol) -> SymbolNorms:
    """Sup norm, total variation, and their sum for a structured symbol.

    One evaluation at ``_PER_SEGMENT`` uniform samples per segment of
    :func:`_base_nodes`.  The variation is the sum of |differences| over
    the sample plus the exact terms of the declared monotone tails; the
    sup norm is the largest value at a base node (a monotone piece peaks
    at an endpoint) or a tail limit.  A segment whose differences change
    sign, in Re or Im, apart from its first and last (where a declared jump
    sits), shows the declaration false and raises ``InconclusiveError``.
    So does a window ``[-W, W]`` too wide for floats, whose nodes overflow,
    and a sample that is NaN or infinite.
    """
    if a.tail is None:
        raise InconclusiveError(
            f"symbol {a.label} lacks a tail declaration; variation over the "
            "real line cannot be certified from window samples"
        )
    base = _base_nodes(a)
    if not math.isfinite(float(base[-1]) - float(base[0])):
        raise InconclusiveError(f"symbol {a.label}: the width of its sampling "
                                f"window [-W, W], W = {base[-1]:.6g}, overflows")
    nodes = np.linspace(base[:-1], base[1:], _PER_SEGMENT + 1, axis=1)[:, :-1]
    vals = a(np.concatenate([nodes.ravel(), base[-1:]]))
    if not np.all(np.isfinite(vals)):
        raise InconclusiveError(f"symbol {a.label} has a non-finite sample")
    steps = np.diff(vals)

    inner = steps.reshape(-1, _PER_SEGMENT)[:, 1:-1]
    parts = np.stack((inner.real, inner.imag))
    if np.any((parts > 0).any(axis=-1) & (parts < 0).any(axis=-1)):
        raise InconclusiveError(
            f"symbol {a.label} is not monotone between its breakpoints"
        )

    edge_lo, edge_hi = complex(vals[0]), complex(vals[-1])
    var = float(np.abs(steps).sum())
    var += abs(edge_lo - a.tail.limit_neg) + abs(a.tail.limit_pos - edge_hi)
    sup = float(np.max(np.abs(vals[::_PER_SEGMENT])))
    sup = max(sup, abs(a.tail.limit_neg), abs(a.tail.limit_pos))
    return SymbolNorms(sup, var, sup + var)
