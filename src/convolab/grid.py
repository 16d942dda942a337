"""Uniform grid, sampling, quadrature, and the discrete transform pair.

Conventions
-----------
The forward transform of ``f`` is ``hat f(x) = int f(t) e^{+itx} dt`` (note
the positive exponent); the inverse carries the ``1/(2*pi)`` factor so that
the round trip is the identity.  All integrals over the real line are
truncated to ``[-L, L]`` and computed by the rectangle rule on the nodes;
callers choose ``L`` so the functions involved decay below 1e-12 at the
boundary.  Indicator sampling uses the half-open convention ``[c, d)`` so
a node sitting exactly on a boundary is resolved deterministically.

Stacks: every command filters through ``filter_rows``, one FFT pair along
the last axis of a ``(k, n)`` array.  The random test functions are drawn
as a ``(k, 15)`` array of scalars, one call per kind of scalar for all k
probes (``draw_mixtures``), and evaluated as a ``(k, n)`` stack
(``mixture_stack``); ``random_mixture`` is the one-probe case.  A row of a
stack gets the same values, bit for bit, as when it is evaluated on its
own, and a stack of real probes is float64.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

Profile = Callable[[np.ndarray], np.ndarray]
ProfileLike = Union[str, Profile]

# The probe harnesses (the axiom harness, the multiplier and maximal norm
# lower bounds) evaluate their random probes in stacks of at most this many
# nodes per call: 5 axiom trials of 12 rows at n = 256, 16 probes at 1024.
STACK_NODES = 2**14


def stacks(count: int, nodes: int, budget: int = STACK_NODES) -> list[range]:
    """Consecutive ranges that cover ``range(count)`` in order, one per call
    of a probe harness on items of ``nodes`` nodes each: every range holds
    at most ``budget // nodes`` items, and always at least one."""
    size = max(1, budget // nodes)
    return [range(lo, min(lo + size, count)) for lo in range(0, count, size)]


@dataclass(frozen=True)
class Grid:
    """Uniform lattice on ``[-L, L)`` paired with its dual frequency lattice.

    Spatial nodes are ``t_j = -L + j*dx`` for ``j = 0..n-1`` with
    ``dx = 2L/n``; frequency nodes are ``x_k = k*dxi`` for
    ``k = -n/2..n/2-1`` with ``dxi = pi/L``.  Hence ``dx*dxi = 2*pi/n`` and
    the frequency window is ``[-pi*n/(2L), pi*n/(2L))``.
    """

    half_width: float
    size: int

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.size

    @property
    def dxi(self) -> float:
        return math.pi / self.half_width

    @cached_property
    def t(self) -> np.ndarray:
        nodes = -self.half_width + self.dx * np.arange(self.size)
        nodes.setflags(write=False)
        return nodes

    @cached_property
    def xi(self) -> np.ndarray:
        k = np.arange(-self.size // 2, self.size // 2)
        nodes = self.dxi * k
        nodes.setflags(write=False)
        return nodes

    def power_weight(self, gamma: float) -> np.ndarray:
        """Read-only ``|t|^gamma`` at the nodes, computed once per gamma; the
        node t = 0 gets 0 for gamma > 0, else the value one node away."""
        weights = self.__dict__.setdefault("_power_weights", {})
        if gamma not in weights:
            with np.errstate(divide="ignore"):
                w = np.abs(self.t) ** gamma
            w[self.size // 2] = 0.0 if gamma > 0 else self.dx**gamma
            w.setflags(write=False)
            weights[gamma] = w
        return weights[gamma]

    @property
    def freq_edge(self) -> float:
        """Right edge of the (half-open) frequency window."""
        return math.pi * self.size / (2.0 * self.half_width)


@dataclass(frozen=True)
class GridFunction:
    """Complex samples of a function on a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)
        if vals.shape != (self.grid.size,):
            raise ValueError(
                f"values must have shape ({self.grid.size},), got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("GridFunction has a non-finite value at a node")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def make_grid(half_width: float, size: int) -> Grid:
    """Build a grid on ``[-half_width, half_width)`` with ``size`` nodes.

    ``size`` must be even (symmetric frequency window) and at least 8.
    """
    if not (half_width > 0 and math.isfinite(half_width)):
        raise ValueError(f"half_width must be positive and finite, got {half_width}")
    size = int(size)
    if size < 8 or size % 2 != 0:
        raise ValueError(f"size must be an even integer >= 8, got {size}")
    return Grid(float(half_width), size)


# ---------------------------------------------------------------------------
# function descriptors (profiles)

_CALL_RE = re.compile(r"^\s*([a-zA-Z_][a-zA-Z_0-9]*)\s*(?:\((.*)\))?\s*$")


def parse_call(text: str, kind: str) -> tuple[str, list[str]]:
    """Split a ``kind`` descriptor ``name`` or ``name(arg, ...)``.

    Arguments are split at top-level commas only, so nested calls such as
    ``shift(indicator(6,7),6)`` keep their inner arguments together.
    Calls nest at most 32 deep: parsing and evaluating a descriptor both
    recurse once per level, and far deeper nesting exhausts Python's stack.
    """
    m = _CALL_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse {kind} descriptor {text!r}")
    parts, depth, cur = [], 0, ""
    for ch in m.group(2) or "":
        if ch == "(":
            depth += 1
            if depth >= 32:
                raise ValueError(f"{kind} descriptor nests calls deeper than "
                                 "32 levels")
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    if cur.strip():
        parts.append(cur)
    return m.group(1), [p.strip() for p in parts]


def float_args(
    name: str, args: list[str], defaults: tuple[Optional[float], ...]
) -> list[float]:
    """Finite float values of ``args``, padded from ``defaults``.

    ``defaults`` has one entry per parameter of ``name``; ``None`` marks a
    required one.  Extra, missing and non-finite arguments are rejected.
    """
    if len(args) > len(defaults):
        raise ValueError(
            f"{name} takes at most {len(defaults)} arguments, got {len(args)}"
        )
    vals = [float(a) for a in args] + list(defaults[len(args):])
    if None in vals:
        required = sum(d is None for d in defaults)
        raise ValueError(f"{name} needs {required} arguments, got {len(args)}")
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"{name} arguments must be finite, got {args}")
    return vals


def bump_profile(x: np.ndarray, center: float = 0.0, width: float = 1.0) -> np.ndarray:
    """Smooth compactly supported bump: exp(1/(u^2-1)) for |u|<1, u=(x-c)/w.
    Where a tiny w makes u overflow to inf, the value 0 is exact."""
    with np.errstate(over="ignore"):
        u = (np.asarray(x, dtype=float) - center) / width
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(1.0 / (u[inside] ** 2 - 1.0))
    return out


def _gaussian(x: np.ndarray, center, spread) -> np.ndarray:
    """``exp(-(x - center)^2 / spread)``.  Far out on a very wide grid the
    square overflows to inf and the value is exp(-inf) = 0, which is exact,
    so that overflow is not reported."""
    with np.errstate(over="ignore"):
        return np.exp(-((x - center) ** 2) / spread)


def rational_decay(x: np.ndarray, s: float) -> np.ndarray:
    """``(1 + x^2)^(-s)``.  Far out the square overflows to inf and the value
    is inf^(-s) = 0, which is exact, so that overflow is not reported."""
    with np.errstate(over="ignore"):
        return (1.0 + np.asarray(x, float) ** 2) ** (-s)


def parse_profile(text: str) -> Profile:
    """Parse a spatial function descriptor into a vectorized callable.

    Grammar (arguments are float literals):

    - ``indicator(c,d)``       characteristic function of ``[c, d)``
    - ``gaussian`` / ``gaussian(mu,sigma)``   ``exp(-(x-mu)^2/(2 sigma^2))``
    - ``bump`` / ``bump(c,w)`` the compactly supported bump above
    - ``xgaussian``            ``x * exp(-x^2)``
    - ``rational_decay(s)``    ``(1+x^2)^(-s)``
    - ``const(k)``             the constant ``k``
    """
    name, args = parse_call(text, "function")
    if name == "indicator":
        c, d = float_args(name, args, (None, None))
        if c >= d:
            raise ValueError(f"indicator needs two ordered arguments, got {args}")
        return lambda x: ((np.asarray(x, float) >= c)
                          & (np.asarray(x, float) < d)).astype(float)
    if name == "gaussian":
        mu, sigma = float_args(name, args, (0.0, 1.0))
        if sigma <= 0:
            raise ValueError("gaussian width must be positive")
        try:
            spread = 2 * sigma**2
        except OverflowError:
            spread = math.inf
        if not 0 < spread < math.inf:
            raise ValueError(f"gaussian width {sigma:g} gives 2 sigma^2 = "
                             f"{spread:g}, which is not positive and finite")
        return lambda x: _gaussian(np.asarray(x, float), mu, spread)
    if name == "bump":
        c, w = float_args(name, args, (0.0, 1.0))
        if w <= 0:
            raise ValueError("bump width must be positive")
        return lambda x: bump_profile(x, c, w)
    if name == "xgaussian":
        float_args(name, args, ())
        return lambda x: np.asarray(x, float) * _gaussian(
            np.asarray(x, float), 0.0, 1.0)
    if name == "rational_decay":
        (s,) = float_args(name, args, (1.0,))
        if s <= 0:
            raise ValueError("rational_decay exponent must be positive")
        return lambda x: rational_decay(x, s)
    if name == "const":
        (k,) = float_args(name, args, (1.0,))
        return lambda x: np.full_like(np.asarray(x, float), k, dtype=float)
    raise ValueError(f"unknown function descriptor {name!r}")


def sample(expr: ProfileLike, grid: Grid) -> GridFunction:
    """Evaluate a function descriptor at every spatial node."""
    fn = parse_profile(expr) if isinstance(expr, str) else expr
    vals = np.asarray(fn(grid.t), dtype=complex)
    if vals.ndim == 0:
        vals = np.full(grid.size, complex(vals))
    return GridFunction(grid, vals)


def quadrature(f: GridFunction) -> complex:
    """Rectangle rule ``dx * sum f`` on [-L, L), the function 0 outside.

    This is the forward transform's value at ``x = 0``, so norms, kernel
    masses and spectra share one mass convention.
    """
    return f.grid.dx * f.values.sum()


# ---------------------------------------------------------------------------
# discrete transform pair

def _phase_signs(n: int) -> np.ndarray:
    # e^{i t_j x_k} = (-1)^k e^{2 pi i jk/n}: the (-1)^k comes from the -L offset.
    k = np.arange(-n // 2, n // 2)
    return np.where(k % 2 == 0, 1.0, -1.0)


def dft_pair(f: GridFunction, direction: str) -> GridFunction:
    """Apply the discrete realization of the transform pair.

    forward:  ``hat f(x_k) = dx * sum_j f(t_j) e^{+i t_j x_k}``
    inverse:  ``f(t_j) = (dxi/(2*pi)) * sum_k hat f(x_k) e^{-i t_j x_k}``

    Both are one FFT with the boundary phase folded in.  The round trip is
    the identity to machine precision because ``dx*dxi = 2*pi/n``.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    g = f.grid
    signs = _phase_signs(g.size)
    if direction == "forward":
        base = np.fft.ifft(f.values) * g.size          # sum_j f_j e^{2 pi i jk/n}
        vals = g.dx * signs * np.fft.fftshift(base)
    else:
        base = np.fft.ifftshift(signs * f.values)
        vals = (g.dxi / (2 * math.pi)) * np.fft.fft(base)
    return GridFunction(g, vals)


def filter_rows(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``inverse(forward(f) * m)`` for each row ``f`` of a ``(k, n)`` stack.

    ``m`` holds spectral samples at ``grid.xi``, or a ``(k, n)`` stack of
    them, one per row (a 1-D ``rows`` is filtered by each).  Between the
    two transforms of :func:`dft_pair` the phase signs cancel, the shifts
    undo each other and the scales multiply to ``dx*n*dxi/(2*pi) = 1``,
    which leaves one FFT pair along the last axis; where ``dx`` and ``n``
    are powers of two the result is bit-identical to the two calls.  A 1-D
    array is one row, and a row gets the same values alone as in a stack.
    """
    return np.fft.fft(np.fft.ifft(rows) * np.fft.ifftshift(m, axes=-1))


def draw_mixtures(
    grid: Grid, rng: np.random.Generator, count: int,
    complex_values: bool = False,
) -> np.ndarray:
    """Draw the scalars of ``count`` probes for :func:`mixture_stack`.

    Row ``i`` holds probe ``i``: for each of its four Gaussian bumps the
    centre ``c``, ``2 w^2`` for the width ``w`` and the amplitude, then the
    indicator's ends ``a < b`` and its height.  Each kind is drawn for all
    probes in one call, in this order: centres, widths, amplitudes (real
    parts, then with ``complex_values`` imaginary parts), the ends ``a``,
    the lengths ``b - a``, the heights.  The array is float64, or
    complex128 with ``complex_values``.
    """
    if grid.half_width < 0.8:  # the lengths b - a are drawn from [0.2, L/4]
        raise ValueError(f"the random probes need a grid half width L of at "
                         f"least 0.8, got L={grid.half_width:.12g}")
    L = grid.half_width * 0.5
    c = rng.uniform(-0.8 * L, 0.8 * L, (count, 4))
    w = rng.uniform(0.2, 1.5, (count, 4))
    amp = rng.standard_normal((count, 4))
    if complex_values:
        amp = amp + 1j * rng.standard_normal((count, 4))
    a = rng.uniform(-0.8 * L, 0.4 * L, count)
    b = a + rng.uniform(0.2, 0.5 * L, count)
    draws = np.empty((count, 15), dtype=amp.dtype)
    draws[:, 0:12:3], draws[:, 1:12:3], draws[:, 2:12:3] = c, 2 * w**2, amp
    draws[:, 12], draws[:, 13], draws[:, 14] = a, b, rng.standard_normal(count)
    return draws


def mixture_stack(grid: Grid, draws: np.ndarray) -> np.ndarray:
    """Node values of each drawn mixture: a ``(len(draws), n)`` stack.

    Row ``i`` is the sum of the four bumps ``amp exp(-(t-c)^2/(2w^2))`` of
    ``draws[i]`` (a row of :func:`draw_mixtures`), added in draw order,
    plus the height times the indicator of ``[a, b)``; a row whose values
    all lie below 1e-12 in modulus gets a 1 at the centre node.  A row gets
    the same values in a stack as on its own.  The stack takes its dtype
    from the draws: float64 for real draws, complex128 for complex ones.
    A real row is the real part of the complex accumulation, whose
    imaginary part stays zero, so ``np.abs`` of either is the same.
    """
    # each drawn scalar as a (k, 1) column, broadcast over the nodes t
    d = np.asarray(draws).T[:, :, None]
    t = grid.t
    vals = np.zeros((len(draws), grid.size), dtype=d.dtype)
    for c, spread, amp in zip(d[0:12:3].real, d[1:12:3].real, d[2:12:3]):
        vals += amp * _gaussian(t, c, spread)
    a, b, height = d[12:].real
    vals += height * ((t >= a) & (t < b))
    vals[np.abs(vals).max(axis=1) < 1e-12, grid.size // 2] = 1.0
    return vals


def random_mixture(
    grid: Grid, rng: np.random.Generator, complex_values: bool = False
) -> GridFunction:
    """Random test function: a mixture of four Gaussian bumps and one indicator.

    Supported well inside the domain (within ``L/2``) so that convolution
    wrap-around and boundary truncation stay negligible.  The one-probe
    case of :func:`draw_mixtures` and :func:`mixture_stack`.  Without
    ``complex_values`` the function is real: its row is computed in float64
    and the grid function holds it with a zero imaginary part.
    """
    draws = draw_mixtures(grid, rng, 1, complex_values)
    return GridFunction(grid, mixture_stack(grid, draws)[0])
