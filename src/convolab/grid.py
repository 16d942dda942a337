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

Stacks: ``filter_rows`` filters each row of a ``(k, n)`` array with one FFT
pair along the last axis (``filter_spectrum`` is its one-function case),
and the random test functions are drawn one probe at a time
(``draw_mixture``) and evaluated as a ``(k, n)`` stack (``mixture_stack``);
``random_mixture`` is the one-probe case.  A row of a stack gets the same
values, bit for bit, as when it is evaluated on its own.  The probe scalars
are the draws of ``rng.uniform`` and ``rng.normal``, bit for bit, taken
through the generator's cheaper ``random`` and ``standard_normal``, and a
stack of real probes is float64.
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

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _check_same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "GridFunction":
        return GridFunction(self.grid, self.values * scalar)

    __rmul__ = __mul__


def _check_same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.grid != g.grid:
        raise ValueError("grid mismatch between operands")


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
    """Smooth compactly supported bump: exp(1/(u^2-1)) for |u|<1, u=(x-c)/w."""
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


def indicator_profile(c: float, d: float) -> Profile:
    """Characteristic function of the half-open interval [c, d)."""
    def fn(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return ((x >= c) & (x < d)).astype(float)
    return fn


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
        return indicator_profile(c, d)
    if name == "gaussian":
        mu, sigma = float_args(name, args, (0.0, 1.0))
        if sigma <= 0:
            raise ValueError("gaussian width must be positive")
        return lambda x: _gaussian(np.asarray(x, float), mu, 2 * sigma**2)
    if name == "bump":
        c, w = float_args(name, args, (0.0, 1.0))
        if w <= 0:
            raise ValueError("bump width must be positive")
        return lambda x: bump_profile(x, c, w)
    if name == "xgaussian":
        float_args(name, args, ())
        return lambda x: np.asarray(x, float) * np.exp(-np.asarray(x, float) ** 2)
    if name == "rational_decay":
        (s,) = float_args(name, args, (1.0,))
        if s <= 0:
            raise ValueError("rational_decay exponent must be positive")
        return lambda x: (1.0 + np.asarray(x, float) ** 2) ** (-s)
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

    ``m`` holds spectral samples at ``grid.xi``.  Between the two transforms
    of :func:`dft_pair` the phase signs cancel, the shifts undo each other
    and the scales multiply to ``dx * n * dxi/(2*pi) = 1``, which leaves one
    FFT pair along the last axis; where ``dx`` and ``n`` are powers of two
    the result is bit-identical to the two calls.  A 1-D array is one row,
    and a row gets the same values alone as in a stack.
    """
    return np.fft.fft(np.fft.ifft(rows) * np.fft.ifftshift(m))


def filter_spectrum(f: GridFunction, m: np.ndarray) -> GridFunction:
    """:func:`filter_rows` on one grid function."""
    return GridFunction(f.grid, filter_rows(f.values, m))


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` bit for bit, for a third of its cost.

    numpy computes it as ``lo + (hi - lo) * next_double`` in doubles, and
    ``rng.random()`` returns that same ``next_double``, so this is the same
    value and leaves the same generator state.
    """
    return lo + (hi - lo) * rng.random()


def draw_mixture(
    grid: Grid, rng: np.random.Generator, complex_values: bool = False
) -> tuple:
    """Draw one probe's scalars for :func:`mixture_stack` from ``rng``.

    For each of four Gaussian bumps its centre ``c``, ``2 w^2`` for its
    width ``w`` and its amplitude (complex with ``complex_values``), then
    the indicator's ends ``a < b`` and height, in that order.  The draws
    are those of ``rng.uniform`` and ``rng.normal``, bit for bit and with
    the same generator state after: a uniform is :func:`_uniform`, and
    ``rng.normal()`` is ``0 + 1 * rng.standard_normal()``.  Each scalar is
    still drawn on its own, since a batch of normals can take another
    number of words from the stream.
    """
    L = grid.half_width * 0.5
    out = []
    for _ in range(4):
        c = _uniform(rng, -0.8 * L, 0.8 * L)
        w = _uniform(rng, 0.2, 1.5)
        amp = rng.standard_normal()
        if complex_values:
            amp = amp + 1j * rng.standard_normal()
        # a Python float's ** rounds apart from numpy's square in ~0.1% of
        # cases, so the square is taken here, as the one-probe path took it
        out += [c, 2 * w**2, amp]
    a = _uniform(rng, -0.8 * L, 0.4 * L)
    b = a + _uniform(rng, 0.2, 0.5 * L)
    return (*out, a, b, rng.standard_normal())


def mixture_stack(grid: Grid, draws: list[tuple]) -> np.ndarray:
    """Node values of each drawn mixture: a ``(len(draws), n)`` stack.

    Row ``i`` is the sum of the four bumps ``amp exp(-(t-c)^2/(2w^2))`` of
    ``draws[i]``, added in draw order, plus the height times the indicator
    of ``[a, b)``; a row whose values all lie below 1e-12 in modulus gets
    a 1 at the centre node.  Every row is the same arithmetic as a probe
    evaluated on its own.  The stack takes its dtype from the draws:
    float64 when every draw is real, complex128 otherwise.  A real row is
    the real part of the complex accumulation, whose imaginary part stays
    zero, so ``np.abs`` of either is the same.
    """
    # each drawn scalar as a (k, 1) column, broadcast over the nodes t
    d = np.array(draws).T[:, :, None]
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
    wrap-around and boundary truncation stay negligible.  One probe of
    :func:`draw_mixture` and :func:`mixture_stack`.  Without
    ``complex_values`` the function is real: its row is computed in float64
    and the grid function holds it with a zero imaginary part.
    """
    draw = draw_mixture(grid, rng, complex_values)
    return GridFunction(grid, mixture_stack(grid, [draw])[0])
