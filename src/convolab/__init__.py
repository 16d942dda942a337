"""Desk-scale numerics for Fourier convolution operators.

convolab discretizes convolution operators with bounded symbols on Lp and
power-weighted Lp spaces and measures the facts that make them tractable:
variation-norm bounds on multiplier norms, maximal-function domination of
mollifier families, density of band-limited probes, and the decay of
modulation-conjugated operators when the symbol dies off at infinity.
"""

from .fourier import (
    Mollifier,
    apply_multiplier,
    convolve,
    mollify_sweep,
    multiplier_norm_lower_bound,
)
from .grid import (
    Grid,
    GridFunction,
    dft_pair,
    draw_mixtures,
    make_grid,
    mixture_stack,
    quadrature,
    random_mixture,
    sample,
)
from .limitops import (
    band_limited_probe,
    density_experiment,
    limit_operator_sweep,
)
from .maximal import maximal_function, maximal_scan
from .spaces import (
    AxiomCheck,
    SpaceNorm,
    associate_space,
    space_norm,
    space_norms,
    verify_axioms,
)
from .symbols import (
    InconclusiveError,
    Symbol,
    SymbolNorms,
    TailBehavior,
    parse_symbol,
    shift_symbol,
    symbol_norms,
    tail_truncate,
)

__version__ = "0.1.0"
