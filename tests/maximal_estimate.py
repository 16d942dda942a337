"""Random-probe lower bound for the norm of the maximal operator.

No command reports this estimate yet; it is kept here, with its
one-probe-at-a-time oracle, for the estimate of the norm of M on X and on
X' that ``maximal-check`` is to report (ROADMAP, item 7).
"""

import numpy as np

from convolab import (Grid, SpaceNorm, draw_mixtures, maximal_function,
                      maximal_scan, mixture_stack, space_norm, space_norms)
from convolab.grid import stacks
from conftest import draws_by_kind, mixture_by_bump


def maximal_norm_estimate(
    space: SpaceNorm,
    trials: int,
    seed: int,
    grid: Grid,
) -> float:
    """Lower bound for the operator norm of the maximal operator.

    Maximizes ``|Mf| / |f|`` over random nonzero probes, drawn in one
    ``grid.draw_mixtures`` call and scanned in the stacks of
    ``grid.stacks``.  This is a lower
    bound only; certified upper bounds are out of scope.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    draws = draw_mixtures(grid, np.random.default_rng(seed), trials)
    best = 0.0
    for stack in stacks(trials, grid.size):
        probes = np.abs(mixture_stack(grid, draws[stack.start:stack.stop]))
        nf = space_norms(space, grid, probes)
        live = nf != 0.0
        images = space_norms(space, grid, maximal_scan(probes))
        best = max([best, *(images[live] / nf[live]).tolist()])
    return best


def maximal_estimate_by_trial(space, trials, seed, grid):
    """Oracle of ``maximal_norm_estimate``: one probe at a time."""
    best = 0.0
    for draw in draws_by_kind(grid, np.random.default_rng(seed), trials):
        f = mixture_by_bump(grid, draw)
        nf = space_norm(space, f)
        if nf != 0.0:
            best = max(best, space_norm(space, maximal_function(f)) / nf)
    return best
