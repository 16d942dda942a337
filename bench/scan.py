"""Layer scan: each hot library function timed alone at fixed grid sizes."""

from __future__ import annotations

import statistics
from time import perf_counter

SIZES = (256, 1024, 4096, 16384)
ORACLE_MAX_N = 4096  # the oracle is O(n^2); beyond this it takes seconds
_MIN_REPEATS, _MIN_SECONDS = 5, 0.2


def metric_names() -> list[str]:
    """Every ``scan.<function>.n<N>_us`` name that ``layer_scan`` reports."""
    functions = ("dft_pair", "apply_multiplier", "convolve", "space_norm",
                 "maximal_function.fast", "maximal_function.oracle")
    return [f"scan.{fn}.n{n}_us" for fn in functions for n in SIZES
            if fn != "maximal_function.oracle" or n <= ORACLE_MAX_N]


def _median_us(fn) -> float:
    """Median wall time of ``fn()`` in microseconds.

    Calls are timed one by one until there are at least five samples and
    0.2 s of them, so slow functions run five times and fast ones many.
    """
    fn()  # warm-up: lazy grid properties, allocator
    samples, spent = [], 0.0
    while len(samples) < _MIN_REPEATS or spent < _MIN_SECONDS:
        t0 = perf_counter()
        fn()
        dt = perf_counter() - t0
        samples.append(dt)
        spent += dt
    return statistics.median(samples) * 1e6


def layer_scan(seed: int) -> dict[str, float]:
    """``scan.<function>.n<N>_us`` for every function and size."""
    import numpy as np

    from convolab import (GridFunction, SpaceNorm, apply_multiplier, convolve,
                          dft_pair, make_grid, maximal_function, parse_symbol,
                          random_mixture, space_norm)

    arctan = parse_symbol("arctan")
    space = SpaceNorm(2.0)
    rng = np.random.default_rng(seed)
    out = {}
    for n in SIZES:
        grid = make_grid(8.0, n)
        f = random_mixture(grid, rng, complex_values=True)
        g = random_mixture(grid, rng, complex_values=True)
        # the input maximal-check gives the scans: real standard-normal noise
        noise = GridFunction(grid, rng.normal(size=n))
        cases = {
            "dft_pair": lambda: dft_pair(f, "forward"),
            "apply_multiplier": lambda: apply_multiplier(arctan, f),
            "convolve": lambda: convolve(f, g),
            "space_norm": lambda: space_norm(space, f),
            "maximal_function.fast": lambda: maximal_function(noise, "fast"),
        }
        if n <= ORACLE_MAX_N:
            cases["maximal_function.oracle"] = lambda: maximal_function(noise, "oracle")
        for name, fn in cases.items():
            out[f"scan.{name}.n{n}_us"] = _median_us(fn)
    return out
