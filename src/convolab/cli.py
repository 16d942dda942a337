"""Experiment runner: reproducible seeded runs driven by INI config files.

Each command reads its own section from the config (plus the shared
``[grid]``, ``[space]`` and ``[run]`` sections), executes the matching
library operation, writes CSV/JSON artifacts into the output directory, and
prints a one-line summary.  Each command ends in ``_verdict``: a summary
line with one word per gate, exit 2 if an asserted gate failed and 0
otherwise.  Usage and config errors exit 1.  All randomness is seeded;
identical config + seed gives byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import math
import sys
import threading
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .fourier import Mollifier, mollify_sweep, multiplier_norm_lower_bound
from .grid import Grid, make_grid, sample, stacks
from .limitops import density_experiment, limit_operator_sweep
from .maximal import maximal_scan
from .spaces import SpaceNorm, space_norm, verify_axioms
from .symbols import InconclusiveError, parse_symbol, symbol_norms

COMMANDS = ("sweep", "mollify", "stechkin", "maximal-check", "density", "axioms")

USAGE_ERROR, ASSERTION_FAILURE = 1, 2

# Largest grid size a run accepts: the oracle scan of maximal-check takes
# O(n^2) time and every command allocates several n-point arrays.
MAX_GRID_N = 2**16

# Most random trials a command accepts: the probe harnesses draw every
# trial's scalars before the first check.  The shipped configs use 20-50.
MAX_TRIALS = 10**5

# maximal-check scans its noise trials in stacks of at most this many
# nodes: 16 trials at n = 256, 4 at n = 1024.  A stack this size keeps the
# oracle's row-block buffer near 1 MB; stacking every trial at once costs
# peak memory and runs slower.  The caller and one worker take the stacks'
# fast and oracle scans from one queue; 2048-node stacks lose overlap, and
# 8192-node ones run faster but raise a fine run's peak RSS by 2.3 to
# 3.8 MB (6 to 9%).
_CHUNK_NODES = 4096


# mollify: an error at most this fraction of the norm of f is at rounding
# level (const(1) reads 0, then 4.4e-16), so it counts as converged
_ROUNDING_FLOOR = 1e-12


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _overflow_as_usage_error(key: str, grid: Grid):
    """Turn a floating-point overflow in the block into a usage error that
    names ``key`` and the grid: a finite input whose powers or squares
    overflow would otherwise give an infinite or NaN norm and a wrong
    verdict.  Spectra scale with dx = 2L/n, so a wide grid alone can
    overflow them."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise ConfigError(f"{key}: values too large on the grid "
                          f"L={_fmt(grid.half_width)} n={grid.size} ({exc})") from None


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _floats(text: str) -> list[float]:
    vals = [float(v) for v in text.replace(",", " ").split()]
    if not (vals and all(math.isfinite(v) for v in vals)):
        raise ValueError(f"values must be one or more finite numbers, got {text!r}")
    return vals


class _Config(configparser.ConfigParser):
    """A config whose typed reads (``getint``, ``getfloat``, ``getfloats``)
    name the section and key of a value that does not parse."""

    # configparser routes every typed read through _get
    def _get(self, section, conv, option, **kwargs):
        text = self.get(section, option, **kwargs)
        try:
            return conv(text)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {option}: {exc}") from None


def _load_config(path: str) -> configparser.ConfigParser:
    cfg = _Config(converters={"floats": _floats})
    if not cfg.read(path):
        raise ConfigError(f"config file not found: {path}")
    return cfg


def _verdict(summary: str, gates: list[tuple[str, bool, bool]]) -> int:
    """Print ``summary`` and one word per ``(name, ok, asserted)`` gate.

    An asserted gate is a theorem of the discrete model: ``pass`` or
    ``FAIL``.  A reported one reads ``pass`` or ``exceeded (not asserted)``
    and never fails the run.  Returns 2 if an asserted gate failed, else 0.
    """
    words = [f"{name}=" + ("pass" if ok else "FAIL" if asserted
                           else "exceeded (not asserted)")
             for name, ok, asserted in gates]
    print(" ".join([summary, *words]))
    failed = any(asserted and not ok for _, ok, asserted in gates)
    return ASSERTION_FAILURE if failed else 0


class Experiment:
    """Shared state for one run: grid, space, seed, output directory."""

    def __init__(self, cfg, args):
        grid_l = args.grid_L if args.grid_L is not None else cfg.getfloat(
            "grid", "L", fallback=8.0)
        grid_n = args.grid_n if args.grid_n is not None else cfg.getint(
            "grid", "n", fallback=256)
        if grid_n > MAX_GRID_N:
            raise ConfigError(
                f"grid size n must be at most {MAX_GRID_N}, got {grid_n}")
        self.grid: Grid = make_grid(grid_l, grid_n)
        self.space = SpaceNorm(cfg.getfloat("space", "p", fallback=2.0),
                               cfg.getfloat("space", "gamma", fallback=0.0))
        if args.seed is not None:
            self.seed, source = args.seed, "--seed"
        else:
            self.seed = cfg.getint("run", "seed", fallback=0)
            source = "[run] seed"
        if self.seed < 0:
            raise ConfigError(
                f"{source} must be a non-negative integer, got {self.seed}")
        # created on the first write, so a rejected run leaves no directory
        self.out = Path(args.out)
        self.cfg = cfg

    def header(self) -> str:
        return (f"# L={_fmt(self.grid.half_width)} n={self.grid.size} "
                f"p={_fmt(self.space.p)} gamma={_fmt(self.space.gamma)} "
                f"seed={self.seed}")

    def _write(self, name: str, text: str) -> None:
        path = self.out / name
        try:
            self.out.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        except OSError as exc:
            # mkdir names the part of the path it could not make
            where = f"{exc.filename}: " if exc.filename else ""
            raise ConfigError(f"cannot write {path}: {where}{exc.strerror}") from None

    def write_csv(self, name: str, columns: str, rows) -> None:
        # each cell: a string as it is, a float or bool by _fmt (a bool reads 0 or 1)
        lines = (",".join(v if isinstance(v, str) else _fmt(v) for v in row)
                 for row in rows)
        self._write(f"{name}.csv", "\n".join([self.header(), columns, *lines]) + "\n")

    def write_json(self, name: str, obj) -> None:
        payload = {"command": name, "header": self.header(), "result": obj}
        self._write(f"{name}.json", json.dumps(payload, indent=2) + "\n")

    def section(self, name: str) -> configparser.SectionProxy:
        if not self.cfg.has_section(name):
            raise ConfigError(f"config is missing the [{name}] section")
        return self.cfg[name]

    def trials(self, command: str, default: int) -> int:
        """The ``[command] trials``, which must lie in 1..``MAX_TRIALS``."""
        trials = self.section(command).getint("trials", default)
        if not 1 <= trials <= MAX_TRIALS:
            raise ConfigError(f"[{command}] trials: trials must be >= 1 and at "
                              f"most {MAX_TRIALS}, got {trials}")
        return trials


def _cmd_sweep(exp: Experiment) -> int:
    sec = exp.section("sweep")
    symbol = parse_symbol(sec.get("symbol", "indicator(-1,1)"))
    k1, k2 = sec.getfloat("k1", 1.0), sec.getfloat("k2", 2.0)
    rows = limit_operator_sweep(symbol, exp.grid, (k1, k2),
                                sec.getfloats("h", [4.0, 8.0, 16.0, 32.0]), exp.space)
    columns = "h,norm,bound,within_bound"
    exp.write_csv("sweep", columns, rows)
    exp.write_json("sweep", [dict(zip(columns.split(","), r)) for r in rows])
    # the tail bound is a theorem only in unweighted L2
    return _verdict(f"sweep: rows={len(rows)} r_last={_fmt(rows[-1].norm)}",
                    [("within_bound", all(r.within_bound for r in rows),
                      exp.space.is_unweighted_l2)])


def _cmd_mollify(exp: Experiment) -> int:
    sec = exp.section("mollify")
    kind = sec.get("kernel", "gaussian")
    f = sample(sec.get("f", "gaussian"), exp.grid)
    with _overflow_as_usage_error("[mollify] f", exp.grid):
        rows = mollify_sweep(f, Mollifier(kind, exp.grid), exp.space)
        # an error at rounding level has converged: it need fall no further
        floor = _ROUNDING_FLOOR * space_norm(exp.space, f)
    exp.write_csv("mollify", "delta,error,bound,pointwise_ok", rows)
    decreasing = all(b.error < a.error or b.error <= floor
                     for a, b in zip(rows, rows[1:]))
    return _verdict(f"mollify: kind={kind} final_error={_fmt(rows[-1].error)}",
                    [("decreasing", decreasing, True),
                     ("pointwise", all(r.pointwise_ok for r in rows), True)])


def _cmd_stechkin(exp: Experiment) -> int:
    symbol = parse_symbol(exp.section("stechkin").get("symbol", "indicator(-1,1)"))
    trials = exp.trials("stechkin", 20)
    with _overflow_as_usage_error("[space] p", exp.grid):
        m = symbol(exp.grid.xi)  # the one sample of the symbol at the nodes
        lower, spike = multiplier_norm_lower_bound(m, exp.space, trials,
                                                   exp.seed, exp.grid)
        norms = symbol_norms(symbol)
    peak = float(np.max(np.abs(m)))
    # the sup bound is a theorem only in unweighted L2, where the multiplier
    # norm is max_k |a(xi_k)|; the spike probe's ratio is that eigenvalue in
    # every space; the ratio to v_norm is never asserted
    exact = exp.space.is_unweighted_l2
    violation = bool(exact and lower > norms.sup_norm * (1.0 + 1e-9))
    ratio = lower / norms.v_norm if norms.v_norm > 0 else math.inf
    eigen_gap = abs(spike - peak) / peak
    exp.write_json("stechkin", {
        "lower": lower, "v_norm": norms.v_norm, "sup_norm": norms.sup_norm,
        "ratio": ratio,
        "calibration": ("exact: lower <= sup_norm, the norm at p=2" if exact
                        else "uncalibrated, empirical ratio"),
        "violation": violation, "eigen_gap": eigen_gap})
    gates = [("sup_bound", not violation, True)] if exact else []
    return _verdict(f"stechkin: lower={_fmt(lower)} "
                    f"v_norm={_fmt(norms.v_norm)} ratio={_fmt(ratio)}",
                    [*gates, ("eigen", eigen_gap <= 1e-12, True)])


def _worst_gap(rng: np.random.Generator, trials: int, n: int) -> float:
    """Largest ``|fast - oracle|`` over ``trials`` rows of |normal| noise,
    drawn lazily in stacks of ``_CHUNK_NODES`` nodes.  The caller and one
    worker thread take (route, stack) scans from one lock-guarded iterator
    and stop at the first error, which is raised once the worker joins."""
    def scans():
        # consecutive (c, n) draws give the numbers of one draw per trial
        for stack in stacks(trials, n, _CHUNK_NODES):
            av, done = np.abs(rng.normal(size=(len(stack), n))), []
            yield from (("fast", av, done), ("oracle", av, done))
    lock, todo, gaps, errors = threading.Lock(), scans(), [], []

    def take():
        with lock:
            return None if errors else next(todo, None)

    def work():
        try:
            for route, av, done in iter(take, None):
                scan = maximal_scan(av, route)
                with lock:  # the second route of a stack folds in its gap
                    done.append(scan)
                    if len(done) == 2:
                        gaps.append(np.max(np.abs(np.subtract(*done))))
        except BaseException as exc:
            errors.append(exc)
    worker = threading.Thread(target=work)
    worker.start()
    work()
    worker.join()
    if errors:
        raise errors[0]
    return float(np.max(gaps))  # unlike max, np.max passes a NaN gap on


def _cmd_maximal_check(exp: Experiment) -> int:
    trials = exp.trials("maximal-check", 20)
    n = exp.grid.size
    worst = _worst_gap(np.random.default_rng(exp.seed), trials, n)

    # the discrete M chi in closed form: the best window from node j runs
    # to the far end of the nodes i0..i1 of the sampled chi, which holds
    # at least the origin node t = 0
    chi = sample("indicator(-1,1)", exp.grid)
    m = maximal_scan(np.abs(chi.values), "fast")
    i0, i1 = np.flatnonzero(chi.values)[[0, -1]]
    j = np.arange(n)
    closed = (i1 - i0 + 1) / (np.maximum(j, i1) - np.minimum(j, i0) + 1)
    gap = float(np.max(np.abs(m - closed)))

    checks = [(name, value, 1e-12, value <= 1e-12)
              for name, value in (("fast_vs_oracle", worst), ("closed_form", gap))]
    exp.write_csv("maximal-check", "check,value,reference,ok", checks)
    return _verdict(f"maximal-check: fast_vs_oracle_worst={_fmt(worst)}",
                    [(name, ok, True) for name, _, _, ok in checks])


def _cmd_density(exp: Experiment) -> int:
    sec = exp.section("density")
    f = sample(sec.get("f", "indicator(-1,1)"), exp.grid)
    eps = sec.getfloat("epsilon", 0.1)
    with _overflow_as_usage_error("[density] f", exp.grid):
        result = density_experiment(f, eps, exp.space)
    exp.write_json("density", {
        "delta": result.delta, "achieved": result.achieved,
        "band": list(result.band), "epsilon": eps})
    return _verdict(f"density: delta={_fmt(result.delta)} "
                    f"achieved={_fmt(result.achieved)} epsilon={_fmt(eps)}",
                    [("within_epsilon", result.achieved < eps, True)])


def _gaussian_closed_form(space: SpaceNorm, grid: Grid) -> dict:
    """The norm of the sampled ``exp(-x^2/2)`` against its closed form
    ``((2/p)^((gamma+1)/2) Gamma((gamma+1)/2))^(1/p)``.

    The relative gap is asserted at gamma = 0 where the grid resolves the
    Gaussian: by Poisson summation the rectangle rule misses
    ``int exp(-p x^2/2)`` by about ``2 exp(-2 pi^2/(p dx^2))`` of itself,
    and the nodes on [-L, L) miss ``erfc(L sqrt(p/2))`` of it; together
    below 1e-14.  At gamma != 0 the weight's node samples miss the closed
    form by several percent, so the gap is only reported.
    """
    p, gamma = space.p, space.gamma
    norm = space_norm(space, sample("gaussian", grid))
    reference = ((2 / p) ** ((gamma + 1) / 2)
                 * math.gamma((gamma + 1) / 2)) ** (1 / p)
    quadrature_error = (2 * math.exp(-2 * math.pi**2 / (p * grid.dx * grid.dx))
                        + math.erfc(grid.half_width * math.sqrt(p / 2)))
    return {"check": "closed_form", "norm": norm, "reference": reference,
            "gap": abs(norm - reference) / reference,
            "asserted": gamma == 0.0 and quadrature_error < 1e-14}


def _cmd_axioms(exp: Experiment) -> int:
    trials = exp.trials("axioms", 50)
    with _overflow_as_usage_error("[space] p", exp.grid):
        checks = verify_axioms(exp.space, trials, exp.seed, exp.grid)
        closed = _gaussian_closed_form(exp.space, exp.grid)
    exp.write_json("axioms", [
        *({"axiom": c.axiom, "pass": c.passed, "worst_slack": c.worst_slack}
          for c in checks), closed])
    gates = [(c.axiom, c.passed, True) for c in checks]
    if closed["asserted"]:
        gates.append(("closed_form", closed["gap"] <= 1e-12, True))
    return _verdict("axioms:", gates)


_HANDLERS = dict(zip(COMMANDS, (_cmd_sweep, _cmd_mollify, _cmd_stechkin,
                                _cmd_maximal_check, _cmd_density, _cmd_axioms)))


# parse_args keeps no state between calls, so one parser serves every run
_PARSER = argparse.ArgumentParser(prog="convolab", description=(
    "Reproducible experiments on Fourier convolution operators"))
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", required=True, help="INI config file")
_PARSER.add_argument("--out", default="out", help="artifact directory")
_PARSER.add_argument("--seed", type=int, default=None, help="override seed")
_PARSER.add_argument("--grid-n", type=int, default=None, help="override grid size")
_PARSER.add_argument("--grid-L", type=float, default=None,
                     help="override grid half width")


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    # configparser raises parse errors when the file is read and
    # interpolation errors (a bare '%') when a value is read
    try:
        exp = Experiment(_load_config(args.config), args)
        return _HANDLERS[args.command](exp)
    except (ConfigError, configparser.Error, ValueError, InconclusiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
