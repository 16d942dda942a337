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
import dataclasses
import json
import math
import sys
import threading
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InconclusiveError
from .fourier import make_mollifier, mollify_sweep, stechkin_check
from .grid import Grid, make_grid, sample
from .limitops import (LimitSweepConfig, band_limited_probe, density_experiment,
                       limit_operator_sweep)
from .maximal import maximal_scan
from .spaces import SpaceNorm, space_norm, verify_axioms
from .symbols import parse_symbol

COMMANDS = ("sweep", "mollify", "stechkin", "maximal-check", "density", "axioms")

USAGE_ERROR, ASSERTION_FAILURE = 1, 2

# Largest grid size a run accepts: the oracle scan of maximal-check takes
# O(n^2) time and every command allocates several n-point arrays.
MAX_GRID_N = 2**16

# maximal-check scans its noise trials in stacks of at most this many
# nodes: 16 trials at n = 256, 4 at n = 1024.  A stack this size keeps the
# oracle's row-block buffer near 1 MB; stacking every trial at once costs
# peak memory and runs slower.  Each stack's fast scan runs on a worker
# thread while the oracle runs on the caller; 2048-node stacks lose that
# overlap.
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
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"values must be finite, got {text!r}")
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
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / name).write_text(text)

    def write_csv(self, name: str, columns: str, rows: list[str]) -> None:
        self._write(f"{name}.csv", "\n".join([self.header(), columns, *rows]) + "\n")

    def write_json(self, name: str, obj) -> None:
        payload = {"command": name, "header": self.header(), "result": obj}
        self._write(f"{name}.json", json.dumps(payload, indent=2) + "\n")

    def section(self, name: str) -> configparser.SectionProxy:
        if not self.cfg.has_section(name):
            raise ConfigError(f"config is missing the [{name}] section")
        return self.cfg[name]


def _cmd_sweep(exp: Experiment) -> int:
    sec = exp.section("sweep")
    symbol = parse_symbol(sec.get("symbol", "indicator(-1,1)"))
    k1, k2 = sec.getfloat("k1", 1.0), sec.getfloat("k2", 2.0)
    targets = sec.getfloats("h", [4.0, 8.0, 16.0, 32.0])
    dxi = exp.grid.dxi
    if not all(math.isfinite(t / dxi) for t in targets):
        raise ConfigError(f"[sweep] h must be below {sys.float_info.max * dxi:.6g}")
    steps = [round(t / dxi) for t in targets]
    if not all(k >= 1 for k in steps):
        raise ConfigError(f"[sweep] h must be at least half a lattice step "
                          f"({dxi / 2:.6g}), got {targets}")
    shifts = tuple(sorted({k * dxi for k in steps}))
    profile = sec.get("profile", "bump")
    probe = band_limited_probe(exp.grid, (k1, k2), profile, exp.seed)
    cfg = LimitSweepConfig(symbol, probe, (k1, k2), shifts, exp.space)
    rows = limit_operator_sweep(cfg)
    exp.write_csv("sweep", "h,norm,bound,within_bound", [
        f"{_fmt(r.shift)},{_fmt(r.norm)},{_fmt(r.bound)},{int(r.within_bound)}"
        for r in rows])
    exp.write_json("sweep", [
        {"h": r.shift, "norm": r.norm, "bound": r.bound,
         "within_bound": r.within_bound} for r in rows
    ])
    # the tail bound is a theorem only in unweighted L2
    return _verdict(f"sweep: rows={len(rows)} r_last={_fmt(rows[-1].norm)}",
                    [("within_bound", all(r.within_bound for r in rows),
                      exp.space.is_unweighted_l2)])


def _cmd_mollify(exp: Experiment) -> int:
    sec = exp.section("mollify")
    kind = sec.get("kernel", "gaussian")
    f = sample(sec.get("f", "gaussian"), exp.grid)
    with _overflow_as_usage_error("[mollify] f", exp.grid):
        rows = mollify_sweep(f, make_mollifier(kind, exp.grid), exp.space)
        # an error at rounding level has converged: it need fall no further
        floor = _ROUNDING_FLOOR * space_norm(exp.space, f)
    exp.write_csv("mollify", "delta,error,bound,pointwise_ok", [
        f"{_fmt(r.delta)},{_fmt(r.error)},{_fmt(r.bound)},{int(r.pointwise_ok)}"
        for r in rows])
    decreasing = all(b.error < a.error or b.error <= floor
                     for a, b in zip(rows, rows[1:]))
    return _verdict(f"mollify: kind={kind} final_error={_fmt(rows[-1].error)}",
                    [("decreasing", decreasing, True),
                     ("pointwise", all(r.pointwise_ok for r in rows), True)])


def _cmd_stechkin(exp: Experiment) -> int:
    sec = exp.section("stechkin")
    symbol = parse_symbol(sec.get("symbol", "indicator(-1,1)"))
    report = stechkin_check(symbol, exp.space, sec.getint("trials", 20),
                            exp.seed, exp.grid)
    exp.write_json("stechkin", dataclasses.asdict(report))
    # elsewhere the ratio is an empirical observation, with no gate at all
    gates = ([("sup_bound", not report.violation, True)]
             if exp.space.is_unweighted_l2 else [])
    return _verdict(f"stechkin: lower={report.lower:.3f} "
                    f"v_norm={report.v_norm:.3f} ratio={report.ratio:.3f}", gates)


def _scan_both_routes(av: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fast and the oracle scan of ``av``, the fast one on a worker thread.

    The oracle's subtractions, divisions and max reductions release the
    GIL, so the fast scan's Python loops run beside them.  The worker is
    joined before this returns, also when the oracle raises, and its
    exception, if any, is raised here.
    """
    # with the oracle on the worker instead, a long run's peak memory
    # varied by up to 2 MB from run to run
    fast: list = []

    def work():
        try:
            fast.append(maximal_scan(av, "fast"))
        except BaseException as exc:
            fast.append(exc)

    worker = threading.Thread(target=work)
    worker.start()
    try:
        oracle = maximal_scan(av, "oracle")
    finally:
        worker.join()
    if isinstance(fast[0], BaseException):
        raise fast[0]
    return fast[0], oracle


def _cmd_maximal_check(exp: Experiment) -> int:
    sec = exp.section("maximal-check")
    trials = sec.getint("trials", 20)
    if trials < 1:
        raise ConfigError(f"[maximal-check] trials must be >= 1, got {trials}")
    n = exp.grid.size
    chunk = max(1, _CHUNK_NODES // n)
    rng = np.random.default_rng(exp.seed)
    worst = 0.0
    # consecutive (c, n) draws give the same numbers, in the same order, as
    # one n-point draw per trial
    for done in range(0, trials, chunk):
        av = np.abs(rng.normal(size=(min(chunk, trials - done), n)))
        fast, oracle = _scan_both_routes(av)
        gaps = np.abs(fast - oracle)
        worst = max(worst, float(np.max(gaps)))

    # the discrete M chi in closed form: the best window from node j runs
    # to the far end of the nodes i0..i1 of the sampled chi
    chi = sample("indicator(-1,1)", exp.grid)
    m = maximal_scan(np.abs(chi.values), "fast")
    i0, i1 = np.flatnonzero(chi.values)[[0, -1]]
    j = np.arange(n)
    closed = (i1 - i0 + 1) / (np.maximum(j, i1) - np.minimum(j, i0) + 1)
    gap = float(np.max(np.abs(m - closed)))

    checks = [(name, value, value <= 1e-12)
              for name, value in (("fast_vs_oracle", worst), ("closed_form", gap))]
    exp.write_csv("maximal-check", "check,value,reference,ok",
                  [f"{name},{_fmt(value)},{_fmt(1e-12)},{int(ok)}"
                   for name, value, ok in checks])
    return _verdict(f"maximal-check: fast_vs_oracle_worst={_fmt(worst)}",
                    [(name, ok, True) for name, _, ok in checks])


def _cmd_density(exp: Experiment) -> int:
    sec = exp.section("density")
    f = sample(sec.get("f", "indicator(-1,1)"), exp.grid)
    eps = sec.getfloat("epsilon", 0.1)
    with _overflow_as_usage_error("[density] f", exp.grid):
        result = density_experiment(f, eps, exp.space)
    exp.write_json("density", {**result.to_json(), "epsilon": eps})
    return _verdict(f"density: delta={_fmt(result.delta)} "
                    f"achieved={_fmt(result.achieved)} epsilon={_fmt(eps)}",
                    [("within_epsilon", result.achieved < eps, True)])


def _cmd_axioms(exp: Experiment) -> int:
    trials = exp.section("axioms").getint("trials", 50)
    checks = verify_axioms(exp.space, trials, exp.seed, exp.grid)
    exp.write_json("axioms", [c.to_json() for c in checks])
    return _verdict("axioms:", [(c.axiom, c.passed, True) for c in checks])


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
