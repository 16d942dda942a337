"""Experiment runner: reproducible seeded runs driven by INI config files.

Each command reads its own section from the config (plus the shared
``[grid]``, ``[space]`` and ``[run]`` sections), executes the matching
library operation, writes CSV/JSON artifacts into the output directory, and
prints a one-line summary.  Exit codes: 0 on success with all asserted
inequalities passing, 2 on an assertion failure, 1 on usage/config errors.
All randomness is seeded; identical config + seed gives byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InconclusiveError, NoConvergenceError
from .fourier import make_mollifier, mollify_sweep, stechkin_check
from .grid import Grid, GridFunction, make_grid, sample
from .limitops import (
    LimitSweepConfig,
    band_limited_probe,
    density_experiment,
    limit_operator_sweep,
)
from .maximal import maximal_function
from .spaces import SpaceNorm, verify_axioms
from .symbols import parse_symbol

COMMANDS = ("sweep", "mollify", "stechkin", "maximal-check", "density", "axioms")

USAGE_ERROR, ASSERTION_FAILURE = 1, 2

# Largest grid size a run accepts: the oracle scan of maximal-check takes
# O(n^2) time and every command allocates several n-point arrays.
MAX_GRID_N = 2**16


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _load_config(path: str) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if not cfg.read(path):
        raise ConfigError(f"config file not found: {path}")
    return cfg

def _floats(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


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
        p_raw = cfg.get("space", "p", fallback="2")
        p = float("inf") if p_raw.strip() in ("inf", "oo") else float(p_raw)
        self.space = SpaceNorm(p, cfg.getfloat("space", "gamma", fallback=0.0))
        self.seed = args.seed if args.seed is not None else cfg.getint(
            "run", "seed", fallback=0)
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg

    def header(self) -> str:
        p = "inf" if self.space.p == float("inf") else _fmt(self.space.p)
        return (f"# L={_fmt(self.grid.half_width)} n={self.grid.size} "
                f"p={p} gamma={_fmt(self.space.gamma)} seed={self.seed}")

    def write_csv(self, name: str, columns: str, rows: list[str]) -> Path:
        path = self.out / f"{name}.csv"
        path.write_text("\n".join([self.header(), columns] + rows) + "\n")
        return path

    def write_json(self, name: str, obj) -> Path:
        path = self.out / f"{name}.json"
        payload = {"command": name, "header": self.header(), "result": obj}
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path

    def section(self, name: str) -> configparser.SectionProxy:
        if not self.cfg.has_section(name):
            raise ConfigError(f"config is missing the [{name}] section")
        return self.cfg[name]


def _cmd_sweep(exp: Experiment) -> int:
    sec = exp.section("sweep")
    symbol = parse_symbol(sec.get("symbol", "indicator(-1,1)"))
    k1, k2 = sec.getfloat("k1", 1.0), sec.getfloat("k2", 2.0)
    targets = _floats(sec.get("h", "4 8 16 32"))
    dxi = exp.grid.dxi
    shifts = tuple(sorted({max(1, round(t / dxi)) * dxi for t in targets}))
    profile = sec.get("profile", "bump")
    probe = band_limited_probe(exp.grid, (k1, k2), profile, exp.seed)
    cfg = LimitSweepConfig(symbol, probe, (k1, k2), shifts, exp.space)
    rows = limit_operator_sweep(cfg)
    exp.write_csv(
        "sweep",
        "h,norm,bound,within_bound",
        [f"{_fmt(r.shift)},{_fmt(r.norm)},{_fmt(r.bound)},{int(r.within_bound)}"
         for r in rows],
    )
    exp.write_json("sweep", [
        {"h": r.shift, "norm": r.norm, "bound": r.bound,
         "within_bound": r.within_bound} for r in rows
    ])
    all_ok = all(r.within_bound for r in rows)
    print(f"sweep: rows={len(rows)} r_last={_fmt(rows[-1].norm)} "
          f"within_bound={'pass' if all_ok else 'FAIL'}")
    asserted = exp.space.p == 2.0 and exp.space.gamma == 0.0
    return 0 if (all_ok or not asserted) else ASSERTION_FAILURE


def _cmd_mollify(exp: Experiment) -> int:
    sec = exp.section("mollify")
    kind = sec.get("kernel", "gaussian")
    f = sample(sec.get("f", "gaussian"), exp.grid)
    if "deltas" in sec:
        deltas = _floats(sec["deltas"])
    else:
        start = sec.getfloat("delta_start", 1.0)
        count = sec.getint("halvings", 6)
        if count < 0:
            raise ConfigError(f"[mollify] halvings must be >= 0, got {count}")
        deltas = [start / 2**i for i in range(count + 1)]
    phi = make_mollifier(kind, exp.grid)
    rows = mollify_sweep(f, phi, deltas, exp.space)
    exp.write_csv(
        "mollify",
        "delta,error,bound,pointwise_ok",
        [f"{_fmt(r.delta)},{_fmt(r.error)},{_fmt(r.bound)},{int(r.pointwise_ok)}"
         for r in rows],
    )
    decreasing = all(b.error < a.error for a, b in zip(rows, rows[1:]))
    pointwise = all(r.pointwise_ok for r in rows)
    print(f"mollify: kind={kind} final_error={_fmt(rows[-1].error)} "
          f"decreasing={'pass' if decreasing else 'FAIL'} "
          f"pointwise={'pass' if pointwise else 'FAIL'}")
    return 0 if (decreasing and pointwise) else ASSERTION_FAILURE


def _cmd_stechkin(exp: Experiment) -> int:
    sec = exp.section("stechkin")
    symbol = parse_symbol(sec.get("symbol", "indicator(-1,1)"))
    trials = sec.getint("trials", 20)
    report = stechkin_check(symbol, exp.space, trials, exp.seed, exp.grid)
    exp.write_json("stechkin", report.to_json())
    print(f"stechkin: lower={report.lower:.3f} v_norm={report.v_norm:.3f} "
          f"ratio={report.ratio:.3f}")
    return ASSERTION_FAILURE if report.violation else 0


def _cmd_maximal_check(exp: Experiment) -> int:
    sec = exp.section("maximal-check")
    trials = sec.getint("trials", 20)
    if trials < 1:
        raise ConfigError(f"[maximal-check] trials must be >= 1, got {trials}")
    rng = np.random.default_rng(exp.seed)
    rows, ok = [], True

    worst = 0.0
    for _ in range(trials):
        vals = rng.normal(size=exp.grid.size)
        f = GridFunction(exp.grid, vals)
        fast = maximal_function(f, "fast").values.real
        oracle = maximal_function(f, "oracle").values.real
        worst = max(worst, float(np.max(np.abs(fast - oracle))))
    agree = worst <= 1e-12
    ok &= agree
    rows.append(f"fast_vs_oracle,{_fmt(worst)},{_fmt(1e-12)},{int(agree)}")

    chi = sample("indicator(-1,1)", exp.grid)
    m = maximal_function(chi, "fast").values.real
    for target in (1.5, 2.0, 4.0):
        j = int(np.argmin(np.abs(exp.grid.t - target)))
        ref = 2.0 / (1.0 + abs(exp.grid.t[j]))
        err = abs(m[j] - ref)
        passed = err <= 2.0 * exp.grid.dx
        ok &= passed
        rows.append(f"value_at_{target},{_fmt(m[j])},{_fmt(ref)},{int(passed)}")

    outside = np.abs(exp.grid.t) > 1.0
    lhs = 1.0 / np.abs(exp.grid.t[outside])
    ineq = bool(np.all(lhs <= m[outside] + 1e-12))
    ok &= ineq
    rows.append(f"decay_inequality,{_fmt(float(np.max(lhs - m[outside])))},0,{int(ineq)}")

    exp.write_csv("maximal-check", "check,value,reference,ok", rows)
    print(f"maximal-check: fast_vs_oracle_worst={_fmt(worst)} "
          f"{'pass' if ok else 'FAIL'}")
    return 0 if ok else ASSERTION_FAILURE


def _cmd_density(exp: Experiment) -> int:
    sec = exp.section("density")
    f = sample(sec.get("f", "indicator(-1,1)"), exp.grid)
    eps = sec.getfloat("epsilon", 0.1)
    try:
        result = density_experiment(f, eps, exp.space)
    except NoConvergenceError as exc:
        print(f"density: FAIL ({exc})")
        return ASSERTION_FAILURE
    payload = result.to_json()
    payload["epsilon"] = eps
    exp.write_json("density", payload)
    print(f"density: delta={_fmt(result.delta)} achieved={_fmt(result.achieved)} "
          f"epsilon={_fmt(eps)} {'pass' if result.achieved < eps else 'FAIL'}")
    return 0 if result.achieved < eps else ASSERTION_FAILURE


def _cmd_axioms(exp: Experiment) -> int:
    sec = exp.section("axioms")
    trials = sec.getint("trials", 50)
    checks = verify_axioms(exp.space, trials, exp.seed, exp.grid)
    exp.write_json("axioms", [c.to_json() for c in checks])
    all_ok = all(c.passed for c in checks)
    summary = " ".join(f"{c.axiom}={'pass' if c.passed else 'FAIL'}" for c in checks)
    print(f"axioms: {summary}")
    return 0 if all_ok else ASSERTION_FAILURE


_HANDLERS = {
    "sweep": _cmd_sweep,
    "mollify": _cmd_mollify,
    "stechkin": _cmd_stechkin,
    "maximal-check": _cmd_maximal_check,
    "density": _cmd_density,
    "axioms": _cmd_axioms,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convolab",
        description="Reproducible experiments on Fourier convolution operators",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default="out", help="artifact directory")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--grid-n", type=int, default=None, help="override grid size")
    parser.add_argument("--grid-L", type=float, default=None,
                        help="override grid half width")
    return parser


def run_experiment(command: str, config_path: str, **overrides) -> int:
    argv = [command, "--config", config_path]
    for key, val in overrides.items():
        argv += [f"--{key.replace('_', '-')}", str(val)]
    return main(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    # configparser raises parse errors when the file is read and
    # interpolation errors (a bare '%') when a value is read
    try:
        cfg = _load_config(args.config)
        exp = Experiment(cfg, args)
        return _HANDLERS[args.command](exp)
    except (ConfigError, configparser.Error, ValueError, InconclusiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
