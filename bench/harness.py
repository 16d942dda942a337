"""Workloads, and the closed-loop runner that times and checks each verdict.

One client, one thread: each operation is a ``convolab.cli.main(argv)``
call made in-process after the previous one returned.  A pass runs the
workload's operation list once, at one CLI ``--seed``.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

COMMANDS = ("sweep", "mollify", "stechkin", "maximal-check", "density", "axioms")
GRIDS = ("quick", "fine")


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``grid`` says whether it runs on quick or fine."""

    command: str
    config: str
    grid: str
    extra: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return f"{self.command}@{self.grid}"

    def argv(self, seed: int, out: Path) -> list[str]:
        return [self.command, "--config", self.config, "--out", str(out),
                "--seed", str(seed), *self.extra]


def _ops(commands, quick: str, fine: str) -> tuple[Op, ...]:
    ops = [Op(c, quick, "quick") for c in commands]
    for c in commands:
        # configs/fine.ini's own n = 1024 makes density exit 2 (a known
        # defect); its header says to run density with --grid-n 4096.
        extra = ("--grid-n", "4096") if c == "density" else ()
        ops.append(Op(c, fine, "fine", extra))
    return tuple(ops)


_FOUR = ("sweep", "stechkin", "density", "axioms")
WORKLOADS = {
    "operators": _ops(_FOUR, "configs/quick.ini", "configs/fine.ini"),
    "maximal": _ops(("maximal-check", "mollify"),
                    "configs/quick.ini", "configs/fine.ini"),
    "weighted": _ops(_FOUR, "bench/configs/weighted-quick.ini",
                     "bench/configs/weighted-fine.ini"),
}


@dataclass
class PassResult:
    seed: int
    op_s: list[float]  # wall time of each operation, in workload order
    op_ref_s: list[float] = field(default_factory=list)  # set by run.run_for

    @property
    def total_s(self) -> float:
        return sum(self.op_s)


class Runner:
    """Runs passes and checks every verdict.

    An operation fails if it raises, exits non-zero, prints ``FAIL``, or
    writes artifacts that differ in any byte from the earlier run of the
    same operation at the same seed within this process.
    """

    def __init__(self, cli, ops, work_dir: Path):
        self.cli = cli
        self.ops = ops
        self.work_dir = work_dir
        self.attempted = 0
        self.failures: list[str] = []
        self._reference: dict = {}  # (op index, seed) -> {file: bytes}

    def run_pass(self, seed: int, before_op=lambda: None) -> PassResult:
        """One pass at ``seed``; ``before_op()`` runs, untimed, before each op."""
        times = []
        for i, op in enumerate(self.ops):
            before_op()
            out = self.work_dir / str(i)
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            argv = op.argv(seed, out)
            printed = io.StringIO()
            error = None
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                    # looked up at call time, so a traced run calls the wrapper
                    code = self.cli.main(argv)
            except Exception as exc:  # a raising command is a failed verdict
                code, error = None, exc
            times.append(perf_counter() - t0)
            self._check(i, op, seed, code, error, printed.getvalue(), out)
        return PassResult(seed, times)

    def _check(self, i, op, seed, code, error, printed, out) -> None:
        self.attempted += 1
        problem = None
        if error is not None:
            problem = f"raised {type(error).__name__}: {error}"
        elif code != 0:
            problem = f"exit code {code}"
        elif "FAIL" in printed:
            problem = "summary reports FAIL"
        else:
            artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            if not artifacts:
                problem = "wrote no artifacts"
            else:
                ref = self._reference.setdefault((i, seed), artifacts)
                if ref != artifacts:
                    changed = sorted(k for k in ref.keys() | artifacts.keys()
                                     if ref.get(k) != artifacts.get(k))
                    problem = f"artifacts differ from the earlier repeat: {changed}"
        if problem:
            msg = f"{op.name} seed={seed}: {problem}; output: {printed.strip()[:200]}"
            self.failures.append(msg)
            print(f"bench: FAILED {msg}", file=sys.stderr)
