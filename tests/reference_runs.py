"""The committed artifact reference: 20 command/config runs and their results.

``tests/reference/artifacts.json`` records, for each run, the exit code,
the summary line with every number masked (its verdict words), and every
value of every artifact.  ``test_reference.py`` reruns the matrix in-process
and compares.  From the root of the checkout,

    PYTHONPATH=src python tests/reference_runs.py --check

prints every value that moved from the reference, however little, and the
largest relative move, and writes nothing; it exits 1 if a move is one the
test would reject.  Regenerate the file after a change that moves numbers
on purpose:

    PYTHONPATH=src python tests/reference_runs.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

from convolab import cli

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference" / "artifacts.json"

# fine and weighted-fine density run at n = 4096, as in bench/harness.py:
# at fine's own n = 1024 even the grid-floor rung misses eps = 0.1 (0.110)
_FOUR = ("sweep", "stechkin", "density", "axioms")
RUNS = tuple(
    (command, config, ("--grid-n", "4096") if command == "density"
     and config.endswith("fine.ini") else ())
    for config, commands in (
        ("configs/quick.ini", cli.COMMANDS),
        ("configs/fine.ini", cli.COMMANDS),
        ("bench/configs/weighted-quick.ini", _FOUR),
        ("bench/configs/weighted-fine.ini", _FOUR),
    )
    for command in commands
)

# values this small are rounding noise, not results
_ABS_TOL = 1e-14
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run_key(command: str, config: str, extra: tuple[str, ...]) -> str:
    return " ".join((command, config, *extra))


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parse(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    header, columns, *rows = path.read_text().splitlines()
    return {"header": header, "columns": columns,
            "rows": [[_cell(c) for c in row.split(",")] for row in rows]}


def collect(command: str, config: str, extra: tuple[str, ...]) -> dict:
    """Run one command in-process; its exit code, verdict and artifacts."""
    printed = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(printed):
            code = cli.main([command, "--config", str(ROOT / config),
                             "--out", out, *extra])
        artifacts = {p.name: _parse(p) for p in sorted(Path(out).iterdir())}
    return {"exit": code, "verdict": _NUMBER.sub("#", printed.getvalue().strip()),
            "artifacts": artifacts}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def differences(want, got, where: str = "", rel_tol: float = 1e-12,
                abs_tol: float = _ABS_TOL) -> list[tuple]:
    """Where ``got`` departs from ``want``, as ``(where, want, got)``:
    numbers beyond ``rel_tol`` and ``abs_tol``, and anything else (verdicts,
    flags, names, shapes, the order of an object's keys) at all."""
    if _is_number(want) and _is_number(got):
        if math.isclose(want, got, rel_tol=rel_tol, abs_tol=abs_tol):
            return []
        return [(where, want, got)]
    if isinstance(want, dict) and isinstance(got, dict):
        reordered = want.keys() == got.keys() and list(want) != list(got)
        return ([(f"{where}/{k}", want.get(k, "absent"), got.get(k, "absent"))
                 for k in sorted(want.keys() ^ got.keys())]
                + ([(f"{where} key order", list(want), list(got))]
                   if reordered else [])
                + [d for k in want if k in got
                   for d in differences(want[k], got[k], f"{where}/{k}",
                                        rel_tol, abs_tol)])
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [(where, f"length {len(want)}", f"length {len(got)}")]
        return [d for i, (w, g) in enumerate(zip(want, got))
                for d in differences(w, g, f"{where}[{i}]", rel_tol, abs_tol)]
    return [] if want == got else [(where, want, got)]


def check() -> int:
    """Print every move from the reference; 1 if the test would reject one."""
    reference = json.loads(REFERENCE.read_text())
    largest, rejected = 0.0, False
    for run in RUNS:
        key, got = run_key(*run), collect(*run)
        rejected = rejected or bool(differences(reference[key], got))
        for where, w, g in differences(reference[key], got, rel_tol=0.0,
                                       abs_tol=0.0):
            print(f"{key} {where}: {w!r} -> {g!r}")
            if _is_number(w) and _is_number(g):
                largest = max(largest, abs(g - w) / max(abs(w), abs(g)))
    print(f"largest relative move: {largest:.3g} (|new - old| / max(|old|, |new|))")
    return int(rejected)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="print the moves from the reference; write nothing")
    if parser.parse_args().check:
        sys.exit(check())
    REFERENCE.parent.mkdir(exist_ok=True)
    reference = {run_key(*run): collect(*run) for run in RUNS}
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {len(RUNS)} runs to {REFERENCE.relative_to(ROOT)}")
