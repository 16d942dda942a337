"""Benchmark for convolab: how long each CLI verdict takes, and where.

Run from the root of a checkout:

    python3 bench/run.py --workload operators --seed 1 --seconds 30 --trace 0

``--trace 0`` times passes over the workload's operations untraced and
reports the end-to-end metrics.  ``--trace 1`` makes the traced run: call
counts and self time per library function, the layer scan, and the
harness self-tests.  The last line of standard output is the result
object; the line before it is a report with the manifest and every
number behind the metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from harness import COMMANDS, GRIDS, WORKLOADS, Runner
from scan import layer_scan, metric_names
from tracer import Tracer, leftover_wrappers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SEEDS_PER_RUN = 2
SETUP_REPEATS = 6  # before the timed passes, and as many after them
P90_MIN_PASSES = 100

END_TO_END = {
    "setup_s": "s",
    "pass_ref": "ref",
    "verdict_ref.quick": "ref",
    "verdict_ref.fine": "ref",
    "peak_rss_mb": "MB",
}
TRACED = (
    "grid.dft_pair", "grid.GridFunction",
    "fourier.apply_multiplier", "fourier.convolve",
    "fourier.multiplier_norm_lower_bound",
    "maximal.maximal_function.fast", "maximal.maximal_function.oracle",
    "spaces.space_norm", "spaces.weight_values", "spaces.verify_axioms",
    "symbols.symbol_norms", "symbols.tail_sup",
    "limitops.conjugated_apply", "limitops.density_experiment",
    "cli.main",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in TRACED:
        units[f"{name}.calls"] = "count/pass"
        units[f"{name}.self_ms"] = "ms/pass"
    units["limitops.density_experiment.convolve_per_call"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    units["trace.unaccounted_frac"] = "ratio"
    for command in COMMANDS:
        units[f"verdict_ms.{command}"] = "ms/pass"
    for name in metric_names():
        units[name] = "us"
    return units


_SETUP_SCRIPT = """
import configparser, sys
sys.path.insert(0, sys.argv[1])
import convolab.cli
for path in sys.argv[2:]:
    if not configparser.ConfigParser().read(path):
        raise SystemExit("cannot read config " + path)
"""
# The reference start: a fresh interpreter that imports numpy and nothing
# of convolab.  It is the same kind of work as set-up (interpreter start,
# unmarshalling, loading shared libraries), so it tracks the machine's
# speed where the FFT kernel below does not.
_START_SCRIPT = "import numpy"
# numpy's OpenBLAS starts one thread per core at import.  On a busy host
# that start varies widely, and it is numpy's cost, not convolab's.
_CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}
# setup_s is given in seconds of a machine on which the reference start
# takes this long, about what it takes on an idle 2-core VM.
START_REF_S = 0.1


def measure_setup(configs: list[str], repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import convolab.cli and read
    the workload's configs, and of the reference starts that bracket them:
    ``repeats`` set-ups and ``repeats + 1`` starts, alternating."""
    env = {**os.environ, **_CHILD_ENV}

    def wall(script, *args):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT, env=env, check=True)
        return perf_counter() - t0

    starts = [wall(_START_SCRIPT)]
    setups = []
    for _ in range(repeats):
        setups.append(wall(_SETUP_SCRIPT, str(SRC), *configs))
        starts.append(wall(_START_SCRIPT))
    return setups, starts


def setup_seconds(blocks) -> float:
    """Median set-up time over the ``measure_setup`` blocks, each sample
    divided by the mean of the two reference starts around it, in seconds
    at ``START_REF_S`` per start."""
    return START_REF_S * statistics.median(
        t / ((a + b) / 2)
        for setups, starts in blocks
        for t, a, b in zip(setups, starts, starts[1:]))


_REF_INPUT = np.exp(1j * np.arange(4096) ** 2 / 4096.0)
REF_EVERY_S = 0.25


def reference_s() -> float:
    """Wall time of a fixed kernel of small FFTs and interpreter work, the
    kind of work the library does.  It gauges how fast the machine runs at
    that moment: on a shared host that speed drifts by 20% and more over
    seconds."""
    t0 = perf_counter()
    for i in range(600):
        y = np.fft.ifft(np.fft.fft(_REF_INPUT[i % 512:i % 512 + 256]) * 0.5)
        float(np.abs(y).sum())
    return perf_counter() - t0


def run_for(runner, seeds, seconds, first, min_passes):
    """Closed loop: passes back to back, cycling the seeds, until both
    ``seconds`` have passed and ``min_passes`` are done.

    The reference kernel runs after every pass, and before an operation
    when ``REF_EVERY_S`` has passed since it last ran.  Each operation gets
    the mean of the two kernel times that bracket it."""
    results = []
    deadline = perf_counter() + seconds
    samples = [reference_s()]
    last = perf_counter()
    while len(results) < min_passes or perf_counter() < deadline:
        starts = []  # per op: index of the first sample taken after it starts

        def before_op():
            nonlocal last
            if perf_counter() - last >= REF_EVERY_S:
                samples.append(reference_s())
                last = perf_counter()
            starts.append(len(samples))

        result = runner.run_pass(seeds[(first + len(results)) % len(seeds)], before_op)
        samples.append(reference_s())
        last = perf_counter()
        result.op_ref_s = [(samples[k - 1] + samples[k]) / 2 for k in starts]
        results.append(result)
    return results


def summarize(ops, passes) -> dict:
    """Medians over passes of the pass time and of the time per grid and
    per command, each summed within a pass: in milliseconds of wall time,
    and (``_ref``) with each operation's time in units of the reference
    kernel's time around it."""

    def spent(select, p):
        return sum(t for op, t in zip(ops, p.op_s) if select(op))

    def median_ms(select):
        return 1e3 * statistics.median(spent(select, p) for p in passes)

    def median_ref(select):
        return statistics.median(
            sum(t / r for op, t, r in zip(ops, p.op_s, p.op_ref_s) if select(op))
            for p in passes)

    totals = [p.total_s for p in passes]
    out = {
        "passes": len(passes),
        "pass_s": statistics.median(totals),
        "pass_ref": median_ref(lambda op: True),
        "ref_ms": 1e3 * statistics.median(r for p in passes for r in p.op_ref_s),
    }
    if len(passes) >= P90_MIN_PASSES:
        out["pass_s.p90"] = statistics.quantiles(totals, n=10)[-1]
    for grid in GRIDS:
        out[f"verdict_ms.{grid}"] = median_ms(lambda op: op.grid == grid)
        out[f"verdict_ref.{grid}"] = median_ref(lambda op: op.grid == grid)
    for command in COMMANDS:
        ran = any(op.command == command for op in ops)
        out[f"verdict_ms.{command}"] = median_ms(lambda op: op.command == command) if ran else 0.0
    return out


def timed_run(runner, ops, seeds, seconds) -> tuple[dict, dict]:
    configs = sorted({op.config for op in ops})
    measure_setup(configs, 1)  # untimed: fills the bytecode caches
    before = measure_setup(configs, SETUP_REPEATS)
    runner.run_pass(seeds[0])  # warm-up: caches, lazy grid properties
    passes = run_for(runner, seeds, seconds, 1, 2 * len(seeds) - 1)
    # set-up is sampled on both sides of the passes, so its median spans
    # the run rather than its first seconds
    after = measure_setup(configs, SETUP_REPEATS)
    summary = summarize(ops, passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_seconds([before, after]),
        "pass_ref": summary["pass_ref"],
        "verdict_ref.quick": summary["verdict_ref.quick"],
        "verdict_ref.fine": summary["verdict_ref.fine"],
        "peak_rss_mb": rss_mb,
    }
    report = {
        "setup_raw_s": statistics.median(before[0] + after[0]),
        "start_raw_s": statistics.median(before[1] + after[1]),
        "setup.samples": [before, after],
        "untraced": summary,
    }
    return metrics, report


def traced_run(runner, ops, seeds, seconds, seed) -> tuple[dict, dict]:
    """Traced passes in whole seed cycles, then untraced passes in the same
    process, then the layer scan."""
    runner.run_pass(seeds[0])  # warm-up, untraced
    tracer = Tracer()
    traced, per_cycle = [], []
    deadline = perf_counter() + seconds / 2
    tracer.install()
    try:
        while len(per_cycle) < 2 or perf_counter() < deadline:
            before = Counter(tracer.calls)
            traced += run_for(runner, seeds, 0, 0, len(seeds))
            per_cycle.append(tracer.calls - before)
    finally:
        tracer.uninstall()
    left = leftover_wrappers()
    calls_frozen = Counter(tracer.calls)
    failures_traced = len(runner.failures)
    untraced = run_for(runner, seeds, seconds / 2, 0, len(seeds))

    selftest = {
        "calls_repeat_every_cycle": all(c == per_cycle[0] for c in per_cycle),
        "no_wrapper_left": not left,
        "untraced_after_uninstall": tracer.calls == calls_frozen,
        "traced_artifacts_match_untraced": len(runner.failures) == failures_traced == 0,
    }
    n = len(traced)
    traced_total = sum(p.total_s for p in traced)
    untraced_summary = summarize(ops, untraced)
    traced_summary = summarize(ops, traced)
    metrics = {}
    for name in TRACED:
        metrics[f"{name}.calls"] = tracer.calls[name] / n
        metrics[f"{name}.self_ms"] = 1e3 * tracer.self_s[name] / n
    density = "limitops.density_experiment"
    metrics[f"{density}.convolve_per_call"] = (
        tracer.edges[density, "fourier.convolve"] / tracer.calls[density]
        if tracer.calls[density] else 0.0)
    metrics["trace.overhead_frac"] = traced_summary["pass_ref"] / untraced_summary["pass_ref"] - 1
    metrics["trace.unaccounted_frac"] = 1 - sum(tracer.self_s.values()) / traced_total
    for command in COMMANDS:
        metrics[f"verdict_ms.{command}"] = untraced_summary[f"verdict_ms.{command}"]
    metrics.update(layer_scan(seed))
    report = {
        "selftest": selftest,
        "leftover_wrappers": left,
        "traced": traced_summary,
        "untraced": untraced_summary,
        "all_traced_functions": {
            name: {"calls": tracer.calls[name] / n,
                   "self_ms": 1e3 * tracer.self_s[name] / n}
            for name in sorted(tracer.calls)},
    }
    return metrics, report


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None  # keeps git from answering for a repository above ROOT
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "convolab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def load_convolab():
    """Import convolab from this checkout's src/, never from elsewhere."""
    needed = [SRC / "convolab" / "cli.py", ROOT / "configs" / "quick.ini",
              ROOT / "configs" / "fine.ini"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(f"bench: not a convolab checkout, missing {missing}")
    sys.path.insert(0, str(SRC))
    import convolab
    import convolab.cli
    if Path(convolab.__file__).resolve().parent != SRC / "convolab":
        raise SystemExit(f"bench: imported convolab from {convolab.__file__}")
    return convolab


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    load_start = loadavg()
    convolab = load_convolab()

    os.chdir(ROOT)  # op configs are paths relative to the checkout root
    ops = WORKLOADS[args.workload]
    seeds = random.Random(args.seed).sample(range(1, 2**31), SEEDS_PER_RUN)
    work = WORK / f"{args.workload}-{os.getpid()}"
    runner = Runner(convolab.cli, ops, work)
    try:
        if args.trace:
            metrics, report = traced_run(runner, ops, seeds, args.seconds, args.seed)
            units = per_layer_units()
            selftest_ok = all(report["selftest"].values())
        else:
            metrics, report = timed_run(runner, ops, seeds, args.seconds)
            units = END_TO_END
            selftest_ok = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    failed = len(runner.failures)
    report.update({
        "manifest": {
            "workload": args.workload,
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "convolab": convolab.__version__,
            "git_commit": git_commit(),
            "source_sha256": source_sha256(),
            "benchmark_seed": args.seed,
            "cli_seeds": seeds,
            "passes": {phase: report[phase]["passes"]
                       for phase in ("traced", "untraced") if phase in report},
            "seconds": args.seconds,
            "trace": args.trace,
            "loadavg_start": load_start,
            "loadavg_end": loadavg(),
        },
        "fail_frac": failed / runner.attempted,
        "failures": runner.failures,
    })
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and selftest_ok,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
