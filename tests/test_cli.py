import configparser
import dataclasses
import json
import math
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from convolab import (Grid, GridFunction, SpaceNorm, SymbolNorms, cli, fourier,
                      limitops, make_grid, parse_symbol, sample, space_norm,
                      spaces)
from convolab.cli import ASSERTION_FAILURE, USAGE_ERROR, main
from convolab.grid import filter_rows
from convolab.limitops import SweepRow
from conjugation import out_of_band_mass
from reference_runs import ROOT, RUNS

CONFIG = """
[grid]
L = 8
n = 256

[space]
p = 2
gamma = 0

[run]
seed = 42

[sweep]
symbol = indicator(-1,1)
k1 = 1
k2 = 2
h = 4, 8, 16, 32

[mollify]
kernel = gaussian
f = gaussian

[stechkin]
symbol = indicator(-1,1)
trials = 10

[maximal-check]
trials = 8

[density]
f = indicator(-1,1)
epsilon = 0.35

[axioms]
trials = 20
"""


SHIPPED = Path(__file__).resolve().parent.parent / "configs"
# the benchmark's weighted configs, read by the tests and never changed
WEIGHTED = SHIPPED.parent / "bench" / "configs"


def shipped(config):
    """``configs/<config>``, or the benchmark's ``bench/configs/<config>``
    for a ``weighted-*`` config."""
    return (WEIGHTED if config.startswith("weighted-") else SHIPPED) / config


def run_shipped(command, config, tmp_path, *extra):
    """Run ``command`` on the shipped or weighted ``config``."""
    return main([command, "--config", str(shipped(config)),
                 "--out", str(tmp_path / "out"), *extra])


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG)
    return path


@pytest.mark.parametrize(
    "command,artifact",
    [
        ("sweep", "sweep.csv"),
        ("mollify", "mollify.csv"),
        ("stechkin", "stechkin.json"),
        ("maximal-check", "maximal-check.csv"),
        ("density", "density.json"),
        ("axioms", "axioms.json"),
    ],
)
def test_commands_succeed_and_write_artifacts(command, artifact, config_path,
                                              tmp_path, capsys):
    out = tmp_path / "out"
    code = main([command, "--config", str(config_path), "--out", str(out)])
    assert code == 0
    assert (out / artifact).exists()
    assert capsys.readouterr().out.startswith(command.split("-")[0])


@pytest.mark.parametrize("config", sorted(p.name for p in SHIPPED.glob("*.ini")))
def test_a_shipped_config_sets_only_keys_a_command_reads(config, tmp_path,
                                                         monkeypatch, capsys):
    # unknown keys are ignored, so a key no command reads looks like a
    # setting and changes nothing; fine's density runs at n = 4096
    read = set()
    get = cli._Config.get

    def recording_get(self, section, option, **kwargs):
        read.add((section, self.optionxform(option)))
        return get(self, section, option, **kwargs)

    monkeypatch.setattr(cli._Config, "get", recording_get)
    cfg = configparser.ConfigParser()
    cfg.read(shipped(config))
    for command in filter(cfg.has_section, cli.COMMANDS):
        extra = (("--grid-n", "4096") if (command, config) == ("density", "fine.ini")
                 else ())
        assert run_shipped(command, config, tmp_path, *extra) == 0
    assert {(s, k) for s in cfg.sections() for k in cfg[s]} - read == set()


def test_csv_headers_record_run_parameters(config_path, tmp_path):
    out = tmp_path / "out"
    main(["sweep", "--config", str(config_path), "--out", str(out)])
    first = (out / "sweep.csv").read_text().splitlines()[0]
    assert first == "# L=8 n=256 p=2 gamma=0 seed=42"


def test_determinism_byte_identical(config_path, tmp_path):
    artifacts = []
    for name in ("a", "b"):
        out = tmp_path / name
        for command in cli.COMMANDS:
            assert main([command, "--config", str(config_path),
                         "--out", str(out)]) == 0
        artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(artifacts[0]) == 7 and artifacts[0] == artifacts[1]


def test_flag_overrides_change_header(config_path, tmp_path):
    out = tmp_path / "out"
    main(["sweep", "--config", str(config_path), "--out", str(out),
          "--seed", "7", "--grid-n", "512", "--grid-L", "4"])
    first = (out / "sweep.csv").read_text().splitlines()[0]
    assert "n=512" in first and "seed=7" in first
    assert first.startswith("# L=4 ")


@pytest.mark.parametrize("value", ["-1", "nan"])
def test_bad_grid_half_width_is_usage_error(value, config_path, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["sweep", "--config", str(config_path), "--out", str(out),
                 "--grid-L", value])
    assert code == USAGE_ERROR
    assert "half_width must be positive and finite" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("p,code", [(3, 0), (2, ASSERTION_FAILURE)])
def test_sweep_fails_only_an_asserted_bound(p, code, tmp_path, capsys,
                                            monkeypatch):
    def exceeded(symbol, grid, band, shifts, space):
        return [SweepRow(shifts[0], 2.0, 1.0, False)]

    monkeypatch.setattr(cli, "limit_operator_sweep", exceeded)
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG.replace("p = 2", f"p = {p}"))
    assert main(["sweep", "--config", str(path), "--out",
                 str(tmp_path / "o")]) == code
    word = "FAIL" if code else "exceeded (not asserted)"
    assert capsys.readouterr().out.endswith(f" within_bound={word}\n")


def test_sweep_rejects_symbol_not_vanishing_at_infinity(tmp_path, capsys):
    path = tmp_path / "exp.ini"
    path.write_text(CONFIG.replace("symbol = indicator(-1,1)\nk1",
                                   "symbol = arctan\nk1"))
    out = tmp_path / "o"
    code = main(["sweep", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == USAGE_ERROR
    assert err == ("error: symbol arctan is not equivalent to zero at infinity: "
                   "a(-inf) = -1.57079632679, a(+inf) = 1.57079632679\n")
    assert not out.exists()


def test_stechkin_summary_line(config_path, tmp_path, capsys):
    main(["stechkin", "--config", str(config_path), "--out", str(tmp_path / "o")])
    line = capsys.readouterr().out.strip()
    assert line == ("stechkin: lower=1 v_norm=3 ratio=0.333333333333 "
                    "sup_bound=pass eigen=pass")


@pytest.mark.parametrize("config,scale,line", [
    ("weighted-quick.ini", "1e-104",
     "stechkin: lower=1e-104 v_norm=1e-104 ratio=1 eigen=pass"),
    ("quick.ini", "1e300",
     "stechkin: lower=1e+300 v_norm=1e+300 ratio=1 sup_bound=pass eigen=pass"),
    ("quick.ini", "1e-308",
     "stechkin: lower=1e-308 v_norm=1e-308 ratio=1 sup_bound=pass eigen=pass"),
], ids=["weighted-quick-1e-104", "quick-1e300", "quick-1e-308"])
def test_stechkin_summary_line_keeps_every_scale(config, scale, line, tmp_path,
                                                 capsys):
    # with three fixed decimals these read 0.000, and 301 digits
    path = shipped_with(config, tmp_path, "stechkin", "symbol", f"const({scale})")
    assert main(["stechkin", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out == line + "\n"


def run_stechkin(tmp_path, symbol, trials, p=2.0, gamma=0.0):
    """Run ``stechkin`` on ``symbol`` at L = 8, n = 256 and seed 0: its exit
    code and its ``stechkin.json`` result (None when none was written)."""
    path = tmp_path / "stechkin.ini"
    path.write_text(f"[grid]\nL = 8\nn = 256\n[space]\np = {p}\n"
                    f"gamma = {gamma}\n[run]\nseed = 0\n"
                    f"[stechkin]\nsymbol = {symbol}\ntrials = {trials}\n")
    out = tmp_path / "o"
    code = main(["stechkin", "--config", str(path), "--out", str(out)])
    artifact = out / "stechkin.json"
    result = (json.loads(artifact.read_text())["result"] if artifact.exists()
              else None)
    return code, result


class TestStechkin:
    def test_indicator_at_p2(self, tmp_path, capsys):
        code, report = run_stechkin(tmp_path, "indicator(-1,1)", 10)
        assert code == 0
        assert list(report) == ["lower", "v_norm", "sup_norm", "ratio",
                                "calibration", "violation", "eigen_gap"]
        assert report["lower"] == pytest.approx(1.0, abs=1e-10)
        assert report["v_norm"] == pytest.approx(3.0, abs=1e-12)
        assert report["sup_norm"] == 1.0
        assert report["ratio"] == pytest.approx(1 / 3, abs=1e-10)
        assert report["calibration"] == "exact: lower <= sup_norm, the norm at p=2"
        assert report["violation"] is False
        assert report["eigen_gap"] <= 1e-12
        assert capsys.readouterr().out.endswith(" sup_bound=pass eigen=pass\n")

    def test_constant_is_equality_case(self, tmp_path):
        code, report = run_stechkin(tmp_path, "const(2)", 5)
        assert code == 0
        assert report["lower"] == pytest.approx(2.0, abs=1e-10)
        assert report["v_norm"] == pytest.approx(2.0, abs=1e-12)
        assert report["ratio"] == pytest.approx(1.0, abs=1e-10)
        assert report["violation"] is False

    def test_other_exponents_recorded_not_asserted(self, tmp_path, capsys):
        code, report = run_stechkin(tmp_path, "arctan", 5, p=3.0)
        assert code == 0
        assert report["calibration"] == "uncalibrated, empirical ratio"
        assert report["violation"] is False
        assert 0.0 < report["ratio"] <= 1.0  # lower bound cannot beat v_norm here
        assert report["eigen_gap"] <= 1e-12  # the spike probe is exact anywhere
        # no sup_bound gate outside unweighted L2
        out = capsys.readouterr().out
        assert out.endswith(" eigen=pass\n") and "sup_bound" not in out

    def test_zero_symbol_has_no_eigen_check(self, tmp_path, capsys):
        # max |a| = 0 leaves no eigenvalue to match, and every bound on the
        # zero operator holds vacuously: the sample is refused
        code, report = run_stechkin(tmp_path, "const(0)", 2, p=3.0, gamma=-0.5)
        assert code == USAGE_ERROR and report is None
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "zero at every frequency node" in err


def run_density(tmp_path, grid, eps, f="indicator(-1,1)"):
    """Exit code and ``density.json`` result of ``density`` on ``f`` at
    ``eps`` in L2 on ``grid``; the result is None when nothing is written."""
    path = tmp_path / "density.ini"
    path.write_text(f"[grid]\nL = {grid.half_width!r}\nn = {grid.size}\n"
                    f"[density]\nf = {f}\nepsilon = {eps!r}\n")
    out = tmp_path / "density"
    code = main(["density", "--config", str(path), "--out", str(out)])
    artifact = out / "density.json"
    return code, (json.loads(artifact.read_text())["result"]
                  if artifact.exists() else None)


def kept_rung(f, result):
    """The rung of ``Mollifier.ladder`` that ``result`` reports: the first
    whose error is below epsilon, or the closest when none is.  Its error
    is ``achieved`` bit for bit and its spectrum lies in ``band``."""
    phi = fourier.Mollifier("bump_spectrum", f.grid)
    deltas, _, errors = phi.ladder(f, SpaceNorm(2.0))
    below = np.flatnonzero(errors < result["epsilon"])
    i = int(below[0]) if below.size else int(np.argmin(errors))
    assert result["delta"] == deltas[i]
    assert result["achieved"] == errors[i]
    assert result["band"] == [-1.0 / deltas[i], 1.0 / deltas[i]]
    approx = GridFunction(f.grid, filter_rows(f.values, phi.spectrum(deltas[i])))
    assert out_of_band_mass(approx, result["band"]) < 1e-9
    return approx


def test_density_json_payload(config_path, tmp_path):
    out = tmp_path / "out"
    main(["density", "--config", str(config_path), "--out", str(out)])
    payload = json.loads((out / "density.json").read_text())
    result = payload["result"]
    assert list(result) == ["delta", "achieved", "band", "epsilon"]
    assert result["achieved"] < result["epsilon"]
    # the approximant the payload describes: the rung of that delta
    kept_rung(sample("indicator(-1,1)", make_grid(8.0, 256)), result)


class TestDensityExperiment:
    def test_indicator_reaches_tenth(self, tmp_path, capsys):
        g = make_grid(16.0, 4096)
        code, result = run_density(tmp_path, g, 0.1)
        assert code == 0 and result["achieved"] < 0.1
        kept_rung(sample("indicator(-1,1)", g), result)

    def test_band_limited_input_converges_immediately(self, fine_grid, tmp_path,
                                                     capsys, monkeypatch):
        # the bump filtered by the delta = 0.5 spectrum lives in [-2, 2]
        spectrum = fourier.Mollifier("bump_spectrum", fine_grid).spectrum(0.5)
        probe = GridFunction(fine_grid, filter_rows(
            sample("bump", fine_grid).values, spectrum))
        monkeypatch.setattr(cli, "sample", lambda spec, grid: probe)
        code, result = run_density(tmp_path, fine_grid, 0.25)
        assert code == 0 and result["achieved"] < 0.25
        assert result["delta"] == 1.0  # first scale tried already suffices
        kept_rung(probe, result)

    def test_huge_epsilon_still_returns_genuine_approximant(self, fine_grid,
                                                           tmp_path, capsys):
        chi = sample("indicator(-1,1)", fine_grid)
        eps = 10.0 * space_norm(SpaceNorm(2.0), chi)
        code, result = run_density(tmp_path, fine_grid, eps)
        assert code == 0 and result["achieved"] < eps
        # no shortcut: the result is a genuinely mollified band-limited probe
        assert space_norm(SpaceNorm(2.0), kept_rung(chi, result)) > 0.0

    def test_unreachable_floor_reports_best(self, std_grid, tmp_path, capsys):
        chi = sample("indicator(-1,1)", std_grid)
        code, result = run_density(tmp_path, std_grid, 1e-6)
        assert code == ASSERTION_FAILURE and result["achieved"] >= 1e-6
        assert result["delta"] == 0.5 * std_grid.dx
        # the closest rung is still a genuine band-limited approximant
        approx = kept_rung(chi, result)
        error = GridFunction(std_grid, approx.values - chi.values)
        assert result["achieved"] == space_norm(SpaceNorm(2.0), error)

    def test_grid_floor_reports_best_error(self, fine_grid, tmp_path, capsys):
        # on (16, 1024) the floor rung dx/2 = 1/64 is the closest, at 0.110
        chi = sample("indicator(-1,1)", fine_grid)
        code, result = run_density(tmp_path, fine_grid, 0.1)
        assert code == ASSERTION_FAILURE and result["delta"] == 0.015625
        _, _, errors = fourier.Mollifier("bump_spectrum", fine_grid).ladder(
            chi, SpaceNorm(2.0))
        assert result["achieved"] == min(errors) == errors[-1]
        assert 0.11 < result["achieved"] < 0.111

    @pytest.mark.parametrize("L", [20.0, 24.0])
    def test_ladder_ends_on_the_grid_floor(self, L, tmp_path, capsys):
        # dx/2 is no power of two here, so the last rung is the floor itself
        g = make_grid(L, 256)
        code, missed = run_density(tmp_path, g, 1e-6)
        assert code == ASSERTION_FAILURE and missed["achieved"] >= 1e-6
        assert missed["delta"] == 0.5 * g.dx
        code, floor = run_density(tmp_path, g, missed["achieved"] * (1 + 1e-12))
        assert code == 0 and floor["delta"] == 0.5 * g.dx
        kept_rung(sample("indicator(-1,1)", g), floor)

    def test_epsilon_validated(self, std_grid, tmp_path, capsys):
        for eps in (0.0, -1.0):
            assert run_density(tmp_path, std_grid, eps, "bump") == (USAGE_ERROR, None)
            err = capsys.readouterr().err
            assert err.startswith("error: [density] epsilon") and err.count("\n") == 1

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, std_grid, eps, tmp_path, capsys):
        assert run_density(tmp_path, std_grid, eps, "bump") == (USAGE_ERROR, None)
        err = capsys.readouterr().err
        assert err.startswith("error: [density] epsilon") and err.count("\n") == 1
        assert "finite" in err

    def test_zero_function_rejected(self, std_grid, tmp_path, capsys):
        assert run_density(tmp_path, std_grid, 0.1, "const(0)") == (USAGE_ERROR, None)
        assert "vacuously" in capsys.readouterr().err


def test_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["sweep", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)])
    assert code == USAGE_ERROR
    assert "error:" in capsys.readouterr().err


def test_bad_descriptor_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[stechkin]\nsymbol = mystery(3)\n")
    code = main(["stechkin", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == USAGE_ERROR
    assert "unknown symbol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,setting",
    [("stechkin", "symbol = indicator(1)"),
     ("stechkin", "symbol = shift(arctan,nan)"),
     ("density", "f = indicator(nan,1)"),
     ("density", "epsilon = nan"),
     ("density", "f = const(0)"),
     ("sweep", "h = inf"),
     # an empty list is refused by the config reader, the next two by the
     # sweep: 0.1 rounds to no lattice step, and 1e308 / dxi overflows
     ("sweep", "h ="),
     ("sweep", "h = 1e308"),
     ("sweep", "h = -4, 0.1, 4"),
     ("sweep", "k1 = 3"),
     # the band, or the band shifted by the largest lattice shift, leaves
     # the frequency window |xi| < pi/dx = 50.2655
     ("sweep", "k2 = 100"),
     ("sweep", "h = 60"),
     ("stechkin", "symbol = indicator(2,1)"),
     ("stechkin", "symbol = rational_decay(0)"),
     ("stechkin", "symbol = shift(arctan)"),
     ("density", "f = indicator(1,1)"),
     ("density", "f = gaussian(0,0)"),
     # 2 sigma^2 overflows to inf, or underflows to 0
     ("density", "f = gaussian(0,1e200)"),
     ("mollify", "f = gaussian(0,1e-170)"),
     # 1 / max|a(xi_k)| overflows
     ("stechkin", "symbol = const(1e-309)"),
     ("density", "f = bump(0,0)"),
     ("density", "f = nosuch(1)"),
     ("density", "f = 1abc"),
     ("maximal-check", "trials = 1\n[space]\np = oo"),
     # outside 1 < p < inf, -1 < gamma < p - 1, M is unbounded on X or X'
     ("maximal-check", "trials = 1\n[space]\np = inf"),
     ("maximal-check", "trials = 1\n[space]\np = 1"),
     ("maximal-check", "trials = 1\n[space]\np = 1\ngamma = -0.5")],
)
def test_bad_command_inputs_are_usage_errors(command, setting, tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{command}]\n{setting}\n")
    out = tmp_path / "o"
    code = main([command, "--config", str(path), "--out", str(out)])
    assert code == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(out.glob(f"{command}.*"))
    if setting in ("k2 = 100", "h = 60"):
        assert "50.2655" in err


@pytest.mark.parametrize("space", ["p = inf", "p = 1", "p = 1\ngamma = -0.5",
                                   "p = 2\ngamma = 1"])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_a_space_outside_the_a_p_range_is_refused(command, space, tmp_path,
                                                   capsys):
    # at p = inf every band-limited function stays 1/2 from a jump in the
    # sup norm, yet density and mollify on indicator(-1,1) passed there
    path = tmp_path / "space.ini"
    path.write_text(CONFIG.replace("p = 2\ngamma = 0", space))
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:")
    assert "1 < p < inf and -1 < gamma < p - 1" in captured.err
    assert " got p=" in captured.err and ", gamma=" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command,setting,reason", [
    ("mollify", "f = const(0)", "f is zero"),
    ("density", "f = const(0)", "f is zero"),
    ("sweep", "symbol = const(0)", "zero at every frequency node"),
    # nonzero at nodes xi of the grid, but zero at every node xi + h the
    # sweep filters with: every norm would read 0
    ("sweep", "symbol = indicator(-49,-47)", "zero at every frequency node"),
    # (1 + x^2)^(-s) is 0 out there, where x^2 overflows: no warning either
    ("sweep", "symbol = shift(rational_decay(1),1e308)",
     "zero at every frequency node"),
    # x exp(-x^2) is 0 at every node but 0 itself: no overflow warning
    ("density", "f = xgaussian\n[grid]\nL = 1e200", "f is zero"),
    ("mollify", "f = xgaussian\n[grid]\nL = 1e200", "f is zero"),
    ("stechkin", "symbol = const(0)", "zero at every frequency node"),
    # no frequency node of this grid lies in the band (1, 2): a zero probe
    ("sweep", "[grid]\nL = 0.5", "probe vanished"),
    # nonzero only on |x| > 2, beyond the window |x| < pi/2 of this grid
    ("stechkin", "symbol = truncate(rational_decay(1),2)\n[grid]\nn = 8",
     "zero at every frequency node"),
])
def test_a_zero_input_is_refused_not_passed_vacuously(command, setting, reason,
                                                      tmp_path, capsys):
    # a zero f or symbol would meet every bound with equality at 0
    path = tmp_path / "zero.ini"
    path.write_text(f"[{command}]\n{setting}\n")
    out = tmp_path / "o"
    code = main([command, "--config", str(path), "--out", str(out)])
    assert code == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error:") and reason in captured.err
    assert "vacuously" in captured.err
    assert not list(out.glob(f"{command}.*"))


@pytest.mark.parametrize("config,n", [("quick.ini", 256), ("fine.ini", 1024)])
@pytest.mark.parametrize("command", ["sweep", "stechkin"])
def test_a_run_samples_its_symbol_at_the_nodes_once(command, config, n,
                                                    tmp_path, capsys,
                                                    monkeypatch):
    # symbol_norms samples k * 128 + 1 nodes, an odd number, so only the
    # samples at the grid's nodes (or a stack of them) end in n entries
    shapes = []

    def counting(text):
        a = parse_symbol(text)

        def fn(x):
            shapes.append(np.shape(x))
            return a.fn(x)
        return dataclasses.replace(a, fn=fn)

    monkeypatch.setattr(cli, "parse_symbol", counting)
    assert run_shipped(command, config, tmp_path) == 0
    assert sum(shape[-1:] == (n,) for shape in shapes) == 1


def test_config_without_section_header_is_usage_error(tmp_path, capsys):
    path = tmp_path / "flat.ini"
    path.write_text("n = 256\n")
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == USAGE_ERROR
    assert "section header" in capsys.readouterr().err


def test_config_without_command_section_is_usage_error(tmp_path, capsys):
    path = tmp_path / "grid.ini"
    path.write_text("[grid]\nL = 8\nn = 256\n")
    out = tmp_path / "o"
    code = main(["axioms", "--config", str(path), "--out", str(out)])
    assert code == USAGE_ERROR
    assert "missing the [axioms] section" in capsys.readouterr().err
    assert not (out / "axioms.json").exists()


def test_bare_percent_in_config_value_is_usage_error(tmp_path, capsys):
    # configparser raises the interpolation error only when L is read
    path = tmp_path / "percent.ini"
    path.write_text(CONFIG.replace("L = 8", "L = 8%"))
    out = tmp_path / "o"
    code = main(["sweep", "--config", str(path), "--out", str(out)])
    assert code == USAGE_ERROR
    assert "'%' must be followed by" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_grid_size_above_cap_is_usage_error(source, tmp_path, capsys, monkeypatch):
    def no_grid(*args):
        raise AssertionError("a grid was built above the cap")

    monkeypatch.setattr(cli, "make_grid", no_grid)
    path = tmp_path / "big.ini"
    text, argv = CONFIG, []
    if source == "flag":
        argv = ["--grid-n", str(cli.MAX_GRID_N + 2)]
    else:
        text = CONFIG.replace("n = 256", f"n = {cli.MAX_GRID_N + 2}")
    path.write_text(text)
    code = main(["maximal-check", "--config", str(path), "--out",
                 str(tmp_path / "o"), *argv])
    assert code == USAGE_ERROR
    assert f"at most {cli.MAX_GRID_N}" in capsys.readouterr().err


def test_unknown_command_is_usage_error(config_path, tmp_path, capsys):
    code = main(["frobnicate", "--config", str(config_path)])
    assert code == USAGE_ERROR


def test_shared_parser_keeps_no_state_between_runs(config_path, tmp_path,
                                                   capsys):
    # one parser serves every main call: a run it rejects changes nothing
    # in the runs after it
    def sweep(out):
        code = main(["sweep", "--config", str(config_path),
                     "--out", str(tmp_path / out)])
        arts = {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}
        return code, capsys.readouterr().out, arts

    before = sweep("before")
    assert main(["sweep", "--config", str(config_path), "--grid-n", "128",
                 "--out", str(tmp_path / "bad"), "--seed", "x"]) == USAGE_ERROR
    assert "invalid int value" in capsys.readouterr().err
    assert sweep("after") == before
    assert before[0] == 0 and set(before[2]) == {"sweep.csv", "sweep.json"}


@pytest.mark.parametrize("section,key,value", [
    ("axioms", "trials", "x"), ("grid", "n", "abc"), ("run", "seed", "1.5"),
    ("sweep", "k1", "one"), ("sweep", "h", "")])
def test_unparsable_config_value_names_its_section_and_key(
        section, key, value, tmp_path, capsys):
    cfg = configparser.ConfigParser()
    cfg.read_string(CONFIG)
    cfg[section][key] = value
    path = tmp_path / "bad.ini"
    with path.open("w") as fh:
        cfg.write(fh)
    command = "axioms" if section == "axioms" else "sweep"
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{section}] {key}: ") and repr(value) in err
    assert not out.exists()


@pytest.mark.parametrize("levels", [33, 360, 1000])
def test_deeply_nested_descriptor_is_usage_error(levels, tmp_path, capsys):
    # at 360 levels symbol_norms would exhaust the stack, at 1000 the parser
    symbol = "indicator(-1,1)"
    for _ in range(levels - 1):
        symbol = f"shift({symbol},1)"
    path = tmp_path / "deep.ini"
    path.write_text(f"[stechkin]\nsymbol = {symbol}\ntrials = 2\n")
    out = tmp_path / "o"
    assert main(["stechkin", "--config", str(path), "--out", str(out)]) == USAGE_ERROR
    assert capsys.readouterr().err == (
        "error: symbol descriptor nests calls deeper than 32 levels\n")
    assert not out.exists()


@pytest.mark.parametrize("trials", [0, cli.MAX_TRIALS + 1])
@pytest.mark.parametrize("command", ["stechkin", "axioms", "maximal-check"])
def test_trials_out_of_range_is_usage_error(command, trials, tmp_path,
                                            capsys):
    # the probe harnesses draw every trial's scalars up front, so a huge
    # count would end in a MemoryError, not a verdict
    path = tmp_path / "trials.ini"
    path.write_text(f"[{command}]\ntrials = {trials}\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == USAGE_ERROR
    assert capsys.readouterr().err == (
        f"error: [{command}] trials: trials must be >= 1 and at most "
        f"{cli.MAX_TRIALS}, got {trials}\n")
    assert not out.exists()


@pytest.mark.parametrize("inside", [False, True], ids=["file", "file/sub"])
def test_unusable_out_path_is_usage_error(inside, config_path, tmp_path,
                                          capsys):
    # --out names an existing file, or a directory below one
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker / "sub" if inside else blocker
    code = main(["density", "--config", str(config_path), "--out", str(out)])
    assert code == USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {out / 'density.json'}: "
                            f"{out}: " + ("Not a directory\n" if inside
                                          else "File exists\n"))
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_negative_seed_is_usage_error(command, source, config_path, tmp_path,
                                      capsys):
    argv = []
    if source == "flag":
        argv, name = ["--seed", "-1"], "--seed"
    else:
        config_path.write_text(CONFIG.replace("seed = 42", "seed = -1"))
        name = "[run] seed"
    out = tmp_path / "o"
    code = main([command, "--config", str(config_path), "--out", str(out),
                 *argv])
    assert code == USAGE_ERROR
    assert f"{name} must be a non-negative integer, got -1" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("n,L", [("78", "1e20"), ("146", "1e200"), ("82", "1e300")])
def test_maximal_check_passes_where_chi_holds_only_the_origin_node(n, L, tmp_path,
                                                                   capsys):
    # node n/2 is t = 0, so chi holds it; with -L + j*dx these grids put
    # that node at 16384, -1.7e184 and -1.5e284 and chi held no node
    code = run_shipped("maximal-check", "quick.ini", tmp_path, "--grid-n", n,
                       "--grid-L", L)
    assert capsys.readouterr().err == ""
    assert code == 0
    assert maximal_check_rows(tmp_path / "out")[1] == ["closed_form", "0",
                                                        "1e-12", "1"]


@pytest.mark.parametrize("n,L", [("146", "1e200"), ("78", "1e20"),
                                 ("8", "1e-300"), ("10", "0.8"),
                                 ("256", "1e308")])
@pytest.mark.parametrize("config", ["quick.ini", "weighted-quick.ini"])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_a_degenerate_grid_gives_a_verdict_or_one_error_line(command, config, n,
                                                             L, tmp_path, capsys):
    # grids far wider or narrower than the configs' functions: a run may
    # pass, fail or refuse, but never end in a traceback
    code = run_shipped(command, config, tmp_path, "--grid-n", n, "--grid-L", L)
    assert code in (0, USAGE_ERROR, ASSERTION_FAILURE)
    err = capsys.readouterr().err
    assert err.count("\n") <= 1 and "Traceback" not in err


def test_maximal_check_passes_where_chi_is_shorter_than_its_interval(tmp_path, capsys):
    # at n = 250 no node sits on -1 or 1, so the sampled chi is shorter
    # than [-1, 1] and 1/|t| exceeds M chi next to |t| = 1
    assert run_shipped("maximal-check", "quick.ini", tmp_path, "--grid-n", "250") == 0


def maximal_check_rows(out):
    return [row.split(",") for row in
            (out / "maximal-check.csv").read_text().splitlines()[2:]]


def test_maximal_check_profile_references_equal_values_on_coarse_grid(tmp_path, capsys):
    # at (4.5, 8) 2/(1+|t|) is 0.44 away from M chi, within 2*dx, but the
    # discrete closed form is exact at every node
    code = run_shipped("maximal-check", "quick.ini", tmp_path,
                       "--grid-L", "4.5", "--grid-n", "8")
    rows = maximal_check_rows(tmp_path / "out")
    assert [row[0] for row in rows] == ["fast_vs_oracle", "closed_form"]
    assert rows[1] == ["closed_form", "0", "1e-12", "1"]
    assert code == 0


# the closed_form row covers every node of a grid, however small
@pytest.mark.parametrize(
    "grid", ["L = 1.5\nn = 8", "L = 1", "L = 4"],
    ids=["L=1.5,n=8", "L=1", "L=4"])
def test_maximal_check_closed_form_holds_on_small_grids(grid, tmp_path, capsys):
    path = tmp_path / "small.ini"
    path.write_text(f"[maximal-check]\ntrials = 1\n[grid]\n{grid}\n")
    out = tmp_path / "o"
    assert main(["maximal-check", "--config", str(path), "--out", str(out)]) == 0
    closed = [row for row in maximal_check_rows(out) if row[0] == "closed_form"]
    assert closed == [["closed_form", "0", "1e-12", "1"]]


def shipped_trials(config):
    """Trials, grid size and seed of a shipped config's maximal-check."""
    cfg = configparser.ConfigParser()
    cfg.read(SHIPPED / config)
    return (cfg.getint("maximal-check", "trials"), cfg.getint("grid", "n"),
            cfg.getint("run", "seed"))


@pytest.mark.parametrize("config", ["quick.ini", "fine.ini"])
def test_maximal_check_fails_on_a_wrong_fast_scan_of_the_last_trial(
        config, tmp_path, capsys, monkeypatch):
    # quick's 20 trials fill one stack and fine's 50 end in a ragged stack
    # of 2: a gap in the last row of the last stack fails only if the loop
    # reaches every trial
    trials, _, _ = shipped_trials(config)
    exact, seen = cli.maximal_scan, []

    def mutant(av, mode="fast"):
        out = exact(av, mode)
        if mode == "fast" and av.ndim == 2:
            seen.append(len(av))
            if sum(seen) == trials:
                out[-1] *= 1 + 1e-9
        return out

    monkeypatch.setattr(cli, "maximal_scan", mutant)
    assert run_shipped("maximal-check", config, tmp_path) == ASSERTION_FAILURE
    assert "FAIL" in capsys.readouterr().out
    assert sum(seen) == trials
    check, _, _, ok = maximal_check_rows(tmp_path / "out")[0]
    assert (check, ok) == ("fast_vs_oracle", "0")


@pytest.mark.parametrize("config", ["quick.ini", "fine.ini"])
def test_maximal_check_scans_its_trials_in_draw_order_within_the_budget(
        config, tmp_path, capsys, monkeypatch):
    # stacking every trial at once would raise peak memory; see _CHUNK_NODES
    trials, n, seed = shipped_trials(config)
    draws = np.abs(np.random.default_rng(seed).normal(size=(trials, n)))
    position = {row.tobytes(): i for i, row in enumerate(draws)}
    exact, lock = cli.maximal_scan, threading.Lock()
    stacks = {"fast": {}, "oracle": {}}

    # two threads scan, so each stack is recorded under the draw position
    # of its first row, not in the order the scans happen to start
    def spy(av, mode="fast"):
        if av.ndim == 2:
            with lock:
                stacks[mode][position[av[0].tobytes()]] = av.copy()
        return exact(av, mode)

    monkeypatch.setattr(cli, "maximal_scan", spy)
    assert run_shipped("maximal-check", config, tmp_path) == 0
    for mode, by_position in stacks.items():
        chunks = [by_position[i] for i in sorted(by_position)]
        assert all(av.size <= cli._CHUNK_NODES for av in chunks), mode
        assert sum(len(av) for av in chunks) == trials, mode
        assert np.array_equal(np.concatenate(chunks), draws), mode


def test_maximal_check_starts_one_thread_however_many_stacks(
        tmp_path, capsys, monkeypatch):
    trials, n, _ = shipped_trials("fine.ini")
    assert len(cli.stacks(trials, n, cli._CHUNK_NODES)) > 2
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    assert run_shipped("maximal-check", "fine.ini", tmp_path) == 0
    assert len(started) == 1


def serial_worst_gap(trials, n, seed):
    """max |fast - oracle| over the stacks of maximal-check, one at a time."""
    rng, worst = np.random.default_rng(seed), 0.0
    for stack in cli.stacks(trials, n, cli._CHUNK_NODES):
        av = np.abs(rng.normal(size=(len(stack), n)))
        gap = np.abs(cli.maximal_scan(av, "fast") - cli.maximal_scan(av, "oracle"))
        worst = max(worst, float(np.max(gap)))
    return worst


@pytest.mark.parametrize("config", ["quick.ini", "fine.ini"])
def test_worst_gap_equals_a_serial_scan_of_the_same_draws(config):
    trials, n, seed = shipped_trials(config)
    worst = cli._worst_gap(np.random.default_rng(seed), trials, n)
    assert worst.hex() == serial_worst_gap(trials, n, seed).hex()


@pytest.mark.parametrize("config", ["quick.ini", "fine.ini"])
def test_worst_gap_does_not_depend_on_the_stack_size(config, monkeypatch):
    # from stacks of 2 or 8 rows to every trial in one stack, whose oracle
    # scan and fast leaves take their end columns in tiles
    trials, n, seed = shipped_trials(config)
    gaps = set()
    for nodes in (2048, 4096, 8192, 65536):
        monkeypatch.setattr(cli, "_CHUNK_NODES", nodes)
        gaps.add(cli._worst_gap(np.random.default_rng(seed), trials, n).hex())
    assert len(gaps) == 1


@pytest.mark.parametrize("config,worst", [("quick.ini", "1.55431223448e-15"),
                                          ("fine.ini", "2.22044604925e-15")])
def test_maximal_check_worst_gap_is_pinned(config, worst, tmp_path, capsys):
    # the artifact reference check's absolute tolerance, 1e-14, cannot see
    # a gap of a few ulp move
    assert run_shipped("maximal-check", config, tmp_path) == 0
    assert maximal_check_rows(tmp_path / "out")[0][:2] == ["fast_vs_oracle", worst]


def test_worst_gap_takes_each_scan_once_under_rapid_thread_switches(monkeypatch):
    # 40 stacks of 32 short rows: the two threads meet at the queue often
    monkeypatch.setattr(cli, "_CHUNK_NODES", 4096)
    trials, n, seed = 1280, 128, 3
    serial = serial_worst_gap(trials, n, seed)
    exact, lock, taken = cli.maximal_scan, threading.Lock(), []

    def spy(av, mode="fast"):
        with lock:
            taken.append((mode, av[0].tobytes()))
        return exact(av, mode)

    monkeypatch.setattr(cli, "maximal_scan", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worst = cli._worst_gap(np.random.default_rng(seed), trials, n)
    finally:
        sys.setswitchinterval(interval)
    assert len(taken) == len(set(taken)) == 2 * 40
    assert worst.hex() == serial.hex()


def test_maximal_check_fails_on_a_nan_in_the_fast_scan(tmp_path, capsys, monkeypatch):
    # max(0.0, nan) is 0.0: a fold by max would pass this scan
    exact = cli.maximal_scan

    def mutant(av, mode="fast"):
        out = exact(av, mode)
        if mode == "fast" and av.ndim == 2:
            out[0, 0] = np.nan
        return out

    monkeypatch.setattr(cli, "maximal_scan", mutant)
    assert run_shipped("maximal-check", "quick.ini", tmp_path) == ASSERTION_FAILURE
    assert "fast_vs_oracle_worst=nan" in capsys.readouterr().out


def test_maximal_check_reraises_an_interrupt_after_the_workers_scan(
        tmp_path, monkeypatch):
    # the caller is interrupted while the worker's first scan still runs:
    # the worker finishes that scan, takes no other, and is joined
    exact, caller = cli.maximal_scan, threading.current_thread()
    worker_scanning, interrupted = threading.Event(), threading.Event()
    worker_scans, late = [], []

    def scan(av, mode="fast"):
        if av.ndim == 2:
            if threading.current_thread() is caller:
                worker_scanning.wait(10)
                interrupted.set()
                raise KeyboardInterrupt
            if interrupted.is_set():
                late.append(mode)
            worker_scanning.set()
            time.sleep(0.1)
            out = exact(av, mode)
            worker_scans.append(mode)
            return out
        return exact(av, mode)

    monkeypatch.setattr(cli, "maximal_scan", scan)
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run_shipped("maximal-check", "fine.ini", tmp_path)
    assert threading.active_count() == threads
    assert (len(worker_scans), late) == (1, [])
    assert not (tmp_path / "out").exists()


def failing_route(failing):
    """``cli.maximal_scan`` whose ``failing`` route raises ``ValueError`` on
    a stack once the other route has started; the other one runs on for
    0.1 s, so the error is raised while it still runs."""
    exact, other_running = cli.maximal_scan, threading.Event()

    def scan(av, mode="fast"):
        if av.ndim == 2:
            if mode == failing:
                other_running.wait(10)
                raise ValueError(f"{mode} route broke")
            other_running.set()
            time.sleep(0.1)
        return exact(av, mode)
    return scan


@pytest.mark.parametrize("failing", ["oracle", "fast"])
def test_maximal_check_reraises_a_route_error_and_joins_its_worker(
        failing, tmp_path, capsys, monkeypatch):
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    monkeypatch.setattr(cli, "maximal_scan", failing_route(failing))
    threads = threading.active_count()
    assert run_shipped("maximal-check", "quick.ini", tmp_path) == USAGE_ERROR
    assert threading.active_count() == threads
    assert not unhandled
    assert capsys.readouterr().err == f"error: {failing} route broke\n"
    assert not (tmp_path / "out").exists()


def one_percent_larger(owner, name, route=None):
    """``owner.name`` 1% too large; a maximal scan only on ``route``, if given."""
    exact = getattr(owner, name)

    def mutant(*args):
        return (1.01 if route is None or args[-1] == route else 1.0) * exact(*args)
    return mutant


def rolled_spectrum(owner, name):
    """``owner.name`` filtering with each row of its spectral samples rolled
    by one node."""
    exact = getattr(owner, name)

    def mutant(rows, m):
        return exact(rows, np.roll(m, 1, axis=-1))
    return mutant


# each mutant: (how it breaks, owner, attribute[, maximal scan route]);
# stechkin filters its probe stacks, and mollify and density their ladder,
# by fourier's filter_rows
MUTANTS = {
    "multiplier": (one_percent_larger, fourier, "filter_rows"),
    "roll": (rolled_spectrum, fourier, "filter_rows"),
    "kernel": (one_percent_larger, fourier.Mollifier, "spectrum"),
    "maximal_function": (one_percent_larger, cli, "maximal_scan"),
    "oracle": (one_percent_larger, cli, "maximal_scan", "oracle"),
}


# The asserted gates and what fails each: a mutant, or for density the
# target fine.ini sets at its own grid (0.1 against the floor rung's 0.110).
# axioms' A1..A5 fail under the broken norms of test_spaces.py, and its
# closed_form under the audit's space_norms mutant below.  sweep's
# within_bound has no failing mutant yet (ROADMAP item 22): its tail bound
# held even under a 1.5x multiplier, and the multiplier mutant no longer
# reaches sweep, which filters its stack of shifted spectra with
# limitops' filter_rows.
@pytest.mark.parametrize("command,config,mutant,gate", [
    ("stechkin", "quick.ini", "multiplier", "sup_bound"),
    ("stechkin", "fine.ini", "multiplier", "sup_bound"),
    ("stechkin", "quick.ini", "roll", "eigen"),
    ("stechkin", "fine.ini", "roll", "eigen"),
    ("stechkin", "weighted-quick.ini", "multiplier", "eigen"),
    ("stechkin", "weighted-fine.ini", "multiplier", "eigen"),
    ("stechkin", "weighted-quick.ini", "roll", "eigen"),
    ("stechkin", "weighted-fine.ini", "roll", "eigen"),
    ("mollify", "quick.ini", "kernel", "decreasing"),
    ("mollify", "fine.ini", "kernel", "decreasing"),
    ("maximal-check", "quick.ini", "maximal_function", "closed_form"),
    ("maximal-check", "fine.ini", "maximal_function", "closed_form"),
    ("maximal-check", "quick.ini", "oracle", "fast_vs_oracle"),
    ("maximal-check", "fine.ini", "oracle", "fast_vs_oracle"),
    ("density", "fine.ini", "none", "within_epsilon"),
])
def test_one_percent_mutant_fails_its_gate(command, config, mutant, gate,
                                           tmp_path, capsys, monkeypatch):
    if mutant != "none":
        make, owner, name, *route = MUTANTS[mutant]
        monkeypatch.setattr(owner, name, make(owner, name, *route))
    assert run_shipped(command, config, tmp_path) == ASSERTION_FAILURE
    assert f" {gate}=FAIL" in capsys.readouterr().out
    # a failing run still writes its artifact
    assert list((tmp_path / "out").glob(f"{command}.*"))


def scaled_symbol_norms(owner, name):
    """``owner.name`` with every norm of the symbol 1% too small."""
    exact = getattr(owner, name)

    def mutant(a):
        return SymbolNorms(*(0.99 * v for v in exact(a)))
    return mutant


# the audit's mutants: MUTANTS and one per norm routine, each patched
# under every name a command calls it by; the maximal-scan mutants come
# first, so that fine maximal-check (0.4 s a run) runs once
AUDIT_MUTANTS = [
    [MUTANTS[name]]
    for name in ("maximal_function", "oracle", "multiplier", "roll", "kernel")
] + [
    [(one_percent_larger, owner, "space_norms") for owner in (spaces, fourier,
                                                              limitops)],
    [(one_percent_larger, Grid, "power_weight")],
    [(scaled_symbol_norms, owner, "symbol_norms") for owner in (cli, limitops)],
]

CONFIGS = sorted({config for _, config, _ in RUNS})

# The reference runs that no audit mutant makes exit 2, and the ROADMAP
# item that will give each a gate a 1% error fails.
UNGUARDED = {
    **{f"sweep {config}": "a leakage check: every bound is 0 and r is "
       "rounding noise" for config in CONFIGS if "quick" in config},
    **{f"sweep {config}": "item 22: no gate compares r(h) with a second route"
       for config in CONFIGS if "fine" in config},
    **{f"density {config}": "item 17: some rung below eps, not its error"
       for config in CONFIGS},
    # the closed-form gate is asserted at gamma = 0 only until item 12
    **{f"axioms {config}": "item 12: the lattice axioms are scale-free, and "
       "the weighted closed form is only reported" for config in CONFIGS
       if "weighted" in config},
}


def test_every_reference_run_but_the_listed_ones_fails_a_mutant(
        tmp_path, capsys, monkeypatch):
    unguarded = set()
    for command, config, extra in RUNS:
        for patches in AUDIT_MUTANTS:
            with monkeypatch.context() as m:
                for make, owner, name, *route in patches:
                    m.setattr(owner, name, make(owner, name, *route))
                code = main([command, "--config", str(ROOT / config),
                             "--out", str(tmp_path / "out"), *extra])
            if code == ASSERTION_FAILURE:
                break
        else:
            unguarded.add(f"{command} {config}")
    capsys.readouterr()
    assert unguarded == set(UNGUARDED)


@pytest.mark.parametrize("flag,floor", [(("--grid-n", "128"), "0.0625"),
                                        (("--grid-L", "24"), "0.09375")],
                         ids=["n=128", "L=24"])
def test_mollify_ladder_follows_the_grid(flag, floor, tmp_path, capsys):
    # the last scale is the grid floor dx/2, whether or not it is a power of 2
    assert run_shipped("mollify", "quick.ini", tmp_path, *flag) == 0
    rows = (tmp_path / "out" / "mollify.csv").read_text().splitlines()[2:]
    assert rows[-1].split(",")[0] == floor


def test_ladder_on_a_narrow_grid_starts_at_its_half_width(tmp_path, capsys):
    # delta starts at min(1, L): 13 rungs from L = 1e-300 down to dx/2, where
    # a ladder from delta = 1 would take 1,010
    flags = ("--grid-L", "1e-300", "--grid-n", "4096")
    assert run_shipped("mollify", "quick.ini", tmp_path, *flags) == 0
    rows = (tmp_path / "out" / "mollify.csv").read_text().splitlines()[2:]
    assert len(rows) == 13
    assert rows[0].split(",")[0] == "1e-300"
    assert run_shipped("density", "quick.ini", tmp_path, *flags) == 0


def test_mollify_with_a_single_rung_is_usage_error(tmp_path, capsys):
    # at n = 8 dx = 2, so the ladder has one scale and shows no convergence
    assert run_shipped("mollify", "quick.ini", tmp_path, "--grid-n", "8") == USAGE_ERROR
    assert "one scale" in capsys.readouterr().err
    # a rejected run leaves no empty output directory behind
    assert not (tmp_path / "out").exists()


def test_mollify_passes_once_its_error_is_at_rounding_level(tmp_path, capsys):
    # const(1) is smoothed exactly: its errors read 0 and then 4.4e-16,
    # below 1e-12 * |f|, which counts as converged and not as a rise
    path = tmp_path / "const.ini"
    path.write_text("[mollify]\nkernel = gaussian\nf = const(1)\n")
    assert main(["mollify", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    assert " decreasing=pass" in capsys.readouterr().out


@pytest.mark.parametrize("space", ["", "[space]\np = 3\ngamma = -0.5\n"],
                         ids=["L2", "weighted-L3"])
@pytest.mark.parametrize("command", ["density", "mollify"])
def test_input_whose_powers_overflow_is_usage_error(command, space, tmp_path,
                                                    capsys):
    # 1e154 is finite, but its square sums or the square of its spectrum
    # overflow: the run would report an infinite error or a mass of NaN
    path = tmp_path / "big.ini"
    path.write_text(f"{space}[{command}]\nf = const(1e154)\n")
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(path), "--out", str(out)])
    assert code == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: [{command}] f: values too large")
    assert err.count("\n") == 1
    assert not caught
    assert not out.exists()


def test_density_whose_cube_overflows_in_weighted_l3_is_usage_error(
        tmp_path, capsys):
    # 1e103 squares to 1e206, and the cube overflows: the norm's integer
    # power raises under the command's errstate, as pow did
    path = shipped_with("weighted-quick.ini", tmp_path, "density", "f",
                        "const(1e103)")
    code = main(["density", "--config", path, "--out", str(tmp_path / "o")])
    assert code == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: [density] f: values too large")
    assert err.count("\n") == 1


def test_density_measures_on_a_wide_grid(tmp_path, capsys):
    # spectra scale with dx = L/(n/2) = 7.8e197; only the squared spectrum
    # of the out-of-band mass overflowed here, and the run was refused.
    # chi holds the origin node alone, |f| = sqrt(dx), and the one rung
    # delta = dx/2 misses eps = 0.35 by far: a verdict, not a refusal
    code = run_shipped("density", "quick.ini", tmp_path, "--grid-L", "1e200")
    assert capsys.readouterr().err == ""
    assert code == ASSERTION_FAILURE
    result = json.loads((tmp_path / "out" / "density.json").read_text())["result"]
    dx = make_grid(1e200, 256).dx
    assert result["delta"] == dx / 2
    assert 0.35 < result["achieved"] < math.sqrt(dx)


@pytest.mark.parametrize("extra,p", [(("--grid-L", "1e200"), "2"), ((), "500")],
                         ids=["L=1e200", "p=500"])
def test_stechkin_measures_its_spike_probe_where_its_powers_underflow(
        extra, p, tmp_path, capsys):
    # the spike probe's modulus 1/(2L) = 5e-201 squares to 0, and at p = 500
    # 1/16 does: the norm rescales the probe, and indicator(-1,1) has
    # multiplier norm 1 in every space
    path = shipped_with("quick.ini", tmp_path, "space", "p", p)
    out = tmp_path / "out"
    assert main(["stechkin", "--config", path, "--out", str(out), *extra]) == 0
    assert capsys.readouterr().out.startswith("stechkin: lower=1 ")
    report = json.loads((out / "stechkin.json").read_text())["result"]
    assert report["lower"] == pytest.approx(1.0, rel=1e-12)
    assert report["eigen_gap"] <= 1e-12


def mollify_rows(command_out):
    """The ``(delta, error, bound)`` columns of a ``mollify.csv``."""
    lines = (command_out / "mollify.csv").read_text().splitlines()[2:]
    return np.array([[float(v) for v in line.split(",")[:3]] for line in lines])


def test_mollify_measures_a_constant_whose_powers_underflow(tmp_path, capsys):
    # const(1e-200) squares to 0: it read norm 0 and was refused.  Its rows
    # are 1e-200 times those of const(1), the bound 4e-200 against 4
    rows = {}
    for scale in ("1", "1e-200"):
        path = shipped_with("quick.ini", tmp_path, "mollify", "f", f"const({scale})")
        out = tmp_path / scale
        assert main(["mollify", "--config", path, "--out", str(out)]) == 0
        rows[scale] = mollify_rows(out)
    assert capsys.readouterr().out.count(" decreasing=pass pointwise=pass") == 2
    big, small = rows["1"], rows["1e-200"]
    assert np.array_equal(small[:, 0], big[:, 0])
    assert small[:, 2] == pytest.approx(1e-200 * big[:, 2], rel=1e-12)
    assert big[0, 2] == pytest.approx(4.0, rel=1e-12)
    # the errors are at rounding level, of 1 and of 1e-200 alike
    assert np.all(small[:, 1] <= 1e-12 * small[:, 2])


def test_density_measures_a_constant_whose_powers_underflow(tmp_path, capsys):
    results = []
    for scale in ("1", "1e-200"):
        path = shipped_with("quick.ini", tmp_path, "density", "f", f"const({scale})")
        out = tmp_path / scale
        assert main(["density", "--config", path, "--out", str(out)]) == 0
        results.append(json.loads((out / "density.json").read_text())["result"])
    captured = capsys.readouterr()
    assert captured.out.count(" within_epsilon=pass") == 2 and captured.err == ""
    assert results[1]["delta"] == results[0]["delta"] == 1.0
    assert results[1]["achieved"] <= 1e-200 * 1e-12


def density_at(p, tmp_path):
    """``(delta, achieved)`` of quick's density run at epsilon 0.3 and ``p``."""
    path = shipped_with("quick.ini", tmp_path, "density", "epsilon", "0.3")
    cfg = configparser.ConfigParser()
    cfg.read(path)
    cfg["space"]["p"] = p
    with open(path, "w") as fh:
        cfg.write(fh)
    out = tmp_path / f"p{p}"
    assert main(["density", "--config", path, "--out", str(out)]) == ASSERTION_FAILURE
    result = json.loads((out / "density.json").read_text())["result"]
    return result["delta"], result["achieved"]


def test_density_error_is_continuous_in_p_where_its_powers_underflow(tmp_path,
                                                                    capsys):
    # from p = 650 on some rung's |f * phi_delta - f|^p underflowed; at
    # p = 1e300 every one did and the run was refused.  The achieved error
    # moves by 0.02% from p = 600 to 650, and by 0.2% from 600 to 1e300
    delta, before = density_at("600", tmp_path)
    for p in ("650", "1e300"):
        d, achieved = density_at(p, tmp_path)
        assert d == delta
        assert before < achieved < before * 1.01
    # at p = 1e300 the norm is max|f * phi_delta - f| to rounding
    grid = make_grid(8.0, 256)
    f = sample("indicator(-1,1)", grid).values
    smooth = filter_rows(
        f, fourier.Mollifier("bump_spectrum", grid).spectrum(delta))
    assert achieved == pytest.approx(np.max(np.abs(smooth - f)), rel=1e-12)


def test_mollify_error_is_continuous_in_p_where_its_powers_underflow(tmp_path,
                                                                    capsys):
    # at p = 100 some rung's error read 0 and the run was refused
    finals = []
    for p in ("90", "100"):
        path = shipped_with("quick.ini", tmp_path, "space", "p", p)
        out = tmp_path / p
        assert main(["mollify", "--config", path, "--out", str(out)]) == 0
        finals.append(mollify_rows(out)[-1, 1])
    assert capsys.readouterr().out.count(" decreasing=pass pointwise=pass") == 2
    assert finals[0] < finals[1] < finals[0] * 1.01


@pytest.mark.parametrize("command,p", [("axioms", "300"), ("stechkin", "1100")])
def test_space_exponent_whose_powers_overflow_is_usage_error(command, p, tmp_path,
                                                             capsys):
    # the probes' p-th powers overflow: numpy warned four times, then the
    # norm refused a non-finite integrand
    path = shipped_with("quick.ini", tmp_path, "space", "p", p)
    out = tmp_path / "o"
    assert main([command, "--config", path, "--out", str(out)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: [space] p or [grid] L: values too large on "
                          "the grid L=8 n=256 (")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["axioms", "stechkin"])
def test_grid_whose_norms_overflow_is_usage_error_naming_the_width(
        command, tmp_path, capsys):
    # at p = 2 the powers are finite; dx = 2L/n times their sum is not, and
    # the error named only [space] p
    assert run_shipped(command, "quick.ini", tmp_path,
                       "--grid-L", "1e308") == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: [space] p or [grid] L: values too large on "
                          "the grid L=1e+308 n=256 (")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def shipped_with(config, tmp_path, section, key, value):
    """A copy of a shipped or weighted config with ``[section] key`` set."""
    cfg = configparser.ConfigParser()
    cfg.read(shipped(config))
    cfg[section][key] = value
    path = tmp_path / config
    with path.open("w") as fh:
        cfg.write(fh)
    return str(path)


@pytest.mark.parametrize("config,scale", [
    ("weighted-quick.ini", "1e-104"), ("quick.ini", "1e-160"),
    ("quick.ini", "1e-163"), ("quick.ini", "1e300")])
def test_stechkin_bound_does_not_depend_on_the_symbol_scale(config, scale,
                                                            tmp_path, capsys):
    # filtered by a itself, |image|^p went subnormal at 1e-104 in L^3 and
    # at 1e-160 in L^2, vanished at 1e-163 and overflowed at 1e300
    path = shipped_with(config, tmp_path, "stechkin", "symbol", f"const({scale})")
    out = tmp_path / "out"
    assert main(["stechkin", "--config", path, "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(" eigen=pass\n")
    report = json.loads((out / "stechkin.json").read_text())["result"]
    assert report["lower"] == pytest.approx(float(scale), rel=1e-12)
    assert report["eigen_gap"] <= 1e-12


def test_stechkin_on_a_symbol_wider_than_floats_is_usage_error(tmp_path, capsys):
    # its sampling window [-1e308, 1e308] is 2e308 = inf wide: the norms
    # read NaN, the sup bound passed and stechkin.json held NaN
    path = shipped_with("quick.ini", tmp_path, "stechkin", "symbol",
                        "shift(arctan,1e308)")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["stechkin", "--config", path, "--out", str(out)])
    assert code == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: symbol shift(arctan,1e+308): the width of "
                          "its sampling window")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["stechkin", "axioms"])
def test_grid_too_narrow_for_the_random_probes_is_usage_error(command, tmp_path,
                                                              capsys):
    # the indicator lengths are drawn from [0.2, L/4]: empty below L = 0.8
    assert run_shipped(command, "quick.ini", tmp_path, "--grid-L", "0.7") == USAGE_ERROR
    assert capsys.readouterr().err == ("error: the random probes need a grid "
                                       "half width L of at least 0.8, got L=0.7\n")
    assert not (tmp_path / "out").exists()
    assert run_shipped(command, "quick.ini", tmp_path, "--grid-L", "0.8") == 0


@pytest.mark.parametrize("command,code", [("axioms", 0), ("mollify", USAGE_ERROR)])
def test_gaussians_far_out_on_a_wide_grid_give_no_warning(command, code,
                                                          tmp_path, capsys):
    # (t - c)^2 overflows to inf there, and exp(-inf) = 0 is exact
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_shipped(command, "quick.ini", tmp_path,
                           "--grid-L", "1e200") == code
    assert not caught
    err = capsys.readouterr().err
    assert "Warning" not in err
    assert err.count("\n") == (code == USAGE_ERROR)


@pytest.mark.parametrize("command", ["mollify", "density"])
def test_a_bump_of_tiny_width_gives_no_warning(command, tmp_path, capsys):
    # (t - c) / w overflows to inf off the centre, where the bump is 0, exact
    path = shipped_with("quick.ini", tmp_path, command, "f", "bump(0,1e-310)")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert not caught
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("L,n", [(8.0, 256), (16.0, 1024), (16.0, 4096)])
def test_gaussian_norm_meets_its_closed_form(p, L, n):
    closed = cli._gaussian_closed_form(SpaceNorm(p), make_grid(L, n))
    assert closed["asserted"] and closed["gap"] <= 1e-12


@pytest.mark.parametrize("config,extra,asserted", [
    ("quick.ini", (), True), ("fine.ini", (), True),
    # the weight's node samples miss the closed form by 5% (item 12)
    ("weighted-quick.ini", (), False),
    # the Gaussian is cut off at |x| = 0.8, or falls between the nodes
    ("quick.ini", ("--grid-L", "0.8"), False),
    ("quick.ini", ("--grid-L", "1e200"), False),
], ids=["quick", "fine", "weighted-quick", "L=0.8", "L=1e200"])
def test_axioms_asserts_the_closed_form_where_the_grid_resolves_it(
        config, extra, asserted, tmp_path, capsys):
    assert run_shipped("axioms", config, tmp_path, *extra) == 0
    assert (" closed_form=pass" in capsys.readouterr().out) == asserted
    closed = json.loads((tmp_path / "out" / "axioms.json").read_text())["result"][-1]
    assert closed["check"] == "closed_form" and closed["asserted"] == asserted
    # where it is not asserted, the gap is far above the tolerance
    assert (closed["gap"] <= 1e-12) == asserted


@pytest.mark.parametrize("L", ["20", "24"])
def test_density_passes_where_the_grid_floor_is_no_power_of_two(L, tmp_path, capsys):
    assert run_shipped("density", "quick.ini", tmp_path, "--grid-L", L) == 0


def test_density_passes_on_weighted_fine_at_its_own_grid(tmp_path, capsys):
    assert run_shipped("density", "weighted-fine.ini", tmp_path) == 0


def test_density_on_fine_at_its_own_grid_reports_the_floor_rung(tmp_path, capsys):
    # at n = 1024 the floor rung dx/2 = 1/64 comes closest, at 0.110 > 0.1
    assert run_shipped("density", "fine.ini", tmp_path) == ASSERTION_FAILURE
    assert capsys.readouterr().out.endswith(" within_epsilon=FAIL\n")
    result = json.loads((tmp_path / "out" / "density.json").read_text())["result"]
    assert result["delta"] == 0.015625 and result["epsilon"] == 0.1
    assert 0.1104584 < result["achieved"] < 0.1104585
