import configparser
import json
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from convolab import cli, fourier
from convolab.cli import ASSERTION_FAILURE, USAGE_ERROR, main
from convolab.limitops import SweepRow

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
profile = bump

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


def run_shipped(command, config, tmp_path, *extra):
    return main([command, "--config", str(SHIPPED / config),
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
    def exceeded(cfg):
        return [SweepRow(cfg.shifts[0], 2.0, 1.0, False)]

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
    assert line == "stechkin: lower=1.000 v_norm=3.000 ratio=0.333 sup_bound=pass"


def test_density_json_payload(config_path, tmp_path):
    out = tmp_path / "out"
    main(["density", "--config", str(config_path), "--out", str(out)])
    payload = json.loads((out / "density.json").read_text())
    result = payload["result"]
    assert result["achieved"] < result["epsilon"]
    assert result["out_of_band_mass"] < 1e-9


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
     ("sweep", "h = 1e308"),
     ("sweep", "h = -4, 0.1, 4"),
     ("sweep", "k1 = 3"),
     ("sweep", "k2 = 100"),
     ("sweep", "profile = sinc"),
     ("stechkin", "symbol = indicator(2,1)"),
     ("stechkin", "symbol = rational_decay(0)"),
     ("stechkin", "symbol = shift(arctan)"),
     ("density", "f = indicator(1,1)"),
     ("density", "f = gaussian(0,0)"),
     ("density", "f = bump(0,0)"),
     ("density", "f = nosuch(1)"),
     ("density", "f = 1abc"),
     ("maximal-check", "trials = 1\n[space]\np = oo")],
)
def test_bad_command_inputs_are_usage_errors(command, setting, tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{command}]\n{setting}\n")
    out = tmp_path / "o"
    code = main([command, "--config", str(path), "--out", str(out)])
    assert code == USAGE_ERROR
    assert "error:" in capsys.readouterr().err
    assert not list(out.glob(f"{command}.*"))


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
    ("sweep", "k1", "one")])
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


def test_zero_maximal_trials_is_usage_error(tmp_path, capsys):
    path = tmp_path / "zero.ini"
    path.write_text(CONFIG.replace("trials = 8", "trials = 0"))
    out = tmp_path / "o"
    code = main(["maximal-check", "--config", str(path), "--out", str(out)])
    assert code == USAGE_ERROR
    assert "trials must be >= 1" in capsys.readouterr().err
    assert not out.exists()


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
    # quick's 20 trials end in a ragged chunk of 4: a gap in the last row
    # of the last chunk fails only if the loop reaches every trial
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
    exact, stacks = cli.maximal_scan, {"fast": [], "oracle": []}

    def spy(av, mode="fast"):
        if av.ndim == 2:
            stacks[mode].append(av.copy())
        return exact(av, mode)

    monkeypatch.setattr(cli, "maximal_scan", spy)
    assert run_shipped("maximal-check", config, tmp_path) == 0
    draws = np.abs(np.random.default_rng(seed).normal(size=(trials, n)))
    for mode, chunks in stacks.items():
        assert all(av.size <= cli._CHUNK_NODES for av in chunks), mode
        assert sum(len(av) for av in chunks) == trials, mode
        assert np.array_equal(np.concatenate(chunks), draws), mode


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


# what each mutant scales by 1%: (owner, attribute[, maximal scan route]);
# stechkin applies its multiplier to the spike probe by filter_spectrum
MUTANTS = {
    "multiplier": (fourier, "filter_spectrum"),
    "kernel": (fourier.Mollifier, "spectrum"),
    "maximal_function": (cli, "maximal_scan"),
    "oracle": (cli, "maximal_scan", "oracle"),
}


# The asserted gates and what fails each: a 1% mutant, or for density the
# target fine.ini sets at its own grid (0.1 against the floor rung's 0.110).
# axioms' A1..A5 fail under the broken norms of test_spaces.py.  sweep's
# within_bound has no failing 1% mutant yet (ROADMAP, carried-over item 1):
# its bound 3 * tail_sup * |probe| passes even a 1.5x multiplier.
@pytest.mark.parametrize("command,config,mutant,gate", [
    ("stechkin", "quick.ini", "multiplier", "sup_bound"),
    ("stechkin", "fine.ini", "multiplier", "sup_bound"),
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
        owner, name, *route = MUTANTS[mutant]
        monkeypatch.setattr(owner, name, one_percent_larger(owner, name, *route))
    assert run_shipped(command, config, tmp_path) == ASSERTION_FAILURE
    assert f" {gate}=FAIL" in capsys.readouterr().out
    # a failing run still writes its artifact
    assert list((tmp_path / "out").glob(f"{command}.*"))


@pytest.mark.parametrize("flag,floor", [(("--grid-n", "128"), "0.0625"),
                                        (("--grid-L", "24"), "0.09375")],
                         ids=["n=128", "L=24"])
def test_mollify_ladder_follows_the_grid(flag, floor, tmp_path, capsys):
    # the last scale is the grid floor dx/2, whether or not it is a power of 2
    assert run_shipped("mollify", "quick.ini", tmp_path, *flag) == 0
    rows = (tmp_path / "out" / "mollify.csv").read_text().splitlines()[2:]
    assert rows[-1].split(",")[0] == floor


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


def test_density_overflow_on_a_wide_grid_names_the_grid(tmp_path, capsys):
    # spectra scale with dx = 2L/n: here the width alone overflows them
    code = run_shipped("density", "quick.ini", tmp_path, "--grid-L", "1e200")
    assert code == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: [density] f: values too large on the grid "
                          "L=1e+200 n=256 (")
    assert err.count("\n") == 1


def test_stechkin_on_a_grid_where_its_spike_probe_vanishes_is_usage_error(
        tmp_path, capsys):
    # the spike probe's modulus 1/(2L) = 5e-201 squares to 0
    code = run_shipped("stechkin", "quick.ini", tmp_path, "--grid-L", "1e200")
    assert code == USAGE_ERROR
    assert capsys.readouterr().err == (
        "error: the pure-frequency probe has norm 0 on the grid L=1e+200 n=256\n")
    assert not (tmp_path / "out").exists()


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


def test_infinite_exponent_header(tmp_path):
    path = tmp_path / "p.ini"
    path.write_text(CONFIG.replace("p = 2", "p = inf"))
    out = tmp_path / "o"
    assert main(["maximal-check", "--config", str(path), "--out", str(out)]) == 0
    first = (out / "maximal-check.csv").read_text().splitlines()[0]
    assert first == "# L=8 n=256 p=inf gamma=0 seed=42"


@pytest.mark.parametrize("L", ["20", "24"])
def test_density_passes_where_the_grid_floor_is_no_power_of_two(L, tmp_path, capsys):
    assert run_shipped("density", "quick.ini", tmp_path, "--grid-L", L) == 0


def test_density_passes_on_weighted_fine_at_its_own_grid(tmp_path, capsys):
    config = SHIPPED.parent / "bench" / "configs" / "weighted-fine.ini"
    code = main(["density", "--config", str(config),
                 "--out", str(tmp_path / "out")])
    assert code == 0


def test_density_on_fine_at_its_own_grid_reports_the_floor_rung(tmp_path, capsys):
    # at n = 1024 the floor rung dx/2 = 1/64 comes closest, at 0.110 > 0.1
    assert run_shipped("density", "fine.ini", tmp_path) == ASSERTION_FAILURE
    assert capsys.readouterr().out.endswith(" within_epsilon=FAIL\n")
    result = json.loads((tmp_path / "out" / "density.json").read_text())["result"]
    assert result["delta"] == 0.015625 and result["epsilon"] == 0.1
    assert 0.1104584 < result["achieved"] < 0.1104585
