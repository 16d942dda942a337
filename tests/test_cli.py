import json

import pytest

from convolab import cli
from convolab.cli import ASSERTION_FAILURE, USAGE_ERROR, main, run_experiment

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
delta_start = 1.0
halvings = 4

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
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["sweep", "--config", str(config_path), "--out", str(out)])
        main(["mollify", "--config", str(config_path), "--out", str(out)])
        outs.append(out)
    for artifact in ("sweep.csv", "mollify.csv"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_flag_overrides_change_header(config_path, tmp_path):
    out = tmp_path / "out"
    main(["sweep", "--config", str(config_path), "--out", str(out),
          "--seed", "7", "--grid-n", "512"])
    first = (out / "sweep.csv").read_text().splitlines()[0]
    assert "n=512" in first and "seed=7" in first


def test_stechkin_summary_line(config_path, tmp_path, capsys):
    main(["stechkin", "--config", str(config_path), "--out", str(tmp_path / "o")])
    line = capsys.readouterr().out.strip()
    assert line == "stechkin: lower=1.000 v_norm=3.000 ratio=0.333"


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
     ("density", "f = const(0)")],
)
def test_bad_command_inputs_are_usage_errors(command, setting, tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(f"[{command}]\n{setting}\n")
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == USAGE_ERROR
    assert "error:" in capsys.readouterr().err


def test_config_without_section_header_is_usage_error(tmp_path, capsys):
    path = tmp_path / "flat.ini"
    path.write_text("n = 256\n")
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == USAGE_ERROR
    assert "section header" in capsys.readouterr().err


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


def test_unreachable_density_target_is_assertion_failure(tmp_path, capsys):
    path = tmp_path / "tight.ini"
    path.write_text(
        "[grid]\nL = 8\nn = 256\n\n[density]\nf = indicator(-1,1)\n"
        "epsilon = 1e-6\n"
    )
    code = main(["density", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == ASSERTION_FAILURE
    assert "FAIL" in capsys.readouterr().out


def test_run_experiment_wrapper(config_path, tmp_path):
    code = run_experiment("stechkin", str(config_path),
                          out=str(tmp_path / "w"), seed=1)
    assert code == 0
    assert (tmp_path / "w" / "stechkin.json").exists()


def test_zero_maximal_trials_is_usage_error(tmp_path, capsys):
    path = tmp_path / "zero.ini"
    path.write_text(CONFIG.replace("trials = 8", "trials = 0"))
    out = tmp_path / "o"
    code = main(["maximal-check", "--config", str(path), "--out", str(out)])
    assert code == USAGE_ERROR
    assert "trials must be >= 1" in capsys.readouterr().err
    assert not (out / "maximal-check.csv").exists()


@pytest.mark.parametrize(
    "setting,message",
    [("halvings = -1", "halvings must be >= 0"),
     ("deltas =", "at least one scale")],
)
def test_empty_mollify_scales_are_usage_error(setting, message, tmp_path, capsys):
    path = tmp_path / "scales.ini"
    path.write_text(CONFIG.replace("halvings = 4", setting))
    out = tmp_path / "o"
    code = main(["mollify", "--config", str(path), "--out", str(out)])
    assert code == USAGE_ERROR
    assert message in capsys.readouterr().err
    assert not (out / "mollify.csv").exists()
