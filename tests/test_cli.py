"""Command-line interface: outputs, seed precedence, and exit codes."""

import copy
import dataclasses
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from arbo import _kernels, sensitivity
from arbo.cli import EXIT_NO_CONVERGENCE, EXIT_NUMERIC, EXIT_PARSE, _jsonable, main
from arbo.control import ObjectiveWeights, StrategyMask, forward_backward_sweep
from arbo.equilibria import bifurcation_scan
from arbo.model import STATE_NAMES, ControlParams, ModelParams
from arbo.ode import TimeGrid
from arbo.thresholds import basic_reproduction_number, bifurcation_thresholds
from conftest import FIXTURES, load_fixture


@pytest.fixture()
def config_file(tmp_path):
    def write(cfg, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)
    return write


def _table5():
    return copy.deepcopy(load_fixture("table5_control"))


def test_thresholds_command(table5, config_file, tmp_path):
    out = tmp_path / "thr.json"
    code = main(["thresholds", "--config", config_file(_table5()),
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["spec_version"] == "1.0"
    assert report["R0"] == pytest.approx(
        basic_reproduction_number(table5.params), rel=1e-12)
    assert report["R0_defined"] is True
    assert "k2" in report["derived_constants"]


def test_equilibria_command(config_file, tmp_path):
    out = tmp_path / "eq.json"
    code = main(["equilibria", "--config", config_file(_table5()),
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["classification"] == "Unique"
    assert len(report["endemic"]) == 1
    assert report["endemic"][0]["stable"] is True
    assert set(report["endemic"][0]["state"]) == {
        "S_h", "E_h", "I_h", "R_h", "S_v", "E_v", "I_v", "E", "L", "P"}


def test_simulate_command(config_file, tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--config", config_file(_table5()),
                 "--out", str(out), "--tf", "5", "--steps", "500"])
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (501, 11)
    header = out.read_text().splitlines()[0]
    assert header == "t,S_h,E_h,I_h,R_h,S_v,E_v,I_v,E,L,P"


def test_simulate_requires_out(config_file, monkeypatch):
    """[TRIVIAL] Without --out, simulate exits before integrating."""
    def integrate(*args):
        raise AssertionError("rk4_basic called without --out")

    monkeypatch.setattr("arbo.cli.rk4_basic", integrate)
    assert main(["simulate", "--config", config_file(_table5())]) == EXIT_PARSE


def test_bifurcation_command(config_file, tmp_path):
    cfg = copy.deepcopy(load_fixture("sec22_backward"))
    out = tmp_path / "scan.csv"
    code = main(["bifurcation", "--config", config_file(cfg),
                 "--param", "beta_hv", "--lo", "0.0", "--hi", "0.12",
                 "--steps", "40", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "param_value,R0,branch_id,I_h,I_v,stable,residual"
    branch_ids = {int(line.split(",")[2]) for line in lines[1:]}
    assert {0, 1, 2} <= branch_ids  # window with two endemic branches


def test_marginal_endemic_point_is_null_in_equilibria_and_scan(
        sec22, config_file, tmp_path):
    """[DERIVED] 17 floats below beta_+ the sec. 2.2 set is in case iii-b
    with one endemic point whose max Re(lambda) is 2.9e-15, inside the
    marginal band: `arbo equilibria` prints its verdict as null, and the
    scan's branch 1 at that beta_hv has none either."""
    beta = bifurcation_thresholds(sec22.params).beta_plus
    for _ in range(17):
        beta = np.nextafter(beta, 0.0)
    beta = float(beta)
    cfg = copy.deepcopy(load_fixture("sec22_backward"))
    cfg["params"]["beta_hv"] = beta
    out = tmp_path / "eq.json"
    assert main(["equilibria", "--config", config_file(cfg),
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["case"] == "iii-b"
    (point,) = report["endemic"]
    assert point["stable"] is None
    rows = bifurcation_scan(dataclasses.replace(sec22.params, beta_hv=beta),
                            "beta_hv", beta, beta, 0, stability=True)
    assert [r.branch_id for r in rows] == [0, 1]
    assert rows[1].stable is None


@pytest.mark.parametrize("flag, value, message", [
    ("--steps", "-1", "--steps must be >= 0, got -1"),
    ("--lo", "nan", "--lo must be a finite number, got nan"),
    ("--hi", "inf", "--hi must be a finite number, got inf"),
])
def test_bifurcation_refuses_bad_flags(flag, value, message, config_file,
                                       tmp_path, capsys):
    """[TRIVIAL] A negative --steps or a non-finite --lo or --hi exits 2
    with one `error:` line naming the flag, and writes no CSV."""
    args = {"--lo": "0.0", "--hi": "0.09", "--steps": "10", flag: value}
    out = tmp_path / "scan.csv"
    code = main(["bifurcation", "--config",
                 config_file(load_fixture("sec22_backward")),
                 "--out", str(out), *(a for kv in args.items() for a in kv)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "control"])
@pytest.mark.parametrize("flag, value, message", [
    ("--steps", "-1", "--steps must be >= 1, got -1"),
    ("--steps", "0", "--steps must be >= 1, got 0"),
    ("--tf", "-1", "--tf must be > t0 = 0.0, got -1.0"),
    ("--tf", "nan", "--tf must be a finite number, got nan"),
])
def test_grid_flags_are_named_in_errors(command, flag, value, message,
                                        config_file, tmp_path, capsys):
    """[TRIVIAL] A grid value set by `--steps` or `--tf` that is not a
    count of at least 1 or a finite end time after t0 exits 2 with one
    `error:` line naming the flag, not the config field it replaced."""
    out = tmp_path / "out"
    code = main([command, "--config", config_file(_table5()),
                 "--out", str(out), flag, value])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_bifurcation_command_logs_one_summary(config_file, tmp_path, caplog,
                                             capsys):
    """The scan's counters go to one INFO record on the "arbo" logger;
    nothing goes to stdout."""
    out = tmp_path / "scan.csv"
    with caplog.at_level(logging.INFO, logger="arbo"):
        code = main(["bifurcation", "--config",
                     config_file(load_fixture("sec22_backward")),
                     "--lo", "0.0", "--hi", "0.12", "--steps", "40",
                     "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    (record,) = [r for r in caplog.records if r.name == "arbo"]
    assert record.levelno == logging.INFO
    rows = len(out.read_text().splitlines()) - 1
    assert (f"41 grid points, {rows} rows, 0 error rows, 0 unknown verdicts"
            in record.getMessage())


def test_control_command_masks_excluded_control(config_file, tmp_path):
    cfg = _table5()
    cfg["grid"]["tf"] = 5.0
    cfg["grid"]["n_steps"] = 500
    out = tmp_path / "ctl.json"
    controls_csv = tmp_path / "controls.csv"
    code = main(["control", "--config", config_file(cfg), "--strategy", "Z1",
                 "--out", str(out), "--controls-csv", str(controls_csv)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["strategy"] == "Z1"
    assert report["converged"] is True
    assert report["kernel_backend"] == _kernels.BACKEND
    assert report["kernel_fallback_reason"] == _kernels.FALLBACK_REASON
    assert report["J"] > 0.0
    data = np.loadtxt(controls_csv, delimiter=",", skiprows=1)
    assert np.all(data[:, 5] == 0.0)  # u5 masked off under Z1


def test_control_nonconvergence_exit_code(config_file, tmp_path, capsys):
    cfg = _table5()
    cfg["grid"]["tf"] = 5.0
    cfg["grid"]["n_steps"] = 500
    cfg["sweep"]["max_iters"] = 1
    out = tmp_path / "ctl.json"
    code = main(["control", "--config", config_file(cfg), "--out", str(out)])
    assert code == EXIT_NO_CONVERGENCE
    assert json.loads(out.read_text())["converged"] is False
    assert capsys.readouterr().err == (
        "sweep did not converge within the iteration budget\n")


def test_icer_command(config_file, tmp_path):
    out = tmp_path / "icer.json"
    code = main(["icer", "--config", config_file(_table5()),
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["kept"] == ["Z1"]
    assert [e["strategy"] for e in report["eliminations"]] == ["Z4", "Z2", "Z3"]


def test_sensitivity_command_and_seed_precedence(config_file, tmp_path,
                                                 monkeypatch):
    cfg = copy.deepcopy(load_fixture("table2_baseline"))
    cfg["sensitivity"]["samples"] = 60
    cfg["seed"] = 1
    path = config_file(cfg)
    out = tmp_path / "sens.json"

    # The seed is --seed, then the config's, then 0; the environment
    # plays no part.
    monkeypatch.setenv("ARBO_SEED", "2")
    assert main(["sensitivity", "--config", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 1

    assert main(["sensitivity", "--config", path, "--out", str(out),
                 "--seed", "3"]) == 0
    report = json.loads(out.read_text())
    assert report["seed"] == 3
    assert report["n"] == 60
    assert report["prcc"]  # non-empty coefficient table

    del cfg["seed"]
    assert main(["sensitivity", "--config", config_file(cfg),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 0


def test_sensitivity_reports_stage_times(config_file, tmp_path):
    cfg = copy.deepcopy(load_fixture("table2_baseline"))
    cfg["sensitivity"]["samples"] = 60
    out = tmp_path / "sens.json"
    assert main(["sensitivity", "--config", config_file(cfg), "--out", str(out)]) == 0
    diagnostics = json.loads(out.read_text())["diagnostics"]
    stages = diagnostics["stage_s"]
    assert set(stages) == {"sampling", "thresholds", "prcc"}
    assert all(v >= 0.0 for v in stages.values())
    assert diagnostics["sorted_columns"] == []


def test_sensitivity_refuses_zero_samples(config_file, tmp_path, capsys):
    """[TRIVIAL] `--samples 0` reaches the design's n >= 2 check rather
    than falling back to the config's sample count."""
    out = tmp_path / "sens.json"
    code = main(["sensitivity", "--config",
                 config_file(load_fixture("table2_baseline")),
                 "--samples", "0", "--out", str(out)])
    assert code == EXIT_PARSE
    assert "need n >= 2, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_flag_is_named(config_file, tmp_path, capsys):
    """[TRIVIAL] `--seed -1` exits 2 naming the flag, before sampling."""
    out = tmp_path / "sens.json"
    code = main(["sensitivity", "--config",
                 config_file(load_fixture("table2_baseline")),
                 "--seed", "-1", "--out", str(out)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


_DEFERRED = ("arbo.econ", "arbo.equilibria", "arbo.sensitivity")


@pytest.mark.parametrize("argv, loaded", [
    ([], []),
    (["thresholds", "--config", str(FIXTURES / "sec22_backward.json")], []),
    (["icer", "--config", str(FIXTURES / "table5_control.json")],
     ["arbo.econ"]),
], ids=["import", "thresholds", "icer"])
def test_commands_import_only_the_modules_they_run(argv, loaded, tmp_path):
    """A fresh interpreter that imports `arbo.cli`, and runs `argv` if
    given, loads of econ, equilibria and sensitivity only the ones that
    command runs: start-up pays for no module it leaves unused."""
    run = f"assert arbo.cli.main({argv!r}) == 0\n" if argv else ""
    code = (f"import sys, arbo.cli\n{run}"
            f"print(sorted(m for m in {_DEFERRED!r} if m in sys.modules))\n")
    src = str(FIXTURES.parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == repr(loaded)


def test_seed_is_refused_where_no_command_reads_it(config_file, capsys):
    """[TRIVIAL] Only `sensitivity` draws random numbers, so only it takes
    `--seed`; elsewhere the option is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["thresholds", "--config", config_file(_table5()), "--seed", "3"])
    assert exc.value.code == EXIT_PARSE
    assert "--seed" in capsys.readouterr().err


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_every_json_command_writes_strict_json(config_file, tmp_path):
    """[TRIVIAL] Each command that writes JSON writes RFC 8259 JSON, with
    no NaN or Infinity; the sweep log's first state change, which is
    infinite, is written as null."""
    sec22 = load_fixture("sec22_backward")
    control = _table5()
    control["grid"].update(tf=5.0, n_steps=500)
    sens = copy.deepcopy(load_fixture("table2_baseline"))
    sens["sensitivity"]["samples"] = 60
    configs = {"thresholds": sec22, "equilibria": sec22, "control": control,
               "icer": _table5(), "sensitivity": sens}
    reports = {}
    for command, cfg in configs.items():
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", config_file(cfg, f"{command}-cfg.json"),
                     "--out", str(out)]) == 0
        reports[command] = _strict_json(out.read_text())
    assert reports["control"]["log"][0]["state_change"] is None
    assert reports["control"]["log"][1]["state_change"] > 0.0


def test_non_finite_numbers_become_null():
    """[TRIVIAL] Python and NumPy NaNs and infinities map to None."""
    report = {"a": np.float64("nan"), "b": float("inf"), "c": (-np.inf, 1.5),
              "d": np.array([np.nan, 2.0]), "e": np.float32("inf"), "f": 3}
    assert _jsonable(report) == {"a": None, "b": None, "c": [None, 1.5],
                                 "d": [None, 2.0], "e": None, "f": 3}


def test_bad_json_config(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["thresholds", "--config", str(path)]) == EXIT_PARSE


def test_missing_config_file(tmp_path):
    assert main(["thresholds", "--config",
                 str(tmp_path / "nope.json")]) == EXIT_PARSE


def test_missing_param_field(config_file, capsys):
    cfg = _table5()
    del cfg["params"]["mu_v"]
    assert main(["thresholds", "--config", config_file(cfg)]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: params section missing fields: ['mu_v']\n")


def test_unknown_param_field(config_file, capsys):
    cfg = _table5()
    cfg["params"]["mu_x"] = 1.0
    assert main(["thresholds", "--config", config_file(cfg)]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: params section has unknown fields: ['mu_x']\n")


def test_invalid_param_value(config_file, capsys):
    cfg = _table5()
    cfg["params"]["mu_v"] = -1.0
    assert main(["thresholds", "--config", config_file(cfg)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(
        "error: invalid parameters: mu_v must be")


_DELETE = object()

_TOO_BIG = ("shape (1000000000000001, 5) and data type float64; the counts "
            "that size the arrays are grid.n_steps / --steps and "
            "sensitivity.samples / --samples")

# (command, fixture, path into the config, new value, message fragment)
_MALFORMED = [
    ("sensitivity", "table2_baseline", (), [1, 2], "must be a JSON object"),
    ("simulate", "table5_control", ("grid",), [1, 2],
     "grid must be a JSON object"),
    ("control", "table5_control", ("sweep",), [], "sweep must be a JSON object"),
    ("control", "table5_control", ("sweep", "max_iters"), None,
     "sweep.max_iters must be a number, got None"),
    ("simulate", "table5_control", ("grid", "n_steps"), None,
     "grid.n_steps must be a number, got None"),
    ("sensitivity", "table2_baseline", ("sensitivity", "samples"), None,
     "sensitivity.samples must be a number, got None"),
    ("sensitivity", "table2_baseline", ("sensitivity", "ranges"), [1, 2],
     "sensitivity.ranges must be a JSON object"),
    ("sensitivity", "table2_baseline", ("sensitivity", "ranges", "mu_h"), 5,
     "sensitivity.ranges.mu_h must be a [lo, hi] pair, got 5"),
    ("sensitivity", "table2_baseline", ("sensitivity", "ranges", "mu_h"),
     ["a", 1], "sensitivity.ranges.mu_h must be a number, got 'a'"),
    ("sensitivity", "table2_baseline", ("seed",), None,
     "config.seed must be a number, got None"),
    ("icer", "table5_control", ("icer", "strategies"), 5,
     "icer.strategies must be a list, got 5"),
    ("icer", "table5_control", ("icer", "strategies", 0), 1,
     "icer.strategies entry must be a JSON object, got 1"),
    ("icer", "table5_control", ("icer", "strategies", 0, "cost"), None,
     "icer.strategies.cost must be a number, got None"),
    ("control", "table5_control", ("control_params", "omega"), _DELETE,
     "control_params section missing fields: ['omega']"),
    ("control", "table5_control", ("weights", "B6"), 1.0,
     "weights section has unknown fields: ['B6']"),
    ("thresholds", "table5_control", ("params", "mu_h"), "0.1",
     "params.mu_h must be a number, got '0.1'"),
    ("thresholds", "table5_control", ("params", "mu_h"), None,
     "params.mu_h must be a number, got None"),
    ("thresholds", "table5_control", ("params", "mu_h"), True,
     "params.mu_h must be a number, got True"),
    ("control", "table5_control", ("strategy",), [],
     "config.strategy must be a strategy name, got []"),
    ("simulate", "table5_control", ("initial_state",), [None] * 10,
     "initial_state[0] must be a number, got None"),
    ("simulate", "table5_control", ("grid", "n_steps"), 100.7,
     "grid.n_steps must be an integer, got 100.7"),
    ("simulate", "table5_control", ("grid", "n_steps"), 0,
     "grid.n_steps must be >= 1, got 0"),
    ("control", "table5_control", ("grid", "n_steps"), -5,
     "grid.n_steps must be >= 1, got -5"),
    ("simulate", "table5_control", ("grid", "tf"), -1.0,
     "grid.tf must be > t0 = 0.0, got -1.0"),
    ("control", "table5_control", ("grid", "t0"), 40.0,
     "grid.tf must be > t0 = 40.0, got 20.0"),
    ("control", "table5_control", ("sweep", "max_iters"), 1.9,
     "sweep.max_iters must be an integer, got 1.9"),
    ("sensitivity", "table2_baseline", ("seed",), 2.5,
     "config.seed must be an integer, got 2.5"),
    ("sensitivity", "table2_baseline", ("sensitivity", "samples"), 50.5,
     "sensitivity.samples must be an integer, got 50.5"),
    ("control", "table5_control", ("sweep", "max_iters"), 0,
     "error: sweep.max_iters must be >= 1, got 0"),
    ("control", "table5_control", ("sweep", "max_iters"), -3,
     "error: sweep.max_iters must be >= 1, got -3"),
    ("control", "table5_control", ("sweep", "tol"), 0,
     "error: sweep.tol must be > 0, got 0.0"),
    ("control", "table5_control", ("sweep", "tol"), -1.0,
     "error: sweep.tol must be > 0, got -1.0"),
    ("control", "table5_control", ("sweep", "mix"), 0,
     "error: sweep.mix must be in (0, 1], got 0.0"),
    ("control", "table5_control", ("sweep", "mix"), 1.5,
     "error: sweep.mix must be in (0, 1], got 1.5"),
    ("sensitivity", "table2_baseline", ("seed",), -1,
     "error: config.seed must be >= 0, got -1"),
    # `json` reads NaN, Infinity and 1e999 as floats that are not finite.
    ("simulate", "table5_control", ("initial_state", 2), float("nan"),
     "initial_state[2] must be a finite number, got nan"),
    ("simulate", "table5_control", ("grid", "tf"), float("inf"),
     "grid.tf must be a finite number, got inf"),
    ("icer", "table5_control", ("icer", "strategies", 0, "cost"), float("nan"),
     "icer.strategies.cost must be a finite number, got nan"),
    ("icer", "table5_control", ("icer", "strategies", 0, "name"), 3,
     "icer.strategies.name must be a string, got 3"),
    ("icer", "table5_control", ("icer", "strategies"),
     [{"name": "A", "averted": 100.0, "cost": 1000.0},
      {"name": "A", "averted": 200.0, "cost": 900.0},
      {"name": "B", "averted": 300.0, "cost": 1200.0}],
     "icer.strategies names must be distinct, got 'A' twice"),
    # 1e15 steps need 35.5 PiB, beyond any address space, so the
    # allocation fails at once whatever the overcommit policy.
    ("simulate", "table5_control", ("grid", "n_steps"), 1e15, _TOO_BIG),
    ("control", "table5_control", ("grid", "n_steps"), 1e15, _TOO_BIG),
    # Misspelt fields, each ignored in favour of a default before every
    # object refused fields it has no reader for.
    ("control", "table5_control", ("sweep", "max_iter"), 3,
     "sweep section has unknown fields: ['max_iter']"),
    ("simulate", "table5_control", ("grid", "t_0"), 0.0,
     "grid section has unknown fields: ['t_0']"),
    ("sensitivity", "table2_baseline", ("sensitivity", "sample"), 60,
     "sensitivity section has unknown fields: ['sample']"),
    ("icer", "table5_control", ("icer", "strategies", 0, "costs"), 1.0,
     "icer.strategies section has unknown fields: ['costs']"),
    ("icer", "table5_control", ("icer", "strategies", 0, "efficiency"), 50.0,
     "icer.strategies section has unknown fields: ['efficiency']"),
    ("sensitivity", "table2_baseline", ("sensitivty",), {"samples": 60},
     "config has unknown fields: ['sensitivty']"),
    ("simulate", "table5_control", ("grid",), _DELETE,
     "config missing fields: ['grid']"),
]


def _case_id(case):
    command, _, path, value, _ = case
    where = ".".join(map(str, path)) or "config"
    return f"{command}:{where}={'del' if value is _DELETE else repr(value)}"


@pytest.mark.parametrize("command, fixture, path, value, message", _MALFORMED,
                         ids=map(_case_id, _MALFORMED))
def test_malformed_config_exits_2(command, fixture, path, value, message,
                                  config_file, tmp_path, capsys):
    """[TRIVIAL] A section that is not an object, a field that is not a
    finite number (booleans, null, NaN and infinity included), a count
    that is not an integer, a grid of no steps or not ending after
    it starts, an iteration budget below 1, a tolerance that is not
    positive, a relaxation weight outside (0, 1], a negative seed, a
    count too large to allocate, a strategy that is not a name, ICER
    strategy names that are not distinct strings, a
    range that is not a pair, an object at any level with a missing or
    unknown field and an absent required section are configuration
    errors: exit 2 with one `error:` line naming the field."""
    cfg = copy.deepcopy(load_fixture(fixture))
    if not path:
        cfg = value
    else:
        *parents, key = path
        section = cfg
        for k in parents:
            section = section[k]
        if value is _DELETE:
            del section[key]
        else:
            section[key] = value
    out = tmp_path / "out"
    assert main([command, "--config", config_file(cfg),
                 "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_numeric_error_exit_code(config_file, tmp_path):
    # A huge step on the logistic aquatic stages blows up the integration.
    cfg = _table5()
    cfg["grid"]["tf"] = 1e5
    cfg["grid"]["n_steps"] = 2
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--config", config_file(cfg), "--out", str(out)])
    assert code == EXIT_NUMERIC


def test_numeric_error_reports_grid_time(config_file, tmp_path, capsys):
    """No infection and no carrying capacity: the vector population grows
    until it overflows.  `simulate` and the sweep of `control` both report
    the first non-finite node at its time on the config's grid, although
    the kernels count time from 0."""
    cfg = _table5()
    cfg["params"].update(beta_hv=0.0, beta_vh=0.0, delta=0.0, mu_b=1e4,
                         Gamma_E=1e300, Gamma_L=1e300)
    cfg["grid"].update(t0=1000.0, tf=1500.0, n_steps=100)
    path = config_file(cfg)
    for command in ("simulate", "control"):
        out = tmp_path / f"{command}.out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([command, "--config", path, "--out", str(out)])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numeric error: non-finite value at step 74 (t = 1370)\n")
        assert not out.exists()


def _csv(path):
    """Header and rows of a CSV file, each row split into its fields."""
    header, *lines = path.read_text().splitlines()
    return header, [line.split(",") for line in lines]


def test_csv_outputs_round_trip(config_file, tmp_path):
    """`sensitivity --prcc-csv/--hist-csv` and `control --states-csv` write
    one row per coefficient, bin and node, and every value reads back as
    the in-process result, bit for bit."""
    sens = copy.deepcopy(load_fixture("table2_baseline"))
    sens["sensitivity"]["samples"] = 60
    prcc_csv, hist_csv = tmp_path / "prcc.csv", tmp_path / "hist.csv"
    assert main(["sensitivity", "--config", config_file(sens, "sens.json"),
                 "--out", str(tmp_path / "sens-out.json"),
                 "--prcc-csv", str(prcc_csv), "--hist-csv", str(hist_csv)]) == 0
    dist = sensitivity.ParamDistribution(
        {k: tuple(v) for k, v in sens["sensitivity"]["ranges"].items()})
    samples = sensitivity.lhs_sample(dist, 60, sens["seed"])
    report = sensitivity.prcc(samples, sensitivity.r0_values(samples))
    hist = sensitivity.r0_distribution(samples)["histogram"]
    header, rows = _csv(prcc_csv)
    assert header == "parameter,prcc"
    assert len(rows) == len(report.coefficients) == 21
    assert [(name, float(v)) for name, v in rows] == list(
        report.coefficients.items())
    header, rows = _csv(hist_csv)
    assert header == "bin_lo,bin_hi,count"
    assert len(rows) == len(hist["counts"])
    assert [[float(lo), float(hi), int(n)] for lo, hi, n in rows] == [
        list(row) for row in zip(hist["edges"][:-1].tolist(),
                                 hist["edges"][1:].tolist(),
                                 hist["counts"].tolist())]

    control = _table5()
    control["grid"].update(tf=5.0, n_steps=500)
    states_csv = tmp_path / "states.csv"
    assert main(["control", "--config", config_file(control, "ctl.json"),
                 "--out", str(tmp_path / "ctl-out.json"),
                 "--states-csv", str(states_csv)]) == 0
    result = forward_backward_sweep(
        ModelParams(**control["params"]),
        ControlParams(**control["control_params"]),
        ObjectiveWeights(**control["weights"]),
        np.array(control["initial_state"], dtype=float),
        TimeGrid(0.0, 5.0, 500), StrategyMask.named(control["strategy"]),
        **control["sweep"])
    header, rows = _csv(states_csv)
    assert header == "t," + ",".join(STATE_NAMES)
    assert len(rows) == 501
    assert np.array_equal(np.array(rows, dtype=float), np.column_stack(
        [result.states.grid.times(), result.states.values]))
