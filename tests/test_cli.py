"""Command-line interface: outputs, seed precedence, and exit codes."""

import copy
import dataclasses
import gc
import json
import logging
import os
import pathlib
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

from arbo import _kernels, sensitivity
from arbo.cli import (
    _MAX_STEPS, EXIT_NO_CONVERGENCE, EXIT_NUMERIC, EXIT_PARSE, _jsonable,
    build_parser, main,
)
from arbo.control import StrategyMask, forward_backward_sweep
from arbo.equilibria import bifurcation_scan
from arbo.model import STATE_NAMES, ControlParams, ModelParams, ObjectiveWeights
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


def test_bifurcation_requires_out(config_file, monkeypatch, capsys):
    """[TRIVIAL] Without --out, bifurcation exits 2 before scanning."""
    def scan(*args, **kwargs):
        raise AssertionError("bifurcation_scan called without --out")

    monkeypatch.setattr("arbo.equilibria.bifurcation_scan", scan)
    assert main(["bifurcation", "--config", config_file(_table5()),
                 "--lo", "0", "--hi", "0.09"]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: bifurcation requires --out CSV path\n")


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
    ("--steps", "100000000000000000000",
     f"--steps must be <= {_MAX_STEPS}, got 100000000000000000000"),
    ("--param", "beta_xy", "--param must name a field of params, "
                           "got 'beta_xy'"),
])
def test_bifurcation_refuses_bad_flags(flag, value, message, config_file,
                                       tmp_path, capsys):
    """[TRIVIAL] A negative --steps or one too large for numpy to size
    the scan's arrays, a non-finite --lo or --hi, or a --param that is no
    model parameter exits 2 with one `error:` line naming the flag, and
    writes no CSV."""
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
    ("--steps", "100000000000000000000",
     f"--steps must be <= {_MAX_STEPS}, got 100000000000000000000"),
    ("--tf", "-1", "--tf must be > t0 = 0.0, got -1.0"),
    ("--tf", "nan", "--tf must be a finite number, got nan"),
])
def test_grid_flags_are_named_in_errors(command, flag, value, message,
                                        config_file, tmp_path, capsys):
    """[TRIVIAL] A grid value set by `--steps` or `--tf` that is not a
    count of at least 1 (nor one too large for numpy to size its arrays)
    or a finite end time after t0 exits 2 with one `error:` line naming
    the flag, not the config field it replaced."""
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


def test_bad_sweep_setting_runs_no_kernel(config_file, tmp_path, capsys,
                                          monkeypatch):
    """[TRIVIAL] A sweep setting out of its range is refused before any
    kernel runs: exit 2, the config's name for the setting, no output."""
    calls = []
    entries = [f.name for f in dataclasses.fields(_kernels.Kernels)
               if callable(getattr(_kernels.PYTHON, f.name))]
    for name in entries:
        monkeypatch.setattr(_kernels, name,
                            lambda *args, name=name: calls.append(name))
    cfg = _table5()
    cfg["sweep"]["mix"] = 0
    out = tmp_path / "ctl.json"
    code = main(["control", "--config", config_file(cfg), "--out", str(out)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: sweep.mix must be in (0, 1], got 0.0\n")
    assert calls == []
    assert not out.exists()


def test_icer_command(config_file, tmp_path):
    out = tmp_path / "icer.json"
    code = main(["icer", "--config", config_file(_table5()),
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["kept"] == ["Z1"]
    assert [e["strategy"] for e in report["eliminations"]] == ["Z4", "Z2", "Z3"]


_TWO = [{"name": "A", "averted": 100.0, "cost": 1000.0},
        {"name": "B", "averted": 200.0, "cost": 1500.0}]


@pytest.mark.parametrize("strategies, message", [
    ([_TWO[0], {**_TWO[1], "averted": -5}],
     "icer.strategies[1].averted must be > 0, got -5.0"),
    ([{**_TWO[0], "averted": 0}, _TWO[1]],
     "icer.strategies[0].averted must be > 0, got 0.0"),
    (_TWO[:1], "icer.strategies must list at least 2 strategies, got 1"),
    ([], "icer.strategies must list at least 2 strategies, got 0"),
], ids=["negative", "zero", "one", "none"])
def test_icer_refusals_name_their_field(strategies, message, config_file,
                                        tmp_path, capsys):
    """[TRIVIAL] A strategy that averts no infections, or fewer than two
    strategies, exits 2 with one `error:` line naming the entry's field or
    the list, and writes no report."""
    cfg = _table5()
    cfg["icer"]["strategies"] = strategies
    out = tmp_path / "icer.json"
    assert main(["icer", "--config", config_file(cfg),
                 "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


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
    """[TRIVIAL] `--samples 0` is refused naming the flag, rather than
    falling back to the config's sample count."""
    out = tmp_path / "sens.json"
    code = main(["sensitivity", "--config",
                 config_file(load_fixture("table2_baseline")),
                 "--samples", "0", "--out", str(out)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == "error: --samples must be >= 2, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("samples", ["3", "23"])
def test_sensitivity_refuses_samples_at_the_prcc_floor(
        samples, config_file, tmp_path, capsys, monkeypatch):
    """[TRIVIAL] A `--samples` count at or below PRCC's floor, the 21
    parameters with a non-degenerate range plus two, exits 2 naming the
    flag, before anything is sampled."""
    def not_reached(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr(sensitivity, "lhs_sample", not_reached)
    out = tmp_path / "sens.json"
    code = main(["sensitivity", "--config",
                 config_file(load_fixture("table2_baseline")),
                 "--samples", samples, "--out", str(out)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: --samples must be > 23, got {samples}\n")
    assert not out.exists()


def test_prcc_floor_counts_only_non_degenerate_ranges(config_file, tmp_path,
                                                     capsys):
    """[TRIVIAL] With all but three ranges pinned to a point the floor is
    five: five samples are refused, six run PRCC on the three."""
    ranges = {name: [lo, hi if name in ("beta_hv", "beta_vh", "eta_h") else lo]
              for name, (lo, hi) in sensitivity.baseline_ranges().ranges.items()}
    cfg = load_fixture("table2_baseline")
    cfg["sensitivity"]["ranges"] = ranges
    out = tmp_path / "sens.json"
    argv = ["sensitivity", "--config", config_file(cfg), "--out", str(out)]
    assert main([*argv, "--samples", "5"]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: --samples must be > 5, got 5\n"
    assert main([*argv, "--samples", "6"]) == 0
    assert sorted(json.loads(out.read_text())["prcc"]) == ["beta_hv", "beta_vh",
                                                          "eta_h"]


def test_singular_prcc_is_a_configuration_error(config_file, tmp_path,
                                                capsys):
    """[TRIVIAL] A design whose rank correlation matrix is singular (all
    but three ranges pinned, six draws, seed 1) exits 2 with one `error:`
    line that says so, and writes no report."""
    ranges = {name: [lo, hi if name in ("mu_h", "a", "mu_b") else lo]
              for name, (lo, hi) in sensitivity.baseline_ranges().ranges.items()}
    cfg = load_fixture("table2_baseline")
    cfg["sensitivity"]["ranges"] = ranges
    out = tmp_path / "sens.json"
    code = main(["sensitivity", "--config", config_file(cfg), "--samples", "6",
                 "--seed", "1", "--out", str(out)])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: the rank correlation matrix of the 3 active parameters and "
        "the output is singular over 6 draws\n")
    assert not out.exists()


@pytest.mark.parametrize("name", ["mu_v", "mu_E", "mu_L", "mu_P",
                                  "lambda_h_in"])
def test_constant_r0_is_a_configuration_error(name, config_file, tmp_path,
                                              capsys):
    """[TRIVIAL] A range whose upper bound is 1e308 makes R0 zero at every
    draw, so PRCC has no output ranks: `sensitivity` exits 2 with one
    `error:` line, before it logs a column it sorts, and writes no
    report."""
    cfg = load_fixture("table2_baseline")
    cfg["sensitivity"]["ranges"][name][1] = 1e308
    out = tmp_path / "sens.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sensitivity", "--config", config_file(cfg),
                     "--samples", "2000", "--seed", "1", "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    assert code == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: the output is constant over the sample\n")
    assert not out.exists()


def test_non_finite_r0_is_a_numeric_error(config_file, tmp_path, capsys):
    """[TRIVIAL] Egg and larval capacities drawn from [1e300, 1e308]
    overflow the disease-free vector population, so no draw has a finite
    R0: `sensitivity` exits 3 naming the first draw and writes nothing,
    rather than a report with a null mean and a histogram without those
    draws.  numpy does not warn of the overflow."""
    cfg = load_fixture("table2_baseline")
    cfg["sensitivity"]["ranges"].update(Gamma_E=[1e300, 1e308],
                                        Gamma_L=[1e300, 1e308])
    out, hist = tmp_path / "sens.json", tmp_path / "hist.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sensitivity", "--config", config_file(cfg),
                     "--samples", "200", "--seed", "1", "--out", str(out),
                     "--hist-csv", str(hist)])
    assert [str(w.message) for w in caught] == []
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric error: R0 is nan at draw 0 of the design; it is not finite "
        "at 200 of 200 draws\n")
    assert not out.exists() and not hist.exists()


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
    proc = _fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == repr(loaded)


def _fresh_python(args, cwd):
    """A new interpreter, with `args` and this tree's `src` on its path."""
    src = str(FIXTURES.parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, timeout=120)


def _table5_with(**sections):
    cfg = _table5()
    for section, values in sections.items():
        cfg[section].update(values)
    return cfg


@pytest.mark.parametrize("argv, cfg, code", [
    (["thresholds"], load_fixture("sec22_backward"), 0),
    (["control", "--steps", "0"], _table5(), EXIT_PARSE),
    (["simulate", "--out", "traj.csv"],
     _table5_with(grid={"tf": 1e5, "n_steps": 2}), EXIT_NUMERIC),
    (["control"], _table5_with(grid={"tf": 5.0, "n_steps": 500},
                               sweep={"max_iters": 1}), EXIT_NO_CONVERGENCE),
], ids=["ok", "parse", "numeric", "no-convergence"])
def test_process_entry_writes_what_main_writes(argv, cfg, code, config_file,
                                               tmp_path, monkeypatch, capsys):
    """`python -m arbo.cli` exits through `run`, which freezes the collector
    first.  Its stdout, stderr and exit code are those of `main` run
    in-process, for success and for each error exit."""
    monkeypatch.chdir(tmp_path)
    argv = [argv[0], "--config", config_file(cfg), *argv[1:]]
    assert main(argv) == code
    captured = capsys.readouterr()
    proc = _fresh_python(["-m", "arbo.cli", *argv], tmp_path)
    err = captured.err.encode()
    if _kernels.BACKEND != "c":
        # Without the C kernels the fresh import logs the fallback to stderr
        # before the command runs; this process logged it at collection,
        # into pytest's log capture.
        assert proc.stderr.startswith(b"compiled RK4 kernels unavailable")
        assert proc.stderr.endswith(err)
        err = proc.stderr
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, captured.out.encode(), err)
    if code == 0:
        golden = pathlib.Path(__file__).with_name("golden")
        assert proc.stdout == (
            golden / "thresholds_sec22_backward.json").read_bytes()


def test_main_leaves_the_collector_alone(capsys):
    """[TRIVIAL] Only the process entry freezes the collector; a caller of
    `main` gets it back as it was."""
    before = (gc.get_freeze_count(), gc.isenabled())
    assert main(["thresholds", "--config",
                 str(FIXTURES / "sec22_backward.json")]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


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
    ("sensitivity", "table2_baseline", ("sensitivity", "samples"), 1,
     "error: sensitivity.samples must be >= 2, got 1"),
    ("sensitivity", "table2_baseline", ("sensitivity", "samples"), 23,
     "error: sensitivity.samples must be > 23, got 23"),
    ("control", "table5_control", ("strategy",), "Q",
     "error: config.strategy must be one of ['Z', 'Z1', 'Z2', 'Z3', 'Z4'], "
     "got 'Q'"),
    ("simulate", "table5_control", ("initial_state",), [1.0] * 9,
     "error: initial_state must be a list of 10 numbers, got [1.0, "),
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
    # Beyond any shape numpy can size, refused before numpy sees it.
    ("simulate", "table5_control", ("grid", "n_steps"), 1e308,
     f"error: grid.n_steps must be <= {_MAX_STEPS}, got 1e+308"),
    ("control", "table5_control", ("grid", "n_steps"), 1e308,
     f"error: grid.n_steps must be <= {_MAX_STEPS}, got 1e+308"),
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
    sample count below 2 or at PRCC's floor, a count too large to
    allocate or to size, a strategy that
    is not a known name, an initial state that is not 10 numbers, ICER
    strategy names that are not distinct strings, a
    range that is not a pair, an object at any level with a missing or
    unknown field and an absent required section are configuration
    errors: exit 2 with one `error:` line naming the field."""
    cfg = _mutated(load_fixture(fixture), path, value)
    out = tmp_path / "out"
    assert main([command, "--config", config_file(cfg),
                 "--out", str(out)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def _mutated(cfg, path: tuple, value):
    """`cfg` with the field at `path` (keys and list indices) set to
    `value`, or deleted for `_DELETE`; the empty path replaces the whole
    config.  Only the objects along the path are copied."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    out = dict(cfg) if isinstance(cfg, dict) else list(cfg)
    if rest:
        out[key] = _mutated(cfg[key], rest, value)
    elif value is _DELETE:
        del out[key]
    else:
        out[key] = value
    return out


# Each leaf of the three fixtures (a number, string or list entry) is set
# in turn to each of these values, or deleted, and run through the command
# that `_READER` names for its top-level section; the other commands read
# a section through the same reader.  `_SHORT` keeps a run small, unless
# its flag would replace the mutated field.
_MUTANTS = (0, -1.0, 1e308, "x", None, [], {}, True, _DELETE)
_READER = {"spec_version": "thresholds", "params": "thresholds",
           "control_params": "control", "weights": "control",
           "sweep": "control", "strategy": "control", "grid": "simulate",
           "initial_state": "simulate", "seed": "sensitivity",
           "sensitivity": "sensitivity", "icer": "icer"}
_SHORT = {"simulate": ("--steps", "10", "n_steps"),
          "control": ("--steps", "10", "n_steps"),
          "sensitivity": ("--samples", "200", "samples")}
# How many of the mutations that pass every check and reach a command's
# compute run in full, and the seed that picks them.
_FULL_RUNS, _FULL_RUN_SEED = 40, 2028


def _leaves(node, path=()):
    """The path of every leaf of the JSON value `node`."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            yield from _leaves(value, (*path, key))
    else:
        yield path


def _mutation_argv(path: tuple) -> list:
    command = _READER[path[0]]
    if command in _SHORT and path[-1] != _SHORT[command][2]:
        return [command, *_SHORT[command][:2]]
    return [command]


def _names(path: tuple) -> set:
    """How a message may name the field at `path` or a section that holds
    it (and so a field next to it): by the full dotted path, with each
    list entry as `[i]` or left out."""
    names = set()
    for p in (path[:i] for i in range(1, len(path) + 1)):
        names.add("".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                          for k in p).lstrip("."))
        names.add(".".join(k for k in p if not isinstance(k, int)))
    return names


class _Computes(Exception):
    """Raised where a command would start its compute."""


def _computes(*args, **kwargs):
    raise _Computes


def test_generated_config_mutations(config_file, tmp_path, capsys,
                                    monkeypatch):
    """[TRIVIAL] Every leaf of the three fixtures set in turn to 0, -1.0,
    1e308, "x", null, [], {} or true, or deleted, and run through the
    command that reads its section (`_READER`), exits 0, 2, 3 or 4.  A
    run that fails prints one line: `error:` (exit 2), `numeric error:`
    (exit 3) or the non-convergence line (exit 4).  An exit-2 line names
    the field or a section that holds it by its full path (`_names`), or
    a flag of the run.

    Every mutation runs with the compute of `simulate`, `control` and
    `sensitivity` (the RK4 run, the sweep, the LHS draws) stubbed out, so
    that every refusal runs, since a refusal stops before any compute.
    Of the mutations that reach the compute, `_FULL_RUNS` drawn with
    `_FULL_RUN_SEED` then run in full.  RuntimeWarnings of overflowing
    values are ignored there: the exit code and message are checked.
    Last, every `params` mutation runs through `equilibria` as well, which
    must not warn at all, since a process prints a warning as further
    lines on stderr."""
    fixtures = {name: load_fixture(name) for name in
                ("table5_control", "table2_baseline", "sec22_backward")}

    def run(fixture, path, value, command=None):
        argv = [command] if command else _mutation_argv(path)
        cfg = _mutated(fixtures[fixture], path, value)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always" if command else "ignore",
                                  RuntimeWarning)
            code = main([argv[0], "--config", config_file(cfg),
                         "--out", str(tmp_path / "out"), *argv[1:]])
        err = capsys.readouterr().err
        case = (fixture, path, "del" if value is _DELETE else value, err,
                [str(w.message) for w in caught])
        assert code in (0, 2, 3, 4) and not caught, case
        if code:
            first = {2: "error: ", 3: "numeric error: ",
                     4: "sweep did not converge"}[code]
            assert err.startswith(first) and err.count("\n") == 1, case
        if code == 2:
            named = _names(path) | {*argv[1::2]}
            assert any(name in err for name in named), case

    mutations = [(fixture, path, value) for fixture, cfg in fixtures.items()
                 for path in _leaves(cfg) for value in _MUTANTS]
    parser = build_parser()
    monkeypatch.setattr("arbo.cli.build_parser", lambda: parser)
    with monkeypatch.context() as stubs:
        for name in ("arbo.cli.rk4_basic", "arbo.cli.forward_backward_sweep",
                     "arbo.sensitivity.lhs_sample"):
            stubs.setattr(name, _computes)
        reached = []
        for mutation in mutations:
            try:
                run(*mutation)
            except _Computes:
                capsys.readouterr()
                reached.append(mutation)
    assert len(mutations) > 1500 and len(reached) > _FULL_RUNS
    for mutation in random.Random(_FULL_RUN_SEED).sample(reached, _FULL_RUNS):
        run(*mutation)
    params = [m for m in mutations if m[1][0] == "params"]
    assert len(params) == 3 * 21 * len(_MUTANTS)
    for mutation in params:
        run(*mutation, command="equilibria")


def test_numeric_error_exit_code(config_file, tmp_path):
    # A huge step on the logistic aquatic stages blows up the integration.
    cfg = _table5()
    cfg["grid"]["tf"] = 1e5
    cfg["grid"]["n_steps"] = 2
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--config", config_file(cfg), "--out", str(out)])
    assert code == EXIT_NUMERIC


@pytest.mark.filterwarnings("error")
def test_non_finite_endemic_point_is_a_numeric_error(config_file, tmp_path,
                                                     capsys):
    """[TRIVIAL] A gamma_v of 1e308 makes the endemic I_v infinite:
    `equilibria` exits 3 naming the point, and writes nothing, rather than
    handing the point to the eigenvalue check.  numpy does not warn of the
    overflow on the way, so the refusal is the one line on stderr."""
    cfg = _table5()
    cfg["params"]["gamma_v"] = 1e308
    out = tmp_path / "eq.json"
    code = main(["equilibria", "--config", config_file(cfg),
                 "--out", str(out)])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric error: endemic point at lambda_h=0.000900606 is not finite\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["thresholds", "equilibria"])
def test_underflowing_human_population_is_a_numeric_error(command, config_file,
                                                          tmp_path, capsys):
    """[TRIVIAL] lambda_h_in = 1e-320 with mu_h = 1e10 puts 0 humans at the
    disease-free equilibrium: both commands exit 3 with one line naming
    K_vh, which divides by that 0, without a numpy warning, and write
    nothing."""
    cfg = _table5()
    cfg["params"].update(lambda_h_in=1e-320, mu_h=1e10)
    out = tmp_path / "out.json"
    code = main([command, "--config", config_file(cfg), "--out", str(out)])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == "numeric error: K_vh is inf\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["thresholds", "equilibria"])
@pytest.mark.parametrize("param, value, message", [
    ("Gamma_E", 1e308, "S_v of the disease-free equilibrium is nan"),
    ("a", 1e200, "R0 is inf"),
])
def test_overflowing_report_is_a_numeric_error(command, param, value, message,
                                               config_file, tmp_path, capsys):
    """[TRIVIAL] An egg capacity of 1e308 overflows the disease-free
    vector population, and a biting rate of 1e200 overflows R0: both
    commands exit 3 with one `numeric error:` line naming the quantity
    (the first in the order of derivation) and write nothing, rather than
    a report with null in its place.  numpy does not warn of it."""
    cfg = load_fixture("sec22_backward")
    cfg["params"][param] = value
    out = tmp_path / "report.json"
    code = main([command, "--config", config_file(cfg), "--out", str(out)])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err == f"numeric error: {message}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scan_makes_each_non_finite_point_an_error_row(config_file, tmp_path,
                                                       capsys, sec22, table5):
    """[TRIVIAL] A scan whose grid points overflow the disease-free
    vectors, R0 or the endemic point exits 0 and writes each as an error
    row, with nothing on stderr, rather than handing the non-finite states
    to the eigenvalue verdicts; a finite point beside them keeps its rows
    and verdicts."""
    out = tmp_path / "scan.csv"
    code = main(["bifurcation", "--config",
                 config_file(load_fixture("sec22_backward")), "--param",
                 "Gamma_E", "--lo", "0", "--hi", "1e308", "--steps", "3",
                 "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0, "")
    assert [row[2] for row in _csv(out)[1]] == ["-1"] * 4
    for p, name, value, error in [
            (sec22.params, "a", 1e200, "R0 is inf"),
            (table5.params, "gamma_v", 1e308,
             "endemic point at lambda_h=0.000900606 is not finite")]:
        first = getattr(p, name)
        rows = bifurcation_scan(p, name, first, value, 1, stability=True)
        assert rows[-1].error == error and rows[-1].branch_id == -1
        assert rows[:-1] == bifurcation_scan(p, name, first, first, 0,
                                             stability=True)
        assert all(r.stable is not None for r in rows[:-1])


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
