"""Command-line interface: config ingestion, command dispatch, and
deterministic CSV/JSON emission for every analysis in the package.

Exit codes: 0 success, 2 configuration/parse errors, 3 numeric errors,
4 solver non-convergence.

A command imports `econ`, `equilibria` and `sensitivity` only when it
runs them, so that start-up does not pay for modules it leaves unused.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import logging
import math
import sys
import time

import numpy as np

from . import SPEC_VERSION
from ._kernels import (  # perfbench traces cli.rk4_basic
    BACKEND, FALLBACK_REASON, rk4_basic,
)
from .control import (  # perfbench traces cli.forward_backward_sweep
    STRATEGY_SETS, StrategyMask, forward_backward_sweep,
)
from .model import (
    STATE_NAMES, ControlParams, ModelParams, ObjectiveWeights, ParamError,
    ZeroPopulationError, params_to_array,
)
from .ode import TimeGrid, Trajectory
from .stability import eigen_verdict  # perfbench traces cli.eigen_verdict
from .thresholds import (  # perfbench traces cli.bifurcation_thresholds
    REPORT_NAMES, ThresholdError, bifurcation_thresholds, derive_constants,
)

EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_NO_CONVERGENCE = 4

_log = logging.getLogger("arbo")


class ConfigError(ValueError):
    """Malformed or incomplete run configuration."""


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None  # JSON has no NaN or infinity
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _emit_json(report: dict, out_path) -> None:
    report = dict(report)
    report.setdefault("spec_version", SPEC_VERSION)
    text = json.dumps(_jsonable(report), indent=2, allow_nan=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# Each command reads only the sections it uses; the top level only names them.
_SECTIONS = dict.fromkeys(
    ("spec_version", "params", "control_params", "weights", "initial_state",
     "grid", "strategy", "sweep", "seed", "sensitivity", "icer"),
    lambda value, where: value)


def load_config(path, required=()) -> dict:
    """The top-level object of the JSON file at `path`, which must hold
    each section named in `required` and no unknown one."""
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}") from exc
    return _fields(_object(cfg, f"config {path}"), "config", _SECTIONS, required)


def _fields(value, where: str, readers: dict, required=()) -> dict:
    """The fields of the JSON object `value` that are present, field `key`
    read by `readers[key](value[key], f"{where}.{key}")`; a field with no
    reader, or an absent one named in `required`, is an error."""
    section = _object(value, where)
    label = where if where == "config" else f"{where} section"
    missing = set(required) - set(section)
    if missing:
        raise ConfigError(f"{label} missing fields: {sorted(missing)}")
    unknown = set(section) - set(readers)
    if unknown:
        raise ConfigError(f"{label} has unknown fields: {sorted(unknown)}")
    return {key: readers[key](v, f"{where}.{key}") for key, v in section.items()}


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _number(value, where: str):
    """`value`, which must be a finite JSON number; a boolean is not one,
    nor are the NaN, Infinity and overflowing literals `json` reads."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return value


def _float(value, where: str) -> float:
    return float(_number(value, where))


def _count(value, where: str) -> int:
    """The integer `value`, which may be written as a whole float such as
    100.0."""
    value = _number(value, where)
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _range(value, where: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where} must be a [lo, hi] pair, got {value!r}")
    lo, hi = (_number(v, where) for v in value)
    if not lo <= hi:
        raise ConfigError(f"{where} must have lo <= hi, got {value!r}")
    return lo, hi


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _record(cfg: dict, cls, key: str):
    """The dataclass `cls` from the object cfg[key], which must name
    exactly its fields, each a number within its bounds."""
    names = [f.name for f in dataclasses.fields(cls)]
    values = _fields(cfg[key], key, dict.fromkeys(names, _number), names)
    try:
        return cls(**values)
    except ParamError as exc:
        raise _located(exc, key) from None


def _located(exc: ParamError, where: str) -> ParamError:
    """`exc` with each violation followed by the full path of its field
    under `where`; every violation starts with its field's name."""
    return ParamError([f"{v} ({where}.{v.split(' ', 1)[0]})"
                       for v in exc.violations])


# The largest step count whose (n_steps + 1, 10) array of doubles (a
# trajectory, or a scan's disease-free states) numpy can size; beyond it
# numpy refuses the shape with a message that names no field.
_MAX_STEPS = sys.maxsize // 80 - 1


def _build_grid(cfg: dict, args) -> TimeGrid:
    """The config's grid with `--tf` and `--steps` in place of its tf and
    n_steps; an error names the flag or the field that set the value."""
    section = dict(_object(cfg["grid"], "grid"))
    where = {"tf": "grid.tf", "n_steps": "grid.n_steps"}
    if args.tf is not None:
        section["tf"], where["tf"] = _number(args.tf, "--tf"), "--tf"
    if args.steps is not None:
        section["n_steps"], where["n_steps"] = args.steps, "--steps"
    grid = {"t0": 0.0, **_fields(
        section, "grid", {"t0": _number, "tf": _number, "n_steps": _count},
        ("tf", "n_steps"))}
    if grid["n_steps"] < 1:
        raise ConfigError(
            f"{where['n_steps']} must be >= 1, got {grid['n_steps']}")
    if grid["n_steps"] > _MAX_STEPS:
        raise ConfigError(f"{where['n_steps']} must be <= {_MAX_STEPS}, "
                          f"got {section['n_steps']}")
    if not grid["tf"] > grid["t0"]:
        raise ConfigError(f"{where['tf']} must be > t0 = {grid['t0']}, "
                          f"got {grid['tf']}")
    return TimeGrid(**grid)


def _initial_state(cfg: dict) -> np.ndarray:
    x0 = cfg["initial_state"]
    if not isinstance(x0, list) or len(x0) != 10:
        raise ConfigError(f"initial_state must be a list of 10 numbers, "
                          f"got {x0!r}")
    return np.array([_number(v, f"initial_state[{i}]")
                     for i, v in enumerate(x0)], dtype=float)


def _distribution(value, where: str):
    from . import sensitivity
    return sensitivity.ParamDistribution(_fields(
        value, where, dict.fromkeys(sensitivity.PARAM_ORDER, _range),
        sensitivity.PARAM_ORDER))


def _strategies(value, where: str) -> list:
    """The ICER strategy reports listed in `value`: at least two, under
    distinct names, each averting a positive number of infections."""
    from . import econ
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    if len(value) < 2:
        raise ConfigError(f"{where} must list at least 2 strategies, "
                          f"got {len(value)}")
    readers = {"name": _string, "cost": _float, "averted": _float}
    reports = []
    for i, row in enumerate(value):
        row = _fields(_object(row, f"{where} entry"), where, readers,
                      required=readers)
        if any(r.name == row["name"] for r in reports):
            raise ConfigError(f"{where} names must be distinct, got "
                              f"{row['name']!r} twice")
        if not row["averted"] > 0:
            raise ConfigError(f"{where}[{i}].averted must be > 0, "
                              f"got {row['averted']!r}")
        reports.append(econ.StrategyReport(
            name=row["name"], cumulated_ih=0.0, efficiency_percent=0.0,
            total_cost=row["cost"], infections_averted=row["averted"]))
    return reports


def cmd_thresholds(args, cfg: dict) -> int:
    p = _record(cfg, ModelParams, "params")
    rep = bifurcation_thresholds(p)
    report = {REPORT_NAMES[f.name]: getattr(rep, f.name)
              for f in dataclasses.fields(rep)}
    _emit_json({**report, "derived_constants": derive_constants(p)}, args.out)
    return 0


def cmd_equilibria(args, cfg: dict) -> int:
    from . import equilibria
    p = _record(cfg, ModelParams, "params")
    eq = equilibria.solve_endemic(p, stability_checker=lambda x: eigen_verdict(x, p).stable)
    report = {
        "classification": eq.classification.value,
        "case": eq.case,
        "dfe_trivial": eq.dfe_trivial,
        "dfe_biological": eq.dfe_biological,
        "quadratic": eq.quadratic,
        "endemic": [
            {"state": dict(zip(STATE_NAMES, x)), "lambda_h": lam,
             "stable": stable}
            for x, lam, stable in eq.endemic
        ],
        "rejected": [{"lambda_h": lam, "reason": why}
                     for lam, why in eq.rejected],
    }
    _emit_json(report, args.out)
    return 0


def cmd_bifurcation(args, cfg: dict) -> int:
    from . import equilibria
    p = _record(cfg, ModelParams, "params")
    if args.out is None:
        raise ConfigError("bifurcation requires --out CSV path")
    if args.param not in {f.name for f in dataclasses.fields(ModelParams)}:
        raise ConfigError(f"--param must name a field of params, "
                          f"got {args.param!r}")
    lo, hi = _number(args.lo, "--lo"), _number(args.hi, "--hi")
    steps = _count(args.steps, "--steps")
    if steps < 0:
        raise ConfigError(f"--steps must be >= 0, got {steps}")
    if steps > _MAX_STEPS:
        raise ConfigError(f"--steps must be <= {_MAX_STEPS}, got {steps}")
    t0 = time.perf_counter()
    rows = equilibria.bifurcation_scan(p, args.param, lo, hi, steps,
                                       stability=True)
    seconds = time.perf_counter() - t0
    equilibria.scan_to_csv(rows, args.out)
    errors = sum(r.error is not None for r in rows)
    unknown = sum(r.error is None and r.stable is None for r in rows)
    _log.info(
        "bifurcation scan of %s: %d grid points, %d rows, %d error rows, "
        "%d unknown verdicts, %.3f s", args.param, steps + 1, len(rows),
        errors, unknown, seconds)
    return 0


def cmd_simulate(args, cfg: dict) -> int:
    p = _record(cfg, ModelParams, "params")
    if args.out is None:
        raise ConfigError("simulate requires --out CSV path")
    grid = _build_grid(cfg, args)
    x0 = _initial_state(cfg)
    with grid.kernel_clock():
        values = rk4_basic(params_to_array(p), x0, grid.n_steps, grid.dt)
    traj = Trajectory(grid, values)
    traj.to_csv(args.out, STATE_NAMES)
    return 0


def cmd_sensitivity(args, cfg: dict) -> int:
    from . import sensitivity
    sens_cfg = _fields(cfg.get("sensitivity", {}), "sensitivity",
                       {"samples": _count, "ranges": _distribution})
    dist = sens_cfg.get("ranges") or sensitivity.baseline_ranges()
    if args.samples is not None:
        n, where = args.samples, "--samples"
    else:
        n, where = sens_cfg.get("samples", 5000), "sensitivity.samples"
    if n < 2:
        raise ConfigError(f"{where} must be >= 2, got {n}")
    # The largest count whose design, a double per parameter and draw, numpy
    # can size; beyond it numpy refuses the shape with a message that names
    # no field.
    most = sys.maxsize // (8 * len(sensitivity.PARAM_ORDER))
    if n > most:
        raise ConfigError(f"{where} must be <= {most}, got {n}")
    # PRCC's floor: more draws than the non-degenerate parameters plus two.
    floor = sum(lo != hi for lo, hi in dist.ranges.values()) + 2
    if n <= floor:
        raise ConfigError(f"{where} must be > {floor}, got {n}")
    if args.seed is not None:
        seed, where = args.seed, "--seed"
    else:
        seed, where = _count(cfg.get("seed", 0), "config.seed"), "config.seed"
    if seed < 0:
        raise ConfigError(f"{where} must be >= 0, got {seed}")
    t0 = time.perf_counter()
    try:
        samples = sensitivity.lhs_sample(dist, n, seed)
    except ParamError as exc:  # a configured range leaves the domain
        raise _located(exc, "sensitivity.ranges") from None
    t1 = time.perf_counter()
    outputs = sensitivity.r0_values(samples)
    dist_stats = sensitivity.r0_distribution(samples)
    probs = sensitivity.condition_probabilities(samples)
    t2 = time.perf_counter()
    report = sensitivity.prcc(samples, outputs)
    t3 = time.perf_counter()
    if args.prcc_csv:
        sensitivity.prcc_to_csv(report, args.prcc_csv)
    if args.hist_csv:
        sensitivity.histogram_to_csv(dist_stats["histogram"], args.hist_csv)
    _emit_json({
        "n": n,
        "seed": seed,
        "r0_mean": dist_stats["mean"],
        "r0_std": dist_stats["std"],
        "p_r0_ge_1": dist_stats["p_ge_1"],
        "probabilities": probs,
        "prcc": report.coefficients,
        "excluded": list(report.excluded),
        "diagnostics": {
            "stage_s": {"sampling": t1 - t0, "thresholds": t2 - t1,
                        "prcc": t3 - t2},
            "sorted_columns": list(report.sorted_columns)},
    }, args.out)
    return 0


def cmd_control(args, cfg: dict) -> int:
    from . import econ
    p = _record(cfg, ModelParams, "params")
    c = _record(cfg, ControlParams, "control_params")
    w = _record(cfg, ObjectiveWeights, "weights")
    grid = _build_grid(cfg, args)
    x0 = _initial_state(cfg)
    sweep = _fields(cfg.get("sweep", {}), "sweep",
                    {"mix": _float, "tol": _float, "max_iters": _count})
    strategy = args.strategy or cfg.get("strategy", "Z")
    if not isinstance(strategy, str):
        raise ConfigError(f"config.strategy must be a strategy name, "
                          f"got {strategy!r}")
    if strategy not in STRATEGY_SETS:
        raise ConfigError(f"config.strategy must be one of "
                          f"{sorted(STRATEGY_SETS)}, got {strategy!r}")
    mask = StrategyMask.named(strategy)
    result = forward_backward_sweep(p, c, w, x0, grid, mask, **sweep)
    if args.controls_csv:
        result.controls.to_csv(args.controls_csv,
                               ["u1", "u2", "u3", "u4", "u5"])
    if args.states_csv:
        result.states.to_csv(args.states_csv, STATE_NAMES)
    cumulated = econ.cumulated_infectious(result.states)
    _emit_json({
        "strategy": strategy,
        "J": result.objective_j,
        "iterations": result.iterations,
        "converged": result.converged,
        "suspect": result.suspect,
        "cumulated_Ih": cumulated,
        "kernel_backend": BACKEND,
        "kernel_fallback_reason": FALLBACK_REASON,
        "log": result.log,
    }, args.out)
    if not result.converged:
        print("sweep did not converge within the iteration budget",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return 0


def cmd_icer(args, cfg: dict) -> int:
    from . import econ
    icer = _fields(cfg["icer"], "icer", {"strategies": _strategies},
                   required=("strategies",))
    table = econ.icer_analysis(icer["strategies"])
    _emit_json({
        "rows": table.rows,
        "eliminations": [
            {"round": rnd, "strategy": name, "reason": why}
            for rnd, name, why in table.eliminations
        ],
        "comparisons": [
            {"round": rnd, "first": a, "second": b,
             "icer_first": f, "icer_incremental": g}
            for rnd, a, b, f, g in table.comparisons
        ],
        "kept": table.kept,
        "equivalent": table.equivalent,
    }, args.out)
    return 0


_GRID_FLAGS = {"--tf": {"type": float}, "--steps": {"type": int}}

# One row per command: handler, help line, required config sections and the
# flags it takes besides --config and --out.
COMMANDS = {
    "thresholds": (cmd_thresholds, "threshold report JSON", ("params",), {}),
    "equilibria": (cmd_equilibria, "equilibrium set JSON", ("params",), {}),
    "bifurcation": (cmd_bifurcation, "branch-scan CSV", ("params",), {
        "--param": {"default": "beta_hv"},
        "--lo": {"type": float, "required": True},
        "--hi": {"type": float, "required": True},
        "--steps": {"type": int, "default": 500}}),
    "simulate": (cmd_simulate, "uncontrolled trajectory CSV",
                 ("params", "grid", "initial_state"), _GRID_FLAGS),
    "sensitivity": (cmd_sensitivity, "LHS/PRCC report", (), {
        "--samples": {"type": int},
        "--seed": {"type": int,
                   "help": "RNG seed (overrides the config's seed)"},
        "--prcc-csv": {}, "--hist-csv": {}}),
    "control": (cmd_control, "forward-backward sweep", (
        "params", "control_params", "weights", "grid", "initial_state"), {
        "--strategy": {"choices": list(STRATEGY_SETS)}, **_GRID_FLAGS,
        "--controls-csv": {}, "--states-csv": {}}),
    "icer": (cmd_icer, "ICER dominance analysis", ("icer",), {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arbo",
        description="Arboviral transmission model: thresholds, equilibria, "
                    "sensitivity, optimal control, and cost-effectiveness.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, sections, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_line)
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", help="output path (default stdout)")
        for flag, options in flags.items():
            sp.add_argument(flag, **options)
        sp.set_defaults(func=func, sections=sections)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, load_config(args.config, args.sections))
    except (ThresholdError, ZeroPopulationError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}; the counts that size the "
              f"arrays are grid.n_steps / --steps and sensitivity.samples / "
              f"--samples", file=sys.stderr)
        return EXIT_PARSE


def run() -> None:
    """Process entry point of `arbo` and `python -m arbo.cli`.  Freezing
    the collector spares the shutdown collections 18-35 ms of freeing what
    numpy and arbo made; atexit and stdio flushing still run.  `main`
    leaves the collector alone for callers that go on after it."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
