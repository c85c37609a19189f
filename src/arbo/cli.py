"""Command-line interface: config ingestion, command dispatch, and
deterministic CSV/JSON emission for every analysis in the package.

Exit codes: 0 success, 2 configuration/parse errors, 3 numeric errors,
4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import SPEC_VERSION, econ, equilibria, sensitivity
from ._kernels import BACKEND, FALLBACK_REASON, rk4_basic
from .control import (
    STRATEGY_SETS, ObjectiveWeights, StrategyMask, forward_backward_sweep,
)
from .model import (
    STATE_NAMES, ControlParams, ModelParams, ZeroPopulationError,
    params_to_array,
)
from .ode import TimeGrid, Trajectory
from .stability import eigen_verdict
from .thresholds import ThresholdError, bifurcation_thresholds, derive_constants

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


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            cfg = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}") from exc
    return _object(cfg, f"config {path}")


def _require(cfg: dict, key: str, where: str = "config"):
    if key not in cfg:
        raise ConfigError(f"missing required field {key!r} in {where}")
    return cfg[key]


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return value


def _number(value, where: str):
    """`value`, which must be a JSON number; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return value


def _field(section: dict, key: str, where: str, default=None):
    """The number section[key]; `default` when it is absent, which is an
    error when there is no default."""
    value = (_require(section, key, where) if default is None
             else section.get(key, default))
    return _number(value, f"{where}.{key}")


def _count(section: dict, key: str, where: str, default=None) -> int:
    """The integer section[key], which may be written as a whole float
    such as 100.0; `default` as in `_field`."""
    value = _field(section, key, where, default)
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return int(value)


def _range(value, where: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where} must be a [lo, hi] pair, got {value!r}")
    return tuple(_number(v, where) for v in value)


def _record(cfg: dict, cls, key: str):
    """The dataclass `cls` from the object cfg[key], which must name
    exactly its fields, each a number."""
    section = _object(_require(cfg, key), key)
    names = {f.name for f in dataclasses.fields(cls)}
    missing = names - set(section)
    if missing:
        raise ConfigError(f"{key} section missing fields: {sorted(missing)}")
    unknown = set(section) - names
    if unknown:
        raise ConfigError(f"{key} section has unknown fields: {sorted(unknown)}")
    return cls(**{name: _field(section, name, key) for name in section})


def _build_grid(cfg: dict, args) -> TimeGrid:
    section = dict(_object(_require(cfg, "grid"), "grid"))
    if getattr(args, "tf", None) is not None:
        section["tf"] = args.tf
    if getattr(args, "steps", None) is not None:
        section["n_steps"] = args.steps
    return TimeGrid(t0=_field(section, "t0", "grid", 0.0),
                    tf=_field(section, "tf", "grid"),
                    n_steps=_count(section, "n_steps", "grid"))


def _initial_state(cfg: dict) -> np.ndarray:
    x0 = _require(cfg, "initial_state")
    if not isinstance(x0, list) or len(x0) != 10:
        raise ConfigError(f"initial_state must be a list of 10 numbers, "
                          f"got {x0!r}")
    return np.array([_number(v, f"initial_state[{i}]")
                     for i, v in enumerate(x0)], dtype=float)


def _seed(cfg: dict, args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ARBO_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"ARBO_SEED is not an integer: {env!r}") from exc
    return _count(cfg, "seed", "config", 0)


def cmd_thresholds(args) -> int:
    cfg = load_config(args.config)
    p = _record(cfg, ModelParams, "params")
    rep = bifurcation_thresholds(p)
    k = derive_constants(p)
    _emit_json({
        "N": rep.net_repro,
        "R0": rep.r0,
        "R0_defined": rep.r0_defined,
        "K_vh": rep.k_vh,
        "K_hv": rep.k_hv,
        "R_c": rep.r_c,
        "R_1b": rep.r_1b,
        "R_2b": rep.r_2b,
        "psi": rep.psi,
        "beta_star": rep.beta_star,
        "beta_bar": rep.beta_bar,
        "beta_minus": rep.beta_minus,
        "beta_plus": rep.beta_plus,
        "derived_constants": k,
    }, args.out)
    return 0


def cmd_equilibria(args) -> int:
    cfg = load_config(args.config)
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


def cmd_bifurcation(args) -> int:
    cfg = load_config(args.config)
    p = _record(cfg, ModelParams, "params")
    if args.out is None:
        raise ConfigError("bifurcation requires --out CSV path")
    t0 = time.perf_counter()
    rows = equilibria.bifurcation_scan(
        p, args.param, args.lo, args.hi, args.steps, stability=True)
    seconds = time.perf_counter() - t0
    equilibria.scan_to_csv(rows, args.out)
    errors = sum(r.error is not None for r in rows)
    unknown = sum(r.error is None and r.stable is None for r in rows)
    _log.info(
        "bifurcation scan of %s: %d grid points, %d rows, %d error rows, "
        "%d unknown verdicts, %.3f s", args.param, args.steps + 1, len(rows),
        errors, unknown, seconds)
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
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


def cmd_sensitivity(args) -> int:
    cfg = load_config(args.config)
    sens_cfg = _object(cfg.get("sensitivity", {}), "sensitivity")
    if sens_cfg.get("ranges") is None:
        dist = sensitivity.baseline_ranges()
    else:
        where = "sensitivity.ranges"
        dist = sensitivity.ParamDistribution(
            {k: _range(v, f"{where}.{k}")
             for k, v in _object(sens_cfg["ranges"], where).items()})
    n = (args.samples if args.samples is not None
         else _count(sens_cfg, "samples", "sensitivity", 5000))
    seed = _seed(cfg, args)
    t0 = time.perf_counter()
    samples = sensitivity.lhs_sample(dist, n, seed)
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


def cmd_control(args) -> int:
    cfg = load_config(args.config)
    p = _record(cfg, ModelParams, "params")
    c = _record(cfg, ControlParams, "control_params")
    w = _record(cfg, ObjectiveWeights, "weights")
    grid = _build_grid(cfg, args)
    x0 = _initial_state(cfg)
    sweep_cfg = _object(cfg.get("sweep", {}), "sweep")
    strategy = args.strategy or cfg.get("strategy", "Z")
    if not isinstance(strategy, str):
        raise ConfigError(f"config.strategy must be a strategy name, "
                          f"got {strategy!r}")
    mask = StrategyMask.named(strategy)
    result = forward_backward_sweep(
        p, c, w, x0, grid, mask,
        mix=float(_field(sweep_cfg, "mix", "sweep", 0.5)),
        tol=float(_field(sweep_cfg, "tol", "sweep", 1e-3)),
        max_iters=_count(sweep_cfg, "max_iters", "sweep", 200))
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


def cmd_icer(args) -> int:
    cfg = load_config(args.config)
    strategies = _object(cfg.get("icer", {}), "icer").get("strategies")
    if not strategies:
        raise ConfigError("missing required field 'icer.strategies' in config")
    if not isinstance(strategies, list):
        raise ConfigError(f"icer.strategies must be a list, got {strategies!r}")
    where = "icer.strategies"
    reports = []
    for row in strategies:
        row = _object(row, f"{where} entry")
        reports.append(econ.StrategyReport(
            name=_require(row, "name", where),
            cumulated_ih=float(_field(row, "cumulated_ih", where, 0.0)),
            efficiency_percent=float(_field(row, "efficiency", where, 0.0)),
            total_cost=float(_field(row, "cost", where)),
            infections_averted=float(_field(row, "averted", where))))
    table = econ.icer_analysis(reports)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arbo",
        description="Arboviral transmission model: thresholds, equilibria, "
                    "sensitivity, optimal control, and cost-effectiveness.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="JSON run configuration")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("thresholds", help="threshold report JSON")
    common(sp)
    sp.set_defaults(func=cmd_thresholds)

    sp = sub.add_parser("equilibria", help="equilibrium set JSON")
    common(sp)
    sp.set_defaults(func=cmd_equilibria)

    sp = sub.add_parser("bifurcation", help="branch-scan CSV")
    common(sp)
    sp.add_argument("--param", default="beta_hv")
    sp.add_argument("--lo", type=float, required=True)
    sp.add_argument("--hi", type=float, required=True)
    sp.add_argument("--steps", type=int, default=500)
    sp.set_defaults(func=cmd_bifurcation)

    sp = sub.add_parser("simulate", help="uncontrolled trajectory CSV")
    common(sp)
    sp.add_argument("--tf", type=float, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sensitivity", help="LHS/PRCC report")
    common(sp)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None,
                    help="RNG seed (overrides ARBO_SEED and config)")
    sp.add_argument("--prcc-csv", default=None)
    sp.add_argument("--hist-csv", default=None)
    sp.set_defaults(func=cmd_sensitivity)

    sp = sub.add_parser("control", help="forward-backward sweep")
    common(sp)
    sp.add_argument("--strategy", default=None,
                    choices=list(STRATEGY_SETS))
    sp.add_argument("--tf", type=float, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--controls-csv", default=None)
    sp.add_argument("--states-csv", default=None)
    sp.set_defaults(func=cmd_control)

    sp = sub.add_parser("icer", help="ICER dominance analysis")
    common(sp)
    sp.set_defaults(func=cmd_icer)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ThresholdError, ZeroPopulationError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
