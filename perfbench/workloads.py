"""The three workloads: one task each, timed by the caller, with the
checks that each task's outputs must pass.

A task returns a `Task`: its wall time, the units of work it did, the
operations it attempted and failed, and a list of problems (failed
checks).  `failed` counts operations that did not complete, plus the
known fault below; a problem anywhere else makes the run incorrect.
"""

import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

PAPER_BANDS = {  # Table 5 and the sensitivity targets of the paper
    "cumulated_ih_none": (4105.0 * 0.95, 4105.0 * 1.05),
    "efficiency_z": (88.05 - 3.0, 88.05 + 3.0),
    "r0_mean": (1.76, 2.15),
    "r0_std": (1.6, 2.1),
    "p_r0_ge_1": (0.61, 0.68),
}

# Known fault, counted as a failed operation rather than an incorrect
# run: `arbo thresholds` reports a beta_bar that lacks the factor
# k9 = mu_v + gamma_v, so R0 at beta_hv = beta_bar is not R_c.
KNOWN_FAULT = "R0(beta_bar) = R_c"


@dataclass
class Task:
    seconds: float  # wall time of the timed stages
    units: int
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    ref: float = math.nan  # median reference chunk time around the stages


class Stages:
    """Times the stages of one task, less the time that reference chunks
    (hostspeed.py) took while they ran."""

    def __init__(self, speed):
        self.speed = speed
        self.seconds = 0.0

    def run(self, fn, *args, **kwargs):
        spent = self.speed.spent
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds += time.perf_counter() - t0 - (self.speed.spent - spent)
        return out


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _in_band(name: str, value: float) -> str | None:
    lo, hi = PAPER_BANDS[name]
    return None if lo <= value <= hi else f"{name} = {value:.6g} outside [{lo}, {hi}]"


class ControlWorkload:
    """Table 5: the no-control sweep, the strategy-Z sweep, and the
    efficiency of Z, on the shipped fixture (the seed is not used)."""

    reference = "mixed"
    rusage = resource.RUSAGE_SELF  # whose peak RSS is reported

    setup_template = (
        "import json, arbo.control, arbo.econ\n"
        "from arbo.model import ControlParams, ModelParams\n"
        "from arbo.ode import TimeGrid\n"
        "cfg = json.load(open({fixture!r}))\n"
        "ModelParams(**cfg['params']); ControlParams(**cfg['control_params'])\n"
        "arbo.control.ObjectiveWeights(**cfg['weights']); TimeGrid(**cfg['grid'])\n")

    def __init__(self, root: Path, seed: int, tiny: bool, workdir: Path):
        from arbo.control import ObjectiveWeights
        from arbo.model import ControlParams, ModelParams
        from arbo.ode import TimeGrid

        fixture = root / "src/arbo/fixtures/table5_control.json"
        self.setup_code = self.setup_template.format(fixture=str(fixture))
        cfg = _load(fixture)
        self.p = ModelParams(**cfg["params"])
        self.c = ControlParams(**cfg["control_params"])
        self.w = ObjectiveWeights(**cfg["weights"])
        self.x0 = np.asarray(cfg["initial_state"], dtype=float)
        g = cfg["grid"]
        # Tiny mode keeps dt = 0.01 but stops at t = 1.
        self.grid = TimeGrid(g["t0"], 1.0, 100) if tiny else TimeGrid(**g)
        self.sweep = dict(cfg["sweep"])
        self.tiny = tiny
        self.first = None

    def task(self, speed) -> Task:
        import arbo.control as control
        import arbo.econ as econ

        def efficiency(z, a0):
            az = econ.cumulated_infectious(z.states)
            return az, econ.efficiency_index(az, a0)

        stages = Stages(speed)
        args = (self.p, self.c, self.w, self.x0, self.grid)
        none = stages.run(control.forward_backward_sweep, *args,
                          control.StrategyMask.none(), **self.sweep)
        a0 = stages.run(econ.cumulated_infectious, none.states)
        z = stages.run(control.forward_backward_sweep, *args,
                       control.StrategyMask.named("Z"), **self.sweep)
        az, eff = stages.run(efficiency, z, a0)

        task = Task(stages.seconds, none.iterations + z.iterations, attempted=2,
                    ref=speed.take())
        self._check(task, none, z, a0, az, eff)
        return task

    def _check(self, task, none, z, a0, az, eff):
        bad = task.problems
        if not z.converged:
            bad.append(f"Z sweep did not converge in {z.iterations} iterations")
        if not z.objective_j < none.objective_j:
            bad.append(f"J(Z) = {z.objective_j:.6g} >= J(0) = {none.objective_j:.6g}")
        for name, res in (("none", none), ("Z", z)):
            if not np.all(res.adjoints.values[-1] == 0.0):
                bad.append(f"{name}: terminal adjoints are not exactly 0")
            u = res.controls.values
            if not (np.all(u >= 0.0) and np.all(u <= 1.0)):
                bad.append(f"{name}: controls leave [0, 1]")
        dt = self.grid.dt
        for name, got, res in (("none", a0, none), ("Z", az, z)):
            ref = checks.trapezoid(res.states.values[:, 2], dt)
            if checks.rel_err(got, ref) > 1e-12:
                bad.append(f"cumulated I_h({name}) = {got!r}, trapezoid gives {ref!r}")
        if not self.tiny:
            bad.extend(p for p in (_in_band("cumulated_ih_none", a0),
                                   _in_band("efficiency_z", eff)) if p)
        outcome = (a0, az, none.objective_j, z.objective_j, z.iterations)
        if self.first is None:
            self.first = outcome
            for name, res in (("none", none), ("Z", z)):
                bad.extend(self._independent_states(name, res))
        elif outcome != self.first:
            bad.append(f"task outcome {outcome} differs from the first task's {self.first}")

    def _independent_states(self, name, res) -> list:
        """Integrate the sweep's final controls again with `ode.rk4_forward`
        over `model.controlled_field`, a route that avoids `_kernels`."""
        from arbo.model import controlled_field
        from arbo.ode import rk4_forward

        p, c = self.p, self.c
        traj = rk4_forward(lambda t, x, u: controlled_field(x, u, p, c),
                           self.x0, self.grid, control_lookup=res.controls.values)
        want, got = traj.values, res.states.values
        err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
        return [] if err <= 1e-9 else [
            f"{name}: sweep states differ from rk4_forward by {err:.3g} (relative)"]


class SensitivityWorkload:
    """LHS -> R0 values -> R0 distribution -> regime probabilities ->
    PRCC over the baseline ranges, with draws seeded by --seed."""

    reference = "objects"
    rusage = resource.RUSAGE_SELF

    setup_code = ("import arbo.sensitivity\n"
                  "arbo.sensitivity.baseline_ranges()\n")

    def __init__(self, root: Path, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.n = 400 if tiny else 20000
        self.tiny = tiny
        self.first = None

    def task(self, speed) -> Task:
        import arbo.sensitivity as sens

        stages = Stages(speed)
        samples = stages.run(sens.lhs_sample, sens.baseline_ranges(), self.n, self.seed)
        outputs = stages.run(sens.r0_values, samples)
        dist = stages.run(sens.r0_distribution, samples)
        probs = stages.run(sens.condition_probabilities, samples)
        report = stages.run(sens.prcc, samples, outputs)

        task = Task(stages.seconds, self.n, attempted=1, ref=speed.take())
        bad = task.problems
        if not np.array_equal(dist["values"], outputs):
            bad.append("r0_distribution and r0_values disagree")
        total = probs["p_no_vectors"] + probs["p_subcritical"] + probs["p_supercritical"]
        if abs(total - 1.0) > 1e-12:
            bad.append(f"regime probabilities sum to {total!r}")
        if not self.tiny:
            bad.extend(p for p in (_in_band("r0_mean", dist["mean"]),
                                   _in_band("r0_std", dist["std"]),
                                   _in_band("p_r0_ge_1", dist["p_ge_1"])) if p)
        if self.first is None:
            self.first = (outputs, report.coefficients)
            bad.extend(self._independent(samples, outputs, report.coefficients))
        elif not (np.array_equal(outputs, self.first[0])
                  and report.coefficients == self.first[1]):
            bad.append("task outputs differ from the first task's")
        return task

    def _independent(self, samples, outputs, coefficients) -> list:
        from arbo.sensitivity import PARAM_ORDER

        bad = []
        columns = {k: samples.matrix[:, j] for j, k in enumerate(PARAM_ORDER)}
        mine = checks.prcc_by_regression(columns, outputs)
        worst = max(abs(mine[k] - coefficients[k]) for k in mine)
        if set(mine) != set(coefficients) or worst > 1e-9:
            bad.append(f"PRCC differs from the reference regression by {worst:.3g}")
        rng = np.random.default_rng(self.seed)
        for i in rng.choice(self.n, size=min(200, self.n), replace=False):
            want = checks.ngm_r0(dict(zip(PARAM_ORDER, samples.matrix[i])))
            if checks.rel_err(outputs[i], want) > 1e-9:
                bad.append(f"draw {i}: R0 = {outputs[i]!r}, spectral radius {want!r}")
                break
        return bad


class CliWorkload:
    """The seven README commands, each a fresh `python -m arbo.cli`
    process, one after the other."""

    reference = "spawn"
    rusage = resource.RUSAGE_CHILDREN  # the largest command process

    setup_code = "import arbo.cli\n"

    def __init__(self, root: Path, seed: int, tiny: bool, workdir: Path):
        self.root = root
        self.env = dict(os.environ)
        fx = root / "src/arbo/fixtures"
        self.sec22 = _load(fx / "sec22_backward.json")
        self.table5 = _load(fx / "table5_control.json")
        scan, traj = workdir / "scan.csv", workdir / "traj.csv"
        self.steps = 50 if tiny else 500
        self.samples = 50 if tiny else 200
        self.commands = {
            "thresholds": ["thresholds", "--config", fx / "sec22_backward.json"],
            "equilibria": ["equilibria", "--config", fx / "sec22_backward.json"],
            "bifurcation": ["bifurcation", "--config", fx / "sec22_backward.json",
                            "--lo", "0", "--hi", "0.0877",
                            "--steps", self.steps, "--out", scan],
            "simulate": ["simulate", "--config", fx / "table5_control.json",
                         "--out", traj],
            "control": ["control", "--config", fx / "table5_control.json",
                        "--tf", "0.5" if tiny else "2", "--steps", 50 if tiny else 200],
            "icer": ["icer", "--config", fx / "table5_control.json"],
            "sensitivity": ["sensitivity", "--config", fx / "table2_baseline.json",
                            "--samples", self.samples, "--seed", seed],
        }
        self.commands = {k: [str(a) for a in v] for k, v in self.commands.items()}
        self.seed = seed
        self.scan, self.traj = scan, traj
        self.last_seconds = {}

    def run_command(self, name: str, in_process: bool) -> tuple[float, int, str]:
        argv = self.commands[name]
        if in_process:
            import arbo.cli
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = arbo.cli.main(argv)
            return time.perf_counter() - t0, code, out.getvalue()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "arbo.cli", *argv],
                              cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=150)
        return time.perf_counter() - t0, proc.returncode, proc.stdout

    def task(self, speed, in_process: bool = False) -> Task:
        """Every command once; wall time is the sum over the commands."""
        task = Task(0.0, len(self.commands), attempted=len(self.commands))
        for name in self.commands:
            speed.gap()
            seconds, code, stdout = self.run_command(name, in_process)
            task.seconds += seconds
            self.last_seconds[name] = seconds
            if code != 0:
                task.failed += 1
                task.problems.append(f"{name}: exit code {code}")
                continue
            try:
                problems = getattr(self, f"_check_{name}")(stdout)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"output does not parse: {exc!r}"]
            if KNOWN_FAULT in problems:
                task.failed += 1
                problems.remove(KNOWN_FAULT)
            task.problems.extend(f"{name}: {p}" for p in problems)
        speed.gap()
        task.ref = speed.take()
        return task

    def _check_thresholds(self, stdout) -> list:
        rep = json.loads(stdout)
        p = self.sec22["params"]
        bad = []
        if checks.rel_err(rep["R0"], checks.ngm_r0(p)) > 1e-9:
            bad.append(f"R0 = {rep['R0']!r} is not the spectral radius {checks.ngm_r0(p)!r}")
        if checks.rel_err(rep["R0"] ** 2 * rep["beta_star"], p["beta_hv"]) > 1e-9:
            bad.append("R0^2 * beta_star != beta_hv")
        # R0^2 is linear in beta_hv, so beta_x = beta_star * R_x^2.
        pairs = [("beta_minus", "R_1b"), ("beta_plus", "R_2b"), ("beta_bar", "R_c")]
        for beta, r in pairs:
            if rep[beta] is None:
                continue
            if checks.rel_err(math.sqrt(rep[beta] / rep["beta_star"]), rep[r]) > 1e-9:
                bad.append(KNOWN_FAULT if beta == "beta_bar" else f"R0({beta}) != {r}")
        return bad

    def _check_equilibria(self, stdout) -> list:
        rep = json.loads(stdout)
        count = {"NoEndemic": 0, "Unique": 1, "Two": 2}[rep["classification"]]
        points = sorted(rep["endemic"], key=lambda e: e["lambda_h"])
        bad = []
        if len(points) != count:
            bad.append(f"{len(points)} endemic points for {rep['classification']}")
        if any(v <= 0.0 for e in points for v in e["state"].values()):
            bad.append("an endemic point has a non-positive component")
        if count == 2 and points[0]["stable"] is not False:
            bad.append("lower endemic point is not flagged unstable")
        return bad

    def _check_bifurcation(self, stdout) -> list:
        with open(self.scan, encoding="utf-8", newline="") as f:
            rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(f)]
        by_value = {}
        for r in rows:
            by_value.setdefault(r["param_value"], []).append(r)
        bad = []
        grid = np.linspace(0.0, 0.0877, self.steps + 1)
        if sorted(by_value) != grid.tolist():
            bad.append("scanned values are not the requested grid")
        p = self.sec22["params"]
        scale = 1e-8 * max(1.0, p["lambda_h_in"] / p["mu_h"])
        slope = None
        for beta, group in by_value.items():
            branches = sorted(group, key=lambda r: r["branch_id"])
            ids = [int(r["branch_id"]) for r in branches]
            r0 = branches[0]["R0"]
            if ids != list(range(len(ids))):
                bad.append(f"beta={beta}: branch ids {ids}")
                break
            if beta > 0.0:
                slope = slope or r0 * r0 / beta
                if checks.rel_err(r0 * r0 / beta, slope) > 1e-9:
                    bad.append(f"beta={beta}: R0^2 is not linear in beta_hv")
                    break
            if bool(branches[0]["stable"]) != (r0 < 1.0):
                bad.append(f"beta={beta}: DFE stable={branches[0]['stable']} with R0={r0}")
                break
            if r0 > 1.0 and len(ids) != 2:
                bad.append(f"beta={beta}: {len(ids) - 1} endemic branches with R0 > 1")
                break
            if len(ids) == 3 and branches[1]["stable"] != 0:
                bad.append(f"beta={beta}: lower endemic branch flagged stable")
                break
            if max(r["residual"] for r in branches) > scale:
                bad.append(f"beta={beta}: residual above 1e-8 relative")
                break
        return bad

    def _check_simulate(self, stdout) -> list:
        data = np.loadtxt(self.traj, delimiter=",", skiprows=1)
        p, x0 = self.table5["params"], self.table5["initial_state"]
        g = self.table5["grid"]
        x = data[:, 1:]
        bad = []
        if data.shape != (g["n_steps"] + 1, 11):
            bad.append(f"trajectory shape {data.shape}")
        if np.max(np.abs(data[:, 0] - np.linspace(g["t0"], g["tf"], g["n_steps"] + 1))) > 1e-9:
            bad.append("time column is not the grid")
        if np.min(x) < -1e-9:
            bad.append(f"negative component {np.min(x):.3g}")
        nh_bound = max(sum(x0[:4]), p["lambda_h_in"] / p["mu_h"]) * (1 + 1e-9)
        if (np.max(x[:, :4].sum(axis=1)) > nh_bound
                or np.max(x[:, 7]) > p["Gamma_E"] * (1 + 1e-9)
                or np.max(x[:, 8]) > p["Gamma_L"] * (1 + 1e-9)):
            bad.append("trajectory leaves the invariant region")
        return bad

    def _check_control(self, stdout) -> list:
        import arbo._kernels
        rep = json.loads(stdout)
        bad = []
        if rep["converged"] is not True or rep["iterations"] < 1:
            bad.append(f"converged={rep['converged']} after {rep['iterations']} iterations")
        if not (math.isfinite(rep["J"]) and rep["cumulated_Ih"] > 0.0):
            bad.append(f"J = {rep['J']}, cumulated I_h = {rep['cumulated_Ih']}")
        if rep["kernel_backend"] != arbo._kernels.BACKEND:
            bad.append(f"reports backend {rep['kernel_backend']}")
        return bad

    def _check_icer(self, stdout) -> list:
        rep = json.loads(stdout)
        comparisons, eliminated = checks.icer_chain(self.table5["icer"]["strategies"])
        got = [(c["first"], c["second"], c["icer_first"], c["icer_incremental"])
               for c in rep["comparisons"]]
        bad = []
        if [g[:2] for g in got] != [c[:2] for c in comparisons] or any(
                checks.rel_err(g[2], c[2]) > 1e-12 or checks.rel_err(g[3], c[3]) > 1e-12
                for g, c in zip(got, comparisons)):
            bad.append(f"comparisons {got} != {comparisons}")
        order = [e["strategy"] for e in rep["eliminations"]]
        if order != eliminated or eliminated != ["Z4", "Z2", "Z3"]:
            bad.append(f"elimination order {order}, arithmetic gives {eliminated}")
        return bad

    def _check_sensitivity(self, stdout) -> list:
        rep = json.loads(stdout)
        pr = rep["probabilities"]
        bad = []
        if rep["n"] != self.samples or rep["seed"] != self.seed:
            bad.append(f"n={rep['n']}, seed={rep['seed']}")
        if abs(pr["p_no_vectors"] + pr["p_subcritical"] + pr["p_supercritical"] - 1.0) > 1e-12:
            bad.append("regime probabilities do not sum to 1")
        if len(rep["prcc"]) != 21 or any(not -1.0 <= v <= 1.0 for v in rep["prcc"].values()):
            bad.append("PRCC coefficients missing or outside [-1, 1]")
        return bad


WORKLOADS = {"control": ControlWorkload, "sensitivity": SensitivityWorkload,
             "cli": CliWorkload}
