"""Spans around the calls into each `arbo` module, recorded from outside
the package.

Each traced function is replaced, for the duration of a `Tracer` block,
at every name under which a caller looks it up (for example
`arbo.control` reaches the kernels as `arbo._kernels.rk4_adjoint`, while
`arbo.cli` imported `rk4_basic` by name).  Spans are kept in memory as
`[name, start, end, parent, size]` and turned into per-layer metrics
when the block ends.
"""

import time

import arbo._kernels
import arbo.cli
import arbo.control
import arbo.econ
import arbo.equilibria
import arbo.model
import arbo.ode
import arbo.sensitivity
import arbo.stability
import arbo.thresholds

_PC = time.perf_counter


def _grid_steps(args, result):
    """RK4 steps of rk4_controlled / rk4_adjoint: argument 3 holds one
    row per grid node (the controls or the states)."""
    return len(args[3]) - 1


# (span name, [(module or class, attribute), ...], size hook or None).
# A size hook maps (args, result) to a count carried by the span.
TIMED = [
    ("kernels.rk4_controlled", [(arbo._kernels, "rk4_controlled")],
     _grid_steps),
    ("kernels.rk4_adjoint", [(arbo._kernels, "rk4_adjoint")],
     _grid_steps),
    ("kernels.rk4_basic", [(arbo._kernels, "rk4_basic"), (arbo.cli, "rk4_basic")],
     lambda args, result: int(args[2])),
    ("control.forward_backward_sweep",
     [(arbo.control, "forward_backward_sweep"),
      (arbo.cli, "forward_backward_sweep")],
     lambda args, result: result.iterations),
    ("econ.cumulated_infectious", [(arbo.econ, "cumulated_infectious")], None),
    ("econ.icer_analysis", [(arbo.econ, "icer_analysis")], None),
    ("thresholds.bifurcation_thresholds",
     [(arbo.thresholds, "bifurcation_thresholds"),
      (arbo.equilibria, "bifurcation_thresholds"),
      (arbo.stability, "bifurcation_thresholds"),
      (arbo.cli, "bifurcation_thresholds")], None),
    # Looked up separately so that R0 evaluations made for draws can be
    # told apart from those of the threshold and equilibrium reports.
    ("thresholds.bifurcation_thresholds.per_draw",
     [(arbo.sensitivity, "bifurcation_thresholds")], None),
    ("sensitivity.lhs_sample", [(arbo.sensitivity, "lhs_sample")],
     lambda args, result: result.n),
    ("sensitivity.r0_values", [(arbo.sensitivity, "r0_values")], None),
    ("sensitivity.r0_distribution", [(arbo.sensitivity, "r0_distribution")], None),
    ("sensitivity.condition_probabilities",
     [(arbo.sensitivity, "condition_probabilities")], None),
    ("sensitivity.prcc", [(arbo.sensitivity, "prcc")], None),
    ("equilibria.bifurcation_scan", [(arbo.equilibria, "bifurcation_scan")], None),
    ("equilibria.solve_endemic", [(arbo.equilibria, "solve_endemic")], None),
    ("equilibria.scan_to_csv", [(arbo.equilibria, "scan_to_csv")], None),
    ("stability.eigen_verdict",
     [(arbo.stability, "eigen_verdict"), (arbo.cli, "eigen_verdict")], None),
    ("ode.Trajectory.to_csv", [(arbo.ode.Trajectory, "to_csv")], None),
]

# Called too often for a span each: counted only.
COUNTED = [
    ("thresholds.net_reproductive_number",
     [(arbo.thresholds, "net_reproductive_number"),
      (arbo.sensitivity, "net_reproductive_number"),
      (arbo.equilibria, "net_reproductive_number"),
      (arbo.stability, "net_reproductive_number")]),
    ("model.basic_field",
     [(arbo.model, "basic_field"), (arbo.equilibria, "basic_field"),
      (arbo.stability, "basic_field")]),
]

_KERNELS = ("kernels.rk4_controlled", "kernels.rk4_adjoint", "kernels.rk4_basic")


class Tracer:
    """Context manager that patches the traced names and restores them."""

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name, _ in COUNTED}
        self._stack = []
        self._saved = []

    def _timed(self, fn, name, size):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[1] = _PC()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = _PC()
                stack.pop()
            if size is not None:
                span[4] = size(args, result)
            return result
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self):
        for name, sites, size in TIMED:
            for owner, attr in sites:
                orig = owner.__dict__[attr]
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self._timed(orig, name, size))
        for name, sites in COUNTED:
            for owner, attr in sites:
                orig = owner.__dict__[attr]
                self._saved.append((owner, attr, orig))
                setattr(owner, attr, self._counted(orig, name))
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False

    def layer_metrics(self) -> dict:
        """Per-layer figures over every span recorded so far."""
        calls, total, size = {}, {}, {}
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, n in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (t1 - t0)
            size[name] = size.get(name, 0) + n
            if parent >= 0:
                child_time[parent] += t1 - t0

        def per_call(name):
            return total.get(name, 0.0) / calls[name] if calls.get(name) else 0.0

        sweeps = [i for i, s in enumerate(self.spans)
                  if s[0] == "control.forward_backward_sweep"]
        self_s = sum(self.spans[i][2] - self.spans[i][1] - child_time[i]
                     for i in sweeps)
        steps = sum(size.get(k, 0) for k in _KERNELS)
        kernel_s = sum(total.get(k, 0.0) for k in _KERNELS)
        draws = size.get("sensitivity.lhs_sample", 0)
        per_draw = calls.get("thresholds.bifurcation_thresholds.per_draw", 0)
        r0_calls = calls.get("thresholds.bifurcation_thresholds", 0) + per_draw
        r0_total = (total.get("thresholds.bifurcation_thresholds", 0.0)
                    + total.get("thresholds.bifurcation_thresholds.per_draw", 0.0))

        out = {}
        for k in _KERNELS:
            out[f"{k}.s"] = per_call(k)
            out[f"{k}.calls"] = calls.get(k, 0)
        out["kernels.steps"] = steps
        out["kernels.steps_per_s"] = steps / kernel_s if kernel_s else 0.0
        out["control.forward_backward_sweep.s"] = per_call(
            "control.forward_backward_sweep")
        out["control.forward_backward_sweep.calls"] = len(sweeps)
        out["control.self_s"] = self_s / len(sweeps) if sweeps else 0.0
        out["control.iterations"] = size.get("control.forward_backward_sweep", 0)
        out["econ.cumulated_infectious.s"] = per_call("econ.cumulated_infectious")
        out["econ.icer_analysis.s"] = per_call("econ.icer_analysis")
        out["thresholds.bifurcation_thresholds.calls"] = r0_calls
        out["thresholds.bifurcation_thresholds.s"] = (
            r0_total / r0_calls if r0_calls else 0.0)
        out["thresholds.net_reproductive_number.calls"] = self.counts[
            "thresholds.net_reproductive_number"]
        out["thresholds.evals_per_draw"] = per_draw / draws if draws else 0.0
        for k in ("lhs_sample", "r0_values", "r0_distribution",
                  "condition_probabilities", "prcc"):
            out[f"sensitivity.{k}.s"] = per_call(f"sensitivity.{k}")
        out["equilibria.bifurcation_scan.calls"] = calls.get(
            "equilibria.bifurcation_scan", 0)
        out["equilibria.solve_endemic.calls"] = calls.get(
            "equilibria.solve_endemic", 0)
        out["equilibria.solve_endemic.s"] = per_call("equilibria.solve_endemic")
        out["equilibria.scan_to_csv.s"] = per_call("equilibria.scan_to_csv")
        out["stability.eigen_verdict.calls"] = calls.get("stability.eigen_verdict", 0)
        out["stability.eigen_verdict.s"] = per_call("stability.eigen_verdict")
        out["model.basic_field.calls"] = self.counts["model.basic_field"]
        out["ode.Trajectory.to_csv.s"] = per_call("ode.Trajectory.to_csv")
        out["trace.spans"] = len(self.spans)
        return out
