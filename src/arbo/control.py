"""Optimal-control driver: the objective functional, the Hamiltonian,
strategy masks and the forward-backward sweep iteration.  The pieces the
kernels mirror, the objective weights, the adjoint right-hand side and
the control characterization, live in `model`."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .model import (
    E_V, EGG, I_H, I_V, LAR, N_CONTROLS, S_V, ControlParams, ModelParams,
    ObjectiveWeights, controlled_field, params_to_array,
)
# Unused here: tests/test_acceptance.py imports both from arbo.control.
from .model import adjoint_field, characterize_controls  # noqa: F401
from .ode import TimeGrid, Trajectory


STRATEGY_SETS = {
    "Z1": (True, True, True, True, False),
    "Z2": (True, True, True, False, True),
    "Z3": (True, False, True, True, True),
    "Z4": (True, True, False, True, True),
    "Z": (True, True, True, True, True),
}


@dataclass(frozen=True)
class StrategyMask:
    """Which of the five controls a strategy may use."""

    active: tuple

    def __post_init__(self):
        if len(self.active) != N_CONTROLS:
            raise ValueError(f"need {N_CONTROLS} flags, got {len(self.active)}")

    @classmethod
    def named(cls, name: str) -> "StrategyMask":
        if name not in STRATEGY_SETS:
            raise ValueError(f"unknown strategy {name!r}; "
                             f"choose from {sorted(STRATEGY_SETS)}")
        return cls(STRATEGY_SETS[name])

    @classmethod
    def none(cls) -> "StrategyMask":
        return cls((False,) * N_CONTROLS)

    def as_array(self) -> np.ndarray:
        return np.array(self.active, dtype=float)


@dataclass(frozen=True)
class SweepResult:
    states: Trajectory
    adjoints: Trajectory
    controls: Trajectory
    objective_j: float
    iterations: int
    converged: bool
    suspect: bool
    log: list = field(repr=False)


def running_cost(x, u, w: ObjectiveWeights):
    """Integrand of the objective at one node (x (10,), u (5,)) or at
    every node of a grid (x (n+1, 10), u (n+1, 5)).  The sums run in
    place, in the order of D1 I_h + D2 N_v + D3 E + D4 L + u^2 . B."""
    x = np.asarray(x).T
    n_v = x[S_V] + x[E_V]
    n_v += x[I_V]
    total = w.D1 * x[I_H]
    total += w.D2 * n_v
    total += w.D3 * x[EGG]
    total += w.D4 * x[LAR]
    total += np.asarray(u) ** 2 @ np.array([w.B1, w.B2, w.B3, w.B4, w.B5])
    return total


def objective(x, u, w: ObjectiveWeights, dt: float) -> float:
    """Trapezoidal quadrature, step `dt`, of the running cost over the
    nodes of a grid: states x (n+1, 10) and controls u (n+1, 5)."""
    if len(x) != len(u):
        raise ValueError(f"{len(x)} state nodes != {len(u)} control nodes")
    return float(np.trapezoid(running_cost(x, u, w), dx=dt))


def hamiltonian(x, u, adj, p: ModelParams, c: ControlParams,
                w: ObjectiveWeights) -> float:
    adj = np.asarray(adj, dtype=float)
    return running_cost(x, u, w) + float(adj @ controlled_field(x, u, p, c))


def forward_backward_sweep(p: ModelParams, c: ControlParams,
                           w: ObjectiveWeights, x0, grid: TimeGrid,
                           mask: StrategyMask, mix: float = 0.5,
                           tol: float = 1e-3, max_iters: int = 200
                           ) -> SweepResult:
    """Iterate forward state / backward adjoint passes from u = 0, updating
    the controls to `mix` times the characterization plus 1 - `mix` times
    the previous iterate, until the relative control change falls below
    `tol` or `max_iters` iterations have run.  These three settings are
    the config's `sweep` section, and a `ValueError` names each as
    `sweep.mix` (in (0, 1]), `sweep.tol` (> 0) or `sweep.max_iters`
    (>= 1); it is raised before any kernel runs.
    One `_kernels.sweep` checks the arguments and allocates the buffers
    once, and its iterator runs one iteration per item, writing into
    those buffers; each log entry holds J of the controls the iteration
    started from and of their states.  The returned states and adjoints
    are those of the final controls: one more item computes them, unless
    the last update left the controls bitwise unchanged (as under
    `StrategyMask.none()`); then the last iteration's passes already are
    those, and so the last logged J is the final J.

    Non-convergence is reported (converged=False) with the full log;
    controls-only convergence with drifting states is flagged suspect.
    A `NonFiniteError` carries its node's time on `grid`.
    """
    if not 0.0 < mix <= 1.0:
        raise ValueError(f"sweep.mix must be in (0, 1], got {mix}")
    if not tol > 0.0:
        raise ValueError(f"sweep.tol must be > 0, got {tol}")
    if not max_iters >= 1:
        raise ValueError(f"sweep.max_iters must be >= 1, got {max_iters}")
    par, cpar, wts = params_to_array(p), params_to_array(c), params_to_array(w)
    u = np.zeros((grid.n_steps + 1, N_CONTROLS))
    sweep = _kernels.sweep(par, cpar, wts, mask.as_array(), mix, x0, u,
                           grid.dt)
    log = []

    with grid.kernel_clock():
        # The range comes first, so no iteration runs past the last one.
        for iterations, (states, adjoints, u_new, control_change,
                         state_change) in zip(range(1, max_iters + 1), sweep):
            j = objective(states, u, w, grid.dt)
            log.append({"iteration": iterations, "J": j,
                        "control_change": control_change,
                        "state_change": state_change})
            u, u_start = u_new, u
            if control_change < tol:
                break
        converged = control_change < tol
        suspect = converged and state_change >= tol and iterations > 1

        # The kernels are deterministic, so when the last update left every
        # control's bytes as they were (bytes, so that -0.0 against 0.0 counts
        # as a move), one more item would give that iteration's states and
        # adjoints again, bit for bit, and J of those states and controls.
        if u.tobytes() != u_start.tobytes():
            states, adjoints, *_ = next(sweep)
            j = objective(states, u, w, grid.dt)

    return SweepResult(
        states=Trajectory(grid, states),
        adjoints=Trajectory(grid, adjoints),
        controls=Trajectory(grid, u),
        objective_j=j,
        iterations=iterations,
        converged=converged,
        suspect=suspect,
        log=log)
