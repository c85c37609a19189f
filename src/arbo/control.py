"""Optimal-control machinery: objective functional, Hamiltonian, adjoint
system, bang-clamp control characterization with strategy masks, and the
forward-backward sweep iteration."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import _kernels
from .model import (
    E_V, EGG, I_H, I_V, LAR, N_CONTROLS, R_H, S_H, S_V,
    ControlParams, ModelParams, ParamError, _infection, controlled_field,
    field_vjp, params_to_array,
)
from .ode import TimeGrid, Trajectory


@dataclass(frozen=True)
class ObjectiveWeights:
    """State penalties D1..D4 and quadratic control costs B1..B5."""

    D1: float
    D2: float
    D3: float
    D4: float
    B1: float
    B2: float
    B3: float
    B4: float
    B5: float

    def __post_init__(self):
        bad = [f"{f.name} must be > 0, got {getattr(self, f.name)!r}"
               for f in fields(self) if not getattr(self, f.name) > 0]
        if bad:
            raise ParamError(bad)


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

    name: str
    active: tuple

    def __post_init__(self):
        if len(self.active) != N_CONTROLS:
            raise ValueError(f"need {N_CONTROLS} flags, got {len(self.active)}")
        if self.name in STRATEGY_SETS and tuple(self.active) != STRATEGY_SETS[self.name]:
            raise ValueError(
                f"mask {self.active} does not match the definition of {self.name}")

    @classmethod
    def named(cls, name: str) -> "StrategyMask":
        if name not in STRATEGY_SETS:
            raise ValueError(f"unknown strategy {name!r}; "
                             f"choose from {sorted(STRATEGY_SETS)}")
        return cls(name=name, active=STRATEGY_SETS[name])

    @classmethod
    def none(cls) -> "StrategyMask":
        return cls(name="none", active=(False,) * N_CONTROLS)

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


class GridMismatchError(ValueError):
    """State and control trajectories live on different grids."""


def running_cost(x, u, w: ObjectiveWeights):
    """Integrand of the objective at one node (x (10,), u (5,)) or at
    every node of a grid (x (n+1, 10), u (n+1, 5))."""
    x = np.asarray(x).T
    n_v = x[S_V] + x[E_V] + x[I_V]
    return (w.D1 * x[I_H] + w.D2 * n_v + w.D3 * x[EGG] + w.D4 * x[LAR]
            + np.asarray(u) ** 2 @ np.array([w.B1, w.B2, w.B3, w.B4, w.B5]))


def objective(states: Trajectory, controls: Trajectory,
              w: ObjectiveWeights) -> float:
    """Trapezoidal quadrature of the running cost over the grid."""
    if states.grid != controls.grid:
        raise GridMismatchError(
            f"state grid {states.grid} != control grid {controls.grid}")
    return float(np.trapezoid(running_cost(states.values, controls.values, w),
                              dx=states.grid.dt))


def hamiltonian(x, u, adj, p: ModelParams, c: ControlParams,
                w: ObjectiveWeights) -> float:
    adj = np.asarray(adj, dtype=float)
    return running_cost(x, u, w) + float(adj @ controlled_field(x, u, p, c))


def adjoint_field(x, u, adj, p: ModelParams, c: ControlParams,
                  w: ObjectiveWeights) -> np.ndarray:
    """Right-hand side of the ten adjoint equations, -dH/dx: minus the
    running cost's state gradient and J^T adj (`model.field_vjp`)."""
    cost = np.zeros(10)
    cost[I_H] = w.D1
    cost[[S_V, E_V, I_V]] = w.D2
    cost[EGG] = w.D3
    cost[LAR] = w.D4
    return -(cost + field_vjp(x, u, adj, p, c))


def characterize_controls(x, adj, p: ModelParams, c: ControlParams,
                          w: ObjectiveWeights, mask: StrategyMask) -> np.ndarray:
    """The five stationary-point controls, clamped to [0,1]; masked-off
    controls are exactly zero.  Works on one node (x, adj of shape (10,))
    or on a whole grid at once (shape (n+1, 10), giving (n+1, 5)).
    `rk4.c`'s `characterize` is a term-for-term copy."""
    x = np.asarray(x, dtype=float)
    adj = np.asarray(adj, dtype=float)
    _, fh, fv = _infection(x, p)
    l1, l2, l3, l4, l5, l6, l7, l8, l9 = (adj[..., i] for i in range(9))

    u = np.stack([
        (l1 - l4) * (x[..., S_H] - c.omega * x[..., R_H]) / (2.0 * w.B1),
        c.alpha1 * (fh * x[..., S_H] * (l2 - l1)
                    + fv * x[..., S_V] * (l6 - l5)) / (2.0 * w.B2),
        c.alpha2 * ((1.0 - p.delta) * l3 - l4) * x[..., I_H] / (2.0 * w.B3),
        c.c_m * (x[..., S_V] * l5 + x[..., E_V] * l6
                 + x[..., I_V] * l7) / (2.0 * w.B4),
        (c.eta1 * x[..., EGG] * l8 + c.eta2 * x[..., LAR] * l9) / (2.0 * w.B5),
    ], axis=-1)
    np.clip(u, 0.0, 1.0, out=u)
    return u * mask.as_array()


def _rel_sup_change(new: np.ndarray, old: np.ndarray) -> float:
    """max|new - old| / max(1, max|new|), NaN when either holds a NaN;
    mirrored by `rk4.c`'s `sweep_step`."""
    return float(np.max(np.abs(new - old)) / max(1.0, np.max(np.abs(new))))


# The range of each setting of `forward_backward_sweep`: (test, rule).
_SWEEP_RANGES = {
    "mix": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "tol": (lambda v: v > 0.0, "> 0"),
    "max_iters": (lambda v: v >= 1, ">= 1"),
}


def check_sweep_setting(name: str, value, where: str | None = None) -> None:
    """Raise `ValueError`, naming `where` (default `name`), unless `value`
    lies in the range of the sweep setting `name`."""
    test, rule = _SWEEP_RANGES[name]
    if not test(value):
        raise ValueError(f"{where or name} must be {rule}, got {value}")


def forward_backward_sweep(p: ModelParams, c: ControlParams,
                           w: ObjectiveWeights, x0, grid: TimeGrid,
                           mask: StrategyMask, mix: float = 0.5,
                           tol: float = 1e-3, max_iters: int = 200
                           ) -> SweepResult:
    """Iterate forward state / backward adjoint passes from u = 0, updating
    the controls as a convex combination of the characterization and the
    previous iterate, until the relative control change falls below tol.
    Each iteration is one `_kernels.sweep_step` call; its log entry holds
    J of the controls it started from and of their states.

    Non-convergence is reported (converged=False) with the full log;
    controls-only convergence with drifting states is flagged suspect.
    A `NonFiniteError` carries its node's time on `grid`.
    """
    for name, value in (("mix", mix), ("tol", tol), ("max_iters", max_iters)):
        check_sweep_setting(name, value)
    par, cpar, wts = params_to_array(p), params_to_array(c), params_to_array(w)
    mask_arr = mask.as_array()
    u = np.zeros((grid.n_steps + 1, N_CONTROLS))
    log = []
    prev_states = None

    with grid.kernel_clock():
        for iterations in range(1, max_iters + 1):
            states, _, u_new, control_change, state_change = \
                _kernels.sweep_step(par, cpar, wts, mask_arr, mix, x0, u,
                                    prev_states, grid.dt)
            j = objective(Trajectory(grid, states), Trajectory(grid, u), w)
            log.append({"iteration": iterations, "J": j,
                        "control_change": control_change,
                        "state_change": state_change})
            u = u_new
            prev_states = states
            if control_change < tol:
                break
        converged = control_change < tol
        suspect = converged and state_change >= tol and iterations > 1

        states = _kernels.rk4_controlled(par, cpar, x0, u, grid.dt)
        adjoints = _kernels.rk4_adjoint(par, cpar, wts, states, u, grid.dt)
    states = Trajectory(grid, states)
    controls = Trajectory(grid, u)

    return SweepResult(
        states=states,
        adjoints=Trajectory(grid, adjoints),
        controls=controls,
        objective_j=objective(states, controls, w),
        iterations=iterations,
        converged=converged,
        suspect=suspect,
        log=log)
