"""Fixed-step RK4 integration: forward for states, backward for adjoints.

The forward integrator accepts an optional control trajectory; control
values at RK4 half-steps are linearly interpolated between grid nodes.
The backward integrator uses the standard sweep discretization in which
intermediate-stage state/control values are the average of the two
adjacent grid nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NonFiniteError(ArithmeticError):
    """Integration produced a NaN or infinity.  Carries the step index."""

    def __init__(self, step: int, t: float):
        self.step = step
        self.t = t
        super().__init__(f"non-finite value at step {step} (t = {t:.6g})")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [t0, tf] with n_steps intervals."""

    t0: float
    tf: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.tf > self.t0:
            raise ValueError(f"need tf > t0, got [{self.t0}, {self.tf}]")

    @property
    def dt(self) -> float:
        return (self.tf - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class Trajectory:
    """Per-node vectors (states, adjoints, or controls) on a time grid."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)  # shape (n_steps+1, dim)

    def __post_init__(self):
        if self.values.shape[0] != self.grid.n_steps + 1:
            raise ValueError(
                f"values has {self.values.shape[0]} rows, grid needs "
                f"{self.grid.n_steps + 1}")

    def to_csv(self, path, names) -> None:
        """Write t plus one column per component, full round-trip precision."""
        row = ",".join(["%.17g"] * (1 + self.values.shape[1])) + "\n"
        with open(path, "w", encoding="utf-8") as f:
            f.write("t," + ",".join(names) + "\n")
            f.writelines(row % (t, *v) for t, v in
                         zip(self.grid.times().tolist(), self.values.tolist()))


def _check_finite(x: np.ndarray, step: int, t: float) -> None:
    if not np.all(np.isfinite(x)):
        raise NonFiniteError(step, t)


def _node_values(traj, grid: TimeGrid, what: str) -> np.ndarray:
    values = traj.values if isinstance(traj, Trajectory) \
        else np.asarray(traj, dtype=float)
    if values.shape[0] != grid.n_steps + 1:
        raise ValueError(f"{what} trajectory has {values.shape[0]} rows, "
                         f"need {grid.n_steps + 1}")
    return values


def rk4_forward(field, x0, grid: TimeGrid, control_lookup=None) -> Trajectory:
    """Classic RK4 from t0 to tf.

    Without controls, `field(t, x)` is the right-hand side.  With a
    control trajectory (array of shape (n_steps+1, n_controls) or a
    Trajectory), the right-hand side is `field(t, x, u)` and the
    half-step control is the average of the adjacent nodes (linear
    interpolation at the midpoint).
    """
    u = None if control_lookup is None \
        else _node_values(control_lookup, grid, "control")
    return Trajectory(grid, forward_steps(field, x0, grid.n_steps, grid.dt,
                                          u, grid.t0))


def forward_steps(field, x0, n_steps: int, dt: float, u=None,
                  t0: float = 0.0) -> np.ndarray:
    """The loop of `rk4_forward` on a bare step count and size: returns
    the (n_steps+1, dim) node values, `u` holds one control row per node
    or is None."""
    rhs = field
    if u is None:
        u = np.zeros((n_steps + 1, 0))

        def rhs(t, x, _):
            return field(t, x)
    x = np.array(x0, dtype=float)
    out = np.empty((n_steps + 1, x.shape[0]))
    out[0] = x
    times = t0 + dt * np.arange(n_steps + 1)
    for i in range(n_steps):
        t = times[i]
        u_lo = u[i]
        u_hi = u[i + 1]
        u_mid = 0.5 * (u_lo + u_hi)
        k1 = rhs(t, x, u_lo)
        k2 = rhs(t + 0.5 * dt, x + 0.5 * dt * k1, u_mid)
        k3 = rhs(t + 0.5 * dt, x + 0.5 * dt * k2, u_mid)
        k4 = rhs(t + dt, x + dt * k3, u_hi)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_finite(x, i + 1, times[i + 1])
        out[i + 1] = x
    return out


def rk4_backward(adjoint_field, terminal_value, grid: TimeGrid,
                 state_traj, control_traj=None) -> Trajectory:
    """RK4 from tf down to t0 for the adjoint system.

    `adjoint_field(t, adj, x, u)` (or `(t, adj, x)` when no controls).
    Intermediate-stage state/control values use the average of the two
    adjacent grid nodes; the terminal node is set to `terminal_value`
    exactly.
    """
    xs = _node_values(state_traj, grid, "state")
    us = None if control_traj is None \
        else _node_values(control_traj, grid, "control")
    return Trajectory(grid, backward_steps(adjoint_field, terminal_value, xs,
                                           grid.dt, us, grid.t0))


def backward_steps(adjoint_field, terminal_value, xs, dt: float, us=None,
                   t0: float = 0.0) -> np.ndarray:
    """The loop of `rk4_backward` over the node states `xs` (and controls
    `us`, or None) with step size `dt`; returns the node values."""
    n = xs.shape[0] - 1
    rhs = adjoint_field
    if us is None:
        us = np.zeros((n + 1, 0))

        def rhs(t, lam, x, _):
            return adjoint_field(t, lam, x)
    lam = np.array(terminal_value, dtype=float)
    out = np.empty((n + 1, lam.shape[0]))
    out[n] = lam
    times = t0 + dt * np.arange(n + 1)
    for i in range(n - 1, -1, -1):
        t_hi = times[i + 1]
        x_hi = xs[i + 1]
        x_lo = xs[i]
        x_mid = 0.5 * (x_lo + x_hi)
        u_hi = us[i + 1]
        u_lo = us[i]
        u_mid = 0.5 * (u_lo + u_hi)
        k1 = rhs(t_hi, lam, x_hi, u_hi)
        k2 = rhs(t_hi - 0.5 * dt, lam - 0.5 * dt * k1, x_mid, u_mid)
        k3 = rhs(t_hi - 0.5 * dt, lam - 0.5 * dt * k2, x_mid, u_mid)
        k4 = rhs(t_hi - dt, lam - dt * k3, x_lo, u_lo)
        lam = lam - (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_finite(lam, i, times[i])
        out[i] = lam
    return out
