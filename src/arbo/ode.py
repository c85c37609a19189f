"""Fixed-step RK4 integration: forward for states, backward for adjoints.

Both directions run one loop, `rk4_nodes`, with step dt or -dt.  Inputs
given per node (controls going forward, states and controls going
backward) enter the two middle stages as the average of the two adjacent
nodes, the standard sweep discretization (linear interpolation at the
midpoint).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
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
        if not (math.isfinite(self.t0) and math.isfinite(self.tf)):
            raise ValueError(f"need finite t0 and tf, got "
                             f"[{self.t0}, {self.tf}]")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not self.tf > self.t0:
            raise ValueError(f"need tf > t0, got [{self.t0}, {self.tf}]")

    @property
    def dt(self) -> float:
        return (self.tf - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    @contextmanager
    def kernel_clock(self):
        """Re-raise a kernel's `NonFiniteError`, whose time counts from 0,
        with its node's time on this grid."""
        try:
            yield
        except NonFiniteError as exc:
            raise NonFiniteError(exc.step, self.t0 + exc.step * self.dt) from None


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


def rk4_forward(field, x0, grid: TimeGrid, control_lookup=None) -> Trajectory:
    """Classic RK4 from t0 to tf.

    Without controls, `field(t, x)` is the right-hand side.  With a
    control array of shape (n_steps+1, n_controls), the right-hand side
    is `field(t, x, u)` and the half-step control is the average of the
    adjacent nodes (linear interpolation at the midpoint).
    """
    inputs = ()
    if control_lookup is not None:
        u = np.asarray(control_lookup, dtype=float)
        if u.shape[0] != grid.n_steps + 1:
            raise ValueError(f"control trajectory has {u.shape[0]} rows, "
                             f"need {grid.n_steps + 1}")
        inputs = (u,)
    return Trajectory(grid, rk4_nodes(field, x0, inputs, grid.dt, grid.times()))


@np.errstate(over="ignore", invalid="ignore")  # refused, so not warned of
def rk4_nodes(rhs, y0, inputs, dt: float, times, backward: bool = False
              ) -> np.ndarray:
    """Classic RK4 over the nodes of `times` with step `dt`, or from the
    last node down to the first with step `-dt` when `backward`; returns
    the (len(times), dim) node values, `y0` at the starting node.

    `rhs(t, y, *rows)` takes one row of each array in `inputs` (each
    with a row per node): the rows of the node a step starts from, their
    average with the next node's in the two middle stages, and the next
    node's in the last.  Raises `NonFiniteError` at the first node that
    holds a NaN or an infinity.
    """
    n = len(times) - 1
    first, last, step = (n, 0, -1) if backward else (0, n, 1)
    h = -dt if backward else dt
    y = np.array(y0, dtype=float)
    out = np.empty((n + 1, y.shape[0]))
    out[first] = y
    for i in range(first, last, step):
        j = i + step
        here = [a[i] for a in inputs]
        there = [a[j] for a in inputs]
        mid = [0.5 * (a + b) for a, b in zip(here, there)]
        t = times[i]
        k1 = rhs(t, y, *here)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1, *mid)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2, *mid)
        k4 = rhs(t + h, y + h * k3, *there)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise NonFiniteError(j, times[j])
        out[j] = y
    return out
