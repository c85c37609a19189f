"""Core arboviral transmission model: the parameter records under one
domain table, derived constants, the uncontrolled right-hand side and
the controlled system's four pieces that `_kernels/rk4.c` mirrors: its
right-hand side, state derivative, adjoint and control characterization.

State ordering (used everywhere in the package):

    0 S_h   susceptible humans
    1 E_h   latent humans
    2 I_h   infectious humans
    3 R_h   recovered/immune humans
    4 S_v   susceptible adult vectors
    5 E_v   latent adult vectors
    6 I_v   infectious adult vectors
    7 E     eggs
    8 L     larvae
    9 P     pupae
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

# State indices
S_H, E_H, I_H, R_H, S_V, E_V, I_V, EGG, LAR, PUP = range(10)

STATE_NAMES = ("S_h", "E_h", "I_h", "R_h", "S_v", "E_v", "I_v", "E", "L", "P")

N_STATES = 10
N_CONTROLS = 5


class ParamError(ValueError):
    """Raised at construction when parameter bounds are violated.

    Carries the full list of violations so a config error reports
    everything wrong at once.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid parameters: " + "; ".join(self.violations))


class ZeroPopulationError(ValueError):
    """Total human population is zero; forces of infection are undefined."""


# The domain of each field of `ModelParams`, `ControlParams` and
# `ObjectiveWeights`, as the words a refusal states it in and its test;
# a field not listed here must be > 0.
_POSITIVE = ("> 0", lambda v: v > 0)
_DOMAINS = {
    **dict.fromkeys(("delta", "beta_hv", "beta_vh", "omega", "c_m", "eta1",
                     "eta2"), (">= 0", lambda v: v >= 0)),
    **dict.fromkeys(("eta_h", "eta_v"),
                    ("in [0, 1)", lambda v: (0 <= v) & (v < 1))),
    **dict.fromkeys(("alpha1", "alpha2"),
                    ("in [0, 1]", lambda v: (0 <= v) & (v <= 1))),
}


def in_bounds(name: str, value):
    """Whether `value` is in the domain of the record field `name`;
    elementwise on arrays, False for NaN."""
    return _DOMAINS.get(name, _POSITIVE)[1](value)


def _check_domains(record) -> None:
    """The `__post_init__` of the three parameter records: one
    `ParamError` listing, in field order, each field outside its domain."""
    violations = [f"{name} must be {_DOMAINS.get(name, _POSITIVE)[0]}, "
                  f"got {value!r}" for name, value in vars(record).items()
                  if not in_bounds(name, value)]
    if violations:
        raise ParamError(violations)


@dataclass(frozen=True)
class ModelParams:
    """Biological and demographic rates of the transmission model.

    Rates are per day; carrying capacities are counts.
    """

    lambda_h_in: float  # human recruitment
    mu_h: float         # human natural mortality
    a: float            # bites per vector per day
    beta_hv: float      # transmission probability vector -> human
    beta_vh: float      # transmission probability human -> vector
    gamma_h: float      # latent -> infectious progression, humans
    delta: float        # disease-induced death rate
    sigma: float        # recovery rate
    eta_h: float        # latent-human transmissibility modification
    eta_v: float        # latent-vector transmissibility modification
    mu_v: float         # adult vector mortality
    gamma_v: float      # latent -> infectious progression, vectors
    theta: float        # pupa -> adult maturation
    mu_b: float         # eggs per deposit per day
    Gamma_E: float      # egg carrying capacity
    Gamma_L: float      # larva carrying capacity
    mu_E: float         # egg death rate
    mu_L: float         # larva death rate
    mu_P: float         # pupa death rate
    s: float            # egg -> larva transfer
    l: float            # larva -> pupa transfer

    __post_init__ = _check_domains


def param_rows(p, index):
    """`p` with each array field replaced by its rows at `index`, scalar
    fields kept: the per-row parameter form that `threshold_arrays` and
    the field functions take."""
    return SimpleNamespace(**{name: v[index] if isinstance(v, np.ndarray) else v
                              for name, v in vars(p).items()})


@dataclass(frozen=True)
class ControlParams:
    """Efficacy constants attached to the five time-dependent controls."""

    omega: float   # waning immunity of vaccinated recovereds
    alpha1: float  # bite-prevention efficacy
    alpha2: float  # drug efficacy
    c_m: float     # adulticide killing efficacy
    eta1: float    # chemical egg mortality increment
    eta2: float    # chemical larva mortality increment

    __post_init__ = _check_domains


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

    __post_init__ = _check_domains


class DerivedConstants(NamedTuple):
    """Grouped rate constants k1..k11 (k2 is the composite one)."""

    k1: float
    k2: float
    k3: float
    k4: float
    k5: float
    k6: float
    k7: float
    k8: float
    k9: float
    k10: float
    k11: float


def derive_constants(p: ModelParams) -> DerivedConstants:
    """Compute the grouped rate constants from the raw parameters.

    k2 uses the product form k3*k4 - delta*gamma_h; the equivalent sum
    form mu_h*k4 + gamma_h*(mu_h + sigma) is exercised in tests.
    """
    k3 = p.mu_h + p.gamma_h
    k4 = p.mu_h + p.delta + p.sigma
    return DerivedConstants(
        k1=p.mu_h,
        k2=k3 * k4 - p.delta * p.gamma_h,
        k3=k3,
        k4=k4,
        k5=p.s + p.mu_E,
        k6=p.l + p.mu_L,
        k7=p.theta + p.mu_P,
        k8=p.mu_v,
        k9=p.mu_v + p.gamma_v,
        k10=p.eta_h * k4 + p.gamma_h,
        k11=p.eta_v * p.mu_v + p.gamma_v,
    )


def _infection(x, p: ModelParams):
    """(n_h, foi_h, foi_v): the human total and the per-susceptible
    infection rates of humans (from infected vectors) and of vectors
    (from infected humans), for one state (10,) or a stack (m, 10)."""
    x = np.asarray(x).T
    n_h = x[S_H] + x[E_H] + x[I_H] + x[R_H]
    if np.any(n_h <= 0.0):
        raise ZeroPopulationError("total human population is zero")
    foi_h = p.a * p.beta_hv * (p.eta_v * x[E_V] + x[I_V]) / n_h
    foi_v = p.a * p.beta_vh * (p.eta_h * x[E_H] + x[I_H]) / n_h
    return n_h, foi_h, foi_v


def controlled_field(x, u, p: ModelParams, c: ControlParams) -> np.ndarray:
    """Right-hand side of the controlled system.

    Takes one state `x` (10,) with its five control intensities `u` in
    [0, 1], or a stack of states (m, 10) with one control row each
    (m, 5) or one row (5,) for all; each row of the result equals the
    single-state call bitwise.  Parameter fields may hold one value per
    row (length m), and a stack (m, k, 10) takes row i's values for all
    k states x[i].  With u == 0 and zero control efficacies this is the
    uncontrolled system, `basic_field`.
    """
    x = np.asarray(x)
    n_h, foi_h, foi_v = _infection(x, p)
    s_h, e_h, i_h, r_h, s_v, e_v, i_v, egg, lar, pup = x.T
    u1, u2, u3, u4, u5 = np.asarray(u).T
    n_v = s_v + e_v + i_v

    protect = 1.0 - c.alpha1 * u2
    foi_h_c = protect * foi_h
    foi_v_c = protect * foi_v
    mu_v_c = p.mu_v + c.c_m * u4

    dx = np.empty(x.T.shape, np.result_type(x, np.float64))
    dx[S_H] = (p.lambda_h_in - (foi_h_c + p.mu_h + u1) * s_h
               + c.omega * u1 * r_h)
    dx[E_H] = foi_h_c * s_h - (p.mu_h + p.gamma_h) * e_h
    dx[I_H] = (p.gamma_h * e_h
               - (p.mu_h + (1.0 - c.alpha2 * u3) * p.delta + p.sigma + c.alpha2 * u3) * i_h)
    dx[R_H] = ((p.sigma + c.alpha2 * u3) * i_h + u1 * s_h
               - (p.mu_h + c.omega * u1) * r_h)
    dx[S_V] = p.theta * pup - foi_v_c * s_v - mu_v_c * s_v
    dx[E_V] = foi_v_c * s_v - (p.mu_v + p.gamma_v + c.c_m * u4) * e_v
    dx[I_V] = p.gamma_v * e_v - mu_v_c * i_v
    dx[EGG] = (p.mu_b * (1.0 - egg / p.Gamma_E) * n_v
               - (p.s + p.mu_E + c.eta1 * u5) * egg)
    dx[LAR] = (p.s * egg * (1.0 - lar / p.Gamma_L)
               - (p.l + p.mu_L + c.eta2 * u5) * lar)
    dx[PUP] = p.l * lar - (p.theta + p.mu_P) * pup
    return dx.T


def field_vjp(x, u, lam, p: ModelParams, c: ControlParams) -> np.ndarray:
    """J^T lam, where J is the state Jacobian of `controlled_field` at
    (x, u): the exact derivative, row k of J being `field_vjp` at the
    k-th unit vector.

    Takes the shapes of `controlled_field`, `lam` broadcasting against
    `x`; each row of a stack's result equals the single-state call bitwise.
    `rk4.c`'s `field_vjp` is this function term for term.
    """
    x, lam = np.asarray(x), np.asarray(lam)
    n_h, foi_h, foi_v = _infection(x, p)
    s_h, e_h, i_h, r_h, s_v, e_v, i_v, egg, lar, pup = x.T
    l0, l1, l2, l3, l4, l5, l6, l7, l8, l9 = lam.T
    u1, u2, u3, u4, u5 = np.asarray(u).T
    n_v = s_v + e_v + i_v

    protect = 1.0 - c.alpha1 * u2
    mu_v_c = p.mu_v + c.c_m * u4
    treat = c.alpha2 * u3
    egg_room = p.mu_b * (1.0 - egg / p.Gamma_E)
    # Weights of the infection fluxes foi_h*s_h (S_h -> E_h) and
    # foi_v*s_v (S_v -> E_v); both forces divide by the human total, so
    # every human compartment gets the flux derivative through n_h.
    flux_h = (l1 - l0) * protect
    flux_v = (l5 - l4) * protect
    via_n_h = -(flux_h * foi_h * s_h + flux_v * foi_v * s_v) / n_h

    g = np.empty(np.broadcast_shapes(x.T.shape, lam.T.shape),
                 np.result_type(x, np.float64))
    g[S_H] = via_n_h + flux_h * foi_h - (p.mu_h + u1) * l0 + u1 * l3
    g[E_H] = (via_n_h + flux_v * p.a * p.beta_vh * p.eta_h * s_v / n_h
              - (p.mu_h + p.gamma_h) * l1 + p.gamma_h * l2)
    g[I_H] = (via_n_h + flux_v * p.a * p.beta_vh * s_v / n_h
              - (p.mu_h + (1.0 - treat) * p.delta + p.sigma + treat) * l2
              + (p.sigma + treat) * l3)
    g[R_H] = via_n_h + c.omega * u1 * l0 - (p.mu_h + c.omega * u1) * l3
    g[S_V] = flux_v * foi_v - mu_v_c * l4 + egg_room * l7
    g[E_V] = (flux_h * p.a * p.beta_hv * p.eta_v * s_h / n_h
              - (p.mu_v + p.gamma_v + c.c_m * u4) * l5 + p.gamma_v * l6
              + egg_room * l7)
    g[I_V] = (flux_h * p.a * p.beta_hv * s_h / n_h - mu_v_c * l6
              + egg_room * l7)
    g[EGG] = (-(p.mu_b * n_v / p.Gamma_E + p.s + p.mu_E + c.eta1 * u5) * l7
              + p.s * (1.0 - lar / p.Gamma_L) * l8)
    g[LAR] = (-(p.s * egg / p.Gamma_L + p.l + p.mu_L + c.eta2 * u5) * l8
              + p.l * l9)
    g[PUP] = p.theta * l4 - (p.theta + p.mu_P) * l9
    return g.T


def adjoint_field(x, u, adj, p: ModelParams, c: ControlParams,
                  w: ObjectiveWeights) -> np.ndarray:
    """Right-hand side of the ten adjoint equations, -dH/dx: minus the
    running cost's state gradient and J^T adj (`field_vjp`)."""
    cost = np.zeros(10)
    cost[I_H] = w.D1
    cost[[S_V, E_V, I_V]] = w.D2
    cost[EGG] = w.D3
    cost[LAR] = w.D4
    return -(cost + field_vjp(x, u, adj, p, c))


def characterize_controls(x, adj, p: ModelParams, c: ControlParams,
                          w: ObjectiveWeights, mask: np.ndarray) -> np.ndarray:
    """The five stationary-point controls, clamped to [0,1] and times the
    0/1 float mask of shape (5,), so masked-off controls are exactly zero;
    on one node (x, adj of shape (10,)) or a grid ((n+1, 10) to (n+1, 5)).
    `rk4.c`'s `characterize` is a term-for-term copy, on the same mask."""
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
    return u * mask


_NO_CONTROL = np.zeros(N_CONTROLS)
_NO_EFFECT = ControlParams(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def basic_field(x, p: ModelParams) -> np.ndarray:
    """Right-hand side of the uncontrolled system, for one state (10,) or
    a stack of them: the controlled one with every control off."""
    return controlled_field(x, _NO_CONTROL, p, _NO_EFFECT)


def params_to_array(p) -> np.ndarray:
    """Flatten a parameter record (`ModelParams`, `ControlParams`,
    `ObjectiveWeights`) in its field order, the order the compiled
    kernels read."""
    return np.array([getattr(p, f.name) for f in fields(p)])
