"""Local stability analysis: exact Jacobians (from `model.field_vjp`)
and eigenvalue verdicts for one equilibrium or a stack, Routh-Hurwitz for
the trivial equilibrium, center-manifold bifurcation coefficients at the
transcritical point, and a numeric Lyapunov monotonicity check."""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

import numpy as np

from .model import (
    _NO_CONTROL, _NO_EFFECT, E_H, E_V, EGG, I_H, I_V, LAR, PUP, R_H, S_H, S_V,
    ModelParams, basic_field, derive_constants, field_vjp,
)
from .ode import Trajectory
from .thresholds import (
    _established, bifurcation_thresholds, dfe_components,
    net_reproductive_number,
)

# A max real part within this of zero gives a marginal verdict (None).
_STABLE_TOL = 1e-9


class Direction(enum.Enum):
    BACKWARD = "Backward"
    FORWARD = "Forward"


class KernelError(ArithmeticError):
    """The Jacobian kernel at the bifurcation point is not one-dimensional."""


@dataclass(frozen=True)
class StabilityVerdict:
    """`stable` is True or False, or None when the max real part is
    within `_STABLE_TOL` of zero."""

    eigen_max_real: float
    stable: bool | None


@dataclass(frozen=True)
class BifurcationCoefficients:
    """Center-manifold constants at the transcritical point beta_hv = beta*.

    `bif_a1` is zeta1 - zeta2 from the closed forms; `bif_a1_generic` is
    the same quantity evaluated through the second-derivative double sum
    (directional Hessian), used as a cross-check.
    """

    zeta1: float
    zeta2: float
    bif_a1: float
    bif_a2: float
    bif_a1_generic: float
    direction: Direction = Direction.FORWARD


def _verdict(max_real: float, stable: bool) -> StabilityVerdict:
    """`stable`, or None when `max_real` is within `_STABLE_TOL` of zero."""
    return StabilityVerdict(max_real,
                            None if abs(max_real) <= _STABLE_TOL else stable)


def jacobians(x, p) -> np.ndarray:
    """Exact Jacobians (..., 10, 10) of the uncontrolled right-hand side at
    one state (10,) or a stack (m, 10), row i under row i of `p` (fields
    scalar or of length m): one `field_vjp` call, each state broadcast
    against the rows of the identity, row k giving J^T e_k."""
    x = np.asarray(x, dtype=float)
    lam = np.broadcast_to(np.eye(10), (*x.shape[:-1], 10, 10))
    return field_vjp(x[..., None, :], _NO_CONTROL, lam, p, _NO_EFFECT)


def eigen_verdicts(x, p) -> list[StabilityVerdict]:
    """Stability of a stack of equilibria (m, 10), row i under row i of
    `p`, from the dense eigenspectra of one `jacobians` stack."""
    max_real = np.linalg.eigvals(jacobians(x, p)).real.max(axis=-1)
    return [_verdict(v, v < -_STABLE_TOL) for v in max_real.tolist()]


def eigen_verdict(x, p: ModelParams) -> StabilityVerdict:
    """Stability of one equilibrium from the dense eigenspectrum."""
    return eigen_verdicts(np.asarray(x, dtype=float)[None], p)[0]


def routh_hurwitz_trivial(p: ModelParams) -> StabilityVerdict:
    """Routh-Hurwitz verdict for the vector-free equilibrium.

    The linearization block-decouples; the nontrivial part is the
    aquatic-adult quartic whose constant coefficient is proportional to
    (1 - N), so the verdict flips at the persistence threshold (marginal).
    """
    k = derive_constants(p)
    n = net_reproductive_number(p)
    mu_v = k.k8
    c1 = mu_v + k.k7 + k.k6 + k.k5
    c2 = (k.k7 + k.k6 + k.k5) * mu_v + (k.k6 + k.k5) * k.k7 + k.k5 * k.k6
    c3 = ((k.k6 + k.k5) * k.k7 + k.k5 * k.k6) * mu_v + k.k5 * k.k6 * k.k7
    c4 = k.k5 * k.k6 * k.k7 * mu_v * (1.0 - n)
    h1 = c1
    h2 = c1 * c2 - c3
    h3 = c1 * c2 * c3 - c1 ** 2 * c4 - c3 ** 2
    h4 = c4 * h3
    roots = np.roots([1.0, c1, c2, c3, c4])
    return _verdict(float(np.max(roots.real)),
                    h1 > 0 and h2 > 0 and h3 > 0 and h4 > 0)


def bifurcation_coefficients(p: ModelParams) -> BifurcationCoefficients:
    """Center-manifold constants at beta_hv = beta* (set internally).

    The right/left null vectors of the Jacobian at the biological DFE
    are computed numerically (the kernel is one-dimensional), scaled so
    the infectious-vector component of the right vector is 1 and the
    left/right product is 1.
    """
    _established(p, "bifurcation analysis requires")
    rep = bifurcation_thresholds(p)
    ps = dataclasses.replace(p, beta_hv=rep.beta_star)
    e1 = dfe_components(ps)
    jac = jacobians(e1, ps)

    scale = np.max(np.abs(jac))
    # J = U S V^T: the last right singular vector spans ker J and the
    # last left one ker J^T, which has the same singular values.
    u, s, vt = np.linalg.svd(jac)
    w, v = vt[-1], u[:, -1]
    # One-dimensional: sigma_min vanishes on the scale of J and against
    # the next singular value, which can itself be as small as mu_h but
    # not zero.
    if s[-1] > 1e-6 * scale or s[-1] >= 1e-6 * s[-2]:
        raise KernelError(
            f"Jacobian kernel is not one-dimensional: sigma_min={s[-1]:.3g}, "
            f"next={s[-2]:.3g} (scale {scale:.3g})")

    if w[I_V] == 0.0:
        raise KernelError("right null vector has zero infectious-vector component")
    w = w / w[I_V]
    vw = float(v @ w)
    if vw == 0.0:
        raise KernelError("left and right null vectors are orthogonal")
    v = v / vw

    k = derive_constants(ps)
    nh0 = e1[S_H]
    nv0 = e1[S_V]
    # Egg laying per adult, egg loss, egg-to-larva transfer, larval loss.
    k1c, k2c = jac[EGG, S_V], -jac[EGG, EGG]
    k3c, k4c = jac[LAR, EGG], -jac[LAR, LAR]

    w1, w2, w3, w4 = w[S_H], w[E_H], w[I_H], w[R_H]
    w6, w7, w10 = w[E_V], w[I_V], w[PUP]
    v2, v6 = v[E_H], v[E_V]
    abvh = ps.a * ps.beta_vh
    infect_h = ps.eta_h * w2 + w3

    zeta1 = v6 * (2.0 * (k.k7 * k2c * k4c / (ps.l * k1c * k3c))
                  * (abvh / nh0) * infect_h * w10
                  - 2.0 * (abvh * nv0 / nh0 ** 2) * infect_h * w1)
    zeta2 = (v2 * 2.0 * (ps.a * rep.beta_star / nh0)
             * (ps.eta_v * w6 + w7) * (w2 + w3 + w4)
             + v6 * (2.0 * (abvh * nv0 / nh0 ** 2)
                     * (ps.eta_h * w2 ** 2 + (ps.eta_h + 1.0) * w2 * w3
                        + ps.eta_h * w2 * w4 + w3 ** 2 + w3 * w4)
                     + 2.0 * (abvh * k.k9 / (ps.gamma_v * nh0)) * infect_h * w7))
    bif_a1 = zeta1 - zeta2
    bif_a2 = (ps.a * nv0 / nh0) * (ps.eta_h * w6 + w7) * v2
    bif_a1_generic = hessian_double_sum(ps, e1, v, w)

    return BifurcationCoefficients(
        zeta1=zeta1, zeta2=zeta2, bif_a1=bif_a1, bif_a2=bif_a2,
        bif_a1_generic=bif_a1_generic,
        direction=Direction.BACKWARD if bif_a1 > 0 else Direction.FORWARD)


def hessian_double_sum(p: ModelParams, x0, v, w) -> float:
    """sum_k v_k sum_ij w_i w_j d2 f_k / dx_i dx_j at x0.

    Evaluated as the second directional derivative of phi(eps) =
    v . f(x0 + eps*w), with a fourth-order central stencil and one
    Richardson step for accuracy.
    """
    x0 = np.asarray(x0, dtype=float)
    w = np.asarray(w, dtype=float)
    v = np.asarray(v, dtype=float)

    def phi(eps: float) -> float:
        return float(v @ basic_field(x0 + eps * w, p))

    scale = max(1.0, float(np.max(np.abs(x0)))) / max(1.0, float(np.max(np.abs(w))))

    def second(h: float) -> float:
        return ((-phi(2 * h) + 16.0 * phi(h) - 30.0 * phi(0.0)
                 + 16.0 * phi(-h) - phi(-2 * h)) / (12.0 * h * h))

    h = 1e-3 * scale
    d_h = second(h)
    d_h2 = second(0.5 * h)
    # One Richardson step on the O(h^4) stencil.
    return (16.0 * d_h2 - d_h) / 15.0


def lyapunov_weights(p: ModelParams) -> np.ndarray:
    """Weights (1,...,1, k8/mu_b, k5k8/(mu_b s), k5k6k8/(mu_b s l)) of the
    linear Lyapunov function about the vector-free equilibrium."""
    k = derive_constants(p)
    g = np.ones(10)
    g[EGG] = k.k8 / p.mu_b
    g[LAR] = k.k5 * k.k8 / (p.mu_b * p.s)
    g[PUP] = k.k5 * k.k6 * k.k8 / (p.mu_b * p.s * p.l)
    return g


def lyapunov_trivial_check(p: ModelParams, traj: Trajectory) -> dict:
    """Monotonicity audit of the linear Lyapunov function about the
    vector-free equilibrium along a trajectory.  Requires N <= 1."""
    n = net_reproductive_number(p)
    if n > 1.0:
        raise ValueError(
            f"Lyapunov check applies only when net reproductive number <= 1, got {n:.6g}")
    g = lyapunov_weights(p)
    e0 = dfe_components(p, trivial=True)
    values = (traj.values - e0) @ g
    increments = np.diff(values)
    max_inc = float(np.max(increments)) if increments.size else 0.0
    return {
        "values": values,
        "initial": float(values[0]),
        "max_increment": max_inc,
        "monotone": bool(max_inc <= 1e-9 * max(1.0, abs(values[0]))),
    }
