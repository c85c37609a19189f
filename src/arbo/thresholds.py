"""Closed-form epidemic thresholds and bifurcation boundary values.

Each formula is written once with numpy ufuncs, so it runs on one
`ModelParams` or on any object with the same fields holding equal-length
arrays, such as `sensitivity.SampleSet.columns()`.  The scalar functions
below are thin wrappers over `threshold_arrays`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .model import S_H, S_V, ModelParams, derive_constants


class ThresholdError(ValueError):
    """A quantity was requested outside the parameter region where it exists."""


@dataclass(frozen=True)
class ThresholdReport:
    """All thresholds of the model, as floats for one parameter set
    (`bifurcation_thresholds`) or as arrays over many (`threshold_arrays`).

    NaN marks a quantity absent: R_1b, R_2b, beta_minus and beta_plus
    where psi > 0, and beta_star and beta_bar where the vector population
    does not establish (N <= 1).  `r0_defined` is False there, and R0 =
    K_vh = K_hv = 0 by convention.
    """

    net_repro: float
    r0: float
    r0_defined: bool
    k_vh: float
    k_hv: float
    r_c: float
    r_1b: float
    r_2b: float
    psi: float
    beta_star: float
    beta_bar: float
    beta_minus: float
    beta_plus: float


def net_reproductive_number(p: ModelParams) -> float:
    """Vector-population persistence threshold: mosquitoes establish iff > 1."""
    k = derive_constants(p)
    return p.mu_b * p.theta * p.l * p.s / (k.k5 * k.k6 * k.k7 * k.k8)


def _established(p: ModelParams, what: str) -> float:
    """N, after checking that the vector population establishes (at every
    row, for array fields)."""
    n = net_reproductive_number(p)
    if np.any(n <= 1.0):
        raise ThresholdError(
            f"{what} net reproductive number > 1, got {np.min(n):.6g}")
    return n


def _disease_free_vectors(p: ModelParams, k, n):
    """Adult vectors at the biological DFE (positive only where N > 1)."""
    denom = p.mu_b * (p.Gamma_E * p.s + k.k6 * p.Gamma_L)
    return p.Gamma_E * p.Gamma_L * k.k5 * k.k6 * (n - 1.0) / denom


def dfe_components(p: ModelParams, trivial: bool = False) -> np.ndarray:
    """Disease-free equilibrium as a state vector, or as a stack (m, 10)
    when fields of `p` hold arrays of length m.

    With `trivial=True` returns the vector-free equilibrium (humans only).
    Otherwise returns the biological DFE with the vector population at its
    persistence level, which requires net reproductive number > 1.
    """
    vectors = egg = lar = pup = 0.0
    if not trivial:
        n = _established(p, "biological DFE requires")
        k = derive_constants(p)
        denom = p.mu_b * (p.Gamma_E * p.s + k.k6 * p.Gamma_L)
        vectors = _disease_free_vectors(p, k, n)
        pup = (p.Gamma_E * p.Gamma_L * k.k5 * k.k6 * k.k8 * (n - 1.0)
               / (p.theta * denom))
        lar = (p.Gamma_E * p.Gamma_L * k.k5 * k.k6 * k.k7 * k.k8 * (n - 1.0)
               / (p.theta * p.l * denom))
        egg = (p.Gamma_E * p.Gamma_L * k.k5 * k.k6 * k.k7 * k.k8 * (n - 1.0)
               / (p.s * (p.mu_b * p.l * p.Gamma_L * p.theta
                         + k.k5 * k.k7 * k.k8 * p.Gamma_E)))
    # In state order: S_h, E_h, I_h, R_h, S_v, E_v, I_v, E, L, P.
    return np.stack(np.broadcast_arrays(
        p.lambda_h_in / p.mu_h, 0.0, 0.0, 0.0, vectors, 0.0, 0.0,
        egg, lar, pup), axis=-1)


def threshold_arrays(p) -> ThresholdReport:
    """The threshold report over every draw at once.

    `p` has the fields of `ModelParams`, as floats or as equal-length
    arrays.  Every field of the result is an array (or a numpy scalar),
    with absent quantities NaN as `ThresholdReport` describes.
    """
    k = derive_constants(p)
    n = net_reproductive_number(p)
    established = n > 1.0

    psi = k.k10 * p.a * p.mu_h * p.beta_vh - p.delta * p.gamma_h * k.k8
    r_c = np.sqrt((2.0 * k.k8 * k.k2 + k.k10 * p.a * p.mu_h * p.beta_vh)
                  / (k.k3 * k.k4 * k.k8))

    # The saddle-node bounds exist only where psi <= 0.
    root_a = np.sqrt(p.delta * p.gamma_h
                     * (p.a * p.mu_h * p.beta_vh * k.k10 + k.k2 * k.k8))
    root_b = np.sqrt(np.where(psi <= 0.0, -k.k2 * psi, np.nan))
    scale = 1.0 / (k.k3 * k.k4) * np.sqrt(1.0 / k.k8)
    r_1b = scale * np.abs(root_a - root_b)
    r_2b = scale * (root_a + root_b)

    nh0 = p.lambda_h_in / p.mu_h
    nv0 = _disease_free_vectors(p, k, n)
    k_vh = np.where(established, p.a * p.beta_vh * (p.gamma_h + k.k4 * p.eta_h)
                    * nv0 / (k.k3 * k.k4 * nh0), 0.0)
    k_hv = np.where(established,
                    p.a * p.beta_hv * (p.gamma_v + k.k8 * p.eta_v) / (k.k8 * k.k9),
                    0.0)

    # R0^2 is linear in beta_hv, so R0(beta_x) = R_x at beta_x = beta_star * R_x^2.
    # np.divide so that scalar inputs also divide by zero into inf.
    with np.errstate(divide="ignore"):  # beta_vh = 0, or nv0 = 0 at N = 1
        beta_star = np.where(established,
                             np.divide(k.k3 * k.k4 * k.k8 * k.k9 * nh0,
                                       p.a * p.a * p.beta_vh * k.k10 * k.k11 * nv0),
                             np.nan)
    return ThresholdReport(
        net_repro=n, r0=np.sqrt(k_vh * k_hv), r0_defined=established,
        k_vh=k_vh, k_hv=k_hv, r_c=r_c, r_1b=r_1b, r_2b=r_2b, psi=psi,
        beta_star=beta_star, beta_bar=beta_star * r_c * r_c,
        beta_minus=beta_star * r_1b * r_1b, beta_plus=beta_star * r_2b * r_2b)


def two_endemic_windows(rep: ThresholdReport):
    """(low, high): is R0 in the low window R_c < R0 < min(1, R_1b) or the
    high window max(R_c, R_2b) < R0 < 1 of the two-endemic case iii-a?
    Elementwise, for a scalar or an array report; an absent (NaN) bound
    puts R0 in neither window."""
    r0, r_c = rep.r0, rep.r_c
    return ((r_c < r0) & (r0 < np.minimum(1.0, rep.r_1b)),
            (np.maximum(r_c, rep.r_2b) < r0) & (r0 < 1.0))


def bifurcation_thresholds(p: ModelParams) -> ThresholdReport:
    """Full threshold report: R0, R_c, the saddle-node bounds in both the
    R0 scale (R_1b, R_2b) and the beta_hv scale (beta_bar, beta_minus,
    beta_plus), and the transcritical value beta_star: the row of
    `threshold_arrays` as Python floats, with `r0_defined` a bool."""
    rep = threshold_arrays(p)
    values = {f.name: float(getattr(rep, f.name)) for f in fields(ThresholdReport)}
    values["r0_defined"] = bool(rep.r0_defined)
    return ThresholdReport(**values)


def basic_reproduction_number(p: ModelParams) -> float:
    """Closed-form R0; requires an established vector population (N > 1)."""
    _established(p, "R0 requires")
    return float(threshold_arrays(p).r0)


def next_generation_matrices(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """New-infection and transfer matrices (F, V) for the four infected
    compartments (E_h, I_h, E_v, I_v) at the biological DFE."""
    k = derive_constants(p)
    dfe = dfe_components(p)
    nv0, nh0 = dfe[S_V], dfe[S_H]
    f = np.array([
        [0.0, 0.0, p.a * p.beta_hv * p.eta_v, p.a * p.beta_hv],
        [0.0, 0.0, 0.0, 0.0],
        [p.a * p.beta_vh * p.eta_h * nv0 / nh0, p.a * p.beta_vh * nv0 / nh0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    v = np.array([
        [k.k3, 0.0, 0.0, 0.0],
        [-p.gamma_h, k.k4, 0.0, 0.0],
        [0.0, 0.0, k.k9, 0.0],
        [0.0, 0.0, -p.gamma_v, k.k8],
    ])
    return f, v
