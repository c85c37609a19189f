"""Closed-form epidemic thresholds and bifurcation boundary values.

Each formula is written once with numpy ufuncs, so it runs on one
`ModelParams` or on any object with the same fields holding equal-length
arrays, such as `sensitivity.SampleSet.columns()`.  The scalar functions
below are thin wrappers over `threshold_arrays`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .model import S_H, S_V, STATE_NAMES, ModelParams, derive_constants


class ThresholdError(ValueError):
    """A quantity was requested outside the parameter region where it
    exists, or is not finite there."""


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


# The output name of each `ThresholdReport` field, in field order: the
# keys of `arbo thresholds` and the labels of `nonfinite`.
REPORT_NAMES = dict(
    net_repro="N", r0="R0", r0_defined="R0_defined", k_vh="K_vh", k_hv="K_hv",
    r_c="R_c", r_1b="R_1b", r_2b="R_2b", psi="psi", beta_star="beta_star",
    beta_bar="beta_bar", beta_minus="beta_minus", beta_plus="beta_plus")


def net_reproductive_number(p: ModelParams) -> float:
    """Vector-population persistence threshold: mosquitoes establish iff > 1."""
    k = derive_constants(p)
    return p.mu_b * p.theta * p.l * p.s / (k.k5 * k.k6 * k.k7 * k.k8)


def _x_and_y(p, k):
    """(X, Y): X = k10 a mu_h beta_vh and Y = X + k2 k8, the terms that R_c,
    psi, the saddle-node bounds and the endemic quadratic share."""
    x = k.k10 * p.a * p.mu_h * p.beta_vh
    return x, x + k.k2 * k.k8


def _established(p: ModelParams, what: str) -> float:
    """N, after checking that the vector population establishes (at every
    row, for array fields)."""
    n = net_reproductive_number(p)
    if np.any(n <= 1.0):
        raise ThresholdError(
            f"{what} net reproductive number > 1, got {np.min(n):.6g}")
    return n


def _disease_free_vectors(p: ModelParams, k, n):
    """(S_v, G, D) at the biological DFE: the adult vectors G (N - 1) / D
    (positive only where N > 1), and the factors G = G_E G_L k5 k6 and
    D = mu_b (G_E s + k6 G_L) that the aquatic stages share."""
    shared = p.Gamma_E * p.Gamma_L * k.k5 * k.k6
    denom = p.mu_b * (p.Gamma_E * p.s + k.k6 * p.Gamma_L)
    return shared * (n - 1.0) / denom, shared, denom


def dfe_components(p: ModelParams, trivial: bool = False) -> np.ndarray:
    """Disease-free equilibrium as a state vector, or as a stack (m, 10)
    when fields of `p` hold arrays of length m: on each row the biological
    DFE, vectors at their persistence level, where net reproductive number
    N > 1, else (and on every row with `trivial=True`) the vector-free one.
    """
    vectors = egg = lar = pup = 0.0
    n = 0.0 if trivial else net_reproductive_number(p)
    # Skipped if no row has N > 1: a Python-float divisor may underflow to 0.
    if np.any(n > 1.0):
        k = derive_constants(p)
        vectors, shared, denom = _disease_free_vectors(p, k, n)
        pup = shared * k.k8 * (n - 1.0) / (p.theta * denom)
        aquatic = shared * k.k7 * k.k8 * (n - 1.0)  # larvae and eggs
        lar = aquatic / (p.theta * p.l * denom)
        egg = aquatic / (p.s * (p.mu_b * p.l * p.Gamma_L * p.theta
                                + k.k5 * k.k7 * k.k8 * p.Gamma_E))
        vectors, egg, lar, pup = (np.where(n > 1.0, v, 0.0)
                                  for v in (vectors, egg, lar, pup))
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

    x, y = _x_and_y(p, k)
    psi = x - p.delta * p.gamma_h * k.k8
    r_c = np.sqrt((2.0 * (k.k8 * k.k2) + x) / (k.k3 * k.k4 * k.k8))

    # The saddle-node bounds exist only where psi <= 0.
    root_a = np.sqrt(p.delta * p.gamma_h * y)
    root_b = np.sqrt(np.where(psi <= 0.0, -k.k2 * psi, np.nan))
    scale = 1.0 / (k.k3 * k.k4) * np.sqrt(1.0 / k.k8)
    r_1b = scale * np.abs(root_a - root_b)
    r_2b = scale * (root_a + root_b)

    nh0 = np.divide(p.lambda_h_in, p.mu_h)  # numpy, so /0 gives inf below
    nv0 = _disease_free_vectors(p, k, n)[0]
    k_vh = np.where(established,
                    p.a * p.beta_vh * k.k10 * nv0 / (k.k3 * k.k4 * nh0), 0.0)
    k_hv = np.where(established, p.a * p.beta_hv * k.k11 / (k.k8 * k.k9), 0.0)

    # R0^2 is linear in beta_hv, so R0(beta_x) = R_x at beta_x = beta_star * R_x^2.
    with np.errstate(divide="ignore"):  # beta_vh = 0, or nv0 = 0 at N = 1
        beta_star = np.where(established,
                             k.k3 * k.k4 * k.k8 * k.k9 * nh0
                             / (p.a * p.a * p.beta_vh * k.k10 * k.k11 * nv0),
                             np.nan)
    return ThresholdReport(
        net_repro=n, r0=np.sqrt(k_vh * k_hv), r0_defined=established,
        k_vh=k_vh, k_hv=k_hv, r_c=r_c, r_1b=r_1b, r_2b=r_2b, psi=psi,
        beta_star=beta_star, beta_bar=beta_star * r_c * r_c,
        beta_minus=beta_star * r_1b * r_1b, beta_plus=beta_star * r_2b * r_2b)


def two_endemic_window(rep: ThresholdReport):
    """Is R0 in the window max(R_c, R_2b) < R0 < 1 of the two-endemic
    case iii-a?  Elementwise, for a scalar or an array report; an absent
    (NaN) R_2b puts R0 outside it.  The paper's second window, R_c < R0 <
    min(1, R_1b), is empty: R_c^2 - R_1b^2 >= 2 k2 Y / ((k3 k4)^2 k8) > 0
    wherever psi <= 0 (`tests/test_symbolic.py` proves the identity)."""
    return (np.maximum(rep.r_c, rep.r_2b) < rep.r0) & (rep.r0 < 1.0)


# The report fields that must be finite where they exist, in the order
# they are derived, each with whether it exists only where psi <= 0 (else
# on every row).  `nonfinite` checks them all, with the DFE after N.
# `sensitivity.SampleSet.thresholds` checks R0 first on every draw, which
# covers K_vh and K_hv (R0 = sqrt(K_vh K_hv), both >= 0), then N, and
# R_c, psi, R_1b and R_2b only at draws that establish vectors: a design
# reads them only there, the regime of a draw without vectors being N's
# alone, while `arbo thresholds` prints every one.
CHECKED = (("net_repro", False), ("k_vh", False), ("k_hv", False),
           ("r0", False), ("r_c", False), ("psi", False),
           ("r_1b", True), ("r_2b", True))
_FINITE = (REPORT_NAMES["net_repro"],
           *(f"{s} of the disease-free equilibrium" for s in STATE_NAMES),
           *(REPORT_NAMES[f] for f, _ in CHECKED[1:]))


def nonfinite(rep: ThresholdReport, dfe) -> list:
    """Per row of the report and of the disease-free equilibrium `dfe`
    (as `dfe_components` gives it; shape (10,) or (m, 10)): the
    message naming the first quantity that exists there but is not
    finite, else None.  The quantities, in the order they are derived:
    N, the DFE, then the rest of `CHECKED`.  The beta-scale thresholds
    are not among them, since beta_vh = 0 puts beta_star at infinity."""
    rest = CHECKED[1:]
    table = np.column_stack([rep.net_repro, np.atleast_2d(dfe),
                             *(getattr(rep, f) for f, _ in rest)])
    bad = ~np.isfinite(table)
    bad[:, -len(rest):] &= (np.array([not windowed for _, windowed in rest])
                            | (np.atleast_1d(rep.psi) <= 0.0)[:, None])
    return [f"{_FINITE[j]} is {table[i, j]}" if bad[i, j] else None
            for i, j in enumerate(bad.argmax(axis=1).tolist())]


def _scalars(record):
    """The one-value record `record` with each field a Python scalar of its
    annotated type (a string that names a numpy dtype: float or bool)."""
    return type(record)(**{f.name: np.asarray(getattr(record, f.name), f.type).item()
                           for f in fields(record)})


@np.errstate(all="ignore")  # refused, so not warned of
def bifurcation_thresholds(p: ModelParams) -> ThresholdReport:
    """Full threshold report: R0, R_c, the saddle-node bounds in both the
    R0 scale (R_1b, R_2b) and the beta_hv scale (beta_bar, beta_minus,
    beta_plus), and the transcritical value beta_star: the row of
    `threshold_arrays` as Python floats, with `r0_defined` a bool.
    Raises `ThresholdError` naming the first quantity of `nonfinite`
    that is not finite."""
    rep = threshold_arrays(p)
    [error] = nonfinite(rep, dfe_components(p))
    if error is not None:
        raise ThresholdError(error)
    return _scalars(rep)


def basic_reproduction_number(p: ModelParams) -> float:
    """Closed-form R0, read off `bifurcation_thresholds`; requires an
    established vector population (N > 1), and raises its `ThresholdError`
    wherever the report has a quantity that is not finite."""
    _established(p, "R0 requires")
    return bifurcation_thresholds(p).r0


def next_generation_matrices(p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """New-infection and transfer matrices (F, V) for the four infected
    compartments (E_h, I_h, E_v, I_v) at the biological DFE."""
    _established(p, "next-generation matrices require")
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
