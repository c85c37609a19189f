"""Endemic equilibria: the quadratic in the human force of infection,
back-substitution of components, counting/classification, and parameter
scans for bifurcation diagrams."""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import (
    E_H, E_V, EGG, I_H, I_V, LAR, PUP, R_H, S_H, S_V,
    ModelParams, ParamError, _infection, basic_field, derive_constants,
)
# net_reproductive_number has no caller here; perfbench's tracer counts
# calls made through this module's name for it.
from .thresholds import (  # noqa: F401
    ThresholdError, ThresholdReport, _established, bifurcation_thresholds,
    dfe_components, net_reproductive_number,
)

# A discriminant this close to zero (relative to the coefficient scale)
# is treated as a double root.
_DOUBLE_ROOT_RTOL = 1e-3

# Positive roots smaller than this are spurious zeros (R0 crossing 1).
_LAMBDA_POSITIVE_TOL = 1e-14

_RESIDUAL_RTOL = 1e-8


class ResidualError(ArithmeticError):
    """A back-substituted equilibrium fails the field-residual tolerance."""


class Classification(enum.Enum):
    NO_ENDEMIC = "NoEndemic"
    UNIQUE = "Unique"
    TWO = "Two"


@dataclass(frozen=True)
class EndemicQuadratic:
    """Coefficients of d2*x^2 + d1*x + d0 = 0 in the human force of
    infection at equilibrium, plus the discriminant."""

    d2: float
    d1: float
    d0: float
    discriminant: float


@dataclass(frozen=True)
class EquilibriumSet:
    """All equilibria of the uncontrolled system for one parameter set.

    `endemic` lists (state vector, lambda_h, stable flag or None), and
    `residuals` holds max|f(x)| for each of those points in the same
    order; `rejected` logs quadratic roots dropped by the positivity
    filter.  `case` is the governing clause of the root-count
    classification, and `thresholds` the report it was read from.
    """

    dfe_trivial: np.ndarray
    dfe_biological: np.ndarray | None
    endemic: list
    classification: Classification
    case: str
    quadratic: EndemicQuadratic | None
    rejected: list
    thresholds: ThresholdReport
    residuals: list


def endemic_quadratic(p: ModelParams) -> EndemicQuadratic:
    """Closed-form coefficients; requires an established vector population."""
    _established(p, "endemic quadratic requires")
    return _quadratic(p, bifurcation_thresholds(p))


def _quadratic(p: ModelParams, rep: ThresholdReport) -> EndemicQuadratic:
    k = derive_constants(p)
    pref = k.k3 ** 2 * k.k4 ** 2 * k.k8 * p.mu_h
    d2 = -k.k2 * (k.k10 * p.a * p.mu_h * p.beta_vh + k.k2 * k.k8)
    d1 = pref * (rep.r0 ** 2 - rep.r_c ** 2)
    d0 = pref * p.mu_h * (rep.r0 ** 2 - 1.0)
    return EndemicQuadratic(d2=d2, d1=d1, d0=d0,
                            discriminant=d1 * d1 - 4.0 * d2 * d0)


def _quadratic_roots(q: EndemicQuadratic) -> list[float]:
    """Real roots via the numerically stable form (coefficients span
    many orders of magnitude, so the naive formula cancels)."""
    disc = q.discriminant
    scale = max(q.d1 * q.d1, abs(4.0 * q.d2 * q.d0))
    if disc < 0.0 and abs(disc) > _DOUBLE_ROOT_RTOL * scale:
        return []
    disc = max(disc, 0.0)
    sgn = 1.0 if q.d1 >= 0.0 else -1.0
    qq = -0.5 * (q.d1 + sgn * math.sqrt(disc))
    roots = []
    if qq != 0.0:
        roots.append(qq / q.d2)
        roots.append(q.d0 / qq)
    elif q.d2 != 0.0:
        roots.append(0.0)
    return sorted(roots)


def is_double_root(q: EndemicQuadratic) -> bool:
    scale = max(q.d1 * q.d1, abs(4.0 * q.d2 * q.d0))
    return scale == 0.0 or abs(q.discriminant) <= _DOUBLE_ROOT_RTOL * scale


def back_substitute(p: ModelParams, lambda_h: float) -> np.ndarray:
    """Endemic state vector from the human force of infection at
    equilibrium.  Requires net reproductive number > 1."""
    # Aquatic stages decouple from infection status: eggs, larvae and
    # pupae sit at their disease-free levels.
    x = dfe_components(p)
    k = derive_constants(p)
    s_h = p.lambda_h_in / (p.mu_h + lambda_h)
    x[S_H] = s_h
    x[E_H] = lambda_h * s_h / k.k3
    x[I_H] = p.gamma_h * lambda_h * s_h / (k.k3 * k.k4)
    x[R_H] = p.sigma * p.gamma_h * lambda_h * s_h / (p.mu_h * k.k3 * k.k4)

    # The vector total theta*P/k8 splits by the force of infection on vectors.
    pupae = x[PUP]
    _, _, lambda_v = _infection(x, p)  # needs the human compartments only
    x[S_V] = p.theta * pupae / (lambda_v + k.k8)
    x[E_V] = p.theta * pupae * lambda_v / (k.k9 * (lambda_v + k.k8))
    x[I_V] = (p.gamma_v * p.theta * pupae * lambda_v
              / (k.k8 * k.k9 * (lambda_v + k.k8)))
    return x


def _classify(rep: ThresholdReport,
              q: EndemicQuadratic) -> tuple[Classification, str]:
    """Root-count classification from the threshold quantities alone."""
    r0, r_c = rep.r0, rep.r_c
    if r0 > 1.0:
        return Classification.UNIQUE, "i"
    if abs(r0 - 1.0) <= 1e-12:
        if r_c < 1.0:
            return Classification.UNIQUE, "ii"
        return Classification.NO_ENDEMIC, "ii"
    # R0 < 1
    if rep.r_1b is not None:
        r_1b, r_2b = rep.r_1b, rep.r_2b
        if r_c < r0 and is_double_root(q):
            return Classification.UNIQUE, "iii-b"
        if (r_c < r0 < min(1.0, r_1b)) or (max(r_c, r_2b) < r0 < 1.0):
            return Classification.TWO, "iii-a"
    return Classification.NO_ENDEMIC, "iii-c"


def solve_endemic(p: ModelParams, stability_checker=None) -> EquilibriumSet:
    """All equilibria: both disease-free points and every positive
    endemic root of the quadratic, with field-residual verification.

    `stability_checker(x)` may be supplied to attach a stable/unstable
    flag per endemic point (see the stability module); otherwise the
    flag is None.
    """
    rep = bifurcation_thresholds(p)
    dfe0 = dfe_components(p, trivial=True)
    if not rep.r0_defined:  # N <= 1: no vectors, no endemic point
        return EquilibriumSet(
            dfe_trivial=dfe0, dfe_biological=None, endemic=[],
            classification=Classification.NO_ENDEMIC, case="N<=1",
            quadratic=None, rejected=[], thresholds=rep, residuals=[])

    dfe1 = dfe_components(p)
    quad = _quadratic(p, rep)
    classification, case = _classify(rep, quad)

    endemic = []
    residuals = []
    rejected = []
    seen = []
    for lam in _quadratic_roots(quad):
        if lam <= _LAMBDA_POSITIVE_TOL:
            rejected.append((lam, "non-positive force of infection"))
            continue
        if any(abs(lam - s) <= 1e-9 * abs(s) for s in seen):
            continue  # double root listed once
        seen.append(lam)
        x = back_substitute(p, lam)
        if not np.all(x > 0.0):
            rejected.append((lam, "non-positive component after back-substitution"))
            continue
        residual = float(np.max(np.abs(basic_field(x, p))))
        tol = _RESIDUAL_RTOL * max(1.0, float(np.max(np.abs(x))))
        if residual > tol:
            raise ResidualError(
                f"endemic point at lambda_h={lam:.6g} has field residual "
                f"{residual:.3g} > {tol:.3g}")
        stable = stability_checker(x) if stability_checker is not None else None
        endemic.append((x, lam, stable))
        residuals.append(residual)

    return EquilibriumSet(
        dfe_trivial=dfe0, dfe_biological=dfe1, endemic=endemic,
        classification=classification, case=case, quadratic=quad,
        rejected=rejected, thresholds=rep, residuals=residuals)


def delta_zero_check(p: ModelParams) -> dict:
    """Endemic-root analysis on the no-disease-death submodel.

    With delta = 0 the equilibrium condition is linear in the force of
    infection; there is no endemic point unless R0 > 1, in which case
    the unique root is -p0/p1.
    """
    if p.delta != 0.0:
        raise ValueError(f"delta_zero_check requires delta = 0, got {p.delta!r}")
    _established(p, "delta_zero_check requires")
    k = derive_constants(p)
    rep = bifurcation_thresholds(p)
    common = p.mu_b * p.lambda_h_in * k.k9
    p1 = common * (k.k10 * p.a * p.mu_h * p.beta_vh + k.k2 * k.k8)
    p0 = -p.mu_h * k.k3 * k.k4 * k.k8 * common * (rep.r0 ** 2 - 1.0)
    if rep.r0 <= 1.0:
        root = 0.0 if rep.r0 == 1.0 else None
        return {"no_endemic": rep.r0 < 1.0, "lambda_root": root,
                "p1": p1, "p0": p0}
    return {"no_endemic": False, "lambda_root": -p0 / p1, "p1": p1, "p0": p0}


@dataclass(frozen=True)
class ScanRow:
    """One (parameter value, branch) record of a bifurcation scan."""

    param_value: float
    r0: float
    branch_id: int
    i_h: float
    i_v: float
    stable: int
    residual: float
    error: str | None = None


def bifurcation_scan(p: ModelParams, param_name: str, lo: float, hi: float,
                     steps: int, stability_checker=None) -> list[ScanRow]:
    """Branch table over a uniform grid of one parameter.

    Branch 0 is the biological disease-free equilibrium; positive
    branches are endemic points ordered by increasing force of
    infection.  Per-point failures become flagged rows, never aborts.
    `stability_checker(x, pv)` receives each equilibrium with the
    parameters of its own grid point.
    """
    if param_name not in {f.name for f in dataclasses.fields(ModelParams)}:
        raise ValueError(f"unknown parameter {param_name!r}")
    rows = []
    for value in np.linspace(lo, hi, steps + 1):
        value = float(value)
        try:
            pv = dataclasses.replace(p, **{param_name: value})
            checker = (None if stability_checker is None
                       else lambda x: stability_checker(x, pv))
            eq = solve_endemic(pv, stability_checker=checker)
        except (ParamError, ThresholdError, ArithmeticError) as exc:
            rows.append(ScanRow(value, math.nan, -1, math.nan, math.nan, 0,
                                math.nan, error=str(exc)))
            continue
        dfe = eq.dfe_biological
        if dfe is None:  # N <= 1
            rows.append(ScanRow(value, 0.0, 0, 0.0, 0.0, 0, 0.0))
            continue
        r0 = eq.thresholds.r0
        dfe_res = float(np.max(np.abs(basic_field(dfe, pv))))
        dfe_stable = checker(dfe) if checker else None
        rows.append(ScanRow(value, r0, 0, 0.0, 0.0,
                            int(bool(dfe_stable)), dfe_res))
        for branch, ((x, _, stable), res) in enumerate(
                zip(eq.endemic, eq.residuals), start=1):
            rows.append(ScanRow(value, r0, branch, float(x[I_H]), float(x[I_V]),
                                int(bool(stable)), res))
    return rows


def scan_to_csv(rows: list[ScanRow], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("param_value,R0,branch_id,I_h,I_v,stable,residual\n")
        for r in rows:
            f.write(f"{r.param_value:.17g},{r.r0:.17g},{r.branch_id},"
                    f"{r.i_h:.17g},{r.i_v:.17g},{r.stable},{r.residual:.17g}\n")
