"""Endemic equilibria: the quadratic in the human force of infection,
back-substitution of components, counting/classification, and parameter
scans for bifurcation diagrams."""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .model import (
    E_H, E_V, I_H, I_V, PUP, R_H, S_H, S_V, ModelParams, ParamError,
    _infection, basic_field, derive_constants, in_bounds, param_rows,
)
from .stability import eigen_verdicts
# net_reproductive_number has no caller here; perfbench's tracer counts
# calls made through this module's name for it.
from .thresholds import (  # noqa: F401
    ThresholdError, ThresholdReport, _established, _scalars, _x_and_y,
    bifurcation_thresholds, dfe_components, net_reproductive_number, nonfinite,
    threshold_arrays, two_endemic_windows,
)

# A discriminant this close to zero (relative to the coefficient scale
# max(d1^2, |4 d2 d0|)) is treated as a double root: the rounding level
# of d1^2 - 4 d2 d0, whose coefficients each carry a few roundings.  A
# wider band would take -d1 / (2 d2) for a root where there is none.
_DOUBLE_ROOT_RTOL = 64 * np.finfo(float).eps

# R0 this close to 1 is R0 = 1: case ii of the classification, and d0 = 0
# in the quadratic, whose roots are then 0 and -d1 / d2.
_R0_ONE_TOL = 1e-12

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
    infection at equilibrium, plus the discriminant.  d0 is 0 when
    |R0 - 1| <= 1e-12 (`_R0_ONE_TOL`)."""

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
    classification.
    """

    dfe_trivial: np.ndarray
    dfe_biological: np.ndarray | None
    endemic: list
    classification: Classification
    case: str
    quadratic: EndemicQuadratic | None
    rejected: list
    residuals: list


def endemic_quadratic(p: ModelParams) -> EndemicQuadratic:
    """Closed-form coefficients; requires an established vector population."""
    _established(p, "endemic quadratic requires")
    rep = bifurcation_thresholds(p)
    return _scalars(_quadratic(p, rep.r0, rep.r_c))


def _quadratic(p, r0, r_c) -> EndemicQuadratic:
    """Coefficients as numpy values: per row when `p`, `r0` and `r_c`
    hold arrays, else for one parameter set."""
    k = derive_constants(p)
    pref = k.k3 * k.k3 * k.k4 * k.k4 * k.k8 * p.mu_h
    d2 = -k.k2 * _x_and_y(p, k)[1]
    d1 = pref * (r0 * r0 - r_c * r_c)
    d0 = np.where(np.abs(r0 - 1.0) <= _R0_ONE_TOL, 0.0,
                  pref * p.mu_h * (r0 * r0 - 1.0))
    return EndemicQuadratic(d2=d2, d1=d1, d0=d0,
                            discriminant=d1 * d1 - 4.0 * d2 * d0)


def _quadratic_roots(q: EndemicQuadratic) -> np.ndarray:
    """Real roots in ascending order, shape (..., 2) with NaN for an
    absent root, via the numerically stable form (coefficients span many
    orders of magnitude, so the naive formula cancels).  A double root
    (`is_double_root`) is the one root -d1 / (2 d2)."""
    double = is_double_root(q)
    split = ~double & (q.discriminant > 0.0)
    sgn = np.where(q.d1 >= 0.0, 1.0, -1.0)
    qq = -0.5 * (q.d1 + sgn * np.sqrt(np.maximum(q.discriminant, 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):  # qq = 0 when double
        r1, r2 = qq / q.d2, q.d0 / qq
    lo = np.select([double, split], [-q.d1 / (2.0 * q.d2), np.minimum(r1, r2)],
                   np.nan)
    hi = np.where(split, np.maximum(r1, r2), np.nan)
    return np.stack([lo, hi], axis=-1)


def is_double_root(q: EndemicQuadratic):
    """Per row: is the discriminant zero up to its rounding level?"""
    scale = np.maximum(q.d1 * q.d1, np.abs(4.0 * q.d2 * q.d0))
    return (scale == 0.0) | (np.abs(q.discriminant) <= _DOUBLE_ROOT_RTOL * scale)


def back_substitute(p, lambda_h, dfe) -> np.ndarray:
    """Endemic state vector from the human force of infection at
    equilibrium and the biological disease-free equilibrium `dfe`; a
    stack (m, 10) for an array `lambda_h` and a stack `dfe`, row i under
    row i of `p` (fields scalar or of length m)."""
    # Aquatic stages decouple from infection status: eggs, larvae and
    # pupae sit at their disease-free levels.
    x = np.array(dfe)
    k = derive_constants(p)
    s_h = p.lambda_h_in / (p.mu_h + lambda_h)
    x[..., S_H] = s_h
    x[..., E_H] = lambda_h * s_h / k.k3
    x[..., I_H] = p.gamma_h * lambda_h * s_h / (k.k3 * k.k4)
    x[..., R_H] = p.sigma * p.gamma_h * lambda_h * s_h / (p.mu_h * k.k3 * k.k4)

    # The vector total theta*P/k8 splits by the force of infection on vectors.
    pupae = x[..., PUP]
    _, _, lambda_v = _infection(x, p)  # needs the human compartments only
    x[..., S_V] = p.theta * pupae / (lambda_v + k.k8)
    x[..., E_V] = p.theta * pupae * lambda_v / (k.k9 * (lambda_v + k.k8))
    x[..., I_V] = (p.gamma_v * p.theta * pupae * lambda_v
                   / (k.k8 * k.k9 * (lambda_v + k.k8)))
    return x


def _equilibria(p: ModelParams, size: int = 1, **columns) -> SimpleNamespace:
    """Every equilibrium of `size` rows, each field of `p` a column (the
    arrays in `columns` in place of theirs), so that every derived
    quantity has one entry per row; each row comes out bitwise as alone.

    In order: the threshold report; each row's DFE, biological where
    N > 1, else trivial; `nonfinite`, which gives a row its
    `ThresholdError`; on the rows that establish vectors and pass it
    (`est`), the quadratic's roots, the positivity filter and
    back-substitution; one field call for the residuals of every DFE and
    endemic point; and the residual check, which gives a row its
    `ResidualError` where an endemic point is not finite or max|f(x)|
    exceeds its tolerance.  A row keeps its first error.

    Returns per row `rep` and `errors`; per `est` row `quad`, `roots`
    (ascending, NaN if absent) and each rejected root's `reason`; the
    `states` (the DFEs of `est`, then the endemic points in (row, root)
    order) with their `owner` parameters and `residual`; and per endemic
    point its `row` in `est` and `lam`.
    """
    pv = SimpleNamespace(**{name: np.full(size, v)
                            for name, v in vars(p).items()} | columns)
    rep = threshold_arrays(pv)
    dfe = dfe_components(pv, trivial=True)
    established = np.flatnonzero(rep.r0_defined)
    dfe[established] = dfe_components(param_rows(pv, established))
    messages = nonfinite(rep, dfe)
    errors = [None if m is None else ThresholdError(m) for m in messages]
    est = np.flatnonzero(rep.r0_defined & np.equal(messages, None))
    pe = param_rows(pv, est)
    quad = _quadratic(pe, rep.r0[est], rep.r_c[est])

    roots = _quadratic_roots(quad)
    positive = roots > 0.0  # False for an absent root
    reason = np.full(roots.shape, None, dtype=object)
    reason[~np.isnan(roots) & ~positive] = "non-positive force of infection"
    row, root = np.nonzero(positive)
    x = back_substitute(param_rows(pe, row), roots[row, root], dfe[est[row]])
    kept = np.all(x > 0.0, axis=1)
    reason[row[~kept], root[~kept]] = (
        "non-positive component after back-substitution")
    row, lam, x = row[kept], roots[row[kept], root[kept]], x[kept]

    states = np.concatenate([dfe[est], x])
    owner = param_rows(pe, np.concatenate([np.arange(est.size), row]))
    residual = np.max(np.abs(basic_field(states, owner)), axis=1)
    tol = _RESIDUAL_RTOL * np.maximum(1.0, np.max(np.abs(x), axis=-1))
    for i, lm, r, t in zip(est[row].tolist(), lam.tolist(),
                           residual[est.size:].tolist(), tol.tolist()):
        if errors[i] is None and not r <= t < math.inf:
            errors[i] = ResidualError(f"endemic point at lambda_h={lm:.6g} " + (
                f"has field residual {r:.3g} > {t:.3g}" if t < math.inf
                else "is not finite"))
    return SimpleNamespace(rep=rep, errors=errors, est=est, quad=quad,
                           roots=roots, reason=reason, states=states,
                           owner=owner, residual=residual, row=row, lam=lam)


def _classify(rep: ThresholdReport,
              q: EndemicQuadratic) -> tuple[Classification, str]:
    """Root-count classification, each boundary by the roots' own rule."""
    r0, r_c = rep.r0, rep.r_c
    if abs(r0 - 1.0) <= _R0_ONE_TOL:
        if r_c < 1.0:
            return Classification.UNIQUE, "ii"
        return Classification.NO_ENDEMIC, "ii"
    if r0 > 1.0:
        return Classification.UNIQUE, "i"
    if r_c < r0 and is_double_root(q):
        return Classification.UNIQUE, "iii-b"
    if any(two_endemic_windows(rep)):
        return Classification.TWO, "iii-a"
    return Classification.NO_ENDEMIC, "iii-c"


@np.errstate(all="ignore")  # refused, so not warned of
def solve_endemic(p: ModelParams, stability_checker=None) -> EquilibriumSet:
    """All equilibria: both disease-free points and every positive
    endemic root of the quadratic, with field-residual verification: the
    one-row case of `_equilibria`, raising that row's error.

    `stability_checker(x)` may be supplied to attach a stable/unstable
    flag per endemic point (see the stability module); otherwise the
    flag is None.
    """
    eq = _equilibria(p)
    if eq.errors[0] is not None:
        raise eq.errors[0]
    n = eq.est.size  # 0 where N <= 1: no vectors, no endemic point
    quad = _scalars(eq.quad) if n else None
    classification, case = (_classify(_scalars(eq.rep), quad) if n else
                            (Classification.NO_ENDEMIC, "N<=1"))
    rejected = [(r, why) for r, why in zip(eq.roots.ravel().tolist(),
                                           eq.reason.ravel()) if why is not None]
    endemic = [(x, r, None if stability_checker is None else stability_checker(x))
               for x, r in zip(eq.states[n:], eq.lam.tolist())]
    return EquilibriumSet(
        dfe_trivial=dfe_components(p, trivial=True),
        dfe_biological=eq.states[0] if n else None, endemic=endemic,
        classification=classification, case=case, quadratic=quad,
        rejected=rejected, residuals=eq.residual[n:].tolist())


def delta_zero_check(p: ModelParams) -> dict:
    """Endemic-root analysis on the no-disease-death submodel.

    With delta = 0 the equilibrium condition is linear in the force of
    infection; there is no endemic point unless R0 > 1, in which case
    the unique root is -p0/p1.  R0 = 1 is the band of `solve_endemic`
    (`_R0_ONE_TOL`), where the root is lambda = 0; with delta = 0,
    R_c^2 >= 2, so that band is its case ii with no endemic point.
    """
    if p.delta != 0.0:
        raise ValueError(f"delta_zero_check requires delta = 0, got {p.delta!r}")
    _established(p, "delta_zero_check requires")
    k = derive_constants(p)
    rep = bifurcation_thresholds(p)
    common = p.mu_b * p.lambda_h_in * k.k9
    p1 = common * _x_and_y(p, k)[1]
    p0 = -p.mu_h * k.k3 * k.k4 * k.k8 * common * (rep.r0 ** 2 - 1.0)
    if rep.r0 - 1.0 <= _R0_ONE_TOL:
        root = 0.0 if abs(rep.r0 - 1.0) <= _R0_ONE_TOL else None
        return {"no_endemic": True, "lambda_root": root, "p1": p1, "p0": p0}
    return {"no_endemic": False, "lambda_root": -p0 / p1, "p1": p1, "p0": p0}


@dataclass(frozen=True)
class ScanRow:
    """One (parameter value, branch) record of a bifurcation scan.

    `stable` is the eigenvalue verdict: True or False, or None when no
    verdicts were asked for, the verdict is marginal or the row has none
    (N <= 1, or an error).
    """

    param_value: float
    r0: float
    branch_id: int
    i_h: float
    i_v: float
    stable: bool | None
    residual: float
    error: str | None = None


@np.errstate(all="ignore")  # each is an error row
def bifurcation_scan(p: ModelParams, param_name: str, lo: float, hi: float,
                     steps: int, stability: bool = False) -> list[ScanRow]:
    """Branch table over a uniform grid of one parameter.

    Branch 0 is the biological disease-free equilibrium; positive
    branches are endemic points ordered by increasing force of
    infection.  Per-point failures become flagged rows, never aborts:
    among them a point whose thresholds or disease-free equilibrium
    (`thresholds.nonfinite`) or endemic points are not finite.
    The grid goes through `_equilibria` at once, and each row is bitwise
    what `solve_endemic` gives at its grid point; with `stability`, it
    carries the eigenvalue verdict under that point's parameters.
    """
    if param_name not in {f.name for f in dataclasses.fields(ModelParams)}:
        raise ValueError(f"unknown parameter {param_name!r}")
    values = np.linspace(lo, hi, steps + 1)
    valid = in_bounds(param_name, values)
    errors = {}
    for i in np.flatnonzero(~valid).tolist():
        try:
            dataclasses.replace(p, **{param_name: values[i].item()})
        except ParamError as exc:
            errors[i] = str(exc)

    grid = np.flatnonzero(valid)
    eq = _equilibria(p, grid.size, **{param_name: values[grid]})
    errors.update((i, str(e)) for i, e in zip(grid.tolist(), eq.errors) if e)
    est, states = eq.est, eq.states
    flags = np.full(len(states), None)
    if stability:  # an endemic point that is not finite has its error row
        ok = np.flatnonzero(np.isfinite(states).all(axis=1))
        flags[ok] = [v.stable for v in eigen_verdicts(
            states[ok], param_rows(eq.owner, ok))]

    at = np.full(values.shape, -1)  # grid point -> index into `est`
    at[grid[est]] = np.arange(est.size)
    # The states of grid point e's endemic points: first[e]:first[e + 1].
    first = (est.size + np.searchsorted(eq.row, np.arange(est.size + 1))).tolist()
    r0 = eq.rep.r0[est].tolist()
    residual = eq.residual.tolist()
    i_h, i_v = states[:, I_H].tolist(), states[:, I_V].tolist()
    rows = []
    for i, (value, e) in enumerate(zip(values.tolist(), at.tolist())):
        if i in errors:
            rows.append(ScanRow(value, math.nan, -1, math.nan, math.nan, None,
                                math.nan, error=errors[i]))
        elif e < 0:  # N <= 1
            rows.append(ScanRow(value, 0.0, 0, 0.0, 0.0, None, 0.0))
        else:
            rows.append(ScanRow(value, r0[e], 0, 0.0, 0.0, flags[e], residual[e]))
            for branch, j in enumerate(range(first[e], first[e + 1]), start=1):
                rows.append(ScanRow(value, r0[e], branch, i_h[j], i_v[j],
                                    flags[j], residual[j]))
    return rows


def scan_to_csv(rows: list[ScanRow], path) -> None:
    """Write the rows as CSV, `stable` as 1 (stable) or 0 (anything else)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("param_value,R0,branch_id,I_h,I_v,stable,residual\n")
        for r in rows:
            f.write(f"{r.param_value:.17g},{r.r0:.17g},{r.branch_id},"
                    f"{r.i_h:.17g},{r.i_v:.17g},{int(bool(r.stable))},"
                    f"{r.residual:.17g}\n")
