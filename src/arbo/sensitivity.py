"""Latin hypercube sampling over parameter ranges, reproduction-number
distribution statistics, equilibrium-regime probabilities, and partial
rank correlation coefficients."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .model import ModelParams
# bifurcation_thresholds and net_reproductive_number have no caller here;
# perfbench's tracer counts calls made through this module's name for both.
from .thresholds import (  # noqa: F401
    ThresholdError, ThresholdReport, bifurcation_thresholds,
    net_reproductive_number, threshold_arrays, two_endemic_windows,
)

PARAM_ORDER = tuple(f.name for f in fields(ModelParams))

_MU_H = 1.0 / (67.0 * 365.0)

_log = logging.getLogger("arbo")


def _pm(center: float, frac: float) -> tuple[float, float]:
    return center * (1.0 - frac), center * (1.0 + frac)


def baseline_ranges() -> "ParamDistribution":
    """Default uniform ranges for the global sensitivity analysis.

    Tabulated range parameters use their listed extremes; single-value
    parameters get a proportional band around the point estimate.
    """
    return ParamDistribution({
        "lambda_h_in": (1.8, 7.2),
        "mu_h": _pm(_MU_H, 0.35),
        "a": _pm(1.0, 0.50),
        "beta_hv": (0.02, 0.75),
        "beta_vh": (0.02, 0.75),
        "gamma_h": (1.0 / 15.0, 1.0 / 3.0),
        "delta": _pm(1e-3, 0.20),
        "sigma": _pm(0.1428, 0.40),
        "eta_h": (0.0, 0.999),
        "eta_v": (0.0, 0.999),
        "mu_v": (1.0 / 30.0, 1.0 / 14.0),
        "gamma_v": (1.0 / 21.0, 0.5),
        "theta": _pm(0.08, 0.75),
        "mu_b": _pm(6.0, 0.15),
        "Gamma_E": (1e3, 1e5),
        "Gamma_L": (5e2, 5e4),
        "mu_E": (0.2, 0.4),
        "mu_L": (0.2, 0.4),
        "mu_P": _pm(0.4, 0.40),
        "s": _pm(0.7, 0.45),
        "l": _pm(0.5, 0.60),
    })


class RangeError(ValueError):
    """A sampling range is malformed or out of the parameter's domain."""


class SingularSampleError(ValueError):
    """A non-degenerate parameter column or the output is constant, or the
    rank correlation matrix of the parameters and the output is singular;
    either way the regression behind PRCC has no solution."""


@dataclass(frozen=True)
class ParamDistribution:
    """Per-parameter uniform ranges [lo, hi]; point parameters may use
    degenerate ranges (lo == hi)."""

    ranges: dict

    def __post_init__(self):
        unknown = set(self.ranges) - set(PARAM_ORDER)
        if unknown:
            raise RangeError(f"unknown parameters: {sorted(unknown)}")
        missing = set(PARAM_ORDER) - set(self.ranges)
        if missing:
            raise RangeError(f"missing parameters: {sorted(missing)}")
        for name, (lo, hi) in self.ranges.items():
            if not lo <= hi:
                raise RangeError(f"{name}: lo {lo!r} > hi {hi!r}")


@dataclass(frozen=True)
class SampleSet:
    """An LHS design: the raw matrix (n x n_params, column order
    PARAM_ORDER).  `lhs_sample` stores it column-major and read-only,
    which keeps `thresholds` valid for the life of the set."""

    matrix: np.ndarray = field(repr=False)
    distribution: ParamDistribution

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def columns(self) -> SimpleNamespace:
        """The draws as one array per `ModelParams` field (views of the
        matrix), the form the functions of `thresholds` take for a whole
        design at once."""
        return SimpleNamespace(**dict(zip(PARAM_ORDER, self.matrix.T)))

    @cached_property
    def thresholds(self) -> ThresholdReport:
        """`threshold_arrays` over every draw, computed on first use and
        shared by `r0_values` and `condition_probabilities`; its arrays
        are read-only.  Raises `ThresholdError` at the first draw whose
        R0 is not finite, which would otherwise drop out of the
        histogram and turn the mean and spread into NaN."""
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            rep = threshold_arrays(self.columns())
        bad = np.flatnonzero(~np.isfinite(rep.r0))
        if bad.size:
            raise ThresholdError(
                f"R0 is {rep.r0[bad[0]]} at draw {bad[0]} of the design; it "
                f"is not finite at {bad.size} of {self.n} draws")
        for f in fields(rep):
            np.asarray(getattr(rep, f.name)).flags.writeable = False
        return rep


@dataclass(frozen=True)
class PRCCReport:
    """PRCC per active parameter.  `sorted_columns` names the parameter
    columns whose ranks could not be read off their LHS strata and were
    found by sorting (`average_ranks`)."""

    coefficients: dict
    excluded: tuple
    sorted_columns: tuple


def lhs_sample(dist: ParamDistribution, n: int, seed: int) -> SampleSet:
    """Stratified uniform design: each range is split into n equal
    strata with one draw per stratum, stratum order independently
    permuted per parameter.  Fully determined by the seed.

    Raises `ParamError` if any draw is outside the parameter domain.
    Every domain is an interval, so checking the column minima and
    maxima checks every draw."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    design = np.empty((len(PARAM_ORDER), n))  # one contiguous row per column
    for row, name in zip(design, PARAM_ORDER):
        lo, hi = dist.ranges[name]
        # lo + (hi - lo) * ((perm + u) / n), step by step in the row.
        perm = rng.permutation(n)
        rng.random(out=row)
        np.add(perm, row, out=row)
        row /= n
        row *= hi - lo
        row += lo
    for extreme in (design.min(axis=1), design.max(axis=1)):
        ModelParams(**dict(zip(PARAM_ORDER, extreme.tolist())))
    design.flags.writeable = False
    return SampleSet(matrix=design.T, distribution=dist)


def r0_values(samples: SampleSet) -> np.ndarray:
    """R0 of every draw, as `bifurcation_thresholds(p).r0` gives it (0
    when the vector population does not establish), in one array pass;
    the read-only array of the design's `thresholds`."""
    return samples.thresholds.r0


def r0_distribution(samples: SampleSet) -> dict:
    """Summary statistics and a histogram of R0 over the draws, in 50
    equal bins from 0 to the largest draw."""
    values = r0_values(samples)
    top = float(values.max())
    edges = np.linspace(0.0, top if top > 0 else 1.0, 51)
    counts, _ = np.histogram(values, bins=edges)
    return {
        "mean": float(values.mean()),
        "std": float(values.std()),
        "p_ge_1": float(np.mean(values >= 1.0)),
        "histogram": {"edges": edges, "counts": counts},
        "values": values,
    }


def condition_probabilities(samples: SampleSet) -> dict:
    """Empirical frequencies of the equilibrium regimes.

    two_endemic_low / two_endemic_high are the two sub-cases of the
    two-equilibria window below R0 = 1; the three top-level events
    (no vectors / subcritical / supercritical) partition the draws.
    """
    n = samples.n
    rep = samples.thresholds
    vectors = rep.r0_defined
    supercritical = vectors & (rep.r0 >= 1.0)
    subcritical = vectors & ~supercritical
    low, high = two_endemic_windows(rep)
    low &= subcritical
    high &= subcritical & ~low
    trivial, sub, sup, two_low, two_high = (
        int(np.count_nonzero(m))
        for m in (~vectors, subcritical, supercritical, low, high))
    return {
        "p_no_vectors": trivial / n,
        "p_vectors": (sub + sup) / n,
        "p_subcritical": sub / n,
        "p_supercritical": sup / n,
        "p_two_endemic_low": two_low / n,
        "p_two_endemic_high": two_high / n,
        "p_two_endemic": (two_low + two_high) / n,
        "p_no_endemic_subcritical": (sub - two_low - two_high) / n,
    }


def average_ranks(values) -> np.ndarray:
    """1-based ranks of a 1-D array; tied values share the mean of the
    positions they occupy (so [3, 1, 3, 2] ranks as [3.5, 1, 3.5, 2])."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values)  # any order within a tie group gives the same ranks
    ordered = values[order]
    first = np.r_[True, ordered[1:] != ordered[:-1]]
    starts = np.flatnonzero(first)
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = (0.5 * (starts + 1 + ends))[np.cumsum(first) - 1]
    return ranks


def _stratum_ranks(col: np.ndarray, lo: float, hi: float) -> np.ndarray | None:
    """The strata 0..n-1 of an LHS column, as floats, or None when they
    cannot be certified equal to its `average_ranks` less one.

    A draw x falls in stratum floor((x - lo) n / (hi - lo)), clipped to
    [0, n - 1].  Subtraction, multiplication, division by a positive
    number, the clip and floor are each monotone non-decreasing in IEEE
    arithmetic, so for finite values a lower stratum means a smaller
    draw.  When the strata of a finite column form a permutation, the
    draws therefore strictly increase in stratum order, and each draw's
    stratum is its rank less one.  Rounding that puts two draws in one
    stratum, a non-finite draw or a hand-built column gets None.  The
    clip comes before the integer cast, so a huge finite draw cannot
    wrap around."""
    n = col.size
    with np.errstate(over="ignore"):  # the finite check refuses overflow
        scaled = np.subtract(col, lo, dtype=float)
        scaled *= n
        scaled /= hi - lo
    if not np.isfinite(scaled).all():
        return None
    np.clip(scaled, 0, n - 1, out=scaled)
    strata = np.floor(scaled, out=scaled)
    seen = np.zeros(n, dtype=bool)
    seen[strata.astype(np.intp)] = True
    if not seen.all():
        return None
    return strata


def prcc(samples: SampleSet, outputs) -> PRCCReport:
    """Partial rank correlation of each parameter against the output.

    All columns are rank-transformed (average ranks on ties).  A
    parameter column's ranks are its LHS stratum indices plus one where
    `_stratum_ranks` certifies them; any other column is sorted
    (`average_ranks`), logged and listed in `sorted_columns`.  The
    coefficient for parameter j is the Pearson correlation of the
    residuals left after regressing its ranks and the output ranks on
    all other parameters' ranks.  By Frisch-Waugh this equals
    -P[j, y] / sqrt(P[j, j] P[y, y]) with P the inverse of the rank
    correlation matrix, so one inverse gives every coefficient.
    Degenerate-range columns are excluded; a constant output or other
    column raises `SingularSampleError` before any column is sorted.
    """
    outputs = np.asarray(outputs, dtype=float)
    n = samples.n
    if outputs.shape != (n,):
        raise ValueError(f"outputs shape {outputs.shape} != ({n},)")
    ranges = samples.distribution.ranges
    excluded = tuple(name for name in PARAM_ORDER
                     if ranges[name][0] == ranges[name][1])
    active = [j for j, name in enumerate(PARAM_ORDER) if name not in excluded]
    if n <= len(active) + 2:
        raise ValueError(f"need n > {len(active) + 2} samples, got {n}")

    # One contiguous row of centred ranks per active parameter, the
    # output's last: np.corrcoef's centring, done in place on the buffer
    # rather than on the copy corrcoef makes; the result is bitwise the
    # same.  Certified strata 0..n-1 are the ranks 1..n, whose mean
    # (n + 1) / 2 is exact, so they are centred by subtracting (n - 1) / 2.
    ranks = np.empty((len(active) + 1, n))
    unranked = []
    for row, j in zip(ranks, active):
        strata = _stratum_ranks(samples.matrix[:, j], *ranges[PARAM_ORDER[j]])
        if strata is None:
            unranked.append((row, j))
        else:
            np.subtract(strata, (n - 1) / 2, out=row)
    # A certified column is a permutation of its strata, so only an
    # unranked one, or the output, can be constant.
    for what, col in [*((f"parameter {PARAM_ORDER[j]}", samples.matrix[:, j])
                        for _, j in unranked), ("the output", outputs)]:
        if np.all(col == col[0]):
            raise SingularSampleError(f"{what} is constant over the sample")
    sorted_columns = []
    for row, j in unranked:
        name = PARAM_ORDER[j]
        _log.warning("PRCC: %s is not ranked by its LHS strata; "
                     "sorting it", name)
        sorted_columns.append(name)
        row[:] = average_ranks(samples.matrix[:, j])
        row -= row.mean()
    ranks[-1] = average_ranks(outputs)
    ranks[-1] -= ranks[-1].mean()
    corr = ranks @ ranks.T
    corr *= 1.0 / (n - 1)
    stddev = np.sqrt(np.diag(corr))
    corr /= stddev[:, None]
    corr /= stddev[None, :]
    np.clip(corr, -1.0, 1.0, out=corr)
    try:
        inv = np.linalg.inv(corr)
    except np.linalg.LinAlgError:
        raise SingularSampleError(
            f"the rank correlation matrix of the {len(active)} active "
            f"parameters and the output is singular over {n} draws") from None
    coeffs = -inv[:-1, -1] / np.sqrt(np.diag(inv)[:-1] * inv[-1, -1])
    return PRCCReport(
        coefficients={PARAM_ORDER[j]: float(c) for j, c in zip(active, coeffs)},
        excluded=excluded, sorted_columns=tuple(sorted_columns))


def prcc_to_csv(report: PRCCReport, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("parameter,prcc\n")
        for name, value in report.coefficients.items():
            f.write(f"{name},{value:.17g}\n")


def histogram_to_csv(hist: dict, path) -> None:
    edges = hist["edges"]
    counts = hist["counts"]
    with open(path, "w", encoding="utf-8") as f:
        f.write("bin_lo,bin_hi,count\n")
        for i, c in enumerate(counts):
            f.write(f"{edges[i]:.17g},{edges[i + 1]:.17g},{int(c)}\n")
