"""Latin hypercube design, R0 statistics, and PRCC machinery."""

import dataclasses
import logging
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import arbo.sensitivity
from arbo.model import ModelParams, ParamError
from arbo.sensitivity import (
    PARAM_ORDER, ParamDistribution, RangeError, SampleSet, SingularSampleError,
    _stratum_ranks, average_ranks, baseline_ranges, condition_probabilities,
    histogram_to_csv, lhs_sample, prcc, prcc_to_csv, r0_distribution,
    r0_values,
)
from arbo.thresholds import (
    ThresholdError, bifurcation_thresholds, net_reproductive_number,
    threshold_arrays,
)
from conftest import load_fixture, mixed_regime_ranges, random_params


def _ranges(**overrides):
    base = dict(baseline_ranges().ranges)
    base.update(overrides)
    return ParamDistribution(base)


def test_distribution_validation():
    """[TRIVIAL] Unknown, missing, and inverted ranges are rejected."""
    with pytest.raises(RangeError):
        ParamDistribution({"not_a_param": (0.0, 1.0)})
    incomplete = dict(baseline_ranges().ranges)
    incomplete.pop("mu_v")
    with pytest.raises(RangeError):
        ParamDistribution(incomplete)
    with pytest.raises(RangeError):
        _ranges(mu_v=(0.5, 0.1))


def test_lhs_stratification():
    """[DERIVED] Exactly one draw per equal-width stratum per parameter."""
    n = 40
    samples = lhs_sample(baseline_ranges(), n, seed=1)
    for j, name in enumerate(PARAM_ORDER):
        lo, hi = baseline_ranges().ranges[name]
        strata = np.floor((samples.matrix[:, j] - lo) / (hi - lo) * n)
        assert sorted(strata.astype(int)) == list(range(n))


def test_lhs_determinism():
    """[TRIVIAL] Same seed, same design; different seed, different design."""
    a = lhs_sample(baseline_ranges(), 20, seed=42)
    b = lhs_sample(baseline_ranges(), 20, seed=42)
    c = lhs_sample(baseline_ranges(), 20, seed=43)
    assert np.all(a.matrix == b.matrix)
    assert not np.all(a.matrix == c.matrix)


def test_lhs_rejects_tiny_sample():
    """[TRIVIAL] Single-row designs are meaningless."""
    with pytest.raises(ValueError):
        lhs_sample(baseline_ranges(), 1, seed=0)


def test_degenerate_range_is_constant():
    """[TRIVIAL] A collapsed range produces a constant column."""
    dist = _ranges(delta=(1e-3, 1e-3))
    samples = lhs_sample(dist, 10, seed=2)
    j = PARAM_ORDER.index("delta")
    assert np.all(samples.matrix[:, j] == 1e-3)


def test_r0_zero_when_no_vectors():
    """[TRIVIAL] N <= 1 maps to R0 = 0 by convention."""
    rng = np.random.default_rng(25)
    p = random_params(rng, mu_b=5.2, theta=0.02, s=0.4, l=0.2,
                      mu_v=1.0 / 14.0, mu_E=0.4, mu_L=0.4, mu_P=0.55)
    assert net_reproductive_number(p) <= 1.0
    assert bifurcation_thresholds(p).r0 == 0.0


def test_distribution_summary_consistency():
    """[DERIVED] The 50 histogram counts and the tail probability agree
    with the raw values."""
    samples = lhs_sample(baseline_ranges(), 300, seed=3)
    stats = r0_distribution(samples)
    values = stats["values"]
    assert len(stats["histogram"]["counts"]) == 50
    assert stats["histogram"]["counts"].sum() == len(values)
    assert stats["p_ge_1"] == pytest.approx(np.mean(values >= 1.0))
    assert stats["mean"] == pytest.approx(values.mean())


def test_condition_probabilities_partition():
    """[DERIVED] Regime frequencies partition the sample."""
    samples = lhs_sample(baseline_ranges(), 300, seed=4)
    probs = condition_probabilities(samples)
    assert probs["p_no_vectors"] + probs["p_vectors"] == pytest.approx(1.0)
    assert probs["p_subcritical"] + probs["p_supercritical"] == \
        pytest.approx(probs["p_vectors"])
    assert probs["p_two_endemic"] <= probs["p_subcritical"] + 1e-12


def test_prcc_identifies_injected_dependence():
    """[DERIVED] Output equal to one parameter gives PRCC ~ 1 for it and
    small values elsewhere."""
    samples = lhs_sample(baseline_ranges(), 300, seed=5)
    j = PARAM_ORDER.index("beta_vh")
    report = prcc(samples, samples.matrix[:, j])
    assert report.coefficients["beta_vh"] > 0.99
    others = [abs(v) for k, v in report.coefficients.items() if k != "beta_vh"]
    assert max(others) < 0.25


def test_prcc_sign_flip():
    """[DERIVED] Output equal to minus a parameter flips the sign."""
    samples = lhs_sample(baseline_ranges(), 300, seed=6)
    j = PARAM_ORDER.index("mu_v")
    report = prcc(samples, -samples.matrix[:, j])
    assert report.coefficients["mu_v"] < -0.99


def test_prcc_excludes_degenerate_columns():
    """[TRIVIAL] Point ranges never enter the regression."""
    dist = _ranges(delta=(1e-3, 1e-3))
    samples = lhs_sample(dist, 100, seed=7)
    report = prcc(samples, r0_values(samples))
    assert "delta" in report.excluded
    assert "delta" not in report.coefficients


def test_prcc_input_validation():
    """[TRIVIAL] Output length and sample size are checked."""
    samples = lhs_sample(baseline_ranges(), 50, seed=8)
    with pytest.raises(ValueError):
        prcc(samples, np.zeros(10))
    small = lhs_sample(baseline_ranges(), 20, seed=9)
    with pytest.raises(ValueError):
        prcc(small, np.zeros(20))


def test_csv_emission(tmp_path):
    """[TRIVIAL] PRCC and histogram tables round-trip through CSV."""
    samples = lhs_sample(baseline_ranges(), 60, seed=10)
    outputs = r0_values(samples)
    report = prcc(samples, outputs)
    stats = r0_distribution(samples)

    prcc_path = tmp_path / "prcc.csv"
    prcc_to_csv(report, prcc_path)
    lines = prcc_path.read_text().strip().splitlines()
    assert lines[0] == "parameter,prcc"
    assert len(lines) == 1 + len(report.coefficients)

    hist_path = tmp_path / "hist.csv"
    histogram_to_csv(stats["histogram"], hist_path)
    rows = hist_path.read_text().strip().splitlines()
    assert rows[0] == "bin_lo,bin_hi,count"
    counts = [int(r.split(",")[2]) for r in rows[1:]]
    assert sum(counts) == 60


def test_average_ranks_ties():
    """[TRIVIAL] Hand-computed ranks: tied values share their mean rank."""
    assert average_ranks([3.0, 1.0, 3.0, 2.0]).tolist() == [3.5, 1.0, 3.5, 2.0]
    assert average_ranks([0.0, 0.0, 0.0, 5.0, -1.0]).tolist() == [3.0, 3.0, 3.0, 5.0, 1.0]
    assert average_ranks([2.0]).tolist() == [1.0]
    values = np.random.default_rng(15).integers(0, 10, 1000).astype(float)
    below = np.array([np.sum(values < v) for v in values])
    equal = np.array([np.sum(values == v) for v in values])
    assert average_ranks(values).tolist() == (below + (equal + 1) / 2).tolist()


def _draws(samples):
    return [ModelParams(**dict(zip(PARAM_ORDER, row))) for row in samples.matrix]


def test_r0_values_equal_per_draw_r0():
    """[DERIVED] The array pass gives, bit for bit, the R0 of each draw
    as `bifurcation_thresholds` computes it, including the R0 = 0 of
    N <= 1 draws."""
    for seed in (1, 7):
        samples = lhs_sample(mixed_regime_ranges(), 500, seed=seed)
        want = np.array([bifurcation_thresholds(p).r0
                         for p in _draws(samples)])
        got = r0_values(samples)
        assert np.count_nonzero(want == 0.0) > 0
        assert got.tobytes() == want.tobytes()


def test_condition_probabilities_equal_per_draw_classification():
    """[DERIVED] The regime frequencies equal a draw-by-draw
    classification from the scalar threshold reports; the low
    two-endemic window, empty for every parameter set, reads 0.0."""
    samples = lhs_sample(mixed_regime_ranges(), 500, seed=12)
    counts = dict.fromkeys(("none", "sub", "sup", "high"), 0)
    for p in _draws(samples):
        if net_reproductive_number(p) <= 1.0:
            counts["none"] += 1
            continue
        rep = bifurcation_thresholds(p)
        if rep.r0 >= 1.0:
            counts["sup"] += 1
            continue
        counts["sub"] += 1
        if not math.isnan(rep.r_2b) and max(rep.r_c, rep.r_2b) < rep.r0 < 1.0:
            counts["high"] += 1
    n = samples.n
    assert min(counts["none"], counts["sup"], counts["high"]) > 0
    assert condition_probabilities(samples) == {
        "p_no_vectors": counts["none"] / n,
        "p_vectors": (counts["sub"] + counts["sup"]) / n,
        "p_subcritical": counts["sub"] / n,
        "p_supercritical": counts["sup"] / n,
        "p_two_endemic_low": 0.0,
        "p_two_endemic_high": counts["high"] / n,
        "p_two_endemic": counts["high"] / n,
        "p_no_endemic_subcritical": (counts["sub"] - counts["high"]) / n,
    }


def test_prcc_equals_residual_regression():
    """[DERIVED] PRCC from the inverse correlation matrix equals the
    correlation of least-squares residuals, parameter by parameter."""
    samples = lhs_sample(baseline_ranges(), 400, seed=13)
    outputs = r0_values(samples)
    report = prcc(samples, outputs)
    ranks = np.column_stack([average_ranks(samples.matrix[:, j])
                             for j in range(len(PARAM_ORDER))])
    y = average_ranks(outputs)
    for j, name in enumerate(PARAM_ORDER):
        design = np.column_stack([np.ones(samples.n), np.delete(ranks, j, axis=1)])
        res_x = ranks[:, j] - design @ np.linalg.lstsq(design, ranks[:, j], rcond=None)[0]
        res_y = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
        want = res_x @ res_y / np.sqrt((res_x @ res_x) * (res_y @ res_y))
        assert abs(report.coefficients[name] - want) <= 1e-12, name


def test_lhs_rejects_out_of_domain_draws():
    """[TRIVIAL] A range reaching outside a parameter's domain raises
    the model's ParamError, naming the parameter."""
    with pytest.raises(ParamError, match="mu_v"):
        lhs_sample(_ranges(mu_v=(-0.1, 0.1)), 50, seed=14)
    with pytest.raises(ParamError, match="eta_h"):
        lhs_sample(_ranges(eta_h=(0.5, 1.5)), 50, seed=14)


def test_lhs_matrix_is_read_only_and_equals_row_major_loop():
    """[TRIVIAL] The column-major design holds, bitwise, what a row-major
    fill from the same RNG stream gives, and cannot be written to."""
    dist = _ranges(delta=(1e-3, 1e-3))
    n, seed = 257, 16
    samples = lhs_sample(dist, n, seed)
    rng = np.random.default_rng(seed)
    want = np.empty((n, len(PARAM_ORDER)))
    for j, name in enumerate(PARAM_ORDER):
        lo, hi = dist.ranges[name]
        perm = rng.permutation(n)
        quantiles = (perm + rng.random(n)) / n
        want[:, j] = lo + (hi - lo) * quantiles
    assert samples.matrix.shape == want.shape
    assert np.ascontiguousarray(samples.matrix).tobytes() == want.tobytes()
    assert not samples.matrix.flags.writeable
    with pytest.raises(ValueError):
        samples.matrix[0, 0] = 0.0
    columns = vars(samples.columns())
    assert all(np.shares_memory(col, samples.matrix) for col in columns.values())


def test_thresholds_are_computed_once_per_design(monkeypatch):
    """[TRIVIAL] R0 values, their distribution and the regime
    probabilities share one `threshold_arrays` pass, whose arrays equal
    a fresh pass bitwise and are read-only."""
    samples = lhs_sample(mixed_regime_ranges(), 500, seed=17)
    calls = []

    def counted(p):
        calls.append(p)
        return threshold_arrays(p)

    monkeypatch.setattr(arbo.sensitivity, "threshold_arrays", counted)
    values = r0_values(samples)
    stats = r0_distribution(samples)
    condition_probabilities(samples)
    assert len(calls) == 1
    assert stats["values"] is values
    fresh = threshold_arrays(samples.columns())
    for f in dataclasses.fields(fresh):
        got, want = getattr(samples.thresholds, f.name), getattr(fresh, f.name)
        assert got.tobytes() == want.tobytes(), f.name
        assert not got.flags.writeable, f.name


@pytest.mark.parametrize("n, seed", [(5000, 20260823), (20000, 1)])
def test_stratum_ranks_equal_average_ranks(n, seed):
    """[DERIVED] On the criterion-6 and benchmark designs every parameter
    column's strata, plus one, give bitwise the ranks sorting gives, so
    PRCC sorts none of them."""
    samples = lhs_sample(baseline_ranges(), n, seed)
    for j, name in enumerate(PARAM_ORDER):
        col = samples.matrix[:, j]
        strata = _stratum_ranks(col, *samples.distribution.ranges[name])
        assert strata is not None, name
        assert (strata + 1).tobytes() == average_ranks(col).tobytes(), name
    assert prcc(samples, r0_values(samples)).sorted_columns == ()


def test_stratum_ranks_refuse_a_nan_draw():
    """[TRIVIAL] Clipped, a NaN draw would fall in stratum 0, so the
    strata of [nan, .3, .5, .7, .9] on [0, 1] would form a permutation;
    the finite check refuses the column before the clip."""
    assert _stratum_ranks(np.array([np.nan, 0.3, 0.5, 0.7, 0.9]), 0.0, 1.0) is None


def test_stratum_ranks_refuse_a_huge_finite_draw():
    """[TRIVIAL] 1e300 on [0, 1] scales to a finite value beyond every
    integer.  Clipped before the integer cast, it shares the top stratum
    with 0.7, so the column is refused; cast first, it would wrap to the
    bottom stratum and be ranked [1, 2] (strata [0, 1])."""
    assert _stratum_ranks(np.array([1e300, 0.7]), 0.0, 1.0) is None


def test_prcc_sorts_a_column_whose_strata_tie(caplog):
    """[DERIVED] A hand-built design with one duplicated value: that
    column's strata are not a permutation, so PRCC sorts it, logs one
    WARNING naming it and lists it; the coefficients equal those from
    sorting every column."""
    samples = lhs_sample(baseline_ranges(), 300, seed=18)
    matrix = np.array(samples.matrix)
    j = PARAM_ORDER.index("mu_v")
    matrix[1, j] = matrix[0, j]
    tied = SampleSet(matrix=matrix, distribution=samples.distribution)
    outputs = r0_values(tied)
    with caplog.at_level(logging.WARNING, logger="arbo"):
        report = prcc(tied, outputs)
    assert report.sorted_columns == ("mu_v",)
    (record,) = [r for r in caplog.records if r.name == "arbo"]
    assert record.levelno == logging.WARNING and "mu_v" in record.getMessage()

    assert list(report.coefficients.values()) == _corrcoef_prcc(matrix, outputs)


def test_prcc_sorts_an_overflowing_column_without_a_warning():
    """[TRIVIAL] Gamma_E drawn from [1e300, 1e308] overflows when scaled to
    its strata.  The finite check refuses the column, which is sorted, and
    numpy's overflow warning stays silent, so a caller that turns warnings
    into errors still gets the coefficients."""
    samples = lhs_sample(_ranges(Gamma_E=(1e300, 1e308)), 500, seed=1)
    outputs = np.random.default_rng(0).random(500)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = prcc(samples, outputs)
    assert report.sorted_columns == ("Gamma_E",)
    assert list(report.coefficients.values()) == _corrcoef_prcc(
        samples.matrix, outputs)


def _corrcoef_prcc(matrix, outputs):
    """PRCC of every column of `matrix` built the direct way: sorted
    ranks stacked column by column, then `np.corrcoef` and its inverse."""
    ranks = np.column_stack([average_ranks(matrix[:, k])
                             for k in range(matrix.shape[1])]
                            + [average_ranks(outputs)])
    inv = np.linalg.inv(np.corrcoef(ranks, rowvar=False))
    return (-inv[:-1, -1] / np.sqrt(np.diag(inv)[:-1] * inv[-1, -1])).tolist()


@pytest.mark.parametrize("n, seed", [(5000, 20260823), (20000, 1)])
def test_prcc_equals_corrcoef_bitwise(n, seed):
    """[DERIVED] On the criterion-6 and benchmark designs, PRCC's
    in-place correlation of its one rank buffer gives, bitwise, the
    coefficients of `np.corrcoef` on a separately built rank matrix.
    Equality rests on numpy's `cov` steps and the BLAS summation order;
    CI prints both, so a failure here names the library that moved."""
    samples = lhs_sample(baseline_ranges(), n, seed)
    outputs = r0_values(samples)
    report = prcc(samples, outputs)
    assert list(report.coefficients.values()) == _corrcoef_prcc(
        samples.matrix, outputs)


def test_prcc_holds_one_rank_matrix():
    """[DERIVED] PRCC's traced peak is one (k+1, n) rank buffer plus
    O(n) temporaries: no second copy of the ranks, as `np.corrcoef`
    would make to centre them."""
    n = 50_000
    samples = lhs_sample(baseline_ranges(), n, seed=2)
    outputs = r0_values(samples)
    k = len(PARAM_ORDER)
    tracemalloc.start()
    try:
        prcc(samples, outputs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (k + 1 + 12) * n * 8, peak / (n * 8)


def test_prcc_refuses_a_constant_column(caplog):
    """[TRIVIAL] A constant column under a non-degenerate range makes the
    regression singular: PRCC raises `SingularSampleError` naming it,
    before any column is ranked (so no WARNING about its strata)."""
    samples = lhs_sample(baseline_ranges(), 100, seed=4)
    matrix = np.array(samples.matrix)
    j = PARAM_ORDER.index("gamma_v")
    matrix[:, j] = 0.25
    constant = SampleSet(matrix=matrix, distribution=samples.distribution)
    with caplog.at_level(logging.WARNING, logger="arbo"):
        with pytest.raises(SingularSampleError, match="gamma_v"):
            prcc(constant, r0_values(samples))
    assert not [r for r in caplog.records if r.name == "arbo"]


def test_prcc_refuses_a_constant_output(caplog):
    """[TRIVIAL] A constant output has no ranks to correlate: PRCC raises
    `SingularSampleError` naming it, and logs no WARNING about a tied
    column (mu_v, which it would sort), since it checks the output before
    it sorts any; numpy does not warn of the 0/0 it would divide."""
    samples = lhs_sample(baseline_ranges(), 100, seed=4)
    matrix = np.array(samples.matrix)
    tied = PARAM_ORDER.index("mu_v")
    matrix[1, tied] = matrix[0, tied]
    design = SampleSet(matrix=matrix, distribution=samples.distribution)
    with caplog.at_level(logging.WARNING, logger="arbo"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSampleError,
                               match="^the output is constant over the "
                                     "sample$"):
                prcc(design, np.zeros(design.n))
    assert not [r for r in caplog.records if r.name == "arbo"]


def test_prcc_refuses_a_constant_column_after_a_tied_one(caplog):
    """[TRIVIAL] A tied column (mu_v, sorted when ranked) comes before a
    constant one (gamma_v) in PARAM_ORDER: PRCC still raises
    `SingularSampleError` naming the constant column, and logs no
    WARNING about the tied one, since it checks every column before it
    sorts any."""
    samples = lhs_sample(baseline_ranges(), 100, seed=4)
    matrix = np.array(samples.matrix)
    tied, constant = PARAM_ORDER.index("mu_v"), PARAM_ORDER.index("gamma_v")
    assert tied < constant
    matrix[1, tied] = matrix[0, tied]
    matrix[:, constant] = 0.25
    design = SampleSet(matrix=matrix, distribution=samples.distribution)
    with caplog.at_level(logging.WARNING, logger="arbo"):
        with pytest.raises(SingularSampleError, match="gamma_v"):
            prcc(design, r0_values(samples))
    assert not [r for r in caplog.records if r.name == "arbo"]


@pytest.mark.parametrize("seed", [0, 1, 16, 20260823])
def test_lhs_equals_the_out_of_place_formula(seed):
    """[DERIVED] The design rows, filled in place, equal bitwise
    lo + (hi - lo) * ((perm + u) / n) computed out of place from the same
    RNG stream, with integer bounds, zero lower bounds and degenerate
    float and integer ranges among the baseline ones."""
    dist = _ranges(lambda_h_in=(2, 7), a=(0, 3), mu_b=(6, 6),
                   delta=(1e-3, 1e-3), eta_h=(0, 0.999))
    n = 313
    samples = lhs_sample(dist, n, seed)
    rng = np.random.default_rng(seed)
    for j, name in enumerate(PARAM_ORDER):
        lo, hi = dist.ranges[name]
        perm = rng.permutation(n)
        want = lo + (hi - lo) * ((perm + rng.random(n)) / n)
        assert samples.matrix[:, j].tobytes() == want.tobytes(), name


def test_a_non_finite_r0_is_refused():
    """[TRIVIAL] One draw with an egg capacity of 1e308 overflows the
    disease-free vector population, so its R0 is NaN: the design's
    threshold pass raises `ThresholdError` naming that draw, rather than
    letting it fall out of the histogram and turn the mean into NaN."""
    samples = lhs_sample(baseline_ranges(), 100, seed=3)
    matrix = np.array(samples.matrix)
    matrix[3, PARAM_ORDER.index("Gamma_E")] = 1e308
    design = SampleSet(matrix=matrix, distribution=samples.distribution)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ThresholdError, match=(
                r"^R0 is nan at draw 3 of the design; it is not finite at "
                r"1 of 100 draws$")):
            r0_values(design)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_threshold_is_refused_as_by_thresholds():
    """[TRIVIAL] Table 2's ranges with mu_h up to 2e154: at 662 of 2000
    draws R0 underflows to a finite 0 but R_c is NaN.  The design's
    threshold pass raises the `ThresholdError` naming R_c and its first
    such draw, the quantity that `bifurcation_thresholds` refuses that
    draw for, rather than counting those draws as subcritical without an
    endemic point.  No numpy warning on the way."""
    ranges = dict(load_fixture("table2_baseline")["sensitivity"]["ranges"])
    ranges["mu_h"] = [ranges["mu_h"][0], 2e154]
    samples = lhs_sample(ParamDistribution(ranges), 2000, seed=42)
    with pytest.raises(ThresholdError, match=(
            r"^R_c is nan at draw 1 of the design; it is not finite at 662 "
            r"of 2000 draws$")):
        condition_probabilities(samples)
    p = ModelParams(**dict(zip(PARAM_ORDER, samples.matrix[1].tolist())))
    with pytest.raises(ThresholdError, match=r"^R_c is nan$"):
        bifurcation_thresholds(p)


def _pinned_but(*names) -> ParamDistribution:
    """The baseline ranges with every parameter but `names` pinned to the
    lower end of its range."""
    return ParamDistribution({
        name: (lo, hi if name in names else lo)
        for name, (lo, hi) in baseline_ranges().ranges.items()})


def test_prcc_refuses_a_singular_rank_correlation_matrix():
    """[TRIVIAL] Six draws of three free parameters whose rank correlation
    matrix with the output is singular: PRCC raises `SingularSampleError`
    saying so, not numpy's bare `LinAlgError`."""
    samples = lhs_sample(_pinned_but("mu_h", "a", "mu_b"), 6, seed=1)
    with pytest.raises(SingularSampleError, match=(
            r"^the rank correlation matrix of the 3 active parameters and "
            r"the output is singular over 6 draws$")):
        prcc(samples, r0_values(samples))
