"""Endemic quadratic, back-substitution, classification, and scans."""

import dataclasses
import math

import numpy as np
import pytest

import arbo.equilibria
from arbo.equilibria import (
    Classification, ResidualError, ScanRow, bifurcation_scan,
    delta_zero_check, endemic_quadratic, is_double_root, scan_to_csv,
    solve_endemic,
)
from arbo.model import (
    E_H, I_H, I_V, PUP, S_H, S_V, ModelParams, ParamError, basic_field,
    derive_constants,
)
from arbo.sensitivity import PARAM_ORDER, lhs_sample
from arbo.stability import eigen_verdict
from arbo.thresholds import (
    ThresholdError, bifurcation_thresholds, dfe_components,
    net_reproductive_number, threshold_arrays,
)
from conftest import mixed_regime_ranges, random_established_params


def test_quadratic_requires_vectors(table5):
    """[TRIVIAL] No established vector population, no endemic quadratic."""
    p = dataclasses.replace(table5.params, mu_b=0.1)
    with pytest.raises(ThresholdError):
        endemic_quadratic(p)


def test_d0_sign_tracks_r0():
    """[TRIVIAL] d0 is a positive multiple of R0^2 - 1."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = random_established_params(rng)
        rep = bifurcation_thresholds(p)
        q = endemic_quadratic(p)
        assert (q.d0 > 0) == (rep.r0 > 1.0)


def test_d0_vanishes_at_transcritical(sec22):
    """[TRIVIAL] beta_hv = beta* makes the constant coefficient zero."""
    rep = bifurcation_thresholds(sec22.params)
    p = dataclasses.replace(sec22.params, beta_hv=rep.beta_star)
    q = endemic_quadratic(p)
    assert abs(q.d0) <= 1e-12 * abs(q.d1)


def test_d1_sign_tracks_r0_vs_rc():
    """[TRIVIAL] d1 factors through R0^2 - R_c^2."""
    rng = np.random.default_rng(9)
    for _ in range(50):
        p = random_established_params(rng)
        rep = bifurcation_thresholds(p)
        q = endemic_quadratic(p)
        assert (q.d1 > 0) == (rep.r0 > rep.r_c)


def test_residual_failure_is_reported_alike(sec22, monkeypatch):
    """[TRIVIAL] With a zero residual tolerance, `solve_endemic` raises
    `ResidualError` and the scan writes an error row, with one message."""
    monkeypatch.setattr(arbo.equilibria, "_RESIDUAL_RTOL", 0.0)
    p = dataclasses.replace(sec22.params, beta_hv=0.08)
    with pytest.raises(ResidualError) as exc:
        solve_endemic(p)
    message = str(exc.value)
    assert message.startswith("endemic point at lambda_h=0.000307189 has "
                              "field residual ")
    assert message.endswith(" > 0")
    (row,) = bifurcation_scan(p, "beta_hv", 0.08, 0.08, 0)
    assert row.error == message
    assert row.branch_id == -1


@pytest.mark.filterwarnings("error")
def test_non_finite_endemic_point_is_refused_alike(table5):
    """[TRIVIAL] A gamma_v of 1e308 overflows the endemic I_v to infinity,
    whose residual (infinite) no longer passes its tolerance (infinite
    too): `solve_endemic` raises `ResidualError` and the scan writes an
    error row, with one message.  numpy does not warn of the overflow on
    the way."""
    p = dataclasses.replace(table5.params, gamma_v=1e308)
    with pytest.raises(ResidualError) as exc:
        solve_endemic(p)
    (row,) = bifurcation_scan(p, "gamma_v", 1e308, 1e308, 0)
    message = str(exc.value)
    assert message == "endemic point at lambda_h=0.000900606 is not finite"
    assert row.error == message
    assert row.branch_id == -1


@pytest.mark.filterwarnings("error")
def test_underflowing_human_population_is_refused_alike(table5):
    """[TRIVIAL] lambda_h_in = 1e-320 and mu_h = 1e10 underflow the
    disease-free human population to 0, so K_vh divides by zero:
    `bifurcation_thresholds` and `solve_endemic` raise `ThresholdError`
    naming K_vh and the scan writes that error row, with no numpy warning
    on the way."""
    p = dataclasses.replace(table5.params, lambda_h_in=1e-320, mu_h=1e10)
    for refuse in (bifurcation_thresholds, solve_endemic):
        with pytest.raises(ThresholdError, match="^K_vh is inf$"):
            refuse(p)
    (row,) = bifurcation_scan(p, "beta_hv", p.beta_hv, p.beta_hv, 0)
    assert row.error == "K_vh is inf"


def test_no_endemic_without_transmission(table5):
    """[TRIVIAL] beta_hv = 0 leaves only the disease-free points."""
    p = dataclasses.replace(table5.params, beta_hv=0.0)
    eq = solve_endemic(p)
    assert eq.classification is Classification.NO_ENDEMIC
    assert eq.endemic == []


def test_no_endemic_without_vector_infection(table5):
    """[TRIVIAL] beta_vh = 0 gives R0 = 0 and beta* = inf, and leaves only
    the disease-free points, with or without established vectors."""
    p = dataclasses.replace(table5.params, beta_vh=0.0)
    rep = bifurcation_thresholds(p)
    assert rep.r0 == 0.0 and rep.beta_star == np.inf
    assert solve_endemic(p).endemic == []
    assert solve_endemic(dataclasses.replace(p, mu_b=0.1)).case == "N<=1"


def test_unique_endemic_supercritical(table5):
    """[DERIVED] R0 > 1 yields one endemic point satisfying the
    closed-form equilibrium identities."""
    p = table5.params
    eq = solve_endemic(p, stability_checker=lambda x: eigen_verdict(x, p).stable)
    assert eq.classification is Classification.UNIQUE
    assert eq.case == "i"
    assert len(eq.endemic) == 1
    x, lam, stable = eq.endemic[0]
    k = derive_constants(p)
    # Force-of-infection identity and vector balance.
    assert lam == pytest.approx(k.k3 * x[E_H] / x[S_H], rel=1e-9)
    n_h = x[:4].sum()
    lam_v = p.a * p.beta_vh * (p.eta_h * x[E_H] + x[I_H]) / n_h
    assert x[S_V] == pytest.approx(p.theta * x[PUP] / (lam_v + k.k8), rel=1e-9)
    assert stable is True
    residual = np.max(np.abs(basic_field(x, p)))
    assert residual <= 1e-8 * max(1.0, np.max(np.abs(x)))


def test_two_endemic_window(sec22):
    """[DERIVED] Inside the saddle-node window the quadratic yields a
    stable/unstable pair, the lower branch unstable."""
    p = dataclasses.replace(sec22.params, beta_hv=0.1)
    eq = solve_endemic(p, stability_checker=lambda x: eigen_verdict(x, p).stable)
    assert eq.classification is Classification.TWO
    assert eq.case == "iii-a"
    assert len(eq.endemic) == 2
    (x_lo, lam_lo, stable_lo), (x_hi, lam_hi, stable_hi) = eq.endemic
    assert lam_lo < lam_hi
    assert stable_lo is False and stable_hi is True
    assert x_lo[I_H] < x_hi[I_H]


def test_classification_subcritical_outside_window(sec22):
    """[DERIVED] Below the window: subcritical R0 with no endemic point."""
    eq = solve_endemic(sec22.params)
    assert eq.classification is Classification.NO_ENDEMIC
    assert eq.case == "iii-c"


def test_delta_zero_requires_delta_zero(table5):
    """[TRIVIAL] The reduced-model check refuses delta != 0."""
    with pytest.raises(ValueError):
        delta_zero_check(table5.params)


def test_delta_zero_root_matches_quadratic(table5):
    """[DERIVED] With delta = 0 the linear root equals the quadratic's
    unique positive root."""
    p = dataclasses.replace(table5.params, delta=0.0)
    assert net_reproductive_number(p) > 1.0
    res = delta_zero_check(p)
    eq = solve_endemic(p)
    assert len(eq.endemic) == 1
    assert res["no_endemic"] is False
    assert res["lambda_root"] == pytest.approx(eq.endemic[0][1], rel=1e-8)


def test_delta_zero_subcritical_has_no_endemic(sec22):
    """[DERIVED] delta = 0 and R0 < 1 leaves no positive root."""
    p = dataclasses.replace(sec22.params, delta=0.0)
    if net_reproductive_number(p) <= 1.0:
        pytest.skip("vector population not established")
    rep = bifurcation_thresholds(p)
    if rep.r0 >= 1.0:
        pytest.skip("not subcritical without disease mortality")
    res = delta_zero_check(p)
    assert res["no_endemic"] is True


@pytest.mark.parametrize("factor", [1 - 1e-13, 1.0, 1 + 1e-13, 1 + 1e-9])
def test_delta_zero_agrees_with_solve_endemic_at_r0_one(table5, factor):
    """[DERIVED] At and next to beta* the linear check reads R0 = 1 by the
    band of `solve_endemic`: inside it (case ii, R_c > 1 when delta = 0)
    neither has an endemic point, just above it both have one."""
    p = dataclasses.replace(table5.params, delta=0.0)
    p = dataclasses.replace(
        p, beta_hv=bifurcation_thresholds(p).beta_star * factor)
    res = delta_zero_check(p)
    assert res["no_endemic"] == (len(solve_endemic(p).endemic) == 0)


def test_scan_dfe_only_at_zero_transmission(sec22):
    """[TRIVIAL] beta_hv = 0 rows carry only the DFE branch."""
    rows = bifurcation_scan(sec22.params, "beta_hv", 0.0, 0.0, 0)
    assert all(r.branch_id == 0 for r in rows)


def test_scan_branch_birth_matches_thresholds(sec22):
    """[DERIVED] The two-endemic window opens at beta_plus in the scan."""
    rep = bifurcation_thresholds(sec22.params)
    lo, hi, steps = 0.0, 0.0877, 500
    cell = (hi - lo) / steps
    rows = bifurcation_scan(sec22.params, "beta_hv", lo, hi, steps)
    count = {}
    for r in rows:
        if r.branch_id >= 1:
            count[r.param_value] = count.get(r.param_value, 0) + 1
    two = sorted(v for v, c in count.items() if c == 2)
    assert two, "no two-endemic rows in the scan"
    assert abs(two[0] - rep.beta_plus) <= cell


def test_scan_handles_collapsed_vector_population(table5):
    """[TRIVIAL] Rows with N <= 1 report the trivial regime, no aborts."""
    rows = bifurcation_scan(table5.params, "mu_b", 0.05, 6.0, 20)
    assert any(r.r0 == 0.0 and r.branch_id == 0 for r in rows)
    assert any(r.branch_id == 1 for r in rows)
    assert all(r.error is None for r in rows)


def test_scan_rejects_unknown_parameter(table5):
    """[TRIVIAL] Typos in the scan parameter fail fast."""
    with pytest.raises(ValueError):
        bifurcation_scan(table5.params, "beta_xy", 0.0, 1.0, 10)


def test_scan_stability_uses_each_points_parameters(sec22):
    """[DERIVED] Every row's stable flag is the eigenvalue verdict of its
    equilibrium under the parameters of its own grid point, not those of
    the base point."""
    rows = bifurcation_scan(sec22.params, "beta_hv", 0.05, 0.5, 10,
                            stability=True)
    assert len({r.param_value for r in rows}) == 11
    for r in rows:
        assert r.error is None
        pv = dataclasses.replace(sec22.params, beta_hv=r.param_value)
        if r.branch_id == 0:
            x = dfe_components(pv)
        else:
            x = solve_endemic(pv).endemic[r.branch_id - 1][0]
        assert r.stable == int(bool(eigen_verdict(x, pv).stable)), r


@pytest.mark.parametrize("scenario, param, lo, hi, steps", [
    ("sec22", "beta_hv", 0.0, 0.0877, 100),
    ("table5", "mu_b", 0.05, 6.0, 40),
])
def test_scan_rows_match_per_point_solves(request, scenario, param, lo, hi, steps):
    """[DERIVED] Every scan row equals what an independent per-point route
    gives: R0 from the threshold report, the residual from the field at
    the solved point, and one row for the DFE plus one per endemic point."""
    base = request.getfixturevalue(scenario).params
    rows = bifurcation_scan(base, param, lo, hi, steps)
    by_value = {}
    for r in rows:
        assert r.error is None
        by_value.setdefault(r.param_value, []).append(r)
    assert len(by_value) == steps + 1
    established = 0
    for value, group in by_value.items():
        pv = dataclasses.replace(base, **{param: value})
        eq = solve_endemic(pv)
        assert [r.branch_id for r in group] == list(range(1 + len(eq.endemic)))
        if net_reproductive_number(pv) <= 1.0:
            assert group[0].r0 == 0.0 and group[0].residual == 0.0
            continue
        established += 1
        r0 = bifurcation_thresholds(pv).r0
        assert all(r.r0 == r0 for r in group)
        for r, (x, _, _) in zip(group[1:], eq.endemic):
            assert r.residual == float(np.max(np.abs(basic_field(x, pv))))
            assert (r.i_h, r.i_v) == (x[I_H], x[I_V])
    if param == "mu_b":
        assert 0 < established < steps + 1  # the grid crosses N = 1


def _per_point_scan(p, param_name, lo, hi, steps, stability=False):
    """The reference route: per grid point, one `dataclasses.replace`, one
    `solve_endemic` and one `eigen_verdict` per equilibrium, under the
    parameters of that point."""
    def flag(x, pv):
        if not stability:
            return None
        return eigen_verdict(x, pv).stable

    rows = []
    for value in np.linspace(lo, hi, steps + 1):
        value = float(value)
        try:
            pv = dataclasses.replace(p, **{param_name: value})
            eq = solve_endemic(pv, stability_checker=lambda x: flag(x, pv))
        except (ParamError, ThresholdError, ArithmeticError) as exc:
            rows.append(ScanRow(value, math.nan, -1, math.nan, math.nan, None,
                                math.nan, error=str(exc)))
            continue
        dfe = eq.dfe_biological
        if dfe is None:  # N <= 1
            rows.append(ScanRow(value, 0.0, 0, 0.0, 0.0, None, 0.0))
            continue
        r0 = bifurcation_thresholds(pv).r0
        dfe_res = float(np.max(np.abs(basic_field(dfe, pv))))
        rows.append(ScanRow(value, r0, 0, 0.0, 0.0, flag(dfe, pv), dfe_res))
        for branch, ((x, _, stable), res) in enumerate(
                zip(eq.endemic, eq.residuals), start=1):
            rows.append(ScanRow(value, r0, branch, float(x[I_H]),
                                float(x[I_V]), stable, res))
    return rows


@pytest.mark.parametrize("scenario, param, lo, hi, steps", [
    ("sec22", "beta_hv", 0.0, 0.0877, 500),
    ("table5", "mu_b", 0.05, 6.0, 40),   # crosses N = 1
    ("table5", "eta_h", 0.5, 1.5, 20),   # eta_h >= 1 is invalid
])
def test_scan_equals_per_point_reference(request, scenario, param, lo, hi,
                                         steps):
    """[TRIVIAL] The array scan gives the reference route's rows, flags
    and error messages, row for row and bitwise (repr of a float is
    exact)."""
    base = request.getfixturevalue(scenario).params
    rows = bifurcation_scan(base, param, lo, hi, steps, stability=True)
    ref = _per_point_scan(base, param, lo, hi, steps, stability=True)
    assert [repr(r) for r in rows] == [repr(r) for r in ref]
    kinds = {(r.branch_id > 0, r.stable, r.error is not None) for r in rows}
    if param == "mu_b":
        assert any(r.r0 == 0.0 for r in rows) and (True, True, False) in kinds
    if param == "eta_h":
        assert sum(r.error is not None for r in rows) == 11  # 1.0, ..., 1.5
        assert rows[-1].error.startswith("invalid parameters: eta_h must be")


def test_scan_at_transcritical_point_is_marginal(sec22, tmp_path):
    """[DERIVED] At beta_hv = beta* the DFE has a zero eigenvalue: its
    verdict is marginal, the row's flag unknown, and the CSV writes 0."""
    beta = bifurcation_thresholds(sec22.params).beta_star
    rows = bifurcation_scan(sec22.params, "beta_hv", beta, beta, 0,
                            stability=True)
    assert rows[0].branch_id == 0 and rows[0].stable is None
    pv = dataclasses.replace(sec22.params, beta_hv=beta)
    verdict = eigen_verdict(dfe_components(pv), pv)
    assert verdict.stable is None and abs(verdict.eigen_max_real) < 1e-12
    out = tmp_path / "scan.csv"
    scan_to_csv(rows, out)
    assert out.read_text().splitlines()[1].split(",")[5] == "0"


def test_two_endemic_window_at_high_resolution(sec22):
    """[DERIVED] A 10^5-point scan puts the two-endemic window's edges
    within one cell of beta_plus and beta_star, the README's accounting,
    and no grid point next to the fold fails the residual check."""
    rep = bifurcation_thresholds(sec22.params)
    lo, hi, steps = 0.0, 0.6, 100_000
    cell = (hi - lo) / steps
    rows = bifurcation_scan(sec22.params, "beta_hv", lo, hi, steps)
    count = {}
    for r in rows:
        if r.branch_id >= 1:
            count[r.param_value] = count.get(r.param_value, 0) + 1
    two = sorted(v for v, c in count.items() if c == 2)
    assert abs(two[0] - rep.beta_plus) <= cell
    assert abs(two[-1] - rep.beta_star) <= cell
    assert [r for r in rows if r.error is not None] == []


@pytest.mark.parametrize("beta_hv", [0.037524, 0.0375276, 0.03753])
def test_classification_next_to_the_fold_follows_the_discriminant(sec22, beta_hv):
    """[DERIVED] A few grid cells either side of beta_plus, the root
    count follows the discriminant's sign: below the fold (negative, far
    above its rounding level) there is no endemic point and no false
    double root failing the residual check; above it there are two."""
    p = dataclasses.replace(sec22.params, beta_hv=beta_hv)
    eq = solve_endemic(p)
    disc = eq.quadratic.discriminant
    scale = max(eq.quadratic.d1 ** 2, abs(4.0 * eq.quadratic.d2 * eq.quadratic.d0))
    assert abs(disc) > 1e-9 * scale
    if disc < 0.0:
        assert (eq.classification, eq.case) == (Classification.NO_ENDEMIC, "iii-c")
        assert eq.endemic == []
    else:
        assert (eq.classification, eq.case) == (Classification.TWO, "iii-a")
        assert len(eq.endemic) == 2


def test_double_root_at_the_fold(sec22):
    """[DERIVED] At beta_plus itself the discriminant is zero up to its
    rounding: one endemic point, the double root, which passes the
    residual check (case iii-b)."""
    beta = bifurcation_thresholds(sec22.params).beta_plus
    eq = solve_endemic(dataclasses.replace(sec22.params, beta_hv=beta))
    assert (eq.classification, eq.case) == (Classification.UNIQUE, "iii-b")
    assert len(eq.endemic) == 1


def test_saddle_node_bounds_are_the_folds_of_the_quadratic(sec22):
    """[DERIVED] beta_minus and beta_plus are where the endemic quadratic
    has a double root (its discriminant zero up to its rounding level).
    On sec. 2.2 at both, with the vertex -d1 / (2 d2) at -0.0022753 and
    +0.0021935.  At beta_minus on every one of 2,000 mixed-regime draws
    with established vectors and psi <= 0, where the vertex is negative:
    the low fold is never biological."""
    rep = bifurcation_thresholds(sec22.params)
    for beta, vertex in ((rep.beta_minus, -0.0022753),
                         (rep.beta_plus, 0.0021935)):
        q = endemic_quadratic(dataclasses.replace(sec22.params, beta_hv=beta))
        assert is_double_root(q)
        assert -q.d1 / (2.0 * q.d2) == pytest.approx(vertex, abs=5e-8)
    samples = lhs_sample(mixed_regime_ranges(), 2000, seed=3)
    reps = threshold_arrays(samples.columns())
    rows = np.flatnonzero(reps.r0_defined & (reps.psi <= 0.0))
    assert rows.size > 1800
    for i in rows.tolist():
        p = ModelParams(**dict(zip(PARAM_ORDER, samples.matrix[i].tolist())))
        q = endemic_quadratic(dataclasses.replace(
            p, beta_hv=reps.beta_minus[i].item()))
        assert is_double_root(q), i
        assert -q.d1 / (2.0 * q.d2) < 0.0, i


def _endemic_cases(p, betas):
    """The classification cases met over `betas`, checking at each that
    the number of endemic points is the classified count."""
    count = {Classification.NO_ENDEMIC: 0, Classification.UNIQUE: 1,
             Classification.TWO: 2}
    cases = set()
    for beta in betas.tolist():
        eq = solve_endemic(dataclasses.replace(p, beta_hv=beta))
        assert len(eq.endemic) == count[eq.classification], (beta, eq.case)
        cases.add(eq.case)
    return cases


def _either_side(x, n):
    offsets = np.logspace(-13, -9, n)
    return x * np.concatenate([1.0 - offsets, 1.0 + offsets])


def test_endemic_count_matches_classification_at_the_boundaries(sec22, table5):
    """[DERIVED] The classification and the roots decide each boundary of
    the endemic count by the same rule, so len(endemic) is the classified
    count: on sec. 2.2 at each of the 401 floats from 200 ulps below the
    fold beta_plus to 200 above, and at relative offsets 1e-13 ... 1e-9
    either side of beta_star (R0 = 1); on Table 5, where R_c > 1 leaves
    no endemic point at R0 = 1, either side of its beta_star."""
    rep = bifurcation_thresholds(sec22.params)
    # Adjacent positive floats have adjacent bit patterns.
    fold = (np.float64(rep.beta_plus).view(np.int64)
            + np.arange(-200, 201)).view(np.float64)
    betas = np.concatenate([fold, _either_side(rep.beta_star, 100)])
    assert _endemic_cases(sec22.params, betas) == {
        "i", "ii", "iii-a", "iii-b", "iii-c"}
    beta_star = bifurcation_thresholds(table5.params).beta_star
    assert _endemic_cases(table5.params, _either_side(beta_star, 10)) == {
        "i", "ii", "iii-c"}
