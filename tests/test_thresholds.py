"""Threshold quantities: persistence number, R0, and saddle-node bounds."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from arbo.model import S_H, S_V, basic_field, derive_constants, param_rows
from arbo.model import ModelParams
from arbo.sensitivity import PARAM_ORDER, baseline_ranges, lhs_sample
from arbo.thresholds import (
    ThresholdError, ThresholdReport, basic_reproduction_number,
    bifurcation_thresholds, dfe_components, net_reproductive_number,
    next_generation_matrices, threshold_arrays, two_endemic_window,
)
from conftest import mixed_regime_ranges, random_established_params, random_params


def test_net_reproductive_number_table5(table5):
    """[DERIVED] Hand arithmetic for the field-study parameter set."""
    assert net_reproductive_number(table5.params) == pytest.approx(
        12.963, abs=1e-3)


def test_net_reproductive_number_boundary(table5):
    """[TRIVIAL] mu_b chosen so that mu_b*theta*l*s = k5*k6*k7*k8 gives N=1."""
    p = table5.params
    k = derive_constants(p)
    mu_b_crit = k.k5 * k.k6 * k.k7 * k.k8 / (p.theta * p.l * p.s)
    p1 = dataclasses.replace(p, mu_b=mu_b_crit)
    assert net_reproductive_number(p1) == pytest.approx(1.0, rel=1e-12)


def test_biological_dfe_requires_establishment(table5):
    """[TRIVIAL] N <= 1 leaves only the vector-free equilibrium, which
    `dfe_components` then gives bitwise: S_h at lambda_h_in / mu_h and
    every other entry 0."""
    p = dataclasses.replace(table5.params, mu_b=0.1)
    assert net_reproductive_number(p) < 1.0
    x = dfe_components(p)
    assert x.tobytes() == dfe_components(p, trivial=True).tobytes()
    assert x[S_H] == p.lambda_h_in / p.mu_h and not np.any(x[S_H + 1:])


def test_vanishing_vector_population_has_the_vector_free_dfe(table5):
    """[TRIVIAL] theta = mu_b = 1e-200 (N = 0) underflow theta times the
    aquatic factor D to 0 in Python floats: `dfe_components` still gives
    the vector-free point, and `bifurcation_thresholds` a report without
    vectors, rather than raising ZeroDivisionError."""
    p = dataclasses.replace(table5.params, theta=1e-200, mu_b=1e-200)
    assert net_reproductive_number(p) == 0.0
    assert dfe_components(p).tobytes() == dfe_components(
        p, trivial=True).tobytes()
    assert bifurcation_thresholds(p).r0_defined is False


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_dfe_components_picks_each_rows_equilibrium():
    """[DERIVED] Over mixed-regime draws, with rows of N <= 1 added: each
    row of one `dfe_components` pass is bitwise the biological DFE that
    the call on the established rows alone gives (N > 1, a positive
    vector population), and the vector-free point elsewhere; and each row
    is the one-parameter-set call on it.  No numpy warning on the way."""
    samples = lhs_sample(mixed_regime_ranges(), 300, seed=4)
    matrix = np.concatenate([samples.matrix, samples.matrix[:50]])
    matrix[300:, PARAM_ORDER.index("mu_b")] = 0.1  # N < 1
    draws = SimpleNamespace(**dict(zip(PARAM_ORDER, matrix.T)))
    est = net_reproductive_number(draws) > 1.0
    assert 50 < np.count_nonzero(~est) and 100 < np.count_nonzero(est)
    x = dfe_components(draws)
    biological = dfe_components(param_rows(draws, est))
    assert x[est].tobytes() == biological.tobytes()
    assert np.all(biological[:, S_V] > 0.0)
    assert x[~est].tobytes() == dfe_components(
        param_rows(draws, ~est), trivial=True).tobytes()
    for row, want in zip(matrix, x):
        p = ModelParams(**dict(zip(PARAM_ORDER, row.tolist())))
        assert dfe_components(p).tobytes() == want.tobytes()


def test_next_generation_matrices_require_establishment(table5):
    """[TRIVIAL] The matrices are taken at the biological DFE, so N <= 1
    is refused by name rather than read off the vector-free point."""
    p = dataclasses.replace(table5.params, mu_b=0.1)
    with pytest.raises(ThresholdError, match=(
            r"^next-generation matrices require net reproductive number "
            r"> 1, got 0\.\d+$")):
        next_generation_matrices(p)


def test_r0_requires_establishment(table5):
    """[TRIVIAL] The R0 error names R0, not another quantity."""
    p = dataclasses.replace(table5.params, mu_b=0.1)
    with pytest.raises(ThresholdError,
                       match=r"^R0 requires net reproductive number > 1, got "):
        basic_reproduction_number(p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_r0_refuses_a_non_finite_value():
    """[TRIVIAL] On Table 2's lower bounds with egg and larval capacities
    of 1e308 the disease-free vector population overflows to NaN, and so
    does R0: `basic_reproduction_number` raises the `ThresholdError` of
    the full report, naming that population, without a numpy warning,
    rather than returning NaN."""
    lower = {name: lo for name, (lo, _) in baseline_ranges().ranges.items()}
    p = dataclasses.replace(ModelParams(**lower), Gamma_E=1e308, Gamma_L=1e308)
    message = r"^S_v of the disease-free equilibrium is nan$"
    with pytest.raises(ThresholdError, match=message):
        bifurcation_thresholds(p)
    with pytest.raises(ThresholdError, match=message):
        basic_reproduction_number(p)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field, message", [("mu_h", "R_c is nan"),
                                            ("delta", "R_1b is nan")])
def test_r0_refuses_wherever_the_report_does(table5, field, message):
    """[TRIVIAL] R0 is read off the full report, so it is refused wherever
    the report is: on Table 5 with mu_h = 1e200 R0 underflows to a finite
    0.0 but R_c is NaN, and with delta = 1e200 R0 is finite but R_1b is
    NaN.  Both functions raise that `ThresholdError`, without a numpy
    warning."""
    p = dataclasses.replace(table5.params, **{field: 1e200})
    for threshold in (bifurcation_thresholds, basic_reproduction_number):
        with pytest.raises(ThresholdError, match=f"^{message}$"):
            threshold(p)


def test_dfe_components_are_equilibria(sec22):
    """[DERIVED] Both closed-form disease-free points zero the field."""
    p = sec22.params
    for trivial in (True, False):
        x = dfe_components(p, trivial=trivial)
        assert np.max(np.abs(basic_field(x, p))) <= 1e-9 * max(
            1.0, np.max(np.abs(x)))


def test_r0_zero_transmission(table5):
    """[TRIVIAL] beta_hv = 0 kills one infection pathway, so R0 = 0."""
    p = dataclasses.replace(table5.params, beta_hv=0.0)
    assert basic_reproduction_number(p) == 0.0


def test_r0_equals_next_generation_spectral_radius():
    """[DERIVED] Closed form equals rho(F V^-1) for the 4x4 matrices."""
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = random_established_params(rng)
        f, v = next_generation_matrices(p)
        rho = float(np.max(np.abs(np.linalg.eigvals(f @ np.linalg.inv(v)))))
        assert abs(rho - basic_reproduction_number(p)) <= 1e-10


def test_psi_positive_without_disease_mortality():
    """[TRIVIAL] delta = 0 makes psi > 0, so no saddle-node bounds exist."""
    rng = np.random.default_rng(6)
    for _ in range(20):
        p = random_params(rng, delta=0.0)
        rep = bifurcation_thresholds(p)
        assert rep.psi > 0.0
        assert all(math.isnan(v) for v in (
            rep.r_1b, rep.r_2b, rep.beta_minus, rep.beta_plus))


def test_transcritical_value(sec22):
    """[DERIVED] Substituting beta* reproduces R0 = 1 to roundoff."""
    rep = bifurcation_thresholds(sec22.params)
    p_star = dataclasses.replace(sec22.params, beta_hv=rep.beta_star)
    assert basic_reproduction_number(p_star) == pytest.approx(1.0, abs=1e-12)


def test_beta_and_r0_interval_membership_equivalent(sec22):
    """[DERIVED] The saddle-node window reads the same in both scales.

    R_1b/R_2b do not depend on beta_hv while R0 grows like sqrt(beta_hv),
    so beta in (beta-, beta+) must coincide with R0 in (R_1b, R_2b).
    """
    rep0 = bifurcation_thresholds(sec22.params)
    assert rep0.psi < 0.0
    for beta in np.linspace(1e-5, 0.6, 121):
        p = dataclasses.replace(sec22.params, beta_hv=float(beta))
        rep = bifurcation_thresholds(p)
        in_beta = rep0.beta_minus < beta < rep0.beta_plus
        in_r0 = rep0.r_1b < rep.r0 < rep0.r_2b
        assert in_beta == in_r0, f"mismatch at beta_hv = {beta}"


def test_saddle_node_bounds_bracket_transcritical(sec22):
    """[DERIVED] Ordering beta- < beta+ < beta* and R_1b < R0(beta*) = 1."""
    rep = bifurcation_thresholds(sec22.params)
    assert rep.beta_minus < rep.beta_plus < rep.beta_star
    assert 0.0 < rep.r_1b < rep.r_2b


def test_report_without_vectors(table5):
    """[TRIVIAL] N <= 1 reports R0 = 0 by convention, thresholds absent."""
    p = dataclasses.replace(table5.params, mu_b=0.1)
    rep = bifurcation_thresholds(p)
    assert not rep.r0_defined
    assert rep.r0 == 0.0
    assert math.isnan(rep.beta_star)


def test_scalar_report_is_floats_on_integer_parameters(table5):
    """[TRIVIAL] A config may give a rate as a JSON integer.  With every
    term of psi an int, the scalar report still holds floats, and
    `r0_defined` a bool, so `arbo thresholds` prints psi as 1.0, not 1."""
    p = dataclasses.replace(table5.params, eta_h=0, mu_h=1, delta=0, sigma=1,
                            gamma_h=1, a=1, beta_vh=1, mu_v=1)
    rep = bifurcation_thresholds(p)
    assert rep.psi == 1.0
    for name in rep._fields:
        want = bool if name == "r0_defined" else float
        assert type(getattr(rep, name)) is want, name


def test_beta_thresholds_map_to_r_thresholds():
    """[DERIVED] Setting beta_hv to beta_bar, beta_minus or beta_plus
    gives R0 = R_c, R_1b or R_2b (R0^2 is linear in beta_hv)."""
    rng = np.random.default_rng(7)
    windows = 0
    for _ in range(100):
        p = random_established_params(rng)
        rep = bifurcation_thresholds(p)
        pairs = [(rep.beta_bar, rep.r_c)]
        if not math.isnan(rep.r_1b):
            windows += 1
            pairs += [(rep.beta_minus, rep.r_1b), (rep.beta_plus, rep.r_2b)]
        for beta, r_x in pairs:
            r0 = basic_reproduction_number(dataclasses.replace(p, beta_hv=beta))
            assert r0 == pytest.approx(r_x, rel=1e-12)
    assert windows > 10


def test_low_saddle_node_bound_is_below_r_c():
    """[DERIVED] R_1b < R_c wherever the saddle-node bounds exist (psi <=
    0), so the paper's low two-endemic window R_c < R0 < min(1, R_1b) is
    empty and `thresholds.two_endemic_window` is the high one alone.  The
    proof is the identity k3 k4 (2 k2 k8 + X) - (root_a^2 + root_b^2) =
    2 k2 Y (`test_symbolic.py::test_low_saddle_node_bound_identity`);
    this is its check in floats, on LHS designs over the baseline and the
    mixed-regime ranges and on log-uniform draws over several decades of
    every rate."""
    rng = np.random.default_rng(11)
    n = 20000
    wide = {name: 10.0 ** rng.uniform(-4.0, 3.0, n) for name in PARAM_ORDER}
    wide.update(eta_h=rng.uniform(0.0, 1.0, n), eta_v=rng.uniform(0.0, 1.0, n))
    designs = [lhs_sample(baseline_ranges(), n, seed=5).columns(),
               lhs_sample(mixed_regime_ranges(), n, seed=6).columns(),
               SimpleNamespace(**wide)]
    for design in designs:
        with np.errstate(all="ignore"):
            rep = threshold_arrays(design)
        window = rep.psi <= 0.0
        assert np.count_nonzero(window) > 1000
        assert np.all(rep.r_1b[window] < rep.r_c[window])


def test_threshold_arrays_equal_scalar_reports():
    """[DERIVED] The scalar report of every draw is its row of one array
    pass over the design: each float field holds the row's bytes, NaN
    included, and `r0_defined` is the row's flag as a bool.  So the
    two-endemic window reads the same off either report, absent bounds
    included."""
    samples = lhs_sample(mixed_regime_ranges(), 300, seed=3)
    arrays = threshold_arrays(samples.columns())
    window = two_endemic_window(arrays)
    absent = {"r_1b": 0, "beta_minus": 0, "r0_defined": 0}
    for i, row in enumerate(samples.matrix):
        rep = bifurcation_thresholds(ModelParams(**dict(zip(PARAM_ORDER, row))))
        absent["r_1b"] += math.isnan(rep.r_1b)
        absent["beta_minus"] += math.isnan(rep.beta_minus)
        absent["r0_defined"] += not rep.r0_defined
        for name in ThresholdReport._fields:
            want, got = getattr(rep, name), getattr(arrays, name)[i]
            if name == "r0_defined":
                assert type(want) is bool and want == got, i
            else:
                assert type(want) is float, (i, name)
                assert np.float64(want).tobytes() == got.tobytes(), (i, name)
        assert two_endemic_window(rep) == window[i], i
    assert min(absent.values()) > 0  # every kind of draw occurs
