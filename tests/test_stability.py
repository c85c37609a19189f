"""Jacobians, Routh-Hurwitz, bifurcation direction, Lyapunov audit."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from arbo.equilibria import solve_endemic
from arbo.model import (
    E_H, E_V, EGG, I_H, I_V, LAR, PUP, R_H, S_H, S_V, basic_field,
    derive_constants,
)
from arbo.ode import TimeGrid, Trajectory
from arbo.stability import (
    Direction, KernelError, bifurcation_coefficients, eigen_verdict,
    eigen_verdicts, hessian_double_sum, jacobians,
    lyapunov_trivial_check, lyapunov_weights, routh_hurwitz_trivial,
)
from arbo.thresholds import (
    ThresholdError, bifurcation_thresholds, dfe_components,
    net_reproductive_number,
)
from arbo import _kernels
from arbo.model import ModelParams, params_to_array
from arbo.sensitivity import lhs_sample
from conftest import (
    mixed_regime_ranges, random_established_params, random_params,
)


def _trivial_dfe_jacobian_closed_form(p):
    """Closed-form linearization at the vector-free equilibrium."""
    k = derive_constants(p)
    ab_hv = p.a * p.beta_hv
    m = np.zeros((10, 10))
    m[S_H, S_H] = -p.mu_h
    m[S_H, E_V] = -ab_hv * p.eta_v
    m[S_H, I_V] = -ab_hv
    m[E_H, E_H] = -k.k3
    m[E_H, E_V] = ab_hv * p.eta_v
    m[E_H, I_V] = ab_hv
    m[I_H, E_H] = p.gamma_h
    m[I_H, I_H] = -k.k4
    m[R_H, I_H] = p.sigma
    m[R_H, R_H] = -p.mu_h
    m[S_V, S_V] = -p.mu_v
    m[S_V, PUP] = p.theta
    m[E_V, E_V] = -k.k9
    m[I_V, E_V] = p.gamma_v
    m[I_V, I_V] = -p.mu_v
    m[EGG, S_V] = m[EGG, E_V] = m[EGG, I_V] = p.mu_b
    m[EGG, EGG] = -k.k5
    m[LAR, EGG] = p.s
    m[LAR, LAR] = -k.k6
    m[PUP, LAR] = p.l
    m[PUP, PUP] = -k.k7
    return m


def test_jacobian_matches_closed_form_at_trivial_dfe(table5, sec22):
    """[DERIVED] The exact Jacobian reproduces the closed-form matrix to
    rounding."""
    for scen in (table5, sec22):
        p = scen.params
        x0 = dfe_components(p, trivial=True)
        exact = jacobians(x0, p)
        closed = _trivial_dfe_jacobian_closed_form(p)
        assert np.allclose(exact, closed, atol=1e-12, rtol=1e-12)


def _column_by_column_jacobian(x, p):
    """The independent reference: central finite differences, one pair
    of single-state field calls per column, step 1e-6*max(1, |x_i|)."""
    x = np.asarray(x, dtype=float)
    jac = np.empty((10, 10))
    for i in range(10):
        h = 1e-6 * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (basic_field(xp, p) - basic_field(xm, p)) / (2.0 * h)
    return jac


def _relative_gap(exact, fd):
    """Largest entry of |exact - fd| over the largest of |exact|, per
    matrix of a stack."""
    return (np.max(np.abs(exact - fd), axis=(-2, -1))
            / np.max(np.abs(exact), axis=(-2, -1)))


def test_exact_jacobian_matches_column_loop(table5, sec22):
    """[DERIVED] The exact Jacobian agrees with the column-by-column
    central differences to the stencil's accuracy, at the sec22 DFE and
    at the Table 5 endemic point."""
    (endemic, _, _), = solve_endemic(table5.params).endemic
    for x, p in ((dfe_components(sec22.params), sec22.params),
                 (endemic, table5.params)):
        assert _relative_gap(jacobians(x, p),
                             _column_by_column_jacobian(x, p)) < 1e-6


def test_batched_jacobians_and_verdicts_equal_one_point_calls(sec22):
    """[TRIVIAL] Jacobians and verdicts of a stack of 300 states (several
    blocks), each row under its own parameter set, equal `jacobians` and
    `eigen_verdict` at each row alone bitwise, and the column loop to
    the stencil's accuracy; one state gives one (10, 10) Jacobian."""
    rng = np.random.default_rng(21)
    ps = [random_params(rng) for _ in range(300)]
    ps[:2] = [sec22.params, dataclasses.replace(
        sec22.params, beta_hv=bifurcation_thresholds(sec22.params).beta_star)]
    xs = rng.uniform(1.0, 1e4, (300, 10))
    xs[:2] = [dfe_components(p) for p in ps[:2]]  # stable, then marginal
    rows = SimpleNamespace(**{name: np.array([getattr(p, name) for p in ps])
                              for name in vars(ps[0])})
    jac = jacobians(xs, rows)
    one = [jacobians(x, p) for x, p in zip(xs, ps)]
    assert {j.shape for j in one} == {(10, 10)}
    assert jac.tobytes() == np.array(one).tobytes()
    fd = np.array([_column_by_column_jacobian(x, p) for x, p in zip(xs, ps)])
    assert np.all(_relative_gap(jac, fd) < 1e-6)
    verdicts = eigen_verdicts(xs, rows)
    assert verdicts == [eigen_verdict(x, p) for x, p in zip(xs, ps)]
    assert verdicts[0].stable and verdicts[1].stable is None


def test_routh_hurwitz_flips_at_persistence_threshold(table5):
    """[DERIVED] The trivial equilibrium is stable iff N < 1, and the
    algebraic verdict agrees with the eigen verdict."""
    p = table5.params
    k = derive_constants(p)
    mu_b_crit = k.k5 * k.k6 * k.k7 * k.k8 / (p.theta * p.l * p.s)
    for factor, expect_stable in ((0.8, True), (1.2, False)):
        pv = dataclasses.replace(p, mu_b=factor * mu_b_crit)
        rh = routh_hurwitz_trivial(pv)
        assert rh.stable is expect_stable
        ev = eigen_verdict(dfe_components(pv, trivial=True), pv)
        assert ev.stable is expect_stable


def test_biological_dfe_stability(table5, sec22):
    """[DERIVED] Supercritical DFE unstable; subcritical DFE (outside the
    two-endemic window) stable."""
    assert eigen_verdict(dfe_components(table5.params),
                         table5.params).stable is False
    assert eigen_verdict(dfe_components(sec22.params),
                         sec22.params).stable is True


def test_supercritical_endemic_is_stable(table5):
    """[DERIVED] The unique endemic point above threshold is attracting."""
    p = table5.params
    eq = solve_endemic(p)
    (x, _, _), = eq.endemic
    assert eigen_verdict(x, p).stable is True


@pytest.mark.skipif(_kernels.BACKEND != "c", reason="eight runs of up to "
                    "100,000 steps take minutes on the Python kernels")
@pytest.mark.parametrize("beta_hv", [0.05, 0.08])
def test_bistability_inside_the_two_endemic_window(beta_hv, sec22):
    """[DERIVED] For beta_+ < beta_hv < beta* the DFE and the upper of the
    two endemic points both attract, and the lower one separates them.
    Runs at dt = 0.1 day: one infected human added to the biological DFE
    dies out; a start 0.1 % above the upper point stays within 1 % of it
    over 10^4 days; starts 0.1 % below and above the lower point end at
    the upper point and at the DFE."""
    p = dataclasses.replace(sec22.params, beta_hv=beta_hv)
    rep = bifurcation_thresholds(p)
    assert rep.beta_plus < beta_hv < rep.beta_star
    eq = solve_endemic(p, stability_checker=lambda x: eigen_verdict(x, p).stable)
    (lower, _, lower_stable), (upper, _, upper_stable) = sorted(
        eq.endemic, key=lambda e: e[0][I_H])
    assert (lower_stable, upper_stable) == (False, True)

    def final(x0, n_steps):
        return _kernels.rk4_basic(params_to_array(p), x0, n_steps, 0.1)[-1]

    infected = dfe_components(p)
    infected[I_H] += 1.0
    assert final(infected, 20_000)[I_H] < 1e-20
    assert np.max(np.abs(final(upper * 1.001, 100_000) / upper - 1.0)) < 1e-2
    assert abs(final(lower * 0.999, 100_000)[I_H] / upper[I_H] - 1.0) < 1e-6
    assert final(lower * 1.001, 100_000)[I_H] < 1e-20 * lower[I_H]


def test_stability_verdicts_agree_with_the_thresholds_over_the_domain():
    """[DERIVED] Over 2,000 LHS draws of every regime, the eigen verdict of
    the biological DFE is R0 < 1 wherever vectors establish (N > 1), and
    the Routh-Hurwitz verdict of the vector-free point is its eigen
    verdict; no verdict is marginal."""
    samples = lhs_sample(mixed_regime_ranges(), 2000, seed=7)
    draws = samples.columns()
    established = samples.thresholds.net_repro > 1.0
    assert 0 < established.sum() < samples.n
    est = SimpleNamespace(**{name: column[established]
                             for name, column in vars(draws).items()})
    biological = eigen_verdicts(dfe_components(est), est)
    assert ([v.stable for v in biological]
            == (samples.thresholds.r0[established] < 1.0).tolist())
    trivial = eigen_verdicts(dfe_components(draws, trivial=True), draws)
    assert None not in [v.stable for v in trivial]
    assert [v.stable for v in trivial] == [
        routh_hurwitz_trivial(ModelParams(*row)).stable
        for row in samples.matrix.tolist()]


def test_bifurcation_requires_vectors(table5):
    """[TRIVIAL] No center-manifold analysis without N > 1."""
    p = dataclasses.replace(table5.params, mu_b=0.1)
    with pytest.raises(ThresholdError):
        bifurcation_coefficients(p)


def _kernel_jacobian(zero=(), jordan=None) -> np.ndarray:
    """diag(1, ..., 10) with zeros on the diagonal at the compartments
    `zero`, and with a 2x2 Jordan block [[0, 1], [0, 0]] on the pair of
    compartments `jordan`, if given."""
    jac = np.diag(np.arange(1.0, 11.0))
    jac[zero, zero] = 0.0
    if jordan is not None:
        i, j = jordan
        jac[i, i] = jac[j, j] = 0.0
        jac[i, j] = 1.0
    return jac


@pytest.mark.parametrize("jac, message", [
    (_kernel_jacobian(zero=[E_V, I_V]), "kernel is not one-dimensional"),
    (_kernel_jacobian(zero=[E_H]),
     "right null vector has zero infectious-vector component"),
    (_kernel_jacobian(jordan=(I_V, E_H)),
     "left and right null vectors are orthogonal"),
], ids=["two-dimensional", "no-I_v", "jordan"])
def test_bifurcation_refuses_a_degenerate_kernel(jac, message, sec22,
                                                 monkeypatch):
    """[TRIVIAL] Each kernel check of `bifurcation_coefficients` raises
    on a Jacobian built to fail it alone: a two-dimensional kernel, two
    singular values of exactly zero; a null vector e_{E_h} with no I_v
    component; and a Jordan block whose right null vector e_{I_v} is
    orthogonal to its left one e_{E_h}."""
    monkeypatch.setattr("arbo.stability.jacobians", lambda x, p: jac)
    with pytest.raises(KernelError, match=message):
        bifurcation_coefficients(sec22.params)


def test_zero_eigenvalue_at_transcritical(sec22):
    """[DERIVED] At beta* the Jacobian at the DFE is singular."""
    rep = bifurcation_thresholds(sec22.params)
    p = dataclasses.replace(sec22.params, beta_hv=rep.beta_star)
    jac = jacobians(dfe_components(p), p)
    eigs = np.linalg.eigvals(jac)
    assert np.min(np.abs(eigs)) <= 1e-8 * np.max(np.abs(jac))


def test_backward_direction_with_disease_mortality(sec22):
    """[PAPER] The high-mortality example bifurcates backward."""
    coeffs = bifurcation_coefficients(sec22.params)
    assert coeffs.direction is Direction.BACKWARD
    assert coeffs.bif_a1 > 0.0
    assert coeffs.bif_a2 > 0.0
    assert coeffs.zeta1 > coeffs.zeta2


def test_direction_is_backward_iff_r_c_below_one():
    """[DERIVED] Center-manifold direction against the quadratic: at
    R0 = 1 the coefficient d1 is a positive multiple of 1 - R_c^2, so
    small positive roots exist just below R0 = 1 exactly when R_c < 1
    (Castillo-Chavez & Song 2004, Thm 4.1)."""
    rng = np.random.default_rng(31)
    draws, backward = 300, 0
    for _ in range(draws):
        p = random_established_params(rng, delta=rng.uniform(0.0, 0.5))
        direction = bifurcation_coefficients(p).direction  # no KernelError
        r_c = bifurcation_thresholds(p).r_c
        assert (direction is Direction.BACKWARD) == (r_c < 1.0), (p, r_c)
        backward += direction is Direction.BACKWARD
    assert 0 < backward < draws


def test_closed_form_matches_hessian_sum(table5, sec22):
    """[DERIVED] zeta path equals the generic second-derivative sum."""
    for scen in (table5, sec22):
        coeffs = bifurcation_coefficients(scen.params)
        assert coeffs.bif_a1 == pytest.approx(coeffs.bif_a1_generic, rel=1e-6)


def test_hessian_sum_on_quadratic_field():
    """[TRIVIAL] The directional stencil is exact on a pure quadratic."""
    rng = np.random.default_rng(12)
    a = rng.normal(size=(10, 10, 10))

    class Fake:
        pass

    import arbo.stability as stability

    def fake_field(x, p):
        return np.einsum("kij,i,j->k", a, x, x)

    orig = stability.basic_field
    stability.basic_field = fake_field
    try:
        x0 = rng.normal(size=10)
        v = rng.normal(size=10)
        w = rng.normal(size=10)
        got = hessian_double_sum(Fake(), x0, v, w)
    finally:
        stability.basic_field = orig
    expect = 2.0 * np.einsum("kij,k,i,j->", a, v, w, w)
    assert got == pytest.approx(expect, rel=1e-7)


def test_lyapunov_weights_positive(table5):
    """[TRIVIAL] All weights are positive so the function is a norm-like
    distance to the vector-free point."""
    g = lyapunov_weights(table5.params)
    assert np.all(g > 0.0)
    assert np.all(g[:7] == 1.0)


def test_lyapunov_check_requires_subthreshold(table5):
    """[TRIVIAL] The monotonicity audit refuses N > 1."""
    grid = TimeGrid(0.0, 1.0, 10)
    traj = Trajectory(grid, np.ones((11, 10)))
    with pytest.raises(ValueError):
        lyapunov_trivial_check(table5.params, traj)


def test_lyapunov_decreases_below_threshold(table5):
    """[DERIVED] With N <= 1 the weighted distance decays monotonically."""
    p = dataclasses.replace(table5.params, mu_b=0.4, delta=0.0)
    assert net_reproductive_number(p) <= 1.0
    rng = np.random.default_rng(13)
    grid = TimeGrid(0.0, 200.0, 20000)
    x0 = np.array([p.lambda_h_in / p.mu_h, 0.0, 0.0, 0.0,
                   *rng.uniform(0.0, 500.0, 3), *rng.uniform(0.0, 2000.0, 3)])
    traj = Trajectory(grid, _kernels.rk4_basic(
        params_to_array(p), x0, grid.n_steps, grid.dt))
    res = lyapunov_trivial_check(p, traj)
    assert res["monotone"] is True
