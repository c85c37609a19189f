"""Parameter validation, derived constants, and the two vector fields."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from arbo import _kernels
from arbo.model import (
    E_H, E_V, I_H, I_V, S_H, S_V,
    ControlParams, ModelParams, ParamError, ZeroPopulationError,
    _infection, basic_field, controlled_field, derive_constants, field_vjp,
    in_bounds, param_rows, params_to_array,
)
from arbo.sensitivity import PARAM_ORDER
from arbo.thresholds import dfe_components
from conftest import random_params


def test_derived_constants_table5(table5):
    """[DERIVED] Hand arithmetic for the field-study aquatic rates."""
    k = derive_constants(table5.params)
    assert k.k5 == pytest.approx(0.9)
    assert k.k6 == pytest.approx(0.9)
    assert k.k7 == pytest.approx(0.48)
    assert k.k8 == pytest.approx(1.0 / 30.0)


def test_k2_product_and_sum_forms_agree():
    """[TRIVIAL] k3*k4 - delta*gamma_h == mu_h*k4 + gamma_h*(mu_h + sigma)."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = random_params(rng)
        k = derive_constants(p)
        alt = p.mu_h * k.k4 + p.gamma_h * (p.mu_h + p.sigma)
        assert k.k2 == pytest.approx(alt, rel=1e-12)


def test_degenerate_rates():
    """[TRIVIAL] delta = sigma -> 0 collapses k4 toward mu_h + sigma."""
    rng = np.random.default_rng(1)
    p = random_params(rng, delta=0.0)
    k = derive_constants(p)
    assert k.k4 == pytest.approx(p.mu_h + p.sigma)
    assert k.k2 == pytest.approx(k.k3 * k.k4)


def test_force_of_infection_trivial_cases(table5):
    """[TRIVIAL] No infected vectors/humans -> zero force of infection."""
    x = np.zeros(10)
    x[S_H] = 1000.0
    n_h, foi_h, foi_v = _infection(x, table5.params)
    assert (n_h, foi_h, foi_v) == (1000.0, 0.0, 0.0)


def test_force_of_infection_unit_normalization():
    """[TRIVIAL] a = beta_hv = 1, I_v = N_h, eta_v = 0 -> rate 1."""
    rng = np.random.default_rng(2)
    p = random_params(rng, a=1.0, beta_hv=1.0, eta_v=0.0)
    x = np.zeros(10)
    x[S_H] = 250.0
    x[I_V] = 250.0
    assert _infection(x, p)[1] == pytest.approx(1.0)


def test_zero_population_raises(table5):
    """[TRIVIAL] Empty human population is rejected, not divided by."""
    with pytest.raises(ZeroPopulationError):
        basic_field(np.zeros(10), table5.params)


def test_basic_field_vanishes_at_equilibria(table5):
    """[DERIVED] Both disease-free points are exact roots of the field."""
    p = table5.params
    trivial = dfe_components(p, trivial=True)
    assert np.all(basic_field(trivial, p) == 0.0)
    biological = dfe_components(p)
    residual = np.max(np.abs(basic_field(biological, p)))
    assert residual <= 1e-9 * np.max(np.abs(biological))


def test_controlled_field_reduces_to_basic(table5):
    """[TRIVIAL] u = 0 reproduces the uncontrolled field bitwise."""
    rng = np.random.default_rng(3)
    x = rng.uniform(1.0, 1e4, 10)
    out_basic = basic_field(x, table5.params)
    out_ctrl = controlled_field(x, np.zeros(5), table5.params,
                                table5.control_params)
    assert np.all(out_basic == out_ctrl)


def test_controlled_field_on_a_stack_equals_row_by_row(table5):
    """[TRIVIAL] A stack of states with one control row each gives, row
    for row, the single-state result bitwise."""
    p, c = table5.params, table5.control_params
    rng = np.random.default_rng(5)
    xs = rng.uniform(1.0, 1e4, (64, 10))
    us = rng.uniform(0.0, 1.0, (64, 5))
    rows = np.array([controlled_field(x, u, p, c) for x, u in zip(xs, us)])
    assert controlled_field(xs, us, p, c).tobytes(order="C") == rows.tobytes()
    assert basic_field(xs, p).tobytes(order="C") == np.array(
        [basic_field(x, p) for x in xs]).tobytes()


def test_basic_field_with_per_row_parameters_equals_row_by_row():
    """[TRIVIAL] Parameter fields holding one value per state row give,
    row for row, the single-state result under that row's `ModelParams`
    bitwise; `param_rows` selects and repeats those rows."""
    rng = np.random.default_rng(6)
    ps = [random_params(rng) for _ in range(64)]
    xs = rng.uniform(1.0, 1e4, (64, 10))
    rows = SimpleNamespace(**{name: np.array([getattr(p, name) for p in ps])
                              for name in PARAM_ORDER})
    want = np.array([basic_field(x, p) for x, p in zip(xs, ps)])
    assert basic_field(xs, rows).tobytes() == want.tobytes()
    index = np.array([3, 3, 0, 63])
    assert basic_field(xs[index], param_rows(rows, index)).tobytes() == (
        want[index].tobytes())


def test_field_vjp_matches_central_differences(table5):
    """[DERIVED] J^T lam from `field_vjp` equals the central difference of
    lam . controlled_field along each state coordinate, with every
    control on and one parameter set per row; the stacked call equals
    the row-by-row calls bitwise."""
    c = table5.control_params
    rng = np.random.default_rng(7)
    ps = [random_params(rng) for _ in range(64)]
    rows = SimpleNamespace(**{name: np.array([getattr(p, name) for p in ps])
                              for name in PARAM_ORDER})
    xs = rng.uniform(1.0, 1e4, (64, 10))
    us = rng.uniform(0.0, 1.0, (64, 5))
    lam = rng.normal(size=(64, 10))
    exact = field_vjp(xs, us, lam, rows, c)
    assert exact.tobytes() == np.array(
        [field_vjp(x, u, v, p, c)
         for x, u, v, p in zip(xs, us, lam, ps)]).tobytes()
    fd = np.empty_like(exact)
    for j in range(10):
        h = 1e-6 * np.maximum(1.0, np.abs(xs[:, j]))
        up, down = xs.copy(), xs.copy()
        up[:, j] += h
        down[:, j] -= h
        diff = controlled_field(up, us, rows, c) - controlled_field(down, us, rows, c)
        fd[:, j] = np.sum(lam * diff, axis=1) / (2.0 * h)
    scale = np.max(np.abs(exact), axis=1, keepdims=True)
    assert np.all(np.abs(fd - exact) < 1e-7 * scale)


def test_bounds_check_matches_construction(table5):
    """[TRIVIAL] For each of the 36 fields of `ModelParams`,
    `ControlParams` and `ObjectiveWeights`, `in_bounds` on one value, and
    per value on an array of them, says whether a valid record with that
    field set to the value can be built."""
    values = [-1.0, 0.0, 0.5, 1.0, 1.5, np.nan, np.inf]
    records = (table5.params, table5.control_params, table5.weights)
    names = [f.name for r in records for f in dataclasses.fields(r)]
    assert len(set(names)) == len(names) == 36
    for record in records:
        for f in dataclasses.fields(record):
            on_array = in_bounds(f.name, np.array(values)).tolist()
            for v, ok in zip(values, on_array):
                try:
                    dataclasses.replace(record, **{f.name: v})
                except ParamError:
                    builds = False
                else:
                    builds = True
                assert in_bounds(f.name, v) == ok == builds, (f.name, v)


def test_total_protection_blocks_transmission(table5):
    """[TRIVIAL] u2 = 1 with full efficacy removes both infection inflows."""
    c = dataclasses.replace(table5.control_params, alpha1=1.0)
    rng = np.random.default_rng(4)
    x = rng.uniform(1.0, 1e4, 10)
    u = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    dx = controlled_field(x, u, table5.params, c)
    k = derive_constants(table5.params)
    assert dx[E_H] == pytest.approx(-k.k3 * x[E_H], rel=1e-12)
    assert dx[E_V] == pytest.approx(-k.k9 * x[E_V], rel=1e-12)


def test_param_validation_collects_all_violations(table5):
    """[TRIVIAL] Every bound violation is reported at once, in the
    record's field order rather than grouped by bound: sigma (> 0) comes
    between beta_hv (>= 0) and eta_h (in [0, 1))."""
    values = dataclasses.asdict(table5.params)
    values.update(mu_h=-1.0, eta_h=1.5, beta_hv=-0.2, sigma=0.0)
    with pytest.raises(ParamError) as err:
        ModelParams(**values)
    assert err.value.violations == [
        "mu_h must be > 0, got -1.0", "beta_hv must be >= 0, got -0.2",
        "sigma must be > 0, got 0.0", "eta_h must be in [0, 1), got 1.5"]


def test_boundary_values_allowed(table5):
    """[TRIVIAL] Zero transmission and zero disease mortality are legal."""
    values = dataclasses.asdict(table5.params)
    values.update(beta_hv=0.0, beta_vh=0.0, delta=0.0, eta_h=0.0, eta_v=0.0)
    ModelParams(**values)  # must not raise


def test_control_params_validation():
    """[TRIVIAL] Efficacies above 1 and negative rates are rejected, each
    named with its field's domain."""
    with pytest.raises(ParamError) as err:
        ControlParams(omega=0.05, alpha1=1.5, alpha2=0.5, c_m=0.2,
                      eta1=0.001, eta2=0.3)
    assert err.value.violations == ["alpha1 must be in [0, 1], got 1.5"]
    with pytest.raises(ParamError) as err:
        ControlParams(omega=-0.05, alpha1=0.5, alpha2=0.5, c_m=0.2,
                      eta1=0.001, eta2=0.3)
    assert err.value.violations == ["omega must be >= 0, got -0.05"]


def test_params_to_array_order(table5):
    """[TRIVIAL] The kernel flattening follows the documented order."""
    arr = params_to_array(table5.params)
    for i, name in enumerate(PARAM_ORDER):
        assert arr[i] == getattr(table5.params, name)
    carr = params_to_array(table5.control_params)
    assert carr.tolist() == [table5.control_params.omega,
                             table5.control_params.alpha1,
                             table5.control_params.alpha2,
                             table5.control_params.c_m,
                             table5.control_params.eta1,
                             table5.control_params.eta2]


def test_params_to_array_round_trips_through_the_kernels(table5):
    """[TRIVIAL] The kernels' unpacking reads back the records packed in
    field order."""
    records = (table5.params, table5.control_params, table5.weights)
    unpacked = _kernels._namespaces(*map(params_to_array, records))
    assert [vars(ns) for ns in unpacked] == list(map(dataclasses.asdict, records))
