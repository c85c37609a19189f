"""The C kernels against the Python route (model/control right-hand
sides driven by the generic RK4 loops of `ode`), and the build/fallback
machinery around them."""

import dataclasses
import logging
import shutil

import numpy as np
import pytest

from arbo import _kernels
from arbo.control import adjoint_field
from arbo.model import (
    ZeroPopulationError, basic_field, control_params_to_array,
    controlled_field, params_to_array,
)
from arbo.ode import NonFiniteError, TimeGrid, rk4_backward, rk4_forward

PYTHON = _kernels.PYTHON


def test_backend_identifies_itself():
    """[TRIVIAL] The C backend is active whenever a C compiler is on PATH,
    so a silent fallback fails here."""
    assert _kernels.BACKEND in ("c", "python")
    assert PYTHON.backend == "python"
    if shutil.which("cc"):
        assert _kernels.BACKEND == "c", _kernels.FALLBACK_REASON
        assert _kernels.FALLBACK_REASON is None


def test_missing_compiler_falls_back_with_reason(tmp_path, caplog):
    """[TRIVIAL] A compiler that does not exist gives the Python kernels,
    the reason, and one warning on the "arbo" logger."""
    missing = str(tmp_path / "no-such-cc")
    with caplog.at_level(logging.WARNING, logger="arbo"):
        kernels = _kernels.load(compiler=missing, cache_dir=tmp_path / "cache")
    assert kernels.backend == "python"
    assert missing in kernels.reason
    assert kernels.rk4_basic is PYTHON.rk4_basic
    warnings = [r for r in caplog.records if r.name == "arbo"]
    assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
    assert missing in warnings[0].getMessage()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_build_is_cached(tmp_path, table5):
    """[TRIVIAL] The first load builds one library into the cache and
    leaves no temporary file; the second reuses it."""
    first = _kernels.load(cache_dir=tmp_path)
    built = list(tmp_path.iterdir())
    assert first.backend == "c"
    assert len(built) == 1 and built[0].suffix == ".so"
    stamp = built[0].stat().st_mtime_ns
    second = _kernels.load(cache_dir=tmp_path)
    assert second.backend == "c"
    assert list(tmp_path.iterdir()) == built
    assert built[0].stat().st_mtime_ns == stamp
    par = params_to_array(table5.params)
    assert np.array_equal(second.rk4_basic(par, table5.x0, 50, 0.1),
                          _kernels.rk4_basic(par, table5.x0, 50, 0.1))


def _random_controls(rng, n):
    return rng.uniform(0.0, 1.0, (n + 1, 5))


def test_basic_kernels_agree(table5):
    """[DERIVED] C and Python-route forward integrations match."""
    par = params_to_array(table5.params)
    traj_a = _kernels.rk4_basic(par, table5.x0, 200, 0.05)
    traj_b = PYTHON.rk4_basic(par, table5.x0, 200, 0.05)
    assert np.allclose(traj_a, traj_b, rtol=1e-12, atol=1e-9)


def test_controlled_kernels_agree(table5):
    """[DERIVED] Same for the controlled system with random controls."""
    rng = np.random.default_rng(21)
    par = params_to_array(table5.params)
    cpar = control_params_to_array(table5.control_params)
    u = _random_controls(rng, 200)
    traj_a = _kernels.rk4_controlled(par, cpar, table5.x0, u, 0.05)
    traj_b = PYTHON.rk4_controlled(par, cpar, table5.x0, u, 0.05)
    assert np.allclose(traj_a, traj_b, rtol=1e-12, atol=1e-9)


def test_adjoint_kernels_agree(table5):
    """[DERIVED] The backward adjoint integrations agree bitwise: `rk4.c`
    builds its adjoint right-hand side from its `field_vjp` in the
    operation order of `model.field_vjp` and `control.adjoint_field`."""
    rng = np.random.default_rng(22)
    par = params_to_array(table5.params)
    cpar = control_params_to_array(table5.control_params)
    u = _random_controls(rng, 200)
    states = _kernels.rk4_controlled(par, cpar, table5.x0, u, 0.05)
    dwts = table5.weights.to_array()[:4]
    adj_a = _kernels.rk4_adjoint(par, cpar, dwts, states, u, 0.05)
    adj_b = PYTHON.rk4_adjoint(par, cpar, dwts, states, u, 0.05)
    assert adj_a.tobytes() == adj_b.tobytes()


def _first_bad_step(call):
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError) as err:
            call()
    return err.value.step, err.value.t


def test_kernels_report_first_nonfinite_step(table5):
    """[DERIVED] Driven to overflow, both backends stop at the same node.

    Without infection or disease deaths the human total stays positive,
    while a huge egg-laying rate with no carrying capacity makes the
    vector population overflow; the adjoint overflows under a step far
    beyond RK4 stability."""
    p = dataclasses.replace(table5.params, beta_hv=0.0, beta_vh=0.0,
                            delta=0.0, mu_b=1e4, Gamma_E=1e300, Gamma_L=1e300)
    par = params_to_array(p)
    cpar = control_params_to_array(table5.control_params)
    dwts = table5.weights.to_array()[:4]
    n = 100
    u = _random_controls(np.random.default_rng(25), n)
    states = np.tile(table5.x0, (n + 1, 1))
    base = params_to_array(table5.params)
    cases = [
        ("rk4_basic", (par, table5.x0, n, 5.0)),
        ("rk4_controlled", (par, cpar, table5.x0, u, 5.0)),
        ("rk4_adjoint", (base, cpar, dwts, states, u, 100.0)),
    ]
    for name, args in cases:
        got = _first_bad_step(lambda: getattr(_kernels, name)(*args))
        want = _first_bad_step(lambda: getattr(PYTHON, name)(*args))
        assert got == want, name
        assert 1 < got[0] < n, name


@pytest.mark.parametrize("kernels", [_kernels, PYTHON], ids=["active", "python"])
def test_zero_human_total_raises(kernels, table5):
    """[TRIVIAL] Table 5 at dt = 1 drives the human total through zero
    within 50 steps; both backends raise ZeroPopulationError there
    rather than integrating on to a non-finite value.  The adjoint
    kernel raises it for forward states without humans."""
    par = params_to_array(table5.params)
    cpar = control_params_to_array(table5.control_params)
    with pytest.raises(ZeroPopulationError):
        kernels.rk4_basic(par, table5.x0, 50, 1.0)
    with pytest.raises(ZeroPopulationError):
        kernels.rk4_controlled(par, cpar, table5.x0, np.zeros((51, 5)), 1.0)
    with pytest.raises(ZeroPopulationError):
        kernels.rk4_adjoint(par, cpar, np.ones(4), np.zeros((11, 10)),
                            np.zeros((11, 5)), 0.1)


@pytest.mark.parametrize("kernels", [_kernels, PYTHON], ids=["active", "python"])
def test_kernels_check_shapes(kernels, table5):
    """[TRIVIAL] Arrays of the wrong shape and negative step counts are
    refused, not read or written past."""
    par = params_to_array(table5.params)
    cpar = control_params_to_array(table5.control_params)
    bad_calls = [
        lambda: kernels.rk4_basic(par[:20], table5.x0, 10, 0.1),
        lambda: kernels.rk4_basic(par, table5.x0, -1, 0.1),
        lambda: kernels.rk4_controlled(par, cpar, table5.x0, np.zeros((11, 4)), 0.1),
        lambda: kernels.rk4_controlled(par, cpar, table5.x0, np.zeros((0, 5)), 0.1),
        lambda: kernels.rk4_adjoint(par, cpar, np.ones(4), np.ones((11, 10)),
                                    np.zeros((10, 5)), 0.1),
        lambda: kernels.rk4_adjoint(par, cpar, np.ones(4), np.ones((0, 10)),
                                    np.zeros((0, 5)), 0.1),
    ]
    for call in bad_calls:
        with pytest.raises(ValueError):
            call()


def test_basic_kernel_matches_reference_integrator(table5):
    """[DERIVED] Kernels reproduce the generic RK4 driven by the
    Python right-hand side."""
    p = table5.params
    grid = TimeGrid(0.0, 10.0, 200)
    ref = rk4_forward(lambda t, x: basic_field(x, p), table5.x0, grid)
    ker = _kernels.rk4_basic(params_to_array(p), table5.x0,
                             grid.n_steps, grid.dt)
    assert np.allclose(ker, ref.values, rtol=1e-10, atol=1e-8)


def test_controlled_kernel_matches_reference_integrator(table5):
    """[DERIVED] Controlled kernel against the generic integrator with
    midpoint-averaged controls."""
    p, c = table5.params, table5.control_params
    rng = np.random.default_rng(23)
    grid = TimeGrid(0.0, 10.0, 200)
    u = _random_controls(rng, grid.n_steps)
    ref = rk4_forward(lambda t, x, uu: controlled_field(x, uu, p, c),
                      table5.x0, grid, control_lookup=u)
    ker = _kernels.rk4_controlled(params_to_array(p),
                                  control_params_to_array(c),
                                  table5.x0, u, grid.dt)
    assert np.allclose(ker, ref.values, rtol=1e-10, atol=1e-8)


def test_adjoint_kernel_matches_reference_integrator(table5):
    """[DERIVED] Adjoint kernel against the generic backward integrator
    driven by the closed-form adjoint field."""
    p, c, w = table5.params, table5.control_params, table5.weights
    rng = np.random.default_rng(24)
    grid = TimeGrid(0.0, 10.0, 200)
    u = _random_controls(rng, grid.n_steps)
    par = params_to_array(p)
    cpar = control_params_to_array(c)
    states = _kernels.rk4_controlled(par, cpar, table5.x0, u, grid.dt)
    ker = _kernels.rk4_adjoint(par, cpar, w.to_array()[:4], states, u, grid.dt)
    ref = rk4_backward(
        lambda t, lam, x, uu: adjoint_field(x, uu, lam, p, c, w),
        np.zeros(10), grid, states, control_traj=u)
    assert np.allclose(ker, ref.values, rtol=1e-9, atol=1e-6)
