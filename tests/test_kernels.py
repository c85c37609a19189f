"""The C kernels against the Python route (model/control right-hand
sides driven by the generic RK4 loops of `ode`), and the build/fallback
machinery around them."""

import dataclasses
import logging
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from arbo import _kernels
from arbo.control import StrategyMask, adjoint_field
from arbo.model import (
    R_H, S_H, ZeroPopulationError, basic_field, controlled_field,
    params_to_array,
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


def test_only_control_and_cli_load_the_kernels():
    """[TRIVIAL] The analysis modules import without `arbo._kernels`, so
    they neither build nor load the C library; `arbo.control` loads it."""
    code = (
        "import sys, arbo, arbo.thresholds, arbo.equilibria, "
        "arbo.sensitivity, arbo.stability, arbo.econ\n"
        "before = 'arbo._kernels' in sys.modules\n"
        "import arbo.control\n"
        "print(before, 'arbo._kernels' in sys.modules)\n")
    src = pathlib.Path(_kernels.__file__).parents[2]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False True\n"


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
    cpar = params_to_array(table5.control_params)
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
    cpar = params_to_array(table5.control_params)
    u = _random_controls(rng, 200)
    states = _kernels.rk4_controlled(par, cpar, table5.x0, u, 0.05)
    wts = params_to_array(table5.weights)
    adj_a = _kernels.rk4_adjoint(par, cpar, wts, states, u, 0.05)
    adj_b = PYTHON.rk4_adjoint(par, cpar, wts, states, u, 0.05)
    assert adj_a.tobytes() == adj_b.tobytes()


def _strategy_mask(name):
    mask = StrategyMask.none() if name == "none" else StrategyMask.named(name)
    return mask.as_array()


@pytest.mark.parametrize("name", ["none", "Z1", "Z2", "Z3", "Z4", "Z"])
def test_sweep_step_agrees_bitwise(name, table5):
    """[DERIVED] One sweep iteration gives the same bytes on both
    backends: states, adjoints, relaxed controls and both changes, from
    the zero start, from controls inside [0, 1] against earlier states
    (one of them NaN, which the state change carries), and from controls
    outside [0, 1] holding -0.0.  The last start has R_h > S_h / omega,
    so the characterization meets a -0.0 that the clamp keeps, and the
    relaxed controls hold -0.0 where the start did."""
    par = params_to_array(table5.params)
    cpar = params_to_array(table5.control_params)
    wts = params_to_array(table5.weights)
    mask = _strategy_mask(name)
    n, dt = 200, 0.01
    rng = np.random.default_rng(26)
    inside = _random_controls(rng, n)
    outside = rng.uniform(-0.5, 1.5, (n + 1, 5))
    outside[-1] = -0.0
    recovered = table5.x0.copy()
    recovered[R_H] = 30.0 * recovered[S_H]
    prev = _kernels.rk4_controlled(par, cpar, table5.x0, inside[::-1], dt)
    with_nan = prev.copy()
    with_nan[n // 4, 3] = np.nan
    starts = [(table5.x0, np.zeros((n + 1, 5)), None),
              (table5.x0, inside, prev),
              (table5.x0, inside, with_nan),
              (recovered, outside, prev)]
    results = []
    for x0, u, prev_states in starts:
        got = _kernels.sweep_step(par, cpar, wts, mask, 0.5, x0, u,
                                  prev_states, dt)
        want = PYTHON.sweep_step(par, cpar, wts, mask, 0.5, x0, u,
                                 prev_states, dt)
        for a, b in zip(got, want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        results.append(got)
    assert [r[4] == np.inf for r in results] == [True, False, False, False]
    assert np.isnan(results[2][4])
    assert np.signbit(results[3][2][-1, 0]) and results[3][2][-1, 0] == 0.0


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
    cpar = params_to_array(table5.control_params)
    wts = params_to_array(table5.weights)
    n = 100
    u = _random_controls(np.random.default_rng(25), n)
    states = np.tile(table5.x0, (n + 1, 1))
    base = params_to_array(table5.params)
    cases = [
        ("rk4_basic", (par, table5.x0, n, 5.0)),
        ("rk4_controlled", (par, cpar, table5.x0, u, 5.0)),
        ("rk4_adjoint", (base, cpar, wts, states, u, 100.0)),
    ]
    for name, args in cases:
        got = _first_bad_step(lambda: getattr(_kernels, name)(*args))
        want = _first_bad_step(lambda: getattr(PYTHON, name)(*args))
        assert got == want, name
        assert 1 < got[0] < n, name


def _separate_passes(kernels, par, cpar, wts, x0, u, dt):
    states = kernels.rk4_controlled(par, cpar, x0, u, dt)
    kernels.rk4_adjoint(par, cpar, wts, states, u, dt)


def test_sweep_step_stops_where_its_passes_stop(table5):
    """[DERIVED] sweep_step raises at the node where the forward and the
    adjoint kernels called one after the other stop, on both backends:
    the forward overflow above, and an adjoint overflow under state
    penalties of 1e307 while the forward pass stays finite."""
    p = dataclasses.replace(table5.params, beta_hv=0.0, beta_vh=0.0,
                            delta=0.0, mu_b=1e4, Gamma_E=1e300, Gamma_L=1e300)
    cpar = params_to_array(table5.control_params)
    wts = params_to_array(table5.weights)
    huge = wts.copy()
    huge[:4] = 1e307
    mask = _strategy_mask("Z")
    n = 100
    u = _random_controls(np.random.default_rng(25), n)
    cases = [(params_to_array(p), wts, 5.0),
             (params_to_array(table5.params), huge, 0.5)]
    for par, w, dt in cases:
        want = _first_bad_step(
            lambda: _separate_passes(PYTHON, par, cpar, w, table5.x0, u, dt))
        assert want == _first_bad_step(
            lambda: _separate_passes(_kernels, par, cpar, w, table5.x0, u, dt))
        for kernels in (_kernels, PYTHON):
            got = _first_bad_step(lambda: kernels.sweep_step(
                par, cpar, w, mask, 0.5, table5.x0, u, None, dt))
            assert got == want, kernels
        assert 1 < want[0] < n


@pytest.mark.parametrize("kernels", [_kernels, PYTHON], ids=["active", "python"])
def test_zero_human_total_raises(kernels, table5):
    """[TRIVIAL] Table 5 at dt = 1 drives the human total through zero
    within 50 steps; both backends raise ZeroPopulationError there
    rather than integrating on to a non-finite value.  The adjoint
    kernel raises it for forward states without humans."""
    par = params_to_array(table5.params)
    cpar = params_to_array(table5.control_params)
    with pytest.raises(ZeroPopulationError):
        kernels.rk4_basic(par, table5.x0, 50, 1.0)
    with pytest.raises(ZeroPopulationError):
        kernels.rk4_controlled(par, cpar, table5.x0, np.zeros((51, 5)), 1.0)
    with pytest.raises(ZeroPopulationError):
        kernels.sweep_step(par, cpar, np.ones(9), np.ones(5), 0.5, table5.x0,
                           np.zeros((51, 5)), None, 1.0)
    with pytest.raises(ZeroPopulationError):
        kernels.rk4_adjoint(par, cpar, np.ones(9), np.zeros((11, 10)),
                            np.zeros((11, 5)), 0.1)


@pytest.mark.parametrize("kernels", [_kernels, PYTHON], ids=["active", "python"])
def test_kernels_check_shapes(kernels, table5):
    """[TRIVIAL] Arrays of the wrong shape, masks other than 0/1 and
    negative step counts are refused, not read or written past, and both
    backends refuse each with the same message."""
    par = params_to_array(table5.params)
    cpar = params_to_array(table5.control_params)
    x0, wts, mask, u = table5.x0, np.ones(9), np.ones(5), np.zeros((11, 5))
    states = np.ones((11, 10))
    bad_calls = [
        ("rk4_basic", (par[:20], x0, 10, 0.1)),
        ("rk4_basic", (par, x0[:9], 10, 0.1)),
        ("rk4_basic", (par, x0, -1, 0.1)),
        ("rk4_controlled", (par[:20], cpar, x0, u, 0.1)),
        ("rk4_controlled", (par, cpar[:5], x0, u, 0.1)),
        ("rk4_controlled", (par, cpar, x0[:9], u, 0.1)),
        ("rk4_controlled", (par, cpar, x0, np.zeros((11, 4)), 0.1)),
        ("rk4_controlled", (par, cpar, x0, np.zeros((0, 5)), 0.1)),
        ("rk4_adjoint", (par[:20], cpar, wts, states, u, 0.1)),
        ("rk4_adjoint", (par, cpar[:5], wts, states, u, 0.1)),
        ("rk4_adjoint", (par, cpar, np.ones(4), states, u, 0.1)),
        ("rk4_adjoint", (par, cpar, wts, states, np.zeros((10, 5)), 0.1)),
        ("rk4_adjoint", (par, cpar, wts, np.ones((0, 10)), np.zeros((0, 5)),
                         0.1)),
        ("sweep_step", (par[:20], cpar, wts, mask, 0.5, x0, u, None, 0.1)),
        ("sweep_step", (par, cpar[:5], wts, mask, 0.5, x0, u, None, 0.1)),
        ("sweep_step", (par, cpar, np.ones(4), mask, 0.5, x0, u, None, 0.1)),
        ("sweep_step", (par, cpar, wts, np.full(5, 0.5), 0.5, x0, u, None,
                        0.1)),
        ("sweep_step", (par, cpar, wts, mask, 0.5, x0[:9], u, None, 0.1)),
        ("sweep_step", (par, cpar, wts, mask, 0.5, x0, u, np.ones((10, 10)),
                        0.1)),
    ]
    other = PYTHON if kernels is _kernels else _kernels
    for name, args in bad_calls:
        messages = []
        for k in (kernels, other):
            with pytest.raises(ValueError) as err:
                getattr(k, name)(*args)
            messages.append(str(err.value))
        assert messages[0] == messages[1], name


@pytest.mark.parametrize("kernels", [_kernels, PYTHON], ids=["active", "python"])
def test_kernels_convert_their_arguments(kernels, table5):
    """[TRIVIAL] Lists, a strided control array and Fortran-order states
    give the bytes of the same call on C-contiguous arrays, for all four
    entry points."""
    par = params_to_array(table5.params)
    cpar = params_to_array(table5.control_params)
    wts = params_to_array(table5.weights)
    x0, mask = np.array(table5.x0), _strategy_mask("Z")
    big = _random_controls(np.random.default_rng(27), 100).repeat(2, axis=1)
    u = np.ascontiguousarray(big[:, ::2])
    states = kernels.rk4_controlled(par, cpar, x0, u, 0.05)
    fortran = np.asfortranarray(states)
    assert not big[:, ::2].flags.c_contiguous
    assert not fortran.flags.c_contiguous
    calls = [
        ("rk4_basic", (par, x0, 100, 0.05), (list(par), list(x0), 100, 0.05)),
        ("rk4_controlled", (par, cpar, x0, u, 0.05),
         (list(par), list(cpar), list(x0), big[:, ::2], 0.05)),
        ("rk4_adjoint", (par, cpar, wts, states, u, 0.05),
         (list(par), list(cpar), list(wts), fortran, big[:, ::2], 0.05)),
        ("sweep_step", (par, cpar, wts, mask, 0.5, x0, u, states, 0.05),
         (list(par), list(cpar), list(wts), list(mask), 0.5, list(x0),
          big[:, ::2], fortran, 0.05)),
    ]
    for name, plain, converted in calls:
        want = getattr(kernels, name)(*plain)
        got = getattr(kernels, name)(*converted)
        if name != "sweep_step":
            want, got = (want,), (got,)
        for a, b in zip(got, want, strict=True):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


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
    ker = _kernels.rk4_controlled(params_to_array(p), params_to_array(c),
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
    cpar = params_to_array(c)
    states = _kernels.rk4_controlled(par, cpar, table5.x0, u, grid.dt)
    ker = _kernels.rk4_adjoint(par, cpar, params_to_array(w), states, u,
                               grid.dt)
    ref = rk4_backward(
        lambda t, lam, x, uu: adjoint_field(x, uu, lam, p, c, w),
        np.zeros(10), grid, states, control_traj=u)
    assert np.allclose(ker, ref.values, rtol=1e-9, atol=1e-6)
