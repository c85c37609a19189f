"""The C kernels against the Python route (model/control right-hand
sides driven by the generic RK4 loops of `ode`), and the build/fallback
machinery around them."""

import dataclasses
import itertools
import logging
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from arbo import _kernels
from arbo.control import StrategyMask
from arbo.model import (
    EGG, I_V, R_H, S_H, S_V, ControlParams, ZeroPopulationError,
    adjoint_field, basic_field, controlled_field, params_to_array,
)
from arbo.ode import NonFiniteError, TimeGrid, rk4_forward, rk4_nodes
from arbo.sensitivity import PARAM_ORDER
from conftest import Scenario

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


def test_failing_compiler_falls_back_with_its_status(tmp_path, caplog):
    """[TRIVIAL] A compiler that writes to stderr and exits 3 gives the
    Python kernels, a reason holding the status and the stderr, one
    warning, and no temporary file left in the cache."""
    failing = tmp_path / "cc-fails"
    failing.write_text('#!/bin/sh\necho "rk4.c: cannot build" >&2\nexit 3\n')
    failing.chmod(0o755)
    cache = tmp_path / "cache"
    with caplog.at_level(logging.WARNING, logger="arbo"):
        kernels = _kernels.load(compiler=str(failing), cache_dir=cache)
    assert kernels.backend == "python"
    assert "exited with status 3: rk4.c: cannot build" in kernels.reason
    warnings = [r for r in caplog.records if r.name == "arbo"]
    assert len(warnings) == 1 and warnings[0].levelno == logging.WARNING
    assert list(cache.iterdir()) == []


def test_unwritable_cache_falls_back_with_reason(tmp_path):
    """[TRIVIAL] A cache directory that cannot be made (its parent is a
    regular file) gives the Python kernels and says why."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    kernels = _kernels.load(cache_dir=blocker / "cache")
    assert kernels.backend == "python"
    assert "no writable cache directory" in kernels.reason


def test_kernels_load_without_a_home_directory(monkeypatch):
    """[TRIVIAL] With no home directory to name the user cache by and no
    XDG_CACHE_HOME, the library in (or built into) `__pycache__` still
    loads, rather than the Python kernels with that error as the reason."""
    def no_home(cls):
        raise RuntimeError("Could not determine home directory.")

    monkeypatch.setattr(pathlib.Path, "home", classmethod(no_home))
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    kernels = _kernels.load()
    assert kernels.backend == "c", kernels.reason


def test_only_control_and_cli_load_the_kernels():
    """[TRIVIAL] The analysis modules import without `arbo._kernels`;
    `arbo.control` imports it (which builds and loads nothing, see
    `test_a_command_loads_the_kernels_at_its_first_kernel_call`)."""
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


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"),
                    reason="reads the mapped libraries from /proc/self/maps")
def test_a_command_loads_the_kernels_at_its_first_kernel_call():
    """[TRIVIAL] A fresh `arbo thresholds` imports no `hashlib` and maps no
    kernel library into the process; one `rk4_basic` call afterwards maps it,
    and `BACKEND` then reads "c" where a C compiler is present."""
    config = pathlib.Path(_kernels.__file__).parents[1] / "fixtures/sec22_backward.json"
    code = (
        "import os, sys\n"
        "import numpy as np\n"
        "import arbo.cli, arbo._kernels as k\n"
        "def mapped():\n"
        "    with open('/proc/self/maps', encoding='utf-8') as f:\n"
        "        return any('/rk4-' in line for line in f)\n"
        f"assert arbo.cli.main(['thresholds', '--config', {str(config)!r},\n"
        "                       '--out', os.devnull]) == 0\n"
        "print('hashlib' in sys.modules, mapped())\n"
        "k.rk4_basic(np.ones(21), np.ones(10), 1, 0.1)\n"
        "print(mapped(), k.BACKEND)\n")
    src = pathlib.Path(_kernels.__file__).parents[2]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0] == "False False"
    if shutil.which("cc"):
        assert out[1] == "True c"


def test_python_kernels_run_without_control():
    """[TRIVIAL] In a fresh interpreter, one item of the Python kernels'
    sweep on Table 5 (100 steps, strategy Z) runs with `arbo.control`
    never imported: the kernels need only `model` and `ode`."""
    code = (
        "import json, pathlib, sys\n"
        "import numpy as np\n"
        "from arbo import _kernels, model\n"
        "fixture = pathlib.Path(model.__file__).with_name('fixtures')\n"
        "cfg = json.loads((fixture / 'table5_control.json').read_text())\n"
        "records = (model.ModelParams(**cfg['params']),\n"
        "           model.ControlParams(**cfg['control_params']),\n"
        "           model.ObjectiveWeights(**cfg['weights']))\n"
        "item = next(_kernels.PYTHON.sweep(\n"
        "    *map(model.params_to_array, records), np.ones(5), 0.5,\n"
        "    cfg['initial_state'], np.zeros((101, 5)), 0.01))\n"
        "assert np.isfinite(item[0]).all() and item[3] > 0, item[3]\n"
        "print('arbo.control' in sys.modules)\n")
    src = pathlib.Path(_kernels.__file__).parents[2]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "False\n"


def test_every_exported_name_resolves():
    """[TRIVIAL] `import *` of `arbo` and of `arbo._kernels` finds every
    name in their `__all__`, so no deleted name lingers there."""
    src = pathlib.Path(_kernels.__file__).parents[2]
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", "from arbo import *\n"
                    "from arbo._kernels import *\n"], env=env, check=True,
                   capture_output=True)


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
    """[DERIVED] C and Python-route forward integrations agree bitwise."""
    par = params_to_array(table5.params)
    traj_a = _kernels.rk4_basic(par, table5.x0, 200, 0.05)
    traj_b = PYTHON.rk4_basic(par, table5.x0, 200, 0.05)
    assert traj_a.tobytes() == traj_b.tobytes()


def test_controlled_kernels_agree(table5):
    """[DERIVED] Same for the controlled system with random controls."""
    rng = np.random.default_rng(21)
    par = params_to_array(table5.params)
    cpar = params_to_array(table5.control_params)
    u = _random_controls(rng, 200)
    traj_a = _kernels.rk4_controlled(par, cpar, table5.x0, u, 0.05)
    traj_b = PYTHON.rk4_controlled(par, cpar, table5.x0, u, 0.05)
    assert traj_a.tobytes() == traj_b.tobytes()


def test_adjoint_kernels_agree(table5):
    """[DERIVED] The backward adjoint integrations agree bitwise: `rk4.c`
    builds its adjoint right-hand side from its `field_vjp` in the
    operation order of `model.field_vjp` and `model.adjoint_field`."""
    rng = np.random.default_rng(22)
    par = params_to_array(table5.params)
    cpar = params_to_array(table5.control_params)
    u = _random_controls(rng, 200)
    states = _kernels.rk4_controlled(par, cpar, table5.x0, u, 0.05)
    wts = params_to_array(table5.weights)
    adj_a = _kernels.rk4_adjoint(par, cpar, wts, states, u, 0.05)
    adj_b = PYTHON.rk4_adjoint(par, cpar, wts, states, u, 0.05)
    assert adj_a.tobytes() == adj_b.tobytes()


def test_basic_kernel_matches_reference_integrator(table5):
    """[DERIVED] Both routes are, byte for byte, the generic RK4 driven
    by `basic_field`."""
    p = table5.params
    grid = TimeGrid(0.0, 10.0, 200)
    ref = rk4_forward(lambda t, x: basic_field(x, p), table5.x0, grid).values
    par = params_to_array(p)
    for kernels in (_kernels, PYTHON):
        traj = kernels.rk4_basic(par, table5.x0, grid.n_steps, grid.dt)
        assert traj.tobytes() == ref.tobytes()


def test_controlled_kernel_matches_reference_integrator(table5):
    """[DERIVED] Both routes are, byte for byte, the generic RK4 driven
    by `controlled_field` with midpoint-averaged controls."""
    p, c = table5.params, table5.control_params
    rng = np.random.default_rng(23)
    grid = TimeGrid(0.0, 10.0, 200)
    u = _random_controls(rng, grid.n_steps)
    ref = rk4_forward(lambda t, x, uu: controlled_field(x, uu, p, c),
                      table5.x0, grid, control_lookup=u).values
    par, cpar = params_to_array(p), params_to_array(c)
    for kernels in (_kernels, PYTHON):
        traj = kernels.rk4_controlled(par, cpar, table5.x0, u, grid.dt)
        assert traj.tobytes() == ref.tobytes()


def test_adjoint_kernel_matches_reference_integrator(table5):
    """[DERIVED] Both routes are, byte for byte, the generic backward RK4
    driven by the closed-form `adjoint_field`."""
    p, c, w = table5.params, table5.control_params, table5.weights
    rng = np.random.default_rng(24)
    grid = TimeGrid(0.0, 10.0, 200)
    u = _random_controls(rng, grid.n_steps)
    par, cpar, wts = params_to_array(p), params_to_array(c), params_to_array(w)
    states = PYTHON.rk4_controlled(par, cpar, table5.x0, u, grid.dt)
    ref = rk4_nodes(lambda t, lam, x, uu: adjoint_field(x, uu, lam, p, c, w),
                    np.zeros(10), (states, u), grid.dt, grid.times(),
                    backward=True)
    for kernels in (_kernels, PYTHON):
        adj = kernels.rk4_adjoint(par, cpar, wts, states, u, grid.dt)
        assert adj.tobytes() == ref.tobytes()


def _vectors_and_aquatic_stages(y, u, p, c):
    """(N_v, E, L, P)', written from the model's equations: the adult
    vectors N_v = S_v + E_v + I_v emerge from pupae at theta and all die
    at mu_v + c_m u4 whatever their infection status, which only moves
    them between S_v, E_v and I_v, and all of them lay eggs."""
    n_v, egg, lar, pup = y
    return np.array([
        p.theta * pup - (p.mu_v + c.c_m * u[3]) * n_v,
        p.mu_b * (1.0 - egg / p.Gamma_E) * n_v
        - (p.s + p.mu_E + c.eta1 * u[4]) * egg,
        p.s * egg * (1.0 - lar / p.Gamma_L) - (p.l + p.mu_L + c.eta2 * u[4]) * lar,
        p.l * lar - (p.theta + p.mu_P) * pup,
    ])


@pytest.mark.parametrize("controlled", [False, True],
                         ids=["uncontrolled", "controlled"])
@pytest.mark.parametrize("fixture", ["table5_control", "sec22_backward",
                                     "table2_baseline"])
def test_kernels_keep_the_decoupled_subsystems(fixture, controlled):
    """[DERIVED] Over the fixture's 2,000 steps with delta = 0, with
    random controls or none, the trajectory of each backend holds two
    subsystems written here from the model's equations rather than from
    its right-hand side: (N_v, E, L, P) is autonomous, so its sums of the
    kernel's rows equal RK4 on that 4-D system; and the human total obeys
    N_h' = Lambda_h - mu_h N_h, on which RK4 steps N_h - N* by the factor
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 at z = -mu_h dt, N* = Lambda_h /
    mu_h.  They agree to rounding, 1e-12 relative; a dropped or wrong
    rate in a vector, egg or larva row of `rk4.c` breaks the first."""
    s = Scenario(fixture)
    n, dt = s.grid.n_steps, s.grid.dt
    p = dataclasses.replace(s.params, delta=0.0)
    c = s.control_params if controlled else ControlParams(0, 0, 0, 0, 0, 0)
    u = np.random.default_rng(29).uniform(0.0, 1.0, (n + 1, 5)) * controlled
    y0 = np.concatenate([[s.x0[S_V:I_V + 1].sum()], s.x0[EGG:]])
    vectors = rk4_nodes(lambda t, y, uu: _vectors_and_aquatic_stages(y, uu, p, c),
                        y0, (u,), dt, s.grid.times())
    z = -p.mu_h * dt
    n0, n_star = s.x0[S_H:R_H + 1].sum(), p.lambda_h_in / p.mu_h
    # N* + (n0 - N*) R(z)^k, without the cancellation of N* >> N_h.
    humans = n0 + (n0 - n_star) * np.expm1(np.arange(n + 1) * np.log1p(
        z + z * z / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0))
    for name, kernels in (("active", _kernels), ("python", PYTHON)):
        traj = kernels.rk4_controlled(params_to_array(p), params_to_array(c),
                                      s.x0, u, dt)
        np.testing.assert_allclose(
            np.column_stack([traj[:, S_V:I_V + 1].sum(axis=1), traj[:, EGG:]]),
            vectors, rtol=1e-12, err_msg=name)
        np.testing.assert_allclose(traj[:, S_H:R_H + 1].sum(axis=1), humans,
                                   rtol=1e-12, err_msg=name)


def _scaled(rng, record, capped=()):
    """`record` as an array, each field times 10**U(-1, 1), with the
    fields named in `capped` kept below 1."""
    values = {f.name: getattr(record, f.name) * 10.0 ** rng.uniform(-1.0, 1.0)
              for f in dataclasses.fields(record)}
    values.update({name: min(values[name], 0.99) for name in capped})
    return params_to_array(dataclasses.replace(record, **values))


def _entry(kernels, name):
    """The entry point `name` of `kernels`, where "sweep" stands for the
    first iterations of a fresh sweep: (par, cpar, wts, mask, mix, x0,
    u0, dt, iterations=1) -> the iterations' five results each, in one
    tuple, each array copied before the next iteration reuses it."""
    if name != "sweep":
        return getattr(kernels, name)

    def sweep(par, cpar, wts, mask, mix, x0, u0, dt, iterations=1):
        items = kernels.sweep(par, cpar, wts, mask, mix, x0, u0, dt)
        return tuple(np.array(a) for item in itertools.islice(items, iterations)
                     for a in item)
    return sweep


def _outcome(kernel, args):
    """The bytes of each array the kernel call returns, or its error."""
    try:
        out = kernel(*args)
    except (NonFiniteError, ZeroPopulationError) as exc:
        return type(exc), str(exc)
    return [np.asarray(a).tobytes() for a in
            (out if isinstance(out, tuple) else (out,))]


def _domain_draws(table5):
    """40 random draws, each the arguments of the four entry points (the
    sweep's as `_entry` takes them, one iteration on even draws and two
    on odd ones): model and control parameters and weights, each field
    0.1-10x its Table 5 value (fractions bounded by 1 capped at 0.99),
    random states, controls in and outside [0, 1] and masks, on short
    grids."""
    rng = np.random.default_rng(41)
    for draw in range(40):
        par = _scaled(rng, table5.params, ("eta_h", "eta_v"))
        cpar = _scaled(rng, table5.control_params, ("alpha1", "alpha2"))
        wts = _scaled(rng, table5.weights)
        n, dt = int(rng.integers(2, 17)), rng.uniform(0.005, 0.1)
        x0 = table5.x0 * 10.0 ** rng.uniform(-1.0, 1.0, 10)
        states = x0 * 10.0 ** rng.uniform(-0.5, 0.5, (n + 1, 10))
        u = rng.uniform(-0.25, 1.25, (n + 1, 5))
        mask = rng.integers(0, 2, 5).astype(float)
        yield draw, {
            "rk4_basic": (par, x0, n, dt),
            "rk4_controlled": (par, cpar, x0, u, dt),
            "rk4_adjoint": (par, cpar, wts, states, u, dt),
            "sweep": (par, cpar, wts, mask, rng.uniform(0.1, 1.0),
                      x0, u, dt, 1 + draw % 2),
        }


def test_kernels_agree_bitwise_over_the_domain(table5):
    """[DERIVED] On the random draws of `_domain_draws` all four entry
    points (the sweep as its first one or two iterations) give the same
    bytes on both backends, or stop with the same error.  Table 5 has
    eta_h = eta_v, beta_hv = beta_vh, a = 1 and B1 = ... = B5, so a term
    of `rk4.c` that reads the wrong one of a pair agrees with Python
    there, but not here."""
    finished = {}
    with np.errstate(all="ignore"):
        for draw, calls in _domain_draws(table5):
            for name, args in calls.items():
                got = _outcome(_entry(_kernels, name), args)
                want = _outcome(_entry(PYTHON, name), args)
                assert got == want, (name, draw)
                finished[name] = finished.get(name, 0) + isinstance(got, list)
    assert min(finished.values()) >= 30, finished


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_optimisation_level_moves_no_bit(tmp_path, table5):
    """[DERIVED] `rk4.c` built at -O0, through a compiler that appends
    the flag to the loader's, gives the active build's bytes or error on
    every draw of `_domain_draws`, for all four entry points: without
    contraction into fused multiply-adds no level may change a value."""
    wrapper = tmp_path / "cc-O0"
    wrapper.write_text('#!/bin/sh\nexec cc "$@" -O0\n')
    wrapper.chmod(0o755)
    unoptimised = _kernels.load(compiler=str(wrapper), cache_dir=tmp_path)
    assert unoptimised.backend == "c", unoptimised.reason
    with np.errstate(all="ignore"):
        for draw, calls in _domain_draws(table5):
            for name, args in calls.items():
                got = _outcome(_entry(unoptimised, name), args)
                want = _outcome(_entry(_kernels, name), args)
                assert got == want, (name, draw)


def _strategy_mask(name):
    mask = StrategyMask.none() if name == "none" else StrategyMask.named(name)
    return mask.as_array()


@pytest.mark.parametrize("name", ["none", "Z1", "Z2", "Z3", "Z4", "Z"])
def test_sweep_step_agrees_bitwise(name, table5):
    """[DERIVED] The first two sweep iterations give the same bytes on
    both backends: states, adjoints, relaxed controls and both changes,
    from the zero start, from controls inside [0, 1] and from controls
    outside [0, 1] holding -0.0.  The first state change is infinite and
    the second, against the first iteration's states, finite.  The last
    start has R_h > S_h / omega, so the characterization meets a -0.0
    that the clamp keeps, and the relaxed controls hold -0.0 where the
    start did.  Each start runs a sweep of its own per backend."""
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
    starts = [(table5.x0, np.zeros((n + 1, 5))), (table5.x0, inside),
              (recovered, outside)]
    results = []
    for x0, u0 in starts:
        got, want = (_entry(k, "sweep")(par, cpar, wts, mask, 0.5, x0, u0,
                                        dt, 2)
                     for k in (_kernels, PYTHON))
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()
        results.append(got)
    assert all(r[4] == np.inf and np.isfinite(r[9]) for r in results)
    assert np.signbit(results[2][2][-1, 0]) and results[2][2][-1, 0] == 0.0


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


@pytest.mark.filterwarnings("error")
def test_kernels_raise_the_same_error_without_warning(table5):
    """[TRIVIAL] With warnings as errors, an egg-laying rate of 1e300
    overflows the first step of 1 on both backends into the same
    `NonFiniteError`: the Python loop, like the C one, warns of no
    overflow on the way to refusing it."""
    p = dataclasses.replace(table5.params, mu_b=1e300)
    par = params_to_array(p)
    for kernels in (_kernels, PYTHON):
        with pytest.raises(NonFiniteError) as err:
            kernels.rk4_basic(par, table5.x0, 50, 1.0)
        assert (err.value.step, err.value.t) == (1, 1.0), kernels


def test_kernels_take_out_of_domain_parameter_arrays(table5):
    """[TRIVIAL] The kernels read a parameter array as it is, without the
    bounds of `ModelParams`: under mu_v = -0.01 the four entry points give
    the same bytes on both backends, rather than a `ParamError` from the
    Python ones only."""
    par = params_to_array(table5.params)
    par[PARAM_ORDER.index("mu_v")] = -0.01
    cpar = params_to_array(table5.control_params)
    wts = params_to_array(table5.weights)
    n, dt = 50, 0.1
    u = _random_controls(np.random.default_rng(26), n)
    states = np.tile(table5.x0, (n + 1, 1))
    calls = {
        "rk4_basic": (par, table5.x0, n, dt),
        "rk4_controlled": (par, cpar, table5.x0, u, dt),
        "rk4_adjoint": (par, cpar, wts, states, u, dt),
        "sweep": (par, cpar, wts, _strategy_mask("Z"), 0.5, table5.x0, u, dt,
                  2),
    }
    for name, args in calls.items():
        got = _outcome(_entry(_kernels, name), args)
        assert isinstance(got, list), (name, got)
        assert got == _outcome(_entry(PYTHON, name), args), name


def _separate_passes(kernels, par, cpar, wts, x0, u, dt):
    states = kernels.rk4_controlled(par, cpar, x0, u, dt)
    kernels.rk4_adjoint(par, cpar, wts, states, u, dt)


def test_sweep_step_stops_where_its_passes_stop(table5):
    """[DERIVED] A sweep iteration raises at the node where the forward and the
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
            got = _first_bad_step(lambda: _entry(kernels, "sweep")(
                par, cpar, w, mask, 0.5, table5.x0, u, dt))
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
        _entry(kernels, "sweep")(par, cpar, np.ones(9), np.ones(5), 0.5,
                                 table5.x0, np.zeros((51, 5)), 1.0)
    with pytest.raises(ZeroPopulationError):
        kernels.rk4_adjoint(par, cpar, np.ones(9), np.zeros((11, 10)),
                            np.zeros((11, 5)), 0.1)


@pytest.mark.parametrize("kernels", [_kernels, PYTHON], ids=["active", "python"])
def test_kernels_check_shapes(kernels, table5):
    """[TRIVIAL] Arrays of the wrong shape, masks other than 0/1, negative
    step counts and empty grids are refused, not read or written past,
    and both backends refuse each with the same message.  A sweep
    refuses its arguments when it is called, before any iteration."""
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
        ("sweep", (par[:20], cpar, wts, mask, 0.5, x0, u, 0.1)),
        ("sweep", (par, cpar[:5], wts, mask, 0.5, x0, u, 0.1)),
        ("sweep", (par, cpar, np.ones(4), mask, 0.5, x0, u, 0.1)),
        ("sweep", (par, cpar, wts, np.full(5, 0.5), 0.5, x0, u, 0.1)),
        ("sweep", (par, cpar, wts, mask[:4], 0.5, x0, u, 0.1)),
        ("sweep", (par, cpar, wts, mask, 0.5, x0[:9], u, 0.1)),
        ("sweep", (par, cpar, wts, mask, 0.5, x0, np.zeros((11, 4)), 0.1)),
        ("sweep", (par, cpar, wts, mask, 0.5, x0, np.zeros((0, 5)), 0.1)),
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
    give the bytes of the same call on C-contiguous arrays, for every
    entry point, the sweep over two iterations."""
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
        ("sweep", (par, cpar, wts, mask, 0.5, x0, u, 0.05, 2),
         (list(par), list(cpar), list(wts), list(mask), 0.5, list(x0),
          big[:, ::2], 0.05, 2)),
    ]
    for name, plain, converted in calls:
        want = _entry(kernels, name)(*plain)
        got = _entry(kernels, name)(*converted)
        if name != "sweep":
            want, got = (want,), (got,)
        for a, b in zip(got, want, strict=True):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


@pytest.mark.parametrize("kernels", [_kernels, PYTHON], ids=["active", "python"])
def test_sweep_iterations_keep_their_bytes(kernels, table5):
    """[TRIVIAL] A sweep never writes its starting controls; an
    iteration's states and controls keep their bytes after the next
    iteration is pulled; and two sweeps share no buffer: pulled in turn,
    each gives the bytes of the other."""
    par = params_to_array(table5.params)
    cpar = params_to_array(table5.control_params)
    wts = params_to_array(table5.weights)
    u0 = _random_controls(np.random.default_rng(28), 50)
    start = u0.copy()
    args = (par, cpar, wts, _strategy_mask("Z"), 0.5, table5.x0, u0, 0.05)
    sweeps = (kernels.sweep(*args), kernels.sweep(*args))
    arrays, kept = ([], []), []
    for _ in range(3):
        items = [next(sweep) for sweep in sweeps]
        assert all(a.tobytes() == b for a, b in kept)
        assert [np.asarray(a).tobytes() for a in items[0]] == [
            np.asarray(a).tobytes() for a in items[1]]
        kept = [(a, a.tobytes()) for a in (items[0][0], items[0][2])]
        for found, item in zip(arrays, items):
            found.extend(item[:3])
    assert u0.tobytes() == start.tobytes()
    assert not any(np.shares_memory(a, b) for a in arrays[0] for b in arrays[1])
