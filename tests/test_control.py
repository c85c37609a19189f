"""Objective, Hamiltonian, adjoint system, and the sweep iteration."""

import dataclasses
import functools

import numpy as np
import pytest

from arbo import _kernels
from arbo.control import (
    StrategyMask, forward_backward_sweep, hamiltonian, objective, running_cost,
)
from arbo.econ import cumulated_infectious, efficiency_index
from arbo.model import (
    ObjectiveWeights, ParamError, adjoint_field, characterize_controls,
    controlled_field, params_to_array,
)
from arbo.ode import TimeGrid
from conftest import Scenario


@pytest.fixture(scope="module")
def short_grid():
    return TimeGrid(0.0, 5.0, 500)


def test_weights_validation():
    """[TRIVIAL] Non-positive penalties are rejected."""
    with pytest.raises(ParamError):
        ObjectiveWeights(D1=0.0, D2=1, D3=1, D4=1, B1=1, B2=1, B3=1, B4=1, B5=1)


def test_strategy_masks():
    """[TRIVIAL] Named sets drop exactly the advertised control."""
    assert StrategyMask.named("Z").active == (True,) * 5
    assert StrategyMask.named("Z1").active[4] is False
    assert StrategyMask.named("Z2").active[3] is False
    assert StrategyMask.named("Z3").active[1] is False
    assert StrategyMask.named("Z4").active[2] is False
    assert not any(StrategyMask.none().active)
    with pytest.raises(ValueError):
        StrategyMask.named("Z9")


def test_strategy_mask_needs_five_flags():
    """[TRIVIAL] A mask of other than five flags, one per control, is
    refused at construction."""
    with pytest.raises(ValueError, match=r"^need 5 flags, got 4$"):
        StrategyMask((True,) * 4)


def test_objective_grid_mismatch(table5):
    """[TRIVIAL] States and controls must hold one row per node of the
    same grid."""
    with pytest.raises(ValueError,
                       match=r"^11 state nodes != 12 control nodes$"):
        objective(np.ones((11, 10)), np.zeros((12, 5)), table5.weights, 0.1)


def test_objective_matches_running_cost(table5):
    """[DERIVED] The vectorized quadrature equals per-node trapezoid."""
    rng = np.random.default_rng(16)
    grid = TimeGrid(0.0, 1.0, 20)
    xs = rng.uniform(1.0, 100.0, (21, 10))
    us = rng.uniform(0.0, 1.0, (21, 5))
    manual = np.trapezoid(
        [running_cost(x, u, table5.weights) for x, u in zip(xs, us)],
        dx=grid.dt)
    assert objective(xs, us, table5.weights, grid.dt) == pytest.approx(
        manual, rel=1e-12)


def test_adjoint_field_is_negative_state_gradient(table5):
    """[DERIVED] Closed forms equal -dH/dx by finite differences."""
    p, c, w = table5.params, table5.control_params, table5.weights
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.uniform(1.0, 1e4, 10)
        u = rng.uniform(0.0, 1.0, 5)
        adj = rng.uniform(-5.0, 5.0, 10)
        exact = adjoint_field(x, u, adj, p, c, w)
        fd = np.empty(10)
        for i in range(10):
            h = 1e-4 * max(1.0, abs(x[i]))

            def at(shift):
                xs = x.copy()
                xs[i] += shift
                return hamiltonian(xs, u, adj, p, c, w)

            fd[i] = -(-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)
        scale = max(1.0, np.max(np.abs(exact)))
        assert np.max(np.abs(exact - fd)) <= 1e-6 * scale


def _reduced_gradient_gaps(kernels, scen, n_steps):
    """Relative gaps, over three smooth directions d, between the
    reduced gradient integral of dH/du . d (one forward pass, one adjoint
    pass) and the central difference of the objective along d (forward
    passes only), on [0, 2] with u_k = 0.3 + 0.1 sin(k t)."""
    p, c, w = scen.params, scen.control_params, scen.weights
    par, cpar = params_to_array(p), params_to_array(c)
    grid = TimeGrid(0.0, 2.0, n_steps)
    t = grid.times()[:, None]
    k = np.arange(1, 6)
    u = 0.3 + 0.1 * np.sin(k * t)

    def cost(controls):
        states = kernels.rk4_controlled(par, cpar, scen.x0, controls, grid.dt)
        return objective(states, controls, w, grid.dt)

    states = kernels.rk4_controlled(par, cpar, scen.x0, u, grid.dt)
    adj = kernels.rk4_adjoint(par, cpar, params_to_array(w), states, u,
                              grid.dt)

    def hamiltonians(controls):
        return running_cost(states, controls, w) + np.sum(
            adj * controlled_field(states, controls, p, c), axis=1)

    eps = 1e-4
    gaps = []
    for i in range(1, 4):
        d = np.cos(i * t + k)
        # H is quadratic in u, so this central difference is dH/du . d.
        dh_du = (hamiltonians(u + d) - hamiltonians(u - d)) / 2.0
        via_adjoint = np.trapezoid(dh_du, dx=grid.dt)
        via_forward = (cost(u + eps * d) - cost(u - eps * d)) / (2.0 * eps)
        gaps.append(abs(via_adjoint - via_forward) / abs(via_forward))
    return np.array(gaps)


@pytest.mark.parametrize("kernels", [_kernels, _kernels.PYTHON],
                         ids=["active", "python"])
def test_reduced_gradient_matches_objective_differences(kernels, table5):
    """[DERIVED] The adjoint gives the sweep's reduced gradient: on Table 5
    it matches the objective's central differences to within 1e-3 at
    dt = 0.01, and the gap shrinks at least 3x with each halving of dt,
    since the continuous adjoint is the discrete one only as dt -> 0
    (Hager 2000)."""
    gaps = [_reduced_gradient_gaps(kernels, table5, n) for n in (200, 400, 800)]
    assert np.all(gaps[0] < 1e-3), gaps
    assert np.all(gaps[0] >= 3.0 * gaps[1]), gaps
    assert np.all(gaps[1] >= 3.0 * gaps[2]), gaps


def test_characterization_clamped_and_masked(table5):
    """[TRIVIAL] Values live in [0,1]; masked entries are exactly zero."""
    p, c, w = table5.params, table5.control_params, table5.weights
    rng = np.random.default_rng(18)
    mask = StrategyMask.named("Z3").as_array()
    for _ in range(20):
        x = rng.uniform(1.0, 1e4, 10)
        adj = rng.uniform(-100.0, 100.0, 10)
        u = characterize_controls(x, adj, p, c, w, mask)
        assert np.all(u >= 0.0) and np.all(u <= 1.0)
        assert u[1] == 0.0  # Z3 excludes the protection control


def test_characterization_stationarity(table5):
    """[DERIVED] At an interior characterized control, dH/du_i = 0."""
    p, c, w = table5.params, table5.control_params, table5.weights
    rng = np.random.default_rng(19)
    found = 0
    for _ in range(200):
        x = rng.uniform(1.0, 1e4, 10)
        adj = rng.uniform(-1.0, 1.0, 10) * 10.0 ** rng.uniform(-5.0, 1.0)
        u = characterize_controls(x, adj, p, c, w,
                                  StrategyMask.named("Z").as_array())
        for j in range(5):
            if not 1e-6 < u[j] < 1.0 - 1e-6:
                continue
            found += 1
            h = 1e-6
            up, um = u.copy(), u.copy()
            up[j] += h
            um[j] -= h
            dh = (hamiltonian(x, up, adj, p, c, w)
                  - hamiltonian(x, um, adj, p, c, w)) / (2 * h)
            assert abs(dh) <= 1e-5 * max(1.0, abs(hamiltonian(x, u, adj, p, c, w)))
    assert found > 10


def test_sweep_rejects_bad_mix(table5, short_grid):
    """[TRIVIAL] Relaxation weight outside (0, 1] is invalid, and the
    error names the setting as the config does."""
    with pytest.raises(ValueError,
                       match=r"^sweep\.mix must be in \(0, 1\], got 0\.0$"):
        forward_backward_sweep(table5.params, table5.control_params,
                               table5.weights, table5.x0, short_grid,
                               StrategyMask.named("Z"), mix=0.0)


def _assert_same_on_python_kernels(result, sweep, monkeypatch):
    """`sweep()` run again with every entry point of `arbo._kernels`
    patched to the Python kernels' gives `result`'s bytes: states,
    adjoints, controls, J, iterations, flags and log."""
    for f in dataclasses.fields(_kernels.PYTHON):
        entry = getattr(_kernels.PYTHON, f.name)
        if callable(entry):
            monkeypatch.setattr(_kernels, f.name, entry)
    python = sweep()
    for traj in ("states", "adjoints", "controls"):
        assert (getattr(result, traj).values.tobytes()
                == getattr(python, traj).values.tobytes()), traj
    assert repr(result) == repr(python)
    assert repr(result.log) == repr(python.log)


def test_sweep_without_controls_is_plain_integration(table5, short_grid,
                                                    monkeypatch):
    """[TRIVIAL] The empty mask reproduces the uncontrolled trajectory and
    stops after one iteration by the control-change rule alone: the
    masked characterization is exactly zero, so the controls do not
    move.  The Python kernels give the same bytes."""
    def sweep():
        return forward_backward_sweep(table5.params, table5.control_params,
                                      table5.weights, table5.x0, short_grid,
                                      StrategyMask.none())

    result = sweep()
    assert result.converged and not result.suspect
    assert result.iterations == 1 and len(result.log) == 1
    assert result.log[0]["control_change"] == 0.0
    assert np.all(result.controls.values == 0.0)
    plain = _kernels.rk4_basic(params_to_array(table5.params), table5.x0,
                               short_grid.n_steps, short_grid.dt)
    assert np.allclose(result.states.values, plain, rtol=1e-12, atol=0.0)

    _assert_same_on_python_kernels(result, sweep, monkeypatch)


def test_sweep_improves_objective_and_is_optimal_shaped(table5, short_grid):
    """[DERIVED] Converged sweep: J(u*) < J(0), transversality exact,
    controls clamped, masked control identically zero."""
    p, c, w = table5.params, table5.control_params, table5.weights
    baseline = forward_backward_sweep(p, c, w, table5.x0, short_grid,
                                      StrategyMask.none())
    result = forward_backward_sweep(p, c, w, table5.x0, short_grid,
                                    StrategyMask.named("Z1"))
    assert result.converged and not result.suspect
    assert result.objective_j < baseline.objective_j
    assert np.all(result.adjoints.values[-1] == 0.0)
    us = result.controls.values
    assert np.all(us >= 0.0) and np.all(us <= 1.0)
    assert np.all(us[:, 4] == 0.0)
    assert result.log[-1]["control_change"] < 1e-3


def test_sweep_nonconvergence_reported(table5, short_grid):
    """[TRIVIAL] An exhausted iteration budget is reported, not hidden."""
    result = forward_backward_sweep(table5.params, table5.control_params,
                                    table5.weights, table5.x0, short_grid,
                                    StrategyMask.named("Z"), max_iters=1)
    assert result.converged is False
    assert result.iterations == 1
    assert len(result.log) == 1


@pytest.mark.parametrize("name, final_passes", [("none", 0), ("Z1", 1)])
def test_final_pass_runs_only_when_the_controls_moved(name, final_passes,
                                                      table5, monkeypatch):
    """[DERIVED] After its iterations the sweep runs one more iteration,
    for its forward and adjoint passes under the final controls, only if
    the last update moved them: the no-control sweep, whose controls stay
    exactly zero, pulls no such item from its iterator and Z1 pulls one.
    Either way its states and adjoints are the bytes of an explicit pass
    under its returned controls, and with `arbo._kernels` patched to the
    Python kernels the whole sweep, Z1's over several iterations, gives
    the same bytes."""
    p, c, w = table5.params, table5.control_params, table5.weights
    grid = TimeGrid(0.0, 2.0, 200)
    mask = StrategyMask.none() if name == "none" else StrategyMask.named(name)

    def sweep():
        return forward_backward_sweep(p, c, w, table5.x0, grid, mask)

    pulls = []

    def counted(*args, run=_kernels.sweep):
        for item in run(*args):
            pulls.append(item)
            yield item

    with monkeypatch.context() as m:
        m.setattr(_kernels, "sweep", counted)
        result = sweep()
    assert len(pulls) == result.iterations + final_passes
    assert result.converged and (name == "none" or result.iterations > 2)

    par, cpar, wts = (params_to_array(r) for r in (p, c, w))
    u = result.controls.values
    states = _kernels.rk4_controlled(par, cpar, table5.x0, u, grid.dt)
    adjoints = _kernels.rk4_adjoint(par, cpar, wts, states, u, grid.dt)
    assert result.states.values.tobytes() == states.tobytes()
    assert result.adjoints.values.tobytes() == adjoints.tobytes()
    _assert_same_on_python_kernels(result, sweep, monkeypatch)


def test_sweep_results_keep_their_bytes(table5):
    """[TRIVIAL] Each sweep writes into buffers of its own: a Z1 result,
    whose final states and adjoints come from the final pass, and a
    no-control result, whose arrays are the last iteration's buffers,
    keep their bytes after further sweeps under other masks."""
    p, c, w = table5.params, table5.control_params, table5.weights
    grid = TimeGrid(0.0, 2.0, 200)

    def sweep(name):
        mask = (StrategyMask.none() if name == "none"
                else StrategyMask.named(name))
        return forward_backward_sweep(p, c, w, table5.x0, grid, mask)

    firsts = [sweep("Z1"), sweep("none")]
    kept = [[getattr(r, t).values.tobytes()
             for t in ("states", "adjoints", "controls")] for r in firsts]
    for name in ("Z4", "none", "Z"):
        sweep(name)
    assert [[getattr(r, t).values.tobytes()
             for t in ("states", "adjoints", "controls")]
            for r in firsts] == kept


def test_sweep_log_records_the_objective_of_each_iterations_controls(table5):
    """[DERIVED] Iteration k+1 logs J(x(u_k), u_k), the objective of the
    controls it started from: from a zero guess, the first entry is the
    no-control sweep's J, and entry k is the J that a run stopped after
    k iterations returns, bit for bit."""
    p, c, w = table5.params, table5.control_params, table5.weights

    def sweep(mask, **kw):
        return forward_backward_sweep(p, c, w, table5.x0, table5.grid, mask,
                                      **kw)

    log = sweep(StrategyMask.named("Z")).log
    assert len(log) > 5
    assert log[0]["J"] == sweep(StrategyMask.none()).objective_j
    for k in (1, 5):
        assert log[k]["J"] == sweep(StrategyMask.named("Z"),
                                    max_iters=k).objective_j


@functools.lru_cache(maxsize=None)
def _table5_sweep(name, n_steps, tol=1e-3):
    """The Table 5 sweep of strategy `name` (None: no control) on [0, 20]
    in `n_steps` steps, checked converged; shared by the criterion-7
    convergence tests, which only read it."""
    t5 = Scenario("table5_control")
    mask = StrategyMask.none() if name is None else StrategyMask.named(name)
    result = forward_backward_sweep(
        t5.params, t5.control_params, t5.weights, t5.x0,
        TimeGrid(0.0, 20.0, n_steps), mask, tol=tol)
    assert result.converged and not result.suspect, (name, n_steps, tol)
    return result


def _efficiencies(n_steps, tol=1e-3) -> dict:
    """Criterion 7's efficiency of each strategy against no control."""
    a0 = cumulated_infectious(_table5_sweep(None, n_steps, tol).states)
    return {name: efficiency_index(
                cumulated_infectious(_table5_sweep(name, n_steps, tol).states),
                a0)
            for name in ("Z1", "Z2", "Z3", "Z4", "Z")}


_C_ONLY = pytest.mark.skipif(
    _kernels.BACKEND != "c", reason="sweeps of up to 4,000 steps take "
    "minutes on the Python kernels, which "
    "test_final_pass_runs_only_when_the_controls_moved pins to C")


@_C_ONLY
def test_criterion_7_is_converged_in_dt():
    """[DERIVED] Criterion 7's numbers do not rest on its step size.  At
    4,000 steps on [0, 20] (dt = 0.005, half the paper's) the efficiency
    ordering F(Z1) >= F(Z2) >= F(Z3) >= F(Z4) and the 0.5-point Z1/Z gap
    still hold, and Z's J converges at second order: each halving of dt
    shrinks its change by a factor of 4 (trapezoid objective, controls
    linear between nodes)."""
    eff = _efficiencies(4000)
    assert eff["Z1"] >= eff["Z2"] >= eff["Z3"] >= eff["Z4"], eff
    assert abs(eff["Z1"] - eff["Z"]) <= 0.5, eff

    j1000, j2000, j4000 = (_table5_sweep("Z", n).objective_j
                           for n in (1000, 2000, 4000))
    ratio = (j1000 - j2000) / (j2000 - j4000)
    assert 3.8 <= ratio <= 4.2, ratio


@_C_ONLY
def test_criterion_7_is_converged_in_tol():
    """[DERIVED] Criterion 7's numbers do not rest on the sweep's stopping
    tolerance.  At tol 1e-6 (against the default 1e-3) on the paper's
    2,000 steps the efficiency ordering and the 0.5-point Z1/Z gap still
    hold, and tightening the tolerance lowers Z's J by less than halving
    dt moves it (about 240 against 340), so the default tolerance is not
    the larger error.  A sweep that stopped early would lower J by
    nothing and fail."""
    eff = _efficiencies(2000, tol=1e-6)
    assert eff["Z1"] >= eff["Z2"] >= eff["Z3"] >= eff["Z4"], eff
    assert abs(eff["Z1"] - eff["Z"]) <= 0.5, eff

    j2000, j4000 = (_table5_sweep("Z", n).objective_j for n in (2000, 4000))
    tight = _table5_sweep("Z", 2000, tol=1e-6).objective_j
    assert 0.0 < j2000 - tight < j2000 - j4000, (j2000 - tight, j2000 - j4000)



_STEPS = np.array([0.1, 0.01, 0.001])


def _relative_rises(t5, u, mask, count=20, seed=4) -> np.ndarray:
    """(J(clip(u + e v, 0, 1)) - J(u)) / J(u) for `count` smooth random
    directions v (rows) and each step e in `_STEPS` (columns).  Direction
    i moves only the i-th control that `mask` leaves on (cyclically), by
    four sines of the grid's time scaled to max|v| = 1, so that the
    first-order rise of a control at its bound cannot hide the fall of
    another.  J is `objective` of the controls and of their
    `rk4_controlled` states."""
    par, cpar, grid = (params_to_array(t5.params),
                       params_to_array(t5.control_params), t5.grid)

    def j(controls):
        states = _kernels.rk4_controlled(par, cpar, t5.x0, controls, grid.dt)
        return objective(states, controls, t5.weights, grid.dt)

    rng = np.random.default_rng(seed)
    phase = np.pi * (grid.times() - grid.t0) / (grid.tf - grid.t0)
    k, active = np.arange(1.0, 5.0), np.flatnonzero(mask)
    j0, rises = j(u), []
    for i in range(count):
        a, b = rng.standard_normal((2, 4))
        v = np.zeros_like(u)
        v[:, active[i % active.size]] = np.sum(
            a * np.sin(k * phase[:, None] + b), axis=-1)
        v /= np.max(np.abs(v))
        rises.append([(j(np.clip(u + e * v, 0.0, 1.0)) - j0) / j0
                      for e in _STEPS])
    return np.array(rises)


@_C_ONLY
@pytest.mark.parametrize("name", ["Z", "Z4"])
def test_sweep_answer_is_not_lowered_by_any_probed_perturbation(name, table5):
    """[DERIVED] Pontryagin's conditions, which the sweep solves, are only
    necessary (Lenhart & Workman 2007, ch. 4), and acceptance 9 checks
    dH/du alone; this checks the discrete J that criterion 7 ranks.  At
    the default settings on Table 5, no probed step e lowers J by more
    than 1e-6 e of J.  The allowance is first order in e because the
    default tol 1e-3 stops the sweep short of its fixed point: under Z
    one u1 direction lowers J by 1.3e-7 e of J, about as much at 1,000
    and 4,000 steps, and by nothing at tol 1e-8.
    A flipped sign of u2's (l2 - l1) term lowers J by 2.4e-4 e (Z) and
    1.4e-3 e (Z4); after one iteration the probe lowers J by 3.4 % (Z)
    and 1.5 % (Z4).  The seed is fixed: a failure is to be explained,
    not reseeded."""
    t5, mask = table5, StrategyMask.named(name)
    for max_iters, lowered in ((200, False), (1, True)):
        result = forward_backward_sweep(
            t5.params, t5.control_params, t5.weights, t5.x0, t5.grid, mask,
            max_iters=max_iters)
        rises = _relative_rises(t5, result.controls.values, mask.as_array())
        assert np.any(rises < -1e-6 * _STEPS) == lowered, (
            max_iters, rises.min(axis=0))
        assert result.converged is not lowered
