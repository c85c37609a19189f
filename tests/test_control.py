"""Objective, Hamiltonian, adjoint system, and the sweep iteration."""

import numpy as np
import pytest

from arbo import _kernels
from arbo.control import (
    GridMismatchError, ObjectiveWeights, StrategyMask,
    adjoint_field, characterize_controls, forward_backward_sweep, hamiltonian,
    objective, running_cost,
)
from arbo.model import ParamError, controlled_field, params_to_array
from arbo.ode import TimeGrid, Trajectory


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
    with pytest.raises(ValueError):
        StrategyMask(name="Z1", active=(True,) * 5)


def test_objective_grid_mismatch(table5):
    """[TRIVIAL] State and control trajectories must share a grid."""
    g1 = TimeGrid(0.0, 1.0, 10)
    g2 = TimeGrid(0.0, 2.0, 10)
    states = Trajectory(g1, np.ones((11, 10)))
    controls = Trajectory(g2, np.zeros((11, 5)))
    with pytest.raises(GridMismatchError):
        objective(states, controls, table5.weights)


def test_objective_matches_running_cost(table5):
    """[DERIVED] The vectorized quadrature equals per-node trapezoid."""
    rng = np.random.default_rng(16)
    grid = TimeGrid(0.0, 1.0, 20)
    xs = rng.uniform(1.0, 100.0, (21, 10))
    us = rng.uniform(0.0, 1.0, (21, 5))
    states, controls = Trajectory(grid, xs), Trajectory(grid, us)
    manual = np.trapezoid(
        [running_cost(x, u, table5.weights) for x, u in zip(xs, us)],
        dx=grid.dt)
    assert objective(states, controls, table5.weights) == pytest.approx(
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
        return objective(Trajectory(grid, states), Trajectory(grid, controls), w)

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
    mask = StrategyMask.named("Z3")
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
        u = characterize_controls(x, adj, p, c, w, StrategyMask.named("Z"))
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
    """[TRIVIAL] Relaxation weight outside (0, 1] is invalid."""
    with pytest.raises(ValueError):
        forward_backward_sweep(table5.params, table5.control_params,
                               table5.weights, table5.x0, short_grid,
                               StrategyMask.named("Z"), mix=0.0)


def test_sweep_rejects_bad_initial_guess(table5, short_grid):
    """[TRIVIAL] Initial guess must match the grid shape."""
    with pytest.raises(ValueError):
        forward_backward_sweep(table5.params, table5.control_params,
                               table5.weights, table5.x0, short_grid,
                               StrategyMask.named("Z"),
                               initial_guess=np.zeros((3, 5)))


def test_sweep_without_controls_is_plain_integration(table5, short_grid):
    """[TRIVIAL] The empty mask reproduces the uncontrolled trajectory."""
    result = forward_backward_sweep(table5.params, table5.control_params,
                                    table5.weights, table5.x0, short_grid,
                                    StrategyMask.none())
    assert result.converged
    assert np.all(result.controls.values == 0.0)
    plain = _kernels.rk4_basic(params_to_array(table5.params), table5.x0,
                               short_grid.n_steps, short_grid.dt)
    assert np.allclose(result.states.values, plain, rtol=1e-12, atol=0.0)


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


def test_sweep_warm_start_converges_faster(table5, short_grid):
    """[DERIVED] Restarting from the converged controls needs one pass."""
    p, c, w = table5.params, table5.control_params, table5.weights
    first = forward_backward_sweep(p, c, w, table5.x0, short_grid,
                                   StrategyMask.named("Z"))
    second = forward_backward_sweep(p, c, w, table5.x0, short_grid,
                                    StrategyMask.named("Z"),
                                    initial_guess=first.controls.values)
    assert second.converged
    assert second.iterations <= 3
    assert second.objective_j == pytest.approx(first.objective_j, rel=1e-3)


def test_sweep_is_the_same_on_the_python_kernels(table5, monkeypatch):
    """[DERIVED] A whole Z1 sweep from an initial guess outside [0, 1]
    gives the same bytes with `arbo._kernels` patched to the Python
    kernels: states, adjoints, controls, J, iterations, flags and log."""
    p, c, w = table5.params, table5.control_params, table5.weights
    grid = TimeGrid(0.0, 2.0, 200)
    guess = np.random.default_rng(27).uniform(-0.5, 1.5, (201, 5))

    def sweep():
        return forward_backward_sweep(p, c, w, table5.x0, grid,
                                      StrategyMask.named("Z1"),
                                      initial_guess=guess)

    active = sweep()
    for name in ("rk4_controlled", "rk4_adjoint", "sweep_step"):
        monkeypatch.setattr(_kernels, name, getattr(_kernels.PYTHON, name))
    python = sweep()
    for traj in ("states", "adjoints", "controls"):
        assert (getattr(active, traj).values.tobytes()
                == getattr(python, traj).values.tobytes()), traj
    assert repr(active) == repr(python)
    assert repr(active.log) == repr(python.log)
    assert active.converged and active.iterations > 2


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
