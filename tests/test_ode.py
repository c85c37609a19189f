"""Time grids, trajectories, and the RK4 loop run forward and backward."""

import math

import numpy as np
import pytest

from arbo.ode import NonFiniteError, TimeGrid, Trajectory, rk4_forward, rk4_nodes


def test_grid_validation():
    """[TRIVIAL] Degenerate grids are rejected."""
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)


@pytest.mark.parametrize("t0, tf", [
    (0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan), (math.nan, 1.0),
])
def test_grid_refuses_non_finite_ends(t0, tf):
    """[TRIVIAL] An end that is not finite would give dt = inf and node
    times of NaN and infinity; the grid refuses it when built."""
    with pytest.raises(ValueError, match="need finite t0 and tf"):
        TimeGrid(t0, tf, 10)


def test_grid_times():
    """[TRIVIAL] Node times are uniform and inclusive of both ends."""
    grid = TimeGrid(1.0, 3.0, 4)
    assert grid.dt == pytest.approx(0.5)
    assert grid.times().tolist() == [1.0, 1.5, 2.0, 2.5, 3.0]


def test_trajectory_shape_validation():
    """[TRIVIAL] Row count must match the grid."""
    grid = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        Trajectory(grid, np.zeros((4, 3)))


def test_trajectory_csv_roundtrip(tmp_path):
    """[TRIVIAL] CSV output restores values exactly (full precision)."""
    grid = TimeGrid(0.0, 1.0, 3)
    rng = np.random.default_rng(14)
    values = rng.normal(size=(4, 2)) * np.array([1e-7, 1e9])
    traj = Trajectory(grid, values)
    path = tmp_path / "traj.csv"
    traj.to_csv(path, ["a", "b"])
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.all(data[:, 0] == grid.times())
    assert np.all(data[:, 1:] == values)


def _per_value_csv(traj, path, names):
    """The writer `Trajectory.to_csv` replaced: one f-string per value."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("t," + ",".join(names) + "\n")
        for i, t in enumerate(traj.grid.times()):
            row = [f"{t:.17g}"] + [f"{v:.17g}" for v in traj.values[i]]
            f.write(",".join(row) + "\n")


def test_trajectory_csv_matches_per_value_writer(tmp_path):
    """[TRIVIAL] The row-format writer gives the same bytes as formatting
    each value on its own, including -0, NaN, infinities and subnormals."""
    rng = np.random.default_rng(9)
    grid = TimeGrid(0.1, 20.3, 300)
    values = rng.standard_normal((301, 4)) * 10.0 ** rng.integers(-300, 300, (301, 4))
    values[:6, 0] = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.0]
    traj = Trajectory(grid, values)
    names = ["a", "b", "c", "d"]
    traj.to_csv(tmp_path / "fast.csv", names)
    _per_value_csv(traj, tmp_path / "slow.csv", names)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def test_rk4_forward_exponential_accuracy():
    """[DERIVED] Exact solution of x' = -x is matched to O(dt^4)."""
    grid = TimeGrid(0.0, 2.0, 100)
    traj = rk4_forward(lambda t, x: -x, np.array([1.0]), grid)
    assert traj.values[-1, 0] == pytest.approx(math.exp(-2.0), abs=1e-9)


def test_rk4_forward_order_four():
    """[DERIVED] Halving dt shrinks the error by roughly 2^4."""
    errors = []
    for n in (20, 40, 80):
        grid = TimeGrid(0.0, 2.0, n)
        traj = rk4_forward(lambda t, x: -x, np.array([1.0]), grid)
        errors.append(abs(traj.values[-1, 0] - math.exp(-2.0)))
    for i in range(2):
        assert 12.0 <= errors[i] / errors[i + 1] <= 20.0


def test_rk4_forward_nonautonomous():
    """[DERIVED] x' = t integrates to t^2/2 exactly (polynomial order)."""
    grid = TimeGrid(0.0, 2.0, 10)
    traj = rk4_forward(lambda t, x: np.array([t]), np.array([0.0]), grid)
    assert traj.values[-1, 0] == pytest.approx(2.0, rel=1e-12)


def test_rk4_forward_nonfinite_detection():
    """[TRIVIAL] Blow-up is reported with the offending step index."""
    grid = TimeGrid(0.0, 10.0, 100)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError) as err:
            rk4_forward(lambda t, x: x * x, np.array([10.0]), grid)
    assert err.value.step >= 1


def test_rk4_forward_controlled_shape_check():
    """[TRIVIAL] Control trajectory rows must match the grid."""
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        rk4_forward(lambda t, x, u: -x, np.array([1.0]), grid,
                    control_lookup=np.zeros((5, 2)))


def test_rk4_forward_constant_control():
    """[DERIVED] x' = -u x with u = 2 equals the u-scaled decay."""
    grid = TimeGrid(0.0, 1.0, 200)
    u = np.full((201, 1), 2.0)
    traj = rk4_forward(lambda t, x, u: -u[0] * x, np.array([1.0]), grid,
                       control_lookup=u)
    assert traj.values[-1, 0] == pytest.approx(math.exp(-2.0), abs=1e-10)


def test_rk4_backward_exponential():
    """[DERIVED] lam' = lam backward from lam(tf) = 1 gives e^(t - tf)."""
    grid = TimeGrid(0.0, 2.0, 200)
    lam = rk4_nodes(lambda t, lam: lam, np.array([1.0]), (), grid.dt,
                    grid.times(), backward=True)
    assert lam[0, 0] == pytest.approx(math.exp(-2.0), abs=1e-9)
    assert lam[-1, 0] == 1.0


def test_rk4_backward_nonautonomous():
    """[DERIVED] lam' = t backward from lam(tf) = 0 gives (t^2 - tf^2)/2
    at every node to rounding (polynomial order), which it does only if
    the stage times step down from each node."""
    grid = TimeGrid(2.0, 12.0, 100)
    t = grid.times()
    lam = rk4_nodes(lambda t, lam: np.array([t]), np.array([0.0]), (),
                    grid.dt, t, backward=True)
    exact = (t * t - 144.0) / 2.0
    # Two units in the last place of the largest value, 70.
    assert np.max(np.abs(lam[:, 0] - exact)) <= 2 * np.spacing(70.0)


def test_rk4_backward_nonfinite_detection():
    """[TRIVIAL] A backward blow-up is reported at the node the failing
    step lands on, one below the terminal node, with that node's time."""
    grid = TimeGrid(2.0, 12.0, 100)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError) as err:
            rk4_nodes(lambda t, lam: -1e100 * lam * lam, np.array([10.0]),
                      (), grid.dt, grid.times(), backward=True)
    assert (err.value.step, err.value.t) == (99, grid.times()[99])
    assert str(err.value) == "non-finite value at step 99 (t = 11.9)"


def test_rk4_backward_adjoint_invariant():
    """[DERIVED] For x' = A x, lam' = -A^T lam, the product lam . x is a
    constant of motion; the discrete schemes preserve it to O(dt^4)."""
    rng = np.random.default_rng(15)
    a = rng.normal(size=(3, 3)) * 0.5
    grid = TimeGrid(0.0, 2.0, 400)
    x0 = rng.normal(size=3)
    states = rk4_forward(lambda t, x: a @ x, x0, grid)
    lam_tf = rng.normal(size=3)
    adj = rk4_nodes(lambda t, lam: -a.T @ lam, lam_tf, (), grid.dt,
                    grid.times(), backward=True)
    inner = np.einsum("ij,ij->i", states.values, adj)
    assert np.max(np.abs(inner - inner[-1])) <= 1e-7 * max(1.0, abs(inner[-1]))
