"""A symbolic oracle: the model's own Python right-hand sides, run on
SymPy symbols, checked against SymPy's exact derivatives."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from arbo.control import StrategyMask, running_cost
from arbo.equilibria import solve_endemic
from arbo.model import (
    E_H, E_V, I_H, I_V, N_CONTROLS, N_STATES, PUP, R_H, S_H, S_V,
    ControlParams, ModelParams, ObjectiveWeights, basic_field,
    characterize_controls, controlled_field, field_vjp, params_to_array,
)
from arbo.stability import bifurcation_coefficients
from arbo.thresholds import bifurcation_thresholds, dfe_components
from conftest import load_fixture

sympy = pytest.importorskip("sympy")


def _symbols(prefix, n):
    return np.array(sympy.symbols(f"{prefix}0:{n}", positive=True), dtype=object)


def _symbolic(record):
    """The fields of the dataclass `record` as positive symbols, in a
    namespace, since the bound checks cannot compare symbols."""
    return SimpleNamespace(**{f.name: sympy.Symbol(f.name, positive=True)
                              for f in dataclasses.fields(record)})


def test_field_vjp_is_the_exact_transposed_jacobian():
    """[DERIVED] `field_vjp` on symbolic states, controls, model and
    control parameters and adjoints equals J^T lambda, with J SymPy's
    Jacobian of `controlled_field` in the states, exactly: each of the
    ten entries' difference expands to zero, an exact rewriting (the
    powers of the human total stay whole)."""
    x, u = _symbols("x", N_STATES), _symbols("u", N_CONTROLS)
    lam = _symbols("lam", N_STATES)
    p, c = _symbolic(ModelParams), _symbolic(ControlParams)
    field = sympy.Matrix(controlled_field(x, u, p, c))
    jacobian = field.jacobian(sympy.Matrix(x))
    want = jacobian.T * sympy.Matrix(lam)
    got = field_vjp(x, u, lam, p, c)
    assert got.shape == (N_STATES,)
    for k in range(N_STATES):
        assert sympy.expand(got[k] - want[k]) == 0, k


def test_characterize_controls_is_the_clamped_stationary_point():
    """[DERIVED] `characterize_controls` equals, control by control, the
    root of dH/du_j = 0 clamped to [0, 1], where H = `running_cost` +
    lambda . `controlled_field` on symbols and SymPy solves for u_j.  H
    is quadratic in each u_j with no cross terms, so dH/du_j is linear
    in u_j and its root is free of the other controls.  Both sides are evaluated at random
    nodes, states and rates 10**U(-2, 0) and adjoints of either sign
    over six decades, so roots below 0, inside [0, 1] and above 1 all
    occur."""
    x, u = _symbols("x", N_STATES), _symbols("u", N_CONTROLS)
    lam = np.array(sympy.symbols(f"lam0:{N_STATES}", real=True), dtype=object)
    records = (ModelParams, ControlParams, ObjectiveWeights)
    p, c, w = (_symbolic(r) for r in records)
    h = running_cost(x, u, w) + lam @ controlled_field(x, u, p, c)
    roots = []
    for j in range(N_CONTROLS):
        var, root = sympy.solve_linear(sympy.diff(h, u[j]), symbols=[u[j]])
        assert var == u[j] and not root.free_symbols & set(u), j
        roots.append(root)
    names = [[f.name for f in dataclasses.fields(r)] for r in records]
    rates = [sympy.Symbol(n, positive=True) for group in names for n in group]
    root_at = sympy.lambdify([*x, *lam, *rates], roots, "numpy")

    rng = np.random.default_rng(31)
    nodes = 400
    xs = 10.0 ** rng.uniform(-2.0, 0.0, (nodes, N_STATES))
    lams = (rng.choice([-1.0, 1.0], (nodes, N_STATES))
            * 10.0 ** rng.uniform(-3.0, 3.0, (nodes, N_STATES)))
    values = [dict(zip(group, 10.0 ** rng.uniform(-2.0, 0.0, len(group))))
              for group in names]
    raw = np.stack(root_at(*xs.T, *lams.T, *(v for d in values for v in d.values())),
                   axis=-1)
    for j in range(N_CONTROLS):
        assert np.any(raw[:, j] < 0.0) and np.any(raw[:, j] > 1.0), j
        assert np.any((0.0 < raw[:, j]) & (raw[:, j] < 1.0)), j
    got = characterize_controls(
        xs, lams, *(SimpleNamespace(**d) for d in values),
        StrategyMask((True,) * N_CONTROLS).as_array())
    np.testing.assert_allclose(got, np.clip(raw, 0.0, 1.0), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("fixture", ["sec22_backward", "table2_baseline",
                                     "table5_control"])
def test_bif_a1_is_the_exact_hessian_sum(fixture):
    """[DERIVED] `bif_a1` equals a1 = sum_kij v_k w_i w_j d2f_k/dx_i dx_j
    (Castillo-Chavez & Song 2004, Thm 4.1) to 1e-11 relative, with f
    `basic_field` on symbolic states and parameters, its Jacobian and
    Hessians taken by SymPy and evaluated at the biological DFE at
    beta_hv = beta*, and w, v the right and left null vectors of that
    Jacobian scaled as the code scales them: w[I_V] = 1 and v . w = 1."""
    p = ModelParams(**load_fixture(fixture)["params"])
    ps = dataclasses.replace(p, beta_hv=bifurcation_thresholds(p).beta_star)
    x, q = _symbols("x", N_STATES), _symbolic(ModelParams)
    field = sympy.Matrix(basic_field(x, q))
    derivatives = [field.jacobian(x), [sympy.hessian(f, x) for f in field]]
    at = sympy.lambdify([x, list(vars(q).values())], derivatives, "numpy")
    jac, hess = (np.array(d, dtype=float)
                 for d in at(dfe_components(ps), params_to_array(ps)))
    u, _, vt = np.linalg.svd(jac)
    w = vt[-1] / vt[-1][I_V]
    v = u[:, -1] / (u[:, -1] @ w)
    exact = np.einsum("k,kij,i,j", v, hess, w, w)
    assert bifurcation_coefficients(p).bif_a1 == pytest.approx(exact, rel=1e-11)


def _eliminated_quadratic(p):
    """(c2, c1, c0), exact: with the human force of infection held at a
    symbol lambda_h, the human and vector compartments of `basic_field`
    eliminated, and the pupae (the one aquatic stage the vector equations
    read) at the biological DFE, the I_v equation's numerator is
    lambda_h (c2 lambda_h^2 + c1 lambda_h + c0).  The parameters enter
    as the exact rationals of their floats, and `nsimplify` turns the
    field's literal 1.0 factors into 1, so no step rounds."""
    lam = sympy.Symbol("lambda_h", positive=True)
    x, q = _symbols("x", N_STATES), _symbolic(ModelParams)
    exact = {s: sympy.Rational(getattr(p, n)) for n, s in vars(q).items()}
    exact[x[PUP]] = sympy.Rational(float(dfe_components(p)[PUP]))
    f = sympy.nsimplify(sympy.Matrix(basic_field(x, q)), rational=True)
    f = f.xreplace(exact)
    # lambda_h = a beta_hv (eta_v E_v + I_v) / N_h, solved for I_v.
    n_h = x[S_H] + x[E_H] + x[I_H] + x[R_H]
    f = f.subs(x[I_V], lam * n_h / (exact[q.a] * exact[q.beta_hv])
               - exact[q.eta_v] * x[E_V])
    # Each of these equations' numerators is linear in its own compartment.
    solved = {}
    for k in (S_H, E_H, I_H, R_H, S_V, E_V):
        num = sympy.fraction(sympy.cancel(f[k].subs(solved)))[0]
        slope = num.diff(x[k])
        assert slope.diff(x[k]) == 0, k
        solved[x[k]] = sympy.cancel(-num.subs(x[k], 0) / slope)
    closing = sympy.fraction(sympy.cancel(f[I_V].subs(solved)))[0]
    c2, c1, c0, constant = sympy.Poly(closing, lam).all_coeffs()
    assert constant == 0  # lambda_h = 0, the disease-free point, is a root
    return c2, c1, c0


@pytest.mark.parametrize("fixture", ["sec22_backward", "table2_baseline",
                                     "table5_control"])
def test_endemic_quadratic_is_the_eliminated_field(fixture):
    """[DERIVED] The quadratic of `solve_endemic` (d2, d1, d0) is one
    constant times the quadratic left by eliminating the human and vector
    compartments of `basic_field` at a fixed human force of infection,
    to 1e-12 relative, and its discriminant over d2^2 is that
    quadratic's over its leading coefficient squared."""
    p = ModelParams(**load_fixture(fixture)["params"])
    quad = solve_endemic(p).quadratic
    exact = _eliminated_quadratic(p)
    scale = float(exact[0]) / quad.d2
    for c, d in zip(exact, (quad.d2, quad.d1, quad.d0)):
        assert float(c) / d == pytest.approx(scale, rel=1e-12)
    c2, c1, c0 = exact
    assert quad.discriminant / quad.d2 ** 2 == pytest.approx(
        float((c1 * c1 - 4 * c2 * c0) / (c2 * c2)), rel=1e-12)
