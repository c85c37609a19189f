"""A symbolic oracle: the model's own Python right-hand sides, run on
SymPy symbols, checked against SymPy's exact derivatives."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from arbo.model import (
    N_CONTROLS, N_STATES, ControlParams, ModelParams, controlled_field,
    field_vjp,
)

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
