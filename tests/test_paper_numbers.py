"""Where the documented sec. 2.2 numbers come from.

Criteria 1 and 2 of `tests/test_acceptance.py` assert numbers documented
for the sec. 2.2 (backward-bifurcation) set and fail on its fixture,
whose beta_hv is 0.008.  These tests trace each of those numbers to the
parameter value or convention that reproduces it, within the acceptance
test's own tolerance: the same set with beta_hv = 0.1, R_c reported
squared, and the endemic quadratic's d1 and d0, but not d2, times
k9 = gamma_v + mu_v.  The documented endemic vectors match the beta_hv =
0.1 endemic points in E, P, I_h and R_h, in L up to a factor 10 and in
S_v at one of the two points, and in no other component.  Criterion 5's
two starts, run at beta_hv = 0.1, reach the two stable states, the other
way round from the documented split.  README "Known paper
inconsistencies" rests on them.
"""

import dataclasses

import numpy as np
import pytest

from arbo import _kernels
from arbo.equilibria import endemic_quadratic, solve_endemic
from arbo.model import (
    E_H, E_V, EGG, I_H, I_V, LAR, PUP, R_H, S_H, S_V, derive_constants,
    params_to_array,
)
from arbo.stability import eigen_verdict
from arbo.thresholds import bifurcation_thresholds

# As criteria 1 and 2 of tests/test_acceptance.py document them.
R0, R_C = 0.4359, 0.0367
D2, D1, D0, DISCRIMINANT = -5.6537e-8, 1.1504e-10, -2.4857e-14, 7.6134e-21
ENDEMIC = (
    np.array([16394., 16384., 29., 10092., 6558., 406., 869.,
              8393., 31334., 3264.]),
    np.array([104660., 104660., 25., 8850., 7530., 97., 206.,
              8393., 31334., 3264.]),
)
# The transmission probability vector -> human they were taken at.
BETA_HV = 0.1


@pytest.fixture
def at_beta(sec22):
    return dataclasses.replace(sec22.params, beta_hv=BETA_HV)


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def test_documented_r0_is_at_beta_hv_one_tenth(sec22, at_beta):
    """[PAPER] R0 = 0.4359 is the code's R0 at beta_hv = 0.1 (0.43585),
    not at the fixture's 0.008 (0.1233)."""
    assert abs(bifurcation_thresholds(at_beta).r0 - R0) <= 5e-4
    assert abs(bifurcation_thresholds(sec22.params).r0 - R0) > 5e-4


def test_documented_r_c_is_r_c_squared(sec22, at_beta):
    """[PAPER] R_c = 0.0367 is the code's R_c squared (0.03666), not R_c
    (0.1915); R_c does not depend on beta_hv."""
    r_c = bifurcation_thresholds(sec22.params).r_c
    assert bifurcation_thresholds(at_beta).r_c == r_c
    assert abs(r_c * r_c - R_C) <= 5e-4
    assert abs(r_c - R_C) > 5e-4


def test_documented_d1_and_d0_carry_a_factor_k9(at_beta):
    """[PAPER] At beta_hv = 0.1 the documented d1 and d0 are the code's
    times k9 = gamma_v + mu_v = 0.10476 (1.15042e-10 and -2.48566e-14),
    within 1e-3 relative.  The documented d2 is the code's without the
    factor; d2 does not depend on beta_hv."""
    q = endemic_quadratic(at_beta)
    k9 = derive_constants(at_beta).k9
    assert _rel(k9 * q.d1, D1) <= 1e-3
    assert _rel(k9 * q.d0, D0) <= 1e-3
    assert _rel(q.d2, D2) <= 1e-3
    assert _rel(k9 * q.d2, D2) > 1e-3


def test_documented_discriminant_is_the_documented_coefficients_own(at_beta):
    """[PAPER] d1^2 - 4 d2 d0 of the documented coefficients is
    7.6128e-21, the documented discriminant within 1e-3 relative; the
    code's discriminant at beta_hv = 0.1 is not, since its d1 and d0
    lack the factor k9."""
    own = D1 * D1 - 4.0 * D2 * D0
    assert abs(own - 7.6128e-21) <= 5e-26
    assert _rel(own, DISCRIMINANT) <= 1e-3
    assert _rel(endemic_quadratic(at_beta).discriminant, DISCRIMINANT) > 1e-3


def test_documented_endemic_vectors_are_partly_the_beta_hv_one_tenth_points(
        at_beta):
    """[PAPER] At beta_hv = 0.1 `solve_endemic` gives a stable endemic
    point at lambda_h = 1.920e-2 and an unstable one at 2.185e-4.  The
    documented list puts the stable point first, so the first documented
    vector pairs with it and the second with the unstable one.  Component
    by component, (point - documented) / documented is:
    - for E and P, within 3.5e-5 in both pairs (asserted to 1e-3);
    - for L, the point's L times 10 within 2.2e-5: the documented L is
      10 times the code's (asserted to 1e-3);
    - for I_h and R_h, +1.71 % and +2.07 % in the first pair, -0.40 % and
      -1.75 % in the second (asserted to 2.5 %);
    - for S_v, -16.7 % in the first pair and +0.40 % in the second (the
      second asserted to 2.5 %).
    S_h, E_h, E_v and I_v match neither point: each is off by 9.5 % or
    more in both pairs, beyond the acceptance test's 5 % component
    tolerance.  The documented E_h repeats S_h."""
    eq = solve_endemic(at_beta, stability_checker=lambda x: eigen_verdict(
        x, at_beta).stable)
    points = {stable: (x, lam) for x, lam, stable in eq.endemic}
    assert len(eq.endemic) == 2 and set(points) == {True, False}
    assert abs(points[True][1] - 1.920e-2) <= 5e-6
    assert abs(points[False][1] - 2.185e-4) <= 5e-8
    pairs = [(points[True][0], ENDEMIC[0]), (points[False][0], ENDEMIC[1])]
    for i, (x, doc) in enumerate(pairs):
        rel = (x - doc) / doc
        assert max(abs(rel[EGG]), abs(rel[PUP])) <= 1e-3, i
        assert _rel(10.0 * x[LAR], doc[LAR]) <= 1e-3, i
        assert max(abs(rel[I_H]), abs(rel[R_H])) <= 0.025, i
        assert min(abs(rel[[S_H, E_H, E_V, I_V]])) > 0.05, i
        assert _rel(doc[E_H], doc[S_H]) <= 1e-3, i
    (first, doc1), (second, doc2) = pairs
    assert _rel(second[S_V], doc2[S_V]) <= 0.025 < _rel(first[S_V], doc1[S_V])


def test_criterion_5_starts_swap_their_fates_at_beta_hv_one_tenth(at_beta):
    """[PAPER] At beta_hv = 0.1, inside the two-endemic window, criterion
    5's two starts and grid (300,000 RK4 steps of 0.1) reach the two
    stable states, swapped: the first start, documented as dying out,
    ends at I_h = 29.5014, within 0.1 % of the stable endemic point's
    29.4967, and the second (S_h = 733,650), documented as reaching that
    point, dies out (I_h = 6.5e-309), below the acceptance test's 1e-6."""
    eq = solve_endemic(at_beta, stability_checker=lambda x: eigen_verdict(
        x, at_beta).stable)
    [target] = [x[I_H] for x, _, stable in eq.endemic if stable]
    first = np.array([700., 220., 15., 60., 3000., 400., 120.,
                      10000., 5000., 3000.])
    second = first.copy()
    second[S_H] = 733650.0
    par = params_to_array(at_beta)
    ends = [_kernels.rk4_basic(par, x0, 300_000, 0.1)[-1, I_H]
            for x0 in (first, second)]
    assert _rel(ends[0], target) <= 1e-3
    assert abs(ends[1]) <= 1e-6
