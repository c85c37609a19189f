"""Where the documented sec. 2.2 numbers come from.

Criteria 1 and 2 of `tests/test_acceptance.py` assert numbers documented
for the sec. 2.2 (backward-bifurcation) set and fail on its fixture,
whose beta_hv is 0.008.  These tests trace each of those numbers to the
parameter value or convention that reproduces it, within the acceptance
test's own tolerance: the same set with beta_hv = 0.1, R_c reported
squared, and the endemic quadratic's d1 and d0, but not d2, times
k9 = gamma_v + mu_v.  README "Known paper inconsistencies" rests on them.
"""

import dataclasses

import pytest

from arbo.equilibria import endemic_quadratic
from arbo.model import derive_constants
from arbo.thresholds import bifurcation_thresholds

# As criteria 1 and 2 of tests/test_acceptance.py document them.
R0, R_C = 0.4359, 0.0367
D2, D1, D0, DISCRIMINANT = -5.6537e-8, 1.1504e-10, -2.4857e-14, 7.6134e-21
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
