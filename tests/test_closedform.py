"""Exact constants, bounds, and expectation curves."""

import math

import numpy as np
import pytest

from prcond.closedform import (
    SQRT3,
    fourth_moment_floor,
    gaussian_abs_expectation,
    harmonic_constants,
    sub_tan_bound,
    two_to_four_norm_bound,
    universal_lower_bound,
)
from prcond.core import Field


# ---------------------------------------------------------------------------
# universal lower bounds on beta
# ---------------------------------------------------------------------------

def test_l2_bounds_per_field():
    assert universal_lower_bound(Field.REAL, 2).value == pytest.approx(SQRT3, abs=0)
    assert universal_lower_bound(Field.COMPLEX, 2).value == 2.0


def test_l1_complex_bound_is_two():
    b = universal_lower_bound(Field.COMPLEX, 1)
    assert b.value == 2.0 and b.m is None


def test_l1_real_bound_refines_with_m():
    base = universal_lower_bound(Field.REAL, 1)
    assert base.value == pytest.approx(math.pi / 2.0, abs=0)
    refined = universal_lower_bound(Field.REAL, 1, m=5)
    assert refined.value == pytest.approx(5.0 * math.tan(math.pi / 10.0), rel=1e-15)
    assert refined.m == 5
    # too few measurements to use the refinement: fall back to pi/2
    assert universal_lower_bound(Field.REAL, 1, m=2).value == pytest.approx(math.pi / 2.0)


def test_l1_real_refined_bound_decreases_toward_pi_half():
    values = [universal_lower_bound(Field.REAL, 1, m=m).value for m in range(3, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > math.pi / 2.0 for v in values)
    # the excess over the limit is tiny but still positive at m = 10^4
    far = universal_lower_bound(Field.REAL, 1, m=10_000).value
    assert far - math.pi / 2.0 == pytest.approx(1.2919282088574846e-08, rel=1e-9)


def test_bound_sources_are_stable_tags():
    assert universal_lower_bound(Field.REAL, 2).source == "l2-real"
    assert universal_lower_bound(Field.REAL, 1, m=7).source == "l1-real-refined"


def test_bounds_reject_bad_p():
    with pytest.raises(ValueError):
        universal_lower_bound(Field.REAL, 3)
    # a fractional p is rejected, not truncated to 1
    with pytest.raises(ValueError):
        universal_lower_bound(Field.REAL, 1.5)
    assert universal_lower_bound(Field.REAL, 2.0) == universal_lower_bound(Field.REAL, 2)


# ---------------------------------------------------------------------------
# harmonic frame constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(3, 13))
def test_harmonic_l2_family(m):
    h = harmonic_constants(m, 2)
    assert h.L == pytest.approx(math.sqrt(m / 8.0), rel=1e-15)
    assert h.L_orth == h.L
    assert h.U == pytest.approx(math.sqrt(3.0 * m / 8.0), rel=1e-15)
    assert h.beta == pytest.approx(SQRT3, rel=1e-15)


def test_harmonic_l1_spot_values():
    # the m = 3 minimum lands at 3/4, the m = 5 peak at 5/2, and even m = 8
    # collapses the orthogonal gap entirely
    assert harmonic_constants(3, 1).L == pytest.approx(0.75, abs=1e-15)
    assert harmonic_constants(5, 1).U == pytest.approx(2.5, abs=0)
    h8 = harmonic_constants(8, 2)
    assert h8.L == pytest.approx(1.0, abs=1e-15)


def test_harmonic_l1_odd_formulas():
    for m in (3, 5, 7, 9, 11):
        h = harmonic_constants(m, 1)
        half = math.pi / (2 * m)
        assert h.L_orth == pytest.approx(1.0 / (2.0 * math.tan(half)), rel=1e-15)
        assert h.L == pytest.approx(math.cos(half) / (2.0 * math.tan(half)), rel=1e-15)
        assert h.beta == pytest.approx(m * math.tan(half) / math.cos(half), rel=1e-15)
        # odd m keeps a strict orthogonality gap
        assert h.L < h.L_orth


def test_harmonic_l1_even_formulas():
    for m in (4, 6, 8, 10, 12):
        h = harmonic_constants(m, 1)
        assert h.L == pytest.approx(1.0 / math.tan(math.pi / m), rel=1e-15)
        assert h.L_orth == h.L
        assert h.beta == pytest.approx((m / 2.0) * math.tan(math.pi / m), rel=1e-15)


def test_harmonic_l1_upper_constant_is_half_m():
    for m in range(3, 13):
        assert harmonic_constants(m, 1).U == m / 2.0


def test_harmonic_beta_consistency():
    for m in range(3, 20):
        for p in (1, 2):
            h = harmonic_constants(m, p)
            assert h.beta == pytest.approx(h.U / h.L, rel=1e-14)


def test_harmonic_beta_respects_refined_bound():
    # every frame beta sits above the m-row bound; odd frames exceed it by
    # exactly the secant factor
    for m in range(3, 30):
        h = harmonic_constants(m, 1)
        bound = universal_lower_bound(Field.REAL, 1, m=m)
        assert h.beta > bound.value
        if m % 2:
            assert h.beta == pytest.approx(bound.value / math.cos(math.pi / (2 * m)), rel=1e-14)


def test_harmonic_beta_approaches_asymptote_from_above():
    betas = [harmonic_constants(m, 1).beta for m in range(3, 200)]
    assert all(b > math.pi / 2.0 for b in betas)
    assert betas[-1] - math.pi / 2.0 < 1e-4
    # the odd-m formula at m = 10^4 sits this far above pi/2
    h = harmonic_constants(10_001, 1)
    assert h.beta - math.pi / 2.0 < 1e-7


def test_harmonic_constants_validate_inputs():
    with pytest.raises(ValueError):
        harmonic_constants(2, 1)
    with pytest.raises(ValueError):
        harmonic_constants(5, 3)


# ---------------------------------------------------------------------------
# gaussian expectation curves
# ---------------------------------------------------------------------------

def test_real_curve_endpoints():
    assert gaussian_abs_expectation(Field.REAL, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert gaussian_abs_expectation(Field.REAL, math.pi / 2.0) == pytest.approx(2.0 / math.pi, abs=1e-15)


def test_complex_curve_endpoints():
    assert gaussian_abs_expectation(Field.COMPLEX, 0.0) == pytest.approx(1.0, abs=0)
    assert gaussian_abs_expectation(Field.COMPLEX, math.pi / 2.0) == pytest.approx(0.5, abs=0)


def test_curves_decrease_toward_orthogonality():
    grid = np.linspace(0.0, math.pi / 2.0, 40)
    for field in (Field.REAL, Field.COMPLEX):
        vals = [gaussian_abs_expectation(field, t) for t in grid]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert min(vals) == vals[-1]


def test_complex_curve_midpoint():
    # (3 + cos(pi/2)) / 4 = 3/4
    assert gaussian_abs_expectation(Field.COMPLEX, math.pi / 4.0) == pytest.approx(0.75, abs=1e-15)


def test_curve_rejects_angles_outside_range():
    with pytest.raises(ValueError):
        gaussian_abs_expectation(Field.REAL, -0.1)
    with pytest.raises(ValueError):
        gaussian_abs_expectation(Field.REAL, 2.0)


# ---------------------------------------------------------------------------
# deterministic inequality evaluators
# ---------------------------------------------------------------------------

def test_two_to_four_bound_values():
    assert two_to_four_norm_bound(48, 2, 0.0) == pytest.approx(4.878315177510849, abs=1e-15)
    assert two_to_four_norm_bound(3, 1, 1.0) == pytest.approx(3.732050807568877, abs=1e-15)


def test_two_to_four_bound_monotone_in_all_arguments():
    assert two_to_four_norm_bound(100, 4, 1.0) < two_to_four_norm_bound(200, 4, 1.0)
    assert two_to_four_norm_bound(100, 4, 1.0) < two_to_four_norm_bound(100, 9, 1.0)
    assert two_to_four_norm_bound(100, 4, 1.0) < two_to_four_norm_bound(100, 4, 2.0)


def test_two_to_four_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        two_to_four_norm_bound(0, 2, 1.0)
    with pytest.raises(ValueError):
        two_to_four_norm_bound(5, 2, -1.0)


def test_fourth_moment_floor_values():
    u = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    assert fourth_moment_floor(u, v) == 1.0  # orthogonal: |u|^2 |v|^2 only
    assert fourth_moment_floor(u, u) == 3.0  # aligned: 1 + 2
    w = np.array([3.0, 4.0])
    assert fourth_moment_floor(u, w) == pytest.approx(25.0 + 2.0 * 9.0, abs=1e-12)


def test_fourth_moment_floor_rejects_mismatched_vectors():
    with pytest.raises(ValueError):
        fourth_moment_floor(np.ones(2), np.ones(3))


def test_sub_tan_bound_values():
    assert sub_tan_bound([1.0, 1.0, 1.0]) == pytest.approx(1.7320508075688774, abs=1e-16)
    assert sub_tan_bound([2.0, 2.0, 2.0, 2.0]) == pytest.approx(4.82842712474619, abs=1e-15)


def test_sub_tan_bound_single_term_is_zero():
    assert sub_tan_bound([5.0]) == 0.0


def test_sub_tan_bound_scales_linearly_in_weights():
    base = sub_tan_bound([1.0, 2.0, 3.0])
    assert sub_tan_bound([2.0, 4.0, 6.0]) == pytest.approx(2.0 * base, rel=1e-15)


def test_sub_tan_bound_rejects_bad_weights():
    with pytest.raises(ValueError):
        sub_tan_bound([])
    with pytest.raises(ValueError):
        sub_tan_bound([1.0, -1.0])
