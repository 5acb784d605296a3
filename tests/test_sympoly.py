"""Sparse polynomial engine and the congruence identity suite."""

import random

import pytest

from gdet import (
    IdentityId,
    SparsePoly,
    build_symbolic,
    check_identity,
    cubic_corrections,
    default_rep_table,
    ring_element,
    s4_factors,
    symbolic_det,
)
from gdet.sympoly import symbolic_rep_det3


def a(i):
    return SparsePoly.var(i - 1)


def b(i):
    return SparsePoly.var(11 + i)


def test_add_and_mul_neutral_elements():
    p = a(1) * a(2) - 3 * b(4)
    assert p + SparsePoly.zero() == p
    assert p * SparsePoly.const(1) == p
    assert (p * SparsePoly.zero()).is_zero()


def test_difference_of_squares():
    left = (a(1) + b(1)) * (a(1) - b(1))
    right = a(1) * a(1) - b(1) * b(1)
    assert left == right
    assert len(left) == 2


def test_zero_coefficients_are_dropped():
    p = a(1) - a(1)
    assert p.is_zero() and len(p) == 0


def test_modulus_reduction_and_mismatch():
    p = 5 * a(1) + 4 * a(2)
    q = p.reduce_mod(4)
    assert q.coefficient([1] + [0] * 23) == 1
    assert len(q) == 1  # the 4*a2 term vanishes mod 4
    with pytest.raises(ValueError):
        p.reduce_mod(4) * p.reduce_mod(3)
    with pytest.raises(ValueError):
        p.reduce_mod(0)


def test_power_and_evaluate():
    p = (a(1) + 2) ** 3
    point = [0] * 24
    point[0] = 3
    assert p.evaluate(point) == 125
    with pytest.raises(ValueError):
        p.evaluate([1, 2, 3])


def test_linear_product_term_counts():
    f = build_symbolic()
    # the a-b cross terms cancel in l1*l2 = (sum a)^2 - (sum b)^2,
    # leaving 12 + 66 monomials per half
    assert len(f.l1 * f.l2) == 156
    # whereas l1^2 keeps all 24 squares and C(24,2) cross terms
    assert len(f.l1 * f.l1) == 300


def test_symbolic_factor_degrees():
    f = build_symbolic()
    for poly, degree in [
        (f.l1, 1), (f.l2, 1), (f.q1, 2), (f.d1, 3), (f.d2, 3),
        (f.u, 1), (f.v, 1), (f.w, 2),
        (f.A1, 1), (f.A2, 1), (f.A3, 1), (f.B1, 1), (f.B2, 1), (f.B3, 1),
    ]:
        assert poly.is_homogeneous(degree) and not poly.is_zero()


def test_symbolic_point_examples():
    f = build_symbolic()
    assert f.l1.evaluate([1] * 24) == 24
    point = [0] * 24
    point[0] = 1  # a1 = 1
    assert f.d1.evaluate(point) == 1
    res5 = [0] * 24
    for slot in (1, 4, 8, 14, 16):
        res5[slot] = 1
    assert f.q1.evaluate(res5) == -1


def test_symbolic_evaluation_matches_integer_profiles(s4):
    f = build_symbolic()
    rng = random.Random(61)
    for _ in range(100):
        point = [rng.randint(-6, 6) for _ in range(24)]
        p = s4_factors(ring_element(s4, point))
        assert f.l1.evaluate(point) == p.l1
        assert f.l2.evaluate(point) == p.l2
        assert f.q1.evaluate(point) == p.q1
        assert f.d1.evaluate(point) == p.d1
        assert f.d2.evaluate(point) == p.d2
        assert f.u.evaluate(point) == p.u
        assert f.v.evaluate(point) == p.v
        assert f.w.evaluate(point) == p.w


def test_symbolic_det_identity_matrix():
    one = SparsePoly.const(1)
    zero = SparsePoly.zero()
    eye = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    assert symbolic_det(eye) == one
    with pytest.raises(ValueError):
        symbolic_det([[one, zero], [zero, one], [zero, zero]])


def test_symbolic_det_matches_cubic_factor():
    # building d1 straight from the representation table reproduces it
    f = build_symbolic()
    assert symbolic_rep_det3(default_rep_table().rho2) == f.d1
    assert symbolic_rep_det3(default_rep_table().rho3) == f.d2


@pytest.mark.parametrize("identity", list(IdentityId))
def test_identity_holds(identity):
    report = check_identity(identity)
    assert report.holds, f"{identity.name} residual terms: {report.residual_term_count}"
    assert report.residual_term_count == 0


def test_identity_perturbation_fails():
    f = build_symbolic()
    import dataclasses

    broken = dataclasses.replace(f, d2=f.d1)
    report = check_identity(IdentityId.PROD_MOD4, broken)
    assert not report.holds
    assert report.residual_term_count > 0


def test_d1_expansion_quotient_is_cubic():
    report = check_identity(IdentityId.D1_EXPANSION)
    assert report.holds
    assert report.quotient is not None
    assert report.quotient.is_homogeneous(3)
    assert len(report.quotient) > 0


def test_cubic_correction_mirror_identity():
    f = build_symbolic()
    c_ab, c_neg = cubic_corrections(f)
    mirror = f.l2 * (f.q1 - 2 * f.u * f.v - 2 * f.w) + 4 * c_neg
    assert mirror == f.d2


def test_cubic_correction_sum_is_even():
    c_ab, c_neg = cubic_corrections()
    total = c_ab + c_neg
    assert all(coeff % 2 == 0 for coeff in total.terms.values())


def test_negate_vars_involution():
    f = build_symbolic()
    assert f.d1.negate_vars(range(12, 24)) == f.d2
    assert f.d2.negate_vars(range(12, 24)) == f.d1


def test_divide_exact_reports_residuals():
    p = 4 * a(1) + 2 * a(2)
    quotient, bad = p.divide_exact(4)
    assert quotient is None and len(bad) == 1
    quotient, bad = (4 * a(1) + 8 * a(2)).divide_exact(4)
    assert not bad and quotient == a(1) + 2 * a(2)
