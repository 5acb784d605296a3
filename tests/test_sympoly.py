"""Sparse polynomial engine and the congruence identity suite."""

import random
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

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
from gdet.sympoly import pack_monomial, symbolic_rep_det3


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


# -- packed monomials against a tuple-keyed reference


def _ref_combine(p, q, sign):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + sign * c
    return _ref_reduce(out)


def _ref_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            key = tuple(map(add, m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return _ref_reduce(out)


def _ref_negate(p, idx):
    return {m: -c if sum(m[i] for i in idx) % 2 else c for m, c in p.items()}


def _ref_reduce(p, mod=None):
    if mod is not None:
        p = {m: c % mod for m, c in p.items()}
    return {m: c for m, c in p.items() if c}


def _ref_power_product(mono, point):
    prod = 1
    for x, e in zip(point, mono):
        prod *= x ** e
    return prod


def _packed(p):
    return SparsePoly({pack_monomial(m): c for m, c in p.items()})


def _exponents(pairs):
    mono = [0] * 24
    for i, e in pairs:
        mono[i] += e
    return tuple(mono)


# up to two variables at exponent <= 3 each, so any product has degree <= 12
_monos = st.lists(st.tuples(st.integers(0, 23), st.integers(1, 3)), max_size=2).map(_exponents)
_polys = st.dictionaries(_monos, st.integers(-6, 6), max_size=6)


@settings(max_examples=300, deadline=None)
@given(_polys, _polys, st.sets(st.integers(0, 23), max_size=6),
       st.lists(st.integers(-3, 3), min_size=24, max_size=24))
def test_packed_engine_matches_tuple_reference(p, q, idx, point):
    pp, qq = _packed(p), _packed(q)
    p, q = _ref_reduce(p), _ref_reduce(q)
    assert pp + qq == _packed(_ref_combine(p, q, 1))
    assert pp - qq == _packed(_ref_combine(p, q, -1))
    assert pp * qq == _packed(_ref_mul(p, q))
    assert pp.negate_vars(idx) == _packed(_ref_negate(p, idx))
    for mod in (4, 7):
        assert pp.reduce_mod(mod) == _packed(_ref_reduce(p, mod))
    value = sum(c * _ref_power_product(m, point) for m, c in p.items())
    assert pp.evaluate(point) == value
    assert pp.degree() == max((sum(m) for m in p), default=0)


def test_product_beyond_degree_15_raises():
    x = SparsePoly.var(0)
    with pytest.raises(ValueError, match="bound 15"):
        x ** 16
    degree8 = (a(1) * a(2) + b(12)) ** 4
    assert degree8.degree() == 8
    with pytest.raises(ValueError, match="bound 15"):
        degree8 * (b(3) ** 8)
    # degree 15 is the largest product that fits, in the first and in the last field
    top = b(12) ** 15
    assert top.coefficient([0] * 23 + [15]) == 1 and len(top) == 1
    assert (x ** 7 * x ** 8).coefficient([15] + [0] * 23) == 1


def test_packing_rejects_exponents_outside_a_field():
    for bad in ([16] + [0] * 23, [0] * 23 + [-1], [1] * 23):
        with pytest.raises(ValueError):
            pack_monomial(bad)
    with pytest.raises(ValueError):
        SparsePoly.var(24)


def test_full_monomial_round_trips():
    exponents = [15] * 24
    p = SparsePoly({pack_monomial(exponents): -7})
    assert p.coefficient(exponents) == -7
    assert p.coefficient([15] * 23 + [14]) == 0
    assert p.degree() == 360 and p.is_homogeneous(360)
    point = [i - 11 for i in range(24)]  # includes 0 at slot 11
    assert p.evaluate(point) == 0
    point[11] = 2
    expected = -7
    for x in point:
        expected *= x ** 15
    assert p.evaluate(point) == expected
