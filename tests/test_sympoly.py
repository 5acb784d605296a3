"""Sparse polynomial engine and the congruence identity suite."""

import hashlib
import random
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from gdet import (
    IdentityId,
    SparsePoly,
    build_symbolic,
    check_identity,
    cofactor_det,
    default_rep_table,
    ring_element,
    s4_factors,
)
from gdet import sympoly
from gdet.detcalc import S4Forms, kernel_for
from gdet.sympoly import (
    _ALL_STEPS,
    _PROOF_STEPS,
    _SYMMETRY_STEPS,
    _mono_degree,
    _residual,
    pack_monomial,
    symbolic_rep_det,
)


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
    # the polynomials and the integer profile are one text, s4_forms, in two rings
    f = build_symbolic()
    rng = random.Random(61)
    for _ in range(100):
        point = [rng.randint(-6, 6) for _ in range(24)]
        p = s4_factors(ring_element(s4, point))
        for name in S4Forms._fields:
            assert getattr(f, name).evaluate(point) == getattr(p, name), name


def test_symbolic_det_identity_matrix():
    one = SparsePoly.const(1)
    zero = SparsePoly.zero()
    assert cofactor_det([one, zero, zero, zero, one, zero, zero, zero, one]) == one
    assert cofactor_det([one, zero, zero, one]) == one
    with pytest.raises(ValueError):
        cofactor_det([one, zero, zero, one, zero, zero])


def test_symbolic_det_matches_cubic_factor():
    # the determinants straight from the representations reproduce q1, d1 and d2
    f = build_symbolic()
    t = default_rep_table()
    assert symbolic_rep_det(t.rho1) == f.q1
    assert symbolic_rep_det(t.rho2) == f.d1
    assert symbolic_rep_det(t.rho3) == f.d2


@pytest.mark.parametrize("identity", list(IdentityId))
def test_identity_holds(identity):
    report = check_identity(identity)
    assert report.holds, f"{identity.name} residual terms: {report.residual_term_count}"
    assert report.residual_term_count == 0


def _digest(p):
    """sha256 of the terms by their exponent fields alone, so the pins predate the degree bits."""
    h = hashlib.sha256()
    for key, c in sorted((key & sympoly._FIELDS, c) for key, c in p.terms.items()):
        h.update(f"{key}:{c};".encode())
    return h.hexdigest()


def test_prod_mod4_products_are_pinned():
    # the two largest products of the suite, term for term as the flat
    # (ungraded) multiplication gave them
    f = build_symbolic()
    product = f.d1 * f.d2
    assert len(product) == 168692
    assert _digest(product) == "f1a2cf25f33174097955461ab66b5bc7222b1e627a8ab42266f1f27d949e53bf"
    residual, modulus = _residual(IdentityId.PROD_MOD4, f)
    assert modulus == 4 and len(residual) == 167820
    assert _digest(residual) == "b47180181eb470efd0c023ca97b183b098c809413c6d49fee491077a61e7fc68"
    # the brute-force oracle for the proof that check_identity uses instead
    assert residual.reduce_mod(4).is_zero()


def test_prod_mod4_proof_applies_to_the_factors(monkeypatch):
    f = build_symbolic()
    assert _PROOF_STEPS[IdentityId.PROD_MOD4] <= f.certificate

    def no_expansion(id_, factors):
        raise AssertionError(f"{id_.name} expanded its residual")

    monkeypatch.setattr(sympoly, "_residual", no_expansion)
    report = check_identity(IdentityId.PROD_MOD4, f)
    assert report.holds and report.residual_term_count == 0


def _recording_residual(monkeypatch):
    """Wrap `sympoly._residual` so that it records the id of every residual expanded."""
    expanded = []

    def recorded(id_, factors):
        expanded.append(id_)
        return _residual(id_, factors)

    monkeypatch.setattr(sympoly, "_residual", recorded)
    return expanded


def test_only_l_mod2_and_q_mod3_expand_on_the_factors(monkeypatch):
    f = build_symbolic()
    assert f.certificate == _ALL_STEPS
    expanded = _recording_residual(monkeypatch)
    assert all(check_identity(i, f).holds for i in IdentityId)
    assert expanded == [IdentityId.L_MOD2, IdentityId.Q_MOD3]


def _vanish_outside(p, keep):
    """p with every variable outside keep set to 0, that is without the terms that contain one."""
    mask = sum(0xF << (4 * i) for i in range(24) if i not in keep)
    return SparsePoly({m: c for m, c in p.terms.items() if not m & mask})


@pytest.fixture(scope="module")
def small_factors():
    """The factors with all but a1, a2, a5, a6, a9, a10 and b1, b2, b5, b6, b9, b10 set to 0.

    Setting variables to 0 is a ring map that commutes with b -> -b, so these
    factors keep every identity of the suite and every step of the
    certificate, and d1*d2 has 268 by 268 terms where the full one has 1832
    by 1832.
    """
    keep = {0, 1, 4, 5, 8, 9, 12, 13, 16, 17, 20, 21}
    f = build_symbolic()
    small = type(f)(**{name: _vanish_outside(value, keep) for name, value in f.as_dict().items()})
    assert len(small.d1) == 268 and small.certificate == _ALL_STEPS
    return small


_A1B1 = a(1) * b(1)  # odd in b
_A1SQ = a(1) * a(1)  # even in b


def _keep_y(f, u, v):
    """u and v replaced, and w moved so that Y = uv + w stays what it was."""
    return {"u": u, "v": v, "w": f.w + f.u * f.v - u * v}


# each perturbation, with the certificate steps it breaks; d2=d1, division,
# sigma(q1), sigma(Y), l1=u+v and l2=u-v break only the step they name, and
# l2=l1 only sigma(l1) = l2 of the PROD_MOD4 steps, so a proof without that
# step would wrongly accept them
_PERTURBATIONS = {
    "d2=d1": (lambda f: {"d2": f.d1}, {"sigma(d1) = d2"}),
    "l2=l1": (lambda f: {"l2": f.l1}, {"sigma(l1) = l2", "l2 = u - v"}),
    "q1+a1b1": (lambda f: {"q1": f.q1 + _A1B1}, {"d1 = l1*X + 4C", "sigma(q1) = q1"}),
    # w is not in the PROD_MOD4 residual
    "w+a1^2": (lambda f: {"w": f.w + _A1SQ}, {"d1 = l1*X + 4C", "sigma(Y) = -Y"}),
    "d1+a1^3": (lambda f: {"d1": f.d1 + a(1) ** 3}, {"d1 = l1*X + 4C", "sigma(d1) = d2"}),
    "division": (lambda f: {"d1": f.d1 + a(1) ** 3, "d2": f.d2 + a(1) ** 3},
                 {"d1 = l1*X + 4C"}),
    "sigma(q1)": (lambda f: {"q1": f.q1 + _A1B1, "d1": f.d1 + f.l1 * _A1B1,
                             "d2": f.d2 - f.l2 * _A1B1}, {"sigma(q1) = q1"}),
    "sigma(Y)": (lambda f: {"w": f.w + _A1SQ, "d1": f.d1 + 2 * f.l1 * _A1SQ,
                            "d2": f.d2 + 2 * f.l2 * _A1SQ}, {"sigma(Y) = -Y"}),
    "l1=u+v": (lambda f: _keep_y(f, f.u + a(1), f.v + a(1)), {"l1 = u + v"}),
    "l2=u-v": (lambda f: _keep_y(f, f.u + a(1), f.v - a(1)), {"l2 = u - v"}),
}


def _perturbed(f, case):
    perturb, broken = _PERTURBATIONS[case]
    return type(f)(**{**f.as_dict(), **perturb(f)}), broken


@pytest.mark.parametrize("case", [c for c, (_, broken) in _PERTURBATIONS.items()
                                  if broken & _SYMMETRY_STEPS])
def test_prod_mod4_falls_back_to_the_expansion(small_factors, case):
    broken, _ = _perturbed(small_factors, case)
    assert not _PROOF_STEPS[IdentityId.PROD_MOD4] <= broken.certificate
    report = check_identity(IdentityId.PROD_MOD4, broken)
    reduced = _residual(IdentityId.PROD_MOD4, broken)[0].reduce_mod(4)
    assert (report.holds, report.residual_term_count) == (reduced.is_zero(), len(reduced))
    # a step that fails is never a failure by itself: the expansion decides
    assert report.holds == (case == "w+a1^2")


@pytest.mark.parametrize("case", list(_PERTURBATIONS))
def test_every_identity_matches_its_expansion_on_mutants(small_factors, monkeypatch, case):
    mutant, broken_steps = _perturbed(small_factors, case)
    assert mutant.certificate == _ALL_STEPS - broken_steps
    expanded = _recording_residual(monkeypatch)
    reports = {i: check_identity(i, mutant) for i in IdentityId}
    # exactly the identities that need a broken step, and L_MOD2 and Q_MOD3, expand
    assert set(expanded) == {IdentityId.L_MOD2, IdentityId.Q_MOD3} | {
        i for i, steps in _PROOF_STEPS.items() if steps & broken_steps}
    for i, report in reports.items():
        if i is IdentityId.D1_EXPANSION:
            continue
        residual, modulus = _residual(i, mutant)
        reduced = residual.reduce_mod(modulus)
        assert (report.holds, report.residual_term_count) == (reduced.is_zero(), len(reduced)), i
    if len(broken_steps) == 1:
        # the step is needed: an identity that names it fails
        assert any(not reports[i].holds for i, steps in _PROOF_STEPS.items() if steps & broken_steps)


def test_identity_perturbation_fails():
    f = build_symbolic()
    broken = type(f)(**{**f.as_dict(), "d2": f.d1})
    report = check_identity(IdentityId.PROD_MOD4, broken)
    assert not report.holds
    assert report.residual_term_count > 0


def test_d1_quotient_is_computed_once_per_suite(monkeypatch):
    calls = []
    divide_exact = SparsePoly.divide_exact

    def counted(self, n):
        calls.append(n)
        return divide_exact(self, n)

    monkeypatch.setattr(SparsePoly, "divide_exact", counted)
    build_symbolic.cache_clear()
    f = build_symbolic()
    assert all(check_identity(i, f).holds for i in IdentityId)
    _cubic_correction(f)
    assert calls == [4]
    # a copy computes its own quotient
    check_identity(IdentityId.D1_EXPANSION, type(f)(**f.as_dict()))
    assert calls == [4, 4]


def test_d1_expansion_quotient_is_cubic():
    report = check_identity(IdentityId.D1_EXPANSION)
    assert report.holds
    assert report.quotient is not None
    assert report.quotient.is_homogeneous(3)
    assert len(report.quotient) > 0


def _cubic_correction(f):
    """The cubic C with d1 = l1*(q1 + 2uv + 2w) + 4*C, and its b -> -b mirror sigma(C)."""
    c_ab, bad = f.d1_quotient
    assert not bad
    return c_ab, sympoly._mirror(c_ab)


def test_cubic_correction_mirror_identity():
    f = build_symbolic()
    c_ab, c_neg = _cubic_correction(f)
    mirror = f.l2 * (f.q1 - 2 * f.u * f.v - 2 * f.w) + 4 * c_neg
    assert mirror == f.d2


def test_cubic_correction_sum_is_even():
    c_ab, c_neg = _cubic_correction(build_symbolic())
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


def test_divide_exact_by_zero_is_a_value_error():
    with pytest.raises(ValueError, match="nonzero"):
        (4 * a(1)).divide_exact(0)


def test_divisor_and_modulus_must_be_ints():
    p = 4 * a(1)
    with pytest.raises(TypeError, match="divisor"):
        p.divide_exact(2.0)
    with pytest.raises(TypeError, match="modulus"):
        p.reduce_mod(1.5)


# -- integer coefficients only


def test_constructor_rejects_a_coefficient_that_is_not_an_int():
    key = pack_monomial([1] + [0] * 23)
    for bad in (2.5, None, "3"):
        with pytest.raises(TypeError, match="coefficient"):
            SparsePoly({key: bad})
    with pytest.raises(TypeError):
        SparsePoly.const(0.5)
    with pytest.raises(TypeError):
        SparsePoly.linear([(0, 1.0)])


def test_constructor_rejects_a_key_that_is_not_a_packed_monomial():
    # a1^15 without its degree bits would read as degree 0 and pass the product guard
    for bad in (15, 1 << (4 * 23), -1, pack_monomial([1] + [0] * 23) + 1, "a1"):
        with pytest.raises(ValueError, match="packed monomial"):
            SparsePoly({bad: 1})
    assert SparsePoly({pack_monomial([15] + [0] * 23): 1}).degree() == 15


@pytest.mark.parametrize("other", [1.5, None, "x"])
def test_sum_with_an_operand_that_is_not_an_int_is_a_type_error(other):
    x = a(1)
    for apply in (lambda: x + other, lambda: other + x, lambda: x - other, lambda: other - x):
        with pytest.raises(TypeError):
            apply()


@pytest.mark.parametrize("k", [0, 1, -3, 2**70])
def test_int_minus_a_polynomial_is_its_negated_difference(k):
    x = a(1)
    assert k - x == -(x - k) == SparsePoly.const(k) - x
    assert k - (x + k) == -x


@pytest.mark.parametrize("other", [1.5, None, "x"])
def test_product_with_an_operand_that_is_not_an_int_is_a_type_error(other):
    x = a(1)
    for apply in (lambda: x * other, lambda: other * x):
        with pytest.raises(TypeError):
            apply()


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


# two variables per quartet, at its first and its last field, so that few
# distinct monomials exist and +-1 terms often cancel inside one output block
_POOL = [v for lo in range(0, 24, 4) for v in (lo, lo + 3)]


def _pool_factor(pool):
    return st.tuples(st.sampled_from(pool), st.integers(1, 3))


def _pool_mono(pool):
    """A monomial with one factor from pool and at most one more from _POOL."""
    return st.builds(lambda first, rest: _exponents([first] + rest),
                     _pool_factor(pool), st.lists(_pool_factor(_POOL), max_size=1))


_signs = st.sampled_from([-1, 1])
# one term in each of the six quartets, then a few more anywhere
_spanning_polys = st.builds(
    lambda spine, extra: dict(list(spine) + extra),
    st.tuples(*[st.tuples(_pool_mono(_POOL[2 * k:2 * k + 2]), _signs) for k in range(6)]),
    st.lists(st.tuples(_pool_mono(_POOL), _signs), max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(_spanning_polys, _spanning_polys)
def test_graded_product_matches_tuple_reference(p, q):
    pp, qq = _packed(p), _packed(q)
    product = pp * qq
    assert product == _packed(_ref_mul(p, q))
    assert all(product.terms.values())


def test_grade_is_additive_up_to_degree_15():
    for i in range(24):
        (key,) = SparsePoly.var(i).terms
        assert _mono_degree(key) == 1
    # degree 15 in the first four variables (a1..a4) and in the last four (b9..b12)
    for lo in (0, 20):
        m1 = pack_monomial(_exponents([(lo, 7), (lo + 1, 3)]))
        m2 = pack_monomial(_exponents([(lo, 2), (lo + 3, 3)]))
        assert _mono_degree(m1 + m2) == 15
    # every group of four variables at once
    m1 = pack_monomial(_exponents([(0, 1), (5, 2), (10, 1), (15, 2), (16, 1), (23, 1)]))
    m2 = pack_monomial(_exponents([(23, 7)]))
    assert _mono_degree(m1 + m2) == _mono_degree(m1) + _mono_degree(m2) == 15


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=24, max_size=24))
def test_packed_degree_is_the_exponent_sum(exponents):
    assert _mono_degree(pack_monomial(exponents)) == sum(exponents)


def _counts(variables):
    """The 24 exponents of the product of these variables, one factor per entry."""
    return [variables.count(i) for i in range(24)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 23), max_size=8), st.lists(st.integers(0, 23), max_size=7))
def test_packed_degree_adds_up_to_degree_15(left, right):
    # at most 15 factors in all, so no field carries
    k1, k2 = pack_monomial(_counts(left)), pack_monomial(_counts(right))
    assert _mono_degree(k1 + k2) == _mono_degree(k1) + _mono_degree(k2) == len(left) + len(right)
    assert k1 + k2 == pack_monomial(_counts(left + right))


# one other term, by where its exponent fields rank among those of the degree-2 terms
_RANKED_BY_FIELDS = {
    "smallest": [0],  # a1
    "middle": [6, 7, 8],  # a7*a8*a9
    "largest": [23] * 3,  # b12^3
}


@pytest.mark.parametrize("rank", list(_RANKED_BY_FIELDS))
@pytest.mark.parametrize("degree", [1, 3])
def test_is_homogeneous_sees_a_term_of_another_degree(rank, degree):
    base = a(2) * a(3) - 2 * a(5) * b(3) + b(11) * b(11)
    assert base.is_homogeneous(2)
    variables = (_RANKED_BY_FIELDS[rank] * degree)[:degree]
    key = pack_monomial(_counts(variables))
    p = base + SparsePoly({key: 5})
    assert not p.is_homogeneous(2)
    assert not p.is_homogeneous(degree)
    # the degree bits put the odd term at an end of the key order, wherever its fields rank
    assert key == (min(p.terms) if degree < 2 else max(p.terms))


def test_evaluate_on_linear_forms_matches_the_s4_kernel(s4):
    # l1, l2 and the determinants of the representations, whose entries are
    # built by `linear`, give the kernel's determinant l1*l2*q1^2*d1^3*d2^3
    t = default_rep_table()
    l1 = SparsePoly.linear([(g, 1) for g in range(24)])
    l2 = SparsePoly.linear([(g, 1 if g < 12 else -1) for g in range(24)])
    q1, d1, d2 = (symbolic_rep_det(rho) for rho in (t.rho1, t.rho2, t.rho3))
    kernel = kernel_for(s4)
    rng = random.Random(32)
    for _ in range(100):
        point = [rng.randint(-4, 4) for _ in range(24)]
        values = [p.evaluate(point) for p in (l1, l2, q1, d1, d2)]
        profile = s4_factors(ring_element(s4, point))
        assert values == [profile.l1, profile.l2, profile.q1, profile.d1, profile.d2]
        v1, v2, vq, vd1, vd2 = values
        assert v1 * v2 * vq ** 2 * vd1 ** 3 * vd2 ** 3 == kernel(point)


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
