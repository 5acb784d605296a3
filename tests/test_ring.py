"""Group-ring convolution and the expression parser."""

import random

import pytest

from gdet import (
    ParseError,
    convolve,
    cyclic_group,
    det_exact,
    element_from_json,
    identity_element,
    parse_expr,
    ring_element,
)
from gdet.ring import MAX_COEFF_BITS


def test_convolve_identity_is_neutral(s4):
    rng = random.Random(7)
    a = ring_element(s4, [rng.randint(-5, 5) for _ in range(24)])
    e = identity_element(s4)
    assert convolve(a, e).coeffs == a.coeffs
    assert convolve(e, a).coeffs == a.coeffs


def test_convolve_z2_formula():
    g = cyclic_group(2)
    a = ring_element(g, [3, 5])
    b = ring_element(g, [-2, 7])
    c = convolve(a, b)
    assert c.coeffs == (3 * -2 + 5 * 7, 3 * 7 + 5 * -2)


def test_convolve_trivial_group_is_multiplication():
    g = cyclic_group(1)
    a = ring_element(g, [6])
    b = ring_element(g, [-7])
    assert convolve(a, b).coeffs == (-42,)


def test_convolve_group_mismatch(s4):
    with pytest.raises(ValueError):
        convolve(identity_element(s4), identity_element(cyclic_group(2)))


def test_convolution_associative_and_distributive(s4):
    rng = random.Random(11)
    for _ in range(25):
        a, b, c = (
            ring_element(s4, [rng.randint(-5, 5) for _ in range(24)]) for _ in range(3)
        )
        assert convolve(convolve(a, b), c).coeffs == convolve(a, convolve(b, c)).coeffs
        assert convolve(a, b + c).coeffs == (convolve(a, b) + convolve(a, c)).coeffs


def test_determinant_multiplicative_under_convolution(s4):
    rng = random.Random(13)
    for _ in range(50):
        a = ring_element(s4, [rng.randint(-3, 3) for _ in range(24)])
        b = ring_element(s4, [rng.randint(-3, 3) for _ in range(24)])
        assert det_exact(s4, convolve(a, b)) == det_exact(s4, a) * det_exact(s4, b)


def test_witness_product_determinant(s4):
    # the witnesses for 5 and 2^8 convolve to a witness for 1280
    from gdet import family

    w5, v5 = family("res5", 0)
    w256, v256 = family("pow2_8", 0)
    assert (v5, v256) == (5, 256)
    assert det_exact(s4, convolve(w5, w256)) == 1280


# -- parser


def test_parse_integer(s4):
    e = parse_expr("3", s4)
    assert e.coeffs[0] == 3 and sum(map(abs, e.coeffs)) == 3


def test_parse_one_plus_x(s4):
    e = parse_expr("1 + x", s4)
    expected = [0] * 24
    expected[0] = 1          # a1, the identity slot
    expected[12] = 1         # b1, the (1234) slot
    assert list(e.coeffs) == expected


def test_parse_commutator(s4):
    e = parse_expr("x*y - y*x", s4)
    nonzero = {i: c for i, c in enumerate(e.coeffs) if c}
    assert nonzero == {4: 1, 11: -1}  # +1 on (134), -1 on (234)


def test_parse_precedence(s4):
    assert parse_expr("2 + 3 * 4", s4).coeffs[0] == 14
    assert parse_expr("2 * 3 ^ 2", s4).coeffs[0] == 18
    assert parse_expr("2 - 3 - 4", s4).coeffs[0] == -5
    assert parse_expr("-2^2", s4).coeffs[0] == 4  # unary minus binds the atom


def test_parse_parenthesization_is_identity(s4):
    rng = random.Random(3)
    samples = ["1 + x", "x*y - y*x", "(1+x)^3 - y", "2*x^2*y + 7", "-x + y*y"]
    for s in samples:
        assert parse_expr(f"({s})", s4).coeffs == parse_expr(s, s4).coeffs
    del rng


def test_parse_monomials_reduce(s4):
    # x^4 = identity and y^2 = identity in the group ring
    assert parse_expr("x^4", s4).coeffs == identity_element(s4).coeffs
    assert parse_expr("y*y", s4).coeffs == identity_element(s4).coeffs
    assert parse_expr("x*x", s4).coeffs == parse_expr("x^2", s4).coeffs


@pytest.mark.parametrize(
    "bad",
    ["", "x y", "1 +", "(1 + x", "x ^ y", "x^-2", "z", "1 ** 2", "()"],
)
def test_parse_errors_carry_position(s4, bad):
    with pytest.raises((ParseError, ValueError)) as err:
        parse_expr(bad, s4)
    if isinstance(err.value, ParseError):
        assert err.value.pos >= 0


def test_parse_exponent_overflow(s4):
    with pytest.raises(ParseError):
        parse_expr("x^99999", s4)


def test_power_coefficient_budget(s4):
    # ||65535 + x||_1 = 2^16 gives at most 16 * 4096 = 2^16 bits: exactly the budget
    assert MAX_COEFF_BITS == 1 << 16
    top = parse_expr("(65535+x)^4096", s4)
    assert max(abs(c) for c in top.coeffs).bit_length() == MAX_COEFF_BITS
    with pytest.raises(ValueError, match="power too large"):
        parse_expr("(65536+x)^4096", s4)
    # a unit base stays small at any exponent
    assert parse_expr("(-x)^4096", s4).coeffs == parse_expr("1", s4).coeffs


def test_parse_requires_s4():
    with pytest.raises(ValueError):
        parse_expr("1 + x", cyclic_group(4))


# -- JSON input


def test_element_from_flat_list(s4):
    coeffs = list(range(24))
    assert element_from_json(coeffs, s4).coeffs == tuple(coeffs)


def test_element_from_ab_object(s4):
    obj = {"group": "S4", "a": [1] + [0] * 11, "b": [0] * 11 + [2]}
    e = element_from_json(obj, s4)
    assert e.coeffs[0] == 1 and e.coeffs[23] == 2 and sum(map(abs, e.coeffs)) == 3


@pytest.mark.parametrize(
    "obj",
    [
        {"group": "K4", "a": [0] * 12, "b": [0] * 12},
        {"group": "S4", "a": [0] * 5, "b": [0] * 12},
        {"group": "S4"},
        [1, 2, 3],
        "nope",
        {"group": "S4", "a": 5, "b": 6},
        {"a": None, "b": None},
        {"coeffs": 5},
        {"a": [0] * 12, "b": [0] * 12, "extra": 5},
        {"coeffs": [0] * 24, "a": [1]},
    ],
)
def test_element_from_json_rejects(s4, obj):
    with pytest.raises(ValueError):
        element_from_json(obj, s4)
