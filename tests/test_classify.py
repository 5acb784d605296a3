"""Closed-form membership rules and the smallest non-trivial values."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gdet import GroupRule, build_group, convolve, lambda_of, member, parse_rule, ring_element
from gdet.detcalc import kernel_for


def verdict(rule_name, m):
    return member(parse_rule(rule_name), m)


# -- S4 (the headline rule)


@pytest.mark.parametrize(
    "m,expected",
    [
        (1, True), (25, True), (5, True), (13, True), (17, True), (-7, True),
        (3, False), (-3, False), (9, False), (27, False), (-27, True), (81, True),
        (-243, True), (729, True), (2, False), (4, False), (128, False),
        (256, True), (256 * 5, True), (256 * 3, False), (256 * 7, False),
        (512, False), (-1024, True), (1024, False), (1024 * 7, True),
        (2048, False), (4096, True), (-4096, True), (4096 * 7, True),
        (8192, True), (-8192, True), (2**14, True), (2**12 * 27, True),
        (2**12 * 9, False), (2**12 * -27, True), (0, False), (45, False), (-135, True),
    ],
)
def test_s4_membership(m, expected):
    assert verdict("S4", m).member is expected


def test_s4_reason_rederives_verdict():
    rule = parse_rule("S4")
    rng = random.Random(2)
    for _ in range(300):
        m = rng.randint(-10**6, 10**6)
        v = member(rule, m)
        r = v.reason
        if m == 0:
            assert r.get("zero") and not v.member
            continue
        three_ok = r["v3"] == 0 or r["v3"] >= 3
        assert three_ok == r["three_condition"]
        if r["v2"] == 0:
            rederived = r["cofactor_mod4"] == 1 and three_ok
        elif r["v2"] == 8:
            rederived = r["cofactor_mod4"] == 1 and three_ok
        elif r["v2"] == 10:
            rederived = r["cofactor_mod4"] == 3 and three_ok
        elif r["v2"] >= 12:
            rederived = three_ok
        else:
            rederived = False
        assert rederived == v.member


# -- the other displayed sets


@pytest.mark.parametrize(
    "rule,m,expected",
    [
        ("D8", 257, True), ("D8", 2**8 * 7, True), ("D8", -3, True),
        ("D8", 3, False), ("D8", 128, False), ("D8", 0, False),
        ("A4", 16, True), ("A4", 32, False), ("A4", 256, True), ("A4", 48, False),
        ("A4", 16 * 9, True), ("A4", 5, True), ("A4", -3, False), ("A4", -7, True),
        ("A4", 9 * 5, True), ("A4", 3 * 5, False),
        ("K4", -3, True), ("K4", 2, False), ("K4", 16, True), ("K4", 48, True),
        ("K4", 32, False), ("K4", 64, True), ("K4", 5, True), ("K4", 7, False),
        ("Z4", 7, True), ("Z4", 2, False), ("Z4", 16, True), ("Z4", 8, False),
        ("Z9", 2, True), ("Z9", 3, False), ("Z9", 9, False), ("Z9", 27, True),
        ("S3", 5, True), ("S3", 2, False), ("S3", 4, True), ("S3", 3, False),
        ("S3", 27, True), ("S3", 9, False), ("S3", 108, True),
        ("Zp:7", 2, True), ("Zp:7", 7, False), ("Zp:7", 49, True),
        ("Zp:2", 3, True), ("Zp:2", 2, False), ("Zp:2", 4, True),
        ("Z2p:5", 3, True), ("Z2p:5", 10, False), ("Z2p:5", 100, True),
        ("Z2p:5", 2, False), ("Z2p:5", 25, True),
    ],
)
def test_displayed_set_membership(rule, m, expected):
    assert verdict(rule, m).member is expected


@pytest.mark.parametrize("rule", ["Zp:7", "Z2p:7", "Z9", "Z4", "K4", "D8", "S3", "A4", "S4"])
def test_zero_rejected_everywhere(rule):
    assert not verdict(rule, 0).member


def test_prime_validation():
    with pytest.raises(ValueError):
        GroupRule("Zp", 9)
    with pytest.raises(ValueError):
        GroupRule("Z2p", 2)
    with pytest.raises(ValueError):
        parse_rule("Zp:15")


def test_rule_parsing_shorthands():
    assert parse_rule("Z7").name == "Zp:7"
    assert parse_rule("Zn:14").name == "Z2p:7"
    assert parse_rule("Zn:4").name == "Z4"
    assert parse_rule("Zn:9").name == "Z9"
    assert parse_rule("Klein4").name == "Klein4"
    with pytest.raises(ValueError):
        parse_rule("Z15")
    with pytest.raises(ValueError):
        parse_rule("Q8")


# -- structural invariants


RULES = ["Zp:3", "Zp:7", "Z2p:5", "Z9", "Z4", "K4", "D8", "S3", "A4", "S4"]


@pytest.mark.parametrize("rule_name", RULES)
def test_multiplicative_closure(rule_name):
    rule = parse_rule(rule_name)
    rng = random.Random(hash(rule_name) & 0xFFFF)
    members = []
    while len(members) < 80:
        m = rng.randint(-10**4, 10**4)
        if m and member(rule, m).member:
            members.append(m)
    for _ in range(1000):
        m1, m2 = rng.choice(members), rng.choice(members)
        assert member(rule, m1 * m2).member, (rule_name, m1, m2)


@pytest.mark.parametrize("rule_name", ["Zp:3", "Zp:7", "Z2p:5", "Z9", "S3"])
def test_sign_symmetry_full(rule_name):
    rule = parse_rule(rule_name)
    rng = random.Random(101)
    for _ in range(500):
        m = rng.randint(1, 10**5)
        assert member(rule, m).member == member(rule, -m).member


def test_sign_symmetry_even_parts():
    a4, s4 = parse_rule("A4"), parse_rule("S4")
    rng = random.Random(102)
    for _ in range(500):
        m = rng.randint(2, 10**6) * 2
        if member(a4, m).member:
            assert member(a4, -m).member
        if member(s4, m).member and m % 2**12 == 0:
            assert member(s4, -m).member
    # the odd S4 class is chiral: membership forces 1 mod 4
    assert member(s4, 5).member and not member(s4, -5).member


def test_witness_values_all_accepted():
    from gdet import FAMILIES

    s4 = parse_rule("S4")
    for fam in FAMILIES.values():
        for k in range(-6, 7):
            assert member(s4, fam.value(k)).member, (fam.id, k)


@st.composite
def s4_elements(draw):
    """S4 coefficient vectors with small or large entries, sometimes a product of two."""
    g = build_group("S4")
    bound = draw(st.sampled_from([1, 3, 10**6]))
    vectors = st.lists(st.integers(-bound, bound), min_size=24, max_size=24)
    e = ring_element(g, draw(vectors))
    if draw(st.booleans()):  # products carry higher 2- and 3-adic valuations
        e = convolve(e, ring_element(g, draw(vectors)))
    return e.coeffs


@settings(max_examples=300, deadline=None)
@given(s4_elements())
def test_every_nonzero_s4_determinant_is_a_member(coeffs):
    value = kernel_for(build_group("S4"))(coeffs)
    assert value == 0 or member(parse_rule("S4"), value).member


# -- lambda


def test_lambda_values():
    assert lambda_of(parse_rule("K4")) == 3
    assert lambda_of(parse_rule("S4")) == 5
    assert lambda_of(parse_rule("Zp:7")) == 2
    assert lambda_of(parse_rule("Z4")) == 3
    assert lambda_of(parse_rule("A4")) == 5
    assert lambda_of(parse_rule("Zp:2")) == 3


def test_lambda_s4_smaller_values_rejected():
    s4 = parse_rule("S4")
    for m in (2, 3, 4):
        assert not member(s4, m).member and not member(s4, -m).member
    assert member(s4, 5).member
