"""Closed-form membership rules and the smallest non-trivial values."""

import math
import pickle
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from gdet import GroupRule, build_group, classify, convolve, lambda_of, member, parse_rule, ring_element
from gdet.classify import decider
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
    assert decider(parse_rule(rule))(0) == (False, None, None)


def test_prime_validation():
    with pytest.raises(ValueError):
        GroupRule("Zp", 9)
    with pytest.raises(ValueError):
        GroupRule("Z2p", 2)
    with pytest.raises(ValueError):
        parse_rule("Zp:15")


def test_group_rule_is_an_immutable_value():
    rule = GroupRule("Zp", 7)
    assert repr(rule) == "GroupRule(kind='Zp', p=7)"
    assert repr(GroupRule("S4")) == "GroupRule(kind='S4', p=None)"
    assert rule == GroupRule("Zp", 7) == parse_rule("Z7")
    assert hash(rule) == hash(GroupRule("Zp", 7))
    assert rule != GroupRule("Zp", 5) and rule != ("Zp", 7)
    assert len({rule, GroupRule("Zp", 7), GroupRule("S4")}) == 2
    with pytest.raises(AttributeError):
        rule.p = 5
    with pytest.raises(AttributeError):
        del rule.kind
    assert pickle.loads(pickle.dumps(rule)) == rule


@pytest.mark.parametrize("kind, p, message", [
    ("Z5", None, "unknown rule kind: 'Z5'"),
    ("Zp", None, "Zp needs a prime parameter, got None"),
    ("Zp", 9, "Zp needs a prime parameter, got 9"),
    ("Z2p", 2, "Z2p needs an odd prime"),
    ("S4", 3, "rule S4 takes no parameter"),
])
def test_group_rule_rejects_bad_parameters(kind, p, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GroupRule(kind, p)


def test_membership_verdict_is_an_immutable_value():
    v = verdict("S4", 5)
    assert repr(v) == ("MembershipVerdict(member=True, rule='S4', m=5, reason={'v2': 0, 'v3': 0, "
                       "'mod4': 1, 'three_condition': True, 'class': 'odd', 'cofactor_mod4': 1})")
    assert v == verdict("S4", 5) and v != verdict("S4", 7)
    assert v.as_dict() == {"member": True, "rule": "S4", "m": 5, "reason": v.reason}
    with pytest.raises(AttributeError):
        v.member = False
    assert hash(v) == hash(verdict("S4", 5))  # the reason is an immutable mapping
    with pytest.raises(TypeError):
        v.reason["v2"] = 1
    with pytest.raises(TypeError):
        v.reason.update(v2=1)
    with pytest.raises(TypeError):
        del v.reason["v2"]
    fields = dict(v.reason)
    with pytest.raises(TypeError):
        v.reason.__init__(v2=1)
    with pytest.raises(TypeError):
        v.reason.__init__()
    assert v.reason == fields and hash(v) == hash(verdict("S4", 5))
    assert type(v.reason) is classify.Reason and v.reason == dict(v.reason)
    assert pickle.loads(pickle.dumps(v)) == v
    assert type(pickle.loads(pickle.dumps(v)).reason) is classify.Reason


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


# -- each rule's decider against its displayed set


def in_displayed_set(kind, m, v2, v3, vp):
    """Whether m is in the rule's displayed set, clause by clause from the valuations."""
    odd_mod4 = (m >> v2) % 4  # the odd part m / 2^v2, mod 4
    return {
        "Zp": vp != 1,
        "Z2p": v2 != 1 and vp != 1,
        "Z9": v3 not in (1, 2),
        "Z4": v2 not in (1, 2, 3),
        "Klein4": odd_mod4 == 1 and v2 == 0 or v2 == 4 or v2 >= 6,
        "D8": odd_mod4 == 1 and v2 == 0 or v2 >= 8,
        "S3": v2 != 1 and v3 not in (1, 2),
        "A4": v3 != 1 and (odd_mod4 == 1 and v2 == 0 or v2 == 4 or v2 >= 8),
        "S4": v3 not in (1, 2) and ((v2, odd_mod4) in {(0, 1), (8, 1), (10, 3)} or v2 >= 12),
    }[kind]


@st.composite
def factored_values(draw, p):
    """(m, v2, v3, vp) for m = +-2^a 3^b p^c u with u coprime to 6p, often past 2^64."""
    a, b, c = draw(st.integers(0, 14)), draw(st.integers(0, 4)), draw(st.integers(0, 3))
    step = 6 * p
    u = step * draw(st.integers(0, 2**80)) + draw(
        st.sampled_from([r for r in range(1, step) if math.gcd(r, step) == 1]))
    m = draw(st.sampled_from([1, -1])) * 2**a * 3**b * p**c * u
    v2, v3 = a + c * (p == 2), b + c * (p == 3)
    return m, v2, v3, {2: v2, 3: v3}.get(p, c)


DECIDER_RULES = ["Zp:2", "Zp:3", "Zp:7", "Z2p:3", "Z2p:5", "Z9", "Z4", "Klein4", "D8", "S3",
                 "A4", "S4"]


@pytest.mark.parametrize("rule_name", DECIDER_RULES)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_decider_matches_displayed_set_and_member(rule_name, data):
    rule = parse_rule(rule_name)
    m, v2, v3, vp = data.draw(factored_values(rule.p or 5))
    ok, got_v2, got_v3 = decider(rule)(m)
    assert (ok, got_v2, got_v3) == (in_displayed_set(rule.kind, m, v2, v3, vp), v2, v3)
    verdict = member(rule, m)
    assert verdict.member is ok
    assert (verdict.reason["v2"], verdict.reason["v3"]) == (v2, v3)
    if rule.p is not None:
        assert verdict.reason["vp"] == vp


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
