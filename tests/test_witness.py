"""Witness families, certificate synthesis, and verification."""

import importlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from gdet import (
    FAMILIES,
    FAMILY_IDS,
    GroupRule,
    NotInSet,
    WitnessCertificate,
    det_exact,
    family,
    member,
    ring_element,
    synthesize,
    verify_certificate,
)
from gdet.cli import run


def test_twelve_families_exist():
    assert len(FAMILY_IDS) == 12
    assert set(FAMILY_IDS) == {
        "res1", "res5", "res13", "res17", "neg27", "pos81",
        "pow2_8", "neg2_10", "pos2_12", "neg2_12", "pos2_13", "neg2_13",
    }


def test_family_res1_base_case(s4):
    elem, value = family("res1", 0)
    assert value == 1
    assert elem.coeffs == (1,) + (0,) * 23


def test_family_neg27_scaling():
    _, value = family("neg27", 1)
    assert value == -243


def test_family_neg2_13_pattern():
    elem, value = family("neg2_13", 0)
    assert value == -8192
    nonzero = {i for i, c in enumerate(elem.coeffs) if c}
    # a2=a3=a4=1, a5=1, a9=1, b4=1, b5=b6=1
    assert nonzero == {1, 2, 3, 4, 8, 15, 16, 17}
    assert all(elem.coeffs[i] == 1 for i in nonzero)


def test_constant_families_ignore_k():
    for fid in ("pow2_8", "neg2_10", "pos2_12", "neg2_12"):
        e0, v0 = family(fid, 0)
        e5, v5 = family(fid, 5)
        assert e0.coeffs == e5.coeffs and v0 == v5


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        family("res3", 0)


@pytest.mark.parametrize("family_id", sorted(FAMILY_IDS))
def test_family_closed_form_at_31_points(s4, family_id):
    # both sides are polynomials in k of degree <= 24; agreement on 31
    # points certifies the identity with room to spare
    for k in range(-15, 16):
        elem, value = family(family_id, k)
        assert det_exact(s4, elem) == value, (family_id, k)


def test_family_values_match_closed_forms():
    checks = {
        "res1": lambda k: 1 + 24 * k,
        "res5": lambda k: 5 + 24 * k,
        "res13": lambda k: 13 + 24 * k,
        "res17": lambda k: 17 + 24 * k,
        "neg27": lambda k: -27 * (1 + 8 * k),
        "pos81": lambda k: 81 * (1 + 8 * k),
        "pow2_8": lambda k: 2**8,
        "neg2_10": lambda k: -(2**10),
        "pos2_12": lambda k: 2**12,
        "neg2_12": lambda k: -(2**12),
        "pos2_13": lambda k: 2**13 * (1 + 3 * k),
        "neg2_13": lambda k: -(2**13) * (1 + 3 * k),
    }
    for fid, form in checks.items():
        for k in range(-4, 5):
            assert FAMILIES[fid].value(k) == form(k)


# -- synthesis


@pytest.mark.parametrize(
    "target,expected_trail",
    [
        (5, [("res5", 0)]),
        (1, [("res1", 0)]),
        (-243, [("neg27", 1)]),
        (2**12 * 7, [("neg2_12", 0), ("res17", -1)]),
        (1280, [("pow2_8", 0), ("res5", 0)]),
    ],
)
def test_synthesize_examples(s4, target, expected_trail):
    cert = synthesize(target)
    assert list(cert.trail) == expected_trail
    assert det_exact(s4, cert.element) == target


def test_synthesize_rejects_non_members():
    for target in (0, 3, 2, 512, 1024, -5, 27):
        with pytest.raises(NotInSet):
            synthesize(target)


def test_synthesized_certificates_verify(s4):
    rng = random.Random(77)
    rule = GroupRule("S4")
    done = 0
    while done < 40:
        target = rng.randint(-10**6, 10**6)
        if not target or not member(rule, target).member:
            continue
        cert = synthesize(target)
        assert verify_certificate(cert)
        assert det_exact(s4, cert.element) == target
        done += 1


def test_trail_soundness_is_value_product():
    cert = synthesize(-(2**10) * 27 * 7)  # three factors: 2-part, 3-part, residue
    assert len(cert.trail) == 3
    product = 1
    for fid, k in cert.trail:
        product *= FAMILIES[fid].value(k)
    assert product == cert.target


def test_smallest_members_of_each_class_synthesize(s4):
    rule = GroupRule("S4")
    classes = {"odd": [], "2^8": [], "2^10": [], "2^12": []}
    m = 0
    while any(len(v) < 10 for v in classes.values()):
        m += 1
        for candidate in (m, -m):
            verdict = member(rule, candidate)
            if verdict.member:
                bucket = classes[verdict.reason["class"]]
                if len(bucket) < 10:
                    bucket.append(candidate)
    for bucket in classes.values():
        assert len(bucket) == 10
        for target in bucket:
            cert = synthesize(target)
            assert verify_certificate(cert)


def test_perturbed_certificate_fails(s4):
    cert = synthesize(1280)
    coeffs = list(cert.element.coeffs)
    coeffs[0] += 1
    tampered = WitnessCertificate(
        target=cert.target,
        element=ring_element(s4, coeffs),
        trail=cert.trail,
    )
    assert not verify_certificate(tampered)


def test_wrong_target_certificate_fails():
    cert = synthesize(5)
    lying = WitnessCertificate(target=29, element=cert.element, trail=cert.trail)
    assert not verify_certificate(lying)


def test_identity_factor_in_trail_is_still_sound():
    # res1 at k = 0 is the ring identity, so prepending it changes nothing
    cert = synthesize(5)
    padded = WitnessCertificate(
        target=cert.target, element=cert.element, trail=(("res1", 0), ("res5", 0))
    )
    assert verify_certificate(padded)


def test_bad_trail_certificate_fails():
    cert = synthesize(5)
    rerouted = WitnessCertificate(
        target=cert.target, element=cert.element, trail=(("res5", 1),)
    )
    assert not verify_certificate(rerouted)
    unknown = WitnessCertificate(
        target=cert.target, element=cert.element, trail=(("res3", 0),)
    )
    assert not verify_certificate(unknown)


def test_high_two_adic_valuations(s4):
    # 2^13(1+3k) with k odd covers every valuation >= 13
    for e in range(13, 26):
        for sign in (1, -1):
            target = sign << e
            if member(GroupRule("S4"), target).member:
                cert = synthesize(target)
                assert det_exact(s4, cert.element) == target


def test_high_three_adic_valuations(s4):
    for f in range(3, 10):
        for sign in (1, -1):
            target = sign * 3**f
            if member(GroupRule("S4"), target).member:
                cert = synthesize(target)
                assert verify_certificate(cert)


def test_cli_witness_runs_one_elimination(monkeypatch, capsys):
    """synthesize checks itself through the factored form; verify_certificate eliminates once."""
    calls = []

    def counting(g, e):
        calls.append(e.coeffs)
        return det_exact(g, e)

    for module in ("gdet.detcalc", "gdet.witness"):
        monkeypatch.setattr(importlib.import_module(module), "det_exact", counting)
    synthesize(1280)
    assert calls == []
    assert run(["witness", "1280"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True
    assert len(calls) == 1


@st.composite
def s4_targets(draw):
    """Integers with |m| <= 2^64, some built with v2 >= 13, v3 >= 5, or both."""
    bound = 2**64
    shape = draw(st.sampled_from(["any", "small", "v2>=13", "v3>=5", "both"]))
    if shape == "any":
        return draw(st.integers(-bound, bound))
    if shape == "small":
        return draw(st.integers(-5000, 5000))
    v2 = draw(st.integers(13, 40)) if shape in ("v2>=13", "both") else 0
    v3 = draw(st.integers(5, 15)) if shape in ("v3>=5", "both") else 0
    scale = 2**v2 * 3**v3
    return scale * draw(st.integers(-(bound // scale), bound // scale))


@settings(max_examples=300, deadline=None)
@given(s4_targets())
def test_member_exactly_when_synthesize_verifies(m):
    if member(GroupRule("S4"), m).member:
        assert verify_certificate(synthesize(m))
    else:
        with pytest.raises(NotInSet):
            synthesize(m)
