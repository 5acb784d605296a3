"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s`.  Every check is exact; the
stated wall-clock budgets are asserted alongside the results.
"""

import random
import time

import pytest

from gdet import (
    FAMILIES,
    GroupRule,
    IdentityId,
    NotInSet,
    ScanConfig,
    build_symbolic,
    check_identity,
    convolve,
    default_rep_table,
    det_exact,
    family,
    lambda_of,
    lambda_scan,
    member,
    rep_is_homomorphism,
    ring_element,
    scan,
    symmetric_group4,
    synthesize,
    verify_certificate,
)
from gdet.sympoly import _mirror, symbolic_rep_det

S4_RULE = GroupRule("S4")


def _report(number, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} criterion {number}: {label} [{elapsed:.2f}s / {budget:.0f}s]")
    assert ok, f"criterion {number} failed: {label}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_witness_family_reproduction(s4):
    start = time.perf_counter()
    spot = {
        ("res5", 1): 29,
        ("neg27", 0): -27,
        ("pow2_8", 0): 256,
        ("neg2_10", 0): -1024,
        ("pos2_13", 0): 8192,
    }
    ok = True
    for fid in FAMILIES:
        for k in range(-3, 4):
            elem, value = family(fid, k)
            if det_exact(s4, elem) != value:
                ok = False
            if (fid, k) in spot and value != spot[(fid, k)]:
                ok = False
    _report(1, "12 witness families, k in [-3,3], exact closed forms",
            ok, time.perf_counter() - start, 10.0)


def test_criterion_2_factored_equals_elimination(s4):
    from gdet import s4_det_fast

    start = time.perf_counter()
    rng = random.Random(20240)
    mismatches = 0
    for _ in range(10_000):
        e = ring_element(s4, [rng.randint(-9, 9) for _ in range(24)])
        if s4_det_fast(e) != det_exact(s4, e):
            mismatches += 1
    _report(2, f"fast = elimination on 10^4 random vectors ({mismatches} mismatches)",
            mismatches == 0, time.perf_counter() - start, 60.0)


def test_criterion_3_symbolic_identity_suite():
    start = time.perf_counter()
    factors = build_symbolic()
    reports = [check_identity(i, factors) for i in IdentityId]
    ok = all(r.holds for r in reports)
    expansion = next(r for r in reports if r.identity is IdentityId.D1_EXPANSION)
    ok = ok and expansion.quotient is not None and expansion.quotient.is_homogeneous(3)
    c_ab, _ = factors.d1_quotient
    c_neg = _mirror(c_ab)
    ok = ok and all(c % 2 == 0 for c in (c_ab + c_neg).terms.values())
    _report(3, "8 congruence identities + exact division + even C(a,b)+C(a,-b)",
            ok, time.perf_counter() - start, 300.0)


def test_criterion_4_representation_cross_check():
    start = time.perf_counter()
    tables = default_rep_table()
    factors = build_symbolic()
    ok = rep_is_homomorphism(tables)
    ok = ok and symbolic_rep_det(tables.rho1) == factors.q1
    ok = ok and symbolic_rep_det(tables.rho2) == factors.d1
    ok = ok and symbolic_rep_det(tables.rho3) == factors.d2
    _report(4, "rho tables: homomorphism checked on the generators, which implies "
            "all 576 pairs; det = q1/d1/d2 symbolically",
            ok, time.perf_counter() - start, 300.0)


def test_criterion_5_falsification_scan():
    start = time.perf_counter()
    report = scan(ScanConfig(group="S4", lo=-3, hi=3, mode="random",
                             count=100_000, seed=424242))
    ok = report.total == 100_000 and not report.violations
    for value in report.value_counts:
        if value == 0:
            continue
        if value % 2:
            ok = ok and value % 4 == 1
    allowed = {0, 8, 10}
    for v2 in report.v2_hist:
        ok = ok and (v2 in allowed or v2 >= 12)
    _report(5, f"10^5 random S4 vectors: {len(report.violations)} violations, "
               f"odd = 1 mod 4, v2 in {{8,10,12+}}",
            ok, time.perf_counter() - start, 300.0)


def test_criterion_6_small_group_exhaustive_oracles():
    start = time.perf_counter()
    checks = [
        ("Z4", -2, 2, 625),
        ("K4", -2, 2, 625),
        ("Z3", -3, 3, 343),
    ]
    ok = True
    for group, lo, hi, expect_total in checks:
        report = scan(ScanConfig(group=group, lo=lo, hi=hi, mode="exhaustive"))
        ok = ok and report.total == expect_total and not report.violations
    _report(6, "exhaustive Z4/Klein4/Z3 scans, zero violations",
            ok, time.perf_counter() - start, 300.0)


def test_criterion_7_lambda_values(s4):
    start = time.perf_counter()
    ok = lambda_of(S4_RULE) == 5
    cert = synthesize(5)
    ok = ok and verify_certificate(cert) and det_exact(s4, cert.element) == 5
    ok = ok and lambda_scan("K4", -2, 2) == 3
    _report(7, "lambda(S4) = 5 with certificate, lambda_scan(Klein4) = 3",
            ok, time.perf_counter() - start, 300.0)


def _seeded_members(rng, count):
    """Members below 10^6 in absolute value, cycling the four theorem classes."""
    wanted = ("odd", "2^8", "2^10", "2^12")
    picked = []
    while len(picked) < count:
        target_class = wanted[len(picked) % 4]
        m = rng.randint(-(10**6), 10**6)
        verdict = member(S4_RULE, m)
        if verdict.member and verdict.reason["class"] == target_class:
            picked.append(m)
    return picked


def test_criterion_8_synthesis_round_trip(s4):
    start = time.perf_counter()
    rng = random.Random(88)
    targets = _seeded_members(rng, 50)
    classes = {member(S4_RULE, t).reason["class"] for t in targets}
    ok = classes == {"odd", "2^8", "2^10", "2^12"}
    for target in targets:
        cert = synthesize(target)
        ok = ok and verify_certificate(cert) and det_exact(s4, cert.element) == target
    rejected = 0
    while rejected < 50:
        m = rng.randint(-(10**6), 10**6)
        if member(S4_RULE, m).member:
            continue
        try:
            synthesize(m)
            ok = False
        except NotInSet:
            rejected += 1
    _report(8, "50 member targets certified, 50 non-members rejected",
            ok, time.perf_counter() - start, 120.0)


def test_criterion_9_multiplicativity(s4):
    start = time.perf_counter()
    rng = random.Random(99)
    ok = True
    for _ in range(500):
        a = ring_element(s4, [rng.randint(-3, 3) for _ in range(24)])
        b = ring_element(s4, [rng.randint(-3, 3) for _ in range(24)])
        if det_exact(s4, convolve(a, b)) != det_exact(s4, a) * det_exact(s4, b):
            ok = False
    _report(9, "D(a * b) = D(a) D(b) on 500 random pairs",
            ok, time.perf_counter() - start, 300.0)
