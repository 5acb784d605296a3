"""Exact determinants: elimination, the factored S4 form, representations."""

import hashlib
import random
import re
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gdet import (
    build_group,
    convolve,
    default_rep_table,
    det_exact,
    det_int,
    group_matrix,
    identity_element,
    rep_factor_check,
    rep_is_homomorphism,
    ring_element,
    s4_det_fast,
    s4_factors,
    symmetric_group4,
    valuation,
)
from gdet.detcalc import _CUBIC_CELLS, RepTable, _mat_mul_int, cofactor_det, kernel_for
from gdet.groups import generating_set


def test_det_int_small_cases():
    assert det_int([[5]]) == 5
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[0, 1], [1, 0]]) == -1
    assert det_int([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det_int([[1, 2], [2, 4]]) == 0


def test_det_int_pivoting():
    # leading zeros force row swaps with sign tracking
    assert det_int([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_int([[0, 2], [3, 0]]) == -6


def test_det_int_matches_cofactor_expansion_3x3():
    rng = random.Random(5)
    for _ in range(200):
        m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        (a, b, c), (d, e, f), (g, h, i) = m
        cofactor = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        assert det_int(m) == cofactor


def test_det3_matches_elimination():
    rng = random.Random(6)
    for _ in range(200):
        m = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        assert cofactor_det([x for row in m for x in row]) == det_int(m)
        assert cofactor_det(m[0][:2] + m[1][:2]) == det_int([row[:2] for row in m[:2]])
        assert cofactor_det([m[0][0]]) == det_int([m[0][:1]])


def test_det_int_rejects_non_square():
    with pytest.raises(ValueError):
        det_int([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("kind", ["Z1", "Z2", "Z4", "K4", "D8", "A4", "S4"])
def test_identity_element_has_determinant_one(kind):
    g = build_group(kind)
    assert det_exact(g, identity_element(g)) == 1


def test_s4_determinant_examples(s4, make_elem):
    assert det_exact(s4, make_elem(a1=1, a5=1)) == 256
    assert det_exact(s4, make_elem(a1=1, a3=1, b3=1)) == -27
    assert det_exact(s4, make_elem(a2=1, a5=1, a9=1, b11=1)) == 4096


def test_factor_profile_constant_family(make_elem):
    p = s4_factors(make_elem(a1=1))
    assert (p.l1, p.l2, p.q1, p.d1, p.d2) == (1, 1, 1, 1, 1)
    assert p.det == 1


def test_factor_profile_residue_five(make_elem):
    p = s4_factors(make_elem(a2=1, a5=1, a9=1, b3=1, b5=1))
    assert (p.l1, p.l2, p.q1) == (5, 1, -1)
    assert (p.d1, p.d2) == (1, 1)  # determinants of the two displayed matrices
    assert p.det == 5


def test_factor_profile_two_to_ten(make_elem):
    p = s4_factors(make_elem(a1=-1, a5=1, a6=1, b5=1, b10=-1))
    assert (p.l1, p.l2, p.q1) == (1, 1, 4)
    assert p.det == -(2**10)
    assert (p.val2, p.val3) == (10, 0)


def test_factor_profile_zero_marks_infinite_valuation(s4):
    p = s4_factors(ring_element(s4, [0] * 24))
    assert p.det == 0
    assert p.val2 is None and p.val3 is None


def test_profile_linear_relations(s4):
    rng = random.Random(23)
    for _ in range(100):
        e = ring_element(s4, [rng.randint(-9, 9) for _ in range(24)])
        p = s4_factors(e)
        assert p.u == p.u1 + p.u2 + p.u3 == sum(e.coeffs[:12])
        assert p.v == p.v1 + p.v2 + p.v3 == sum(e.coeffs[12:])
        assert p.l1 == p.u + p.v and p.l2 == p.u - p.v
        # the closed form of q1, independent of the kernel's d = 3 norm block
        (x, y, z), (x2, y2, z2) = (p.u1, p.u2, p.u3), (p.v1, p.v2, p.v3)
        assert p.q1 == (x * x + y * y + z * z - x * y - y * z - z * x
                        - (x2 * x2 + y2 * y2 + z2 * z2 - x2 * y2 - y2 * z2 - z2 * x2))
        assert p.det == p.l1 * p.l2 * p.q1**2 * p.d1**3 * p.d2**3


def test_fast_equals_exact_on_random_box(s4):
    rng = random.Random(99)
    for _ in range(300):
        e = ring_element(s4, [rng.randint(-9, 9) for _ in range(24)])
        assert s4_det_fast(e) == det_exact(s4, e)


@st.composite
def s4_vectors(draw):
    """S4 coefficient vectors: free ones, and ones built to end the fast path
    at l1 = 0, at l2 = 0 or at q1 = 0 (with l1 and l2 nonzero)."""
    c = draw(st.lists(st.integers(-6, 6), min_size=24, max_size=24))
    exit_at = draw(st.sampled_from(["none", "l1", "l2", "q1"]))
    if exit_at == "l1":
        c[0] -= sum(c)
    elif exit_at == "l2":
        c[0] -= sum(c[:12]) - sum(c[12:])
    elif exit_at == "q1":
        # q1 = Q(u) - Q(v) and Q is unchanged when t is added to u1, u2, u3;
        # v = u + t then leaves l2 = -3t and l1 = 2u + 3t nonzero
        t = draw(st.sampled_from([-2, -1, 1, 2]))
        for block in range(3):
            u_i = sum(c[4 * block:4 * block + 4])
            v_i = sum(c[12 + 4 * block:16 + 4 * block])
            c[12 + 4 * block] += u_i + t - v_i
        if 2 * sum(c[:12]) + 3 * t == 0:
            c[0] += 1
            c[12] += 1
    return exit_at, c


@settings(max_examples=200, deadline=None)
@given(s4_vectors())
def test_fast_equals_exact_property(s4, case):
    exit_at, coeffs = case
    e = ring_element(s4, coeffs)
    fast = s4_det_fast(e)
    assert fast == det_exact(s4, e)
    p = s4_factors(e)
    assert p.det == fast
    if exit_at == "l1":
        assert p.l1 == 0
    elif exit_at == "l2":
        assert p.l2 == 0
    elif exit_at == "q1":
        assert p.q1 == 0 and p.l1 != 0 and p.l2 != 0


def test_congruences_hold_on_profiles(s4):
    rng = random.Random(31)
    for _ in range(300):
        p = s4_factors(ring_element(s4, [rng.randint(-6, 6) for _ in range(24)]))
        assert (p.l1 - p.l2) % 2 == 0
        assert (p.d1 - p.d2) % 2 == 0
        assert (p.q1 - p.l1 * p.l2) % 3 == 0


def test_zero_determinant_requires_zero_factor(s4, make_elem):
    e = make_elem(a1=1, b1=1)  # l2 = 0
    p = s4_factors(e)
    assert p.l2 == 0 and p.det == 0
    assert det_exact(s4, e) == 0


# -- the displayed cubic-factor matrices of the witness constructions

DISPLAYED = {
    "res5": ([[-1, 0, -2], [0, 0, -1], [-2, -1, 2]], [[-1, 2, 0], [2, -2, -1], [0, -1, 0]]),
    "res13": ([[-2, 0, -1], [-1, 4, 0], [0, -1, 0]], [[2, 4, -1], [-1, 0, 0], [0, -1, 0]]),
    "res17": ([[1, 0, 0], [0, 0, 1], [-2, 1, 2]], [[-3, 2, 2], [-2, 2, 1], [0, 1, 0]]),
    "neg27": ([[0, -1, 0], [-1, 2, 0], [0, 0, 1]], [[0, 1, 0], [1, 2, 0], [0, 0, -1]]),
    "pos81": ([[0, 0, -1], [1, 0, 0], [0, -1, 2]], [[0, 0, -1], [1, 0, 0], [0, -1, 2]]),
    "pow2_8": ([[1, 0, -1], [1, 1, 0], [0, -1, 1]], [[1, 0, -1], [1, 1, 0], [0, -1, 1]]),
    "neg2_10": ([[-2, 0, -1], [0, 0, 1], [-1, -1, -1]], [[0, 0, 1], [0, -2, -1], [1, -3, -1]]),
    "pos2_12": ([[-2, 1, -1], [1, -1, 0], [-1, -2, 1]], [[0, 1, -1], [1, -1, -2], [-1, 0, 1]]),
    "neg2_12": ([[0, -2, 1], [0, 0, 1], [1, 1, 1]], [[0, 0, 1], [-2, 0, 1], [1, 1, 3]]),
    "pos2_13": ([[1, 1, 2], [0, 1, 1], [1, -2, 3]], [[-1, -1, 0], [-2, -1, 3], [-1, 0, 1]]),
    "neg2_13": ([[-1, 2, -1], [2, 1, -1], [-1, -1, 0]], [[-1, 0, -1], [0, -3, -1], [-1, -1, -2]]),
}


@pytest.mark.parametrize("family_id", sorted(DISPLAYED))
def test_cubic_matrices_match_displayed(family_id):
    from gdet import family

    elem, _ = family(family_id, 1)
    c = elem.coeffs
    # each cell is a + b in A + B and a - b in A - B, with a and b read from
    # the slots of `_CUBIC_CELLS`, the source of the kernel's cell halves
    halves = [(c[ap1] + c[ap2] - c[am1] - c[am2], c[bp1] + c[bp2] - c[bm1] - c[bm2])
              for ap1, ap2, am1, am2, bp1, bp2, bm1, bm2 in _CUBIC_CELLS]
    m1 = [a + b for a, b in halves]
    m2 = [a - b for a, b in halves]
    want1, want2 = DISPLAYED[family_id]
    assert [m1[0:3], m1[3:6], m1[6:9]] == want1
    assert [m2[0:3], m2[3:6], m2[6:9]] == want2


def test_cubic_cells_digest():
    # pins all 24 slots of every cell, which the displayed matrices above cannot
    from gdet import detcalc

    digest = hashlib.sha256(repr(detcalc._CUBIC_CELLS).encode()).hexdigest()
    assert digest == "4b7b69c297317e6d927a1eee9f9d41bfe687b3d9c472cd385fb10388529aec90"


# the paper's six-term forms, as slot lists within the a half (A) and the b half (B)
PAPER_A_FORMS = ((0, 1, 4, 7, 8, 9), (0, 2, 5, 7, 9, 11), (0, 3, 6, 7, 9, 10))
PAPER_B_FORMS = ((0, 1, 6, 7, 10, 11), (1, 2, 4, 7, 9, 10), (0, 2, 4, 6, 9, 11))


def test_six_term_forms_are_the_papers():
    from gdet.detcalc import _SIX_TERM_FORMS

    b_slots = tuple(tuple(12 + i for i in form) for form in PAPER_B_FORMS)
    assert _SIX_TERM_FORMS == PAPER_A_FORMS + b_slots


def test_signed_action_is_homomorphism(s4):
    from gdet.detcalc import _signed_action
    from gdet.groups import _s4_perms_and_names

    actions = [_signed_action(p) for p in _s4_perms_and_names()[0]]
    for i in range(24):
        for j in range(24):
            # j sends w_k to s1 * w_r, then i sends w_r to s2 * w_t
            composed = tuple((actions[i][r][0], s1 * actions[i][r][1]) for r, s1 in actions[j])
            assert actions[s4.mul[i][j]] == composed, (i, j)


def test_signed_action_rejects_a_vector_set_s4_does_not_permute(monkeypatch):
    from gdet import detcalc

    monkeypatch.setattr(detcalc, "_PAIRING_VECTORS", ((1, 1, -1, -1), (-1, 1, 1, -1), (1, 1, 1, -3)))
    with pytest.raises(AssertionError, match="no signed pairing vector"):
        detcalc._signed_action((0, 1, 3, 2))  # (34)


# -- the quadratic factor


def test_q1_is_det_of_rho1(s4):
    rho1 = default_rep_table().rho1
    rng = random.Random(41)
    for _ in range(200):
        c = [rng.randint(-9, 9) for _ in range(24)]
        m = [[sum(c[g] * rho1[g][i][j] for g in range(24)) for j in range(2)] for i in range(2)]
        assert det_int(m) == s4_factors(ring_element(s4, c)).q1


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(-54, 3) == 3
    assert valuation(7, 2) == 0
    assert valuation(0, 2) is None


def _valuation_by_division(m, p):
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(-(1 << 64), 1 << 64).filter(bool),
    st.builds(lambda odd, v, sign: sign * (2 * odd + 1) << v,
              st.integers(0, 1 << 20), st.integers(13, 43), st.sampled_from([1, -1])),
))
def test_two_adic_valuation_matches_division(m):
    assert valuation(m, 2) == _valuation_by_division(m, 2)


@pytest.mark.parametrize("p", [1, 0, -2])
def test_valuation_rejects_base_below_two(p):
    # p = 1 used to loop forever and p = 0 to divide by zero; run it on a
    # daemon thread so a regression fails here instead of hanging the suite
    outcome = []

    def call():
        try:
            valuation(8, p)
        except ValueError as exc:
            outcome.append(exc)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive(), "valuation did not return"
    assert len(outcome) == 1


# -- representation tables


def homomorphism_on_all_pairs(tables):
    """The brute-force oracle: rho(g)rho(h) = rho(gh) over all 576 pairs, for all three tables."""
    mul = symmetric_group4().mul
    for rho in (tables.rho1, tables.rho2, tables.rho3):
        for i in range(24):
            for j in range(24):
                product = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*rho[j]))
                                for row in rho[i])
                if product != rho[mul[i][j]]:
                    return False
    return True


def single_entry_mutants():
    """Tables with one entry of one matrix moved by +-1.

    Every element of rho1, and in rho2 and rho3 one generator and two
    non-generators, the identity among them; the entry and the sign vary with i.
    """
    gens = generating_set(symmetric_group4())
    picked = [gens[0]] + [i for i in range(24) if i not in gens][:2]
    t = default_rep_table()
    for name, elements in (("rho1", range(24)), ("rho2", picked), ("rho3", picked)):
        for i in elements:
            rho = list(getattr(t, name))
            m = [list(row) for row in rho[i]]
            m[i % len(m)][(i // len(m)) % len(m)] += 1 if i % 2 else -1
            rho[i] = tuple(map(tuple, m))
            yield name, i, type(t)(**{**t.as_dict(), name: tuple(rho)})


def coset_mutants():
    """rho2 negated off the subgroup of all generators but one, where that subgroup is proper.

    Every pair (g, h) with g in the subgroup still multiplies correctly, so a
    check that skipped the missing generator would accept the table.
    """
    s4 = symmetric_group4()
    gens = generating_set(s4)
    t = default_rep_table()
    for left_out in gens:
        subgroup = {s4.identity_index}
        while True:
            grown = subgroup | {s4.mul[a][s] for a in subgroup for s in gens if s != left_out}
            if grown == subgroup:
                break
            subgroup = grown
        if len(subgroup) < 24:
            rho2 = tuple(m if i in subgroup else tuple(tuple(-x for x in row) for row in m)
                         for i, m in enumerate(t.rho2))
            yield left_out, type(t)(**{**t.as_dict(), "rho2": rho2})


def test_rep_tables_are_homomorphisms():
    assert rep_is_homomorphism(default_rep_table())
    assert homomorphism_on_all_pairs(default_rep_table())


def test_rep_table_is_derived_from_the_canonical_permutations():
    """rho1 through the signed action on the pairings, rho2 on Z^4, rho3 = sign * rho2; pinned."""
    from gdet import detcalc
    from gdet.groups import _s4_perms_and_names

    perms = _s4_perms_and_names()[0]
    t = default_rep_table()
    assert t.rho1 == tuple(detcalc._sum_zero_action(tuple(r for r, _ in detcalc._signed_action(p)))
                           for p in perms)
    assert t.rho2 == tuple(detcalc._sum_zero_action(p) for p in perms)
    assert t.rho3 == detcalc._sign_twist(t.rho2)
    digest = hashlib.sha256(repr((t.rho1, t.rho2, t.rho3)).encode()).hexdigest()
    assert digest == "cefb15a73f2301b47f071b9f4a385b54f13d0ace331e07660b11c08969be5168"


@st.composite
def _matrix_pairs(draw):
    """An n x k and a k x m integer matrix, as tuples of rows."""
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    entries = st.integers(-50, 50)

    def matrix(rows, cols):
        return tuple(tuple(draw(entries) for _ in range(cols)) for _ in range(rows))

    return matrix(n, k), matrix(k, m)


@settings(max_examples=200, deadline=None)
@given(_matrix_pairs())
def test_mat_mul_int_matches_the_triple_loop(pair):
    a, b = pair
    expected = tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )
    assert _mat_mul_int(a, b) == expected


def test_rep_is_homomorphism_matches_all_pairs_on_mutants():
    for name, i, mutant in single_entry_mutants():
        assert homomorphism_on_all_pairs(mutant) is False, (name, i)
        assert rep_is_homomorphism(mutant) is False, (name, i)
    left_out = []
    for s, mutant in coset_mutants():
        assert homomorphism_on_all_pairs(mutant) is False, s
        assert rep_is_homomorphism(mutant) is False, s
        left_out.append(s)
    assert generating_set(symmetric_group4())[-1] in left_out


def test_rho3_is_sign_times_rho2():
    t = default_rep_table()
    for i in range(24):
        sign = 1 if i < 12 else -1
        want = tuple(tuple(sign * x for x in row) for row in t.rho2[i])
        assert t.rho3[i] == want


def test_rep_factor_check_accepts_correct_tables():
    assert rep_factor_check()


# swapping rho1 at (12) and (34), indices 20 and 21, would change nothing: both
# act on the pairings as the same transposition, so rho1 swaps (134) and (143)
@pytest.mark.parametrize("name, i, j", [("rho1", 4, 8), ("rho2", 20, 21), ("rho3", 20, 21)],
                         ids=["rho1", "rho2", "rho3"])
def test_rep_factor_check_detects_swapped_entries(name, i, j):
    t = default_rep_table()
    rho = list(getattr(t, name))
    rho[i], rho[j] = rho[j], rho[i]
    broken = type(t)(**{**t.as_dict(), name: tuple(rho)})
    assert getattr(broken, name) != getattr(t, name)
    assert not rep_factor_check(broken)


@pytest.mark.parametrize("name", ["rho1", "rho2", "rho3"])
def test_rep_factor_check_detects_sign_flip(name):
    t = default_rep_table()
    rho = list(getattr(t, name))
    rho[5] = tuple(tuple(-x for x in row) for row in rho[5])
    broken = type(t)(**{**t.as_dict(), name: tuple(rho)})
    assert getattr(broken, name) != getattr(t, name)
    assert not rep_is_homomorphism(broken)
    assert not rep_factor_check(broken)


def test_rep_factor_check_detects_exchanged_cubic_tables():
    # both are homomorphisms, so only the symbolic determinants tell them apart
    t = default_rep_table()
    broken = RepTable(rho1=t.rho1, rho2=t.rho3, rho3=t.rho2)
    assert rep_is_homomorphism(broken)
    assert not rep_factor_check(broken)


def _conjugated(rho, p, p_inv):
    """The table p * rho(g) * p_inv: an equivalent representation, with the same determinant."""
    def mul(a, b):
        return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)

    return tuple(mul(mul(p, m), p_inv) for m in rho)


# rho3 = sign * rho2 is mirrored from rho2's determinant; a conjugate of it, or
# rho2 itself (d1, not d2), is expanded
@pytest.mark.parametrize("rho3, holds, expansions", [
    ("default", True, 2),
    ("conjugated", True, 3),
    ("rho2", False, 3),
])
def test_rep_factor_check_mirrors_rho2_only_for_sign_times_rho2(monkeypatch, rho3, holds,
                                                                 expansions):
    from gdet import sympoly

    t = default_rep_table()
    p, p_inv = ((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, -1, 0), (0, 1, 0), (0, 0, 1))
    tables = {"default": t,
              "conjugated": type(t)(**{**t.as_dict(), "rho3": _conjugated(t.rho3, p, p_inv)}),
              "rho2": type(t)(**{**t.as_dict(), "rho3": t.rho2})}[rho3]
    assert rep_is_homomorphism(tables)
    expand = sympoly.symbolic_rep_det
    calls = []

    def counting(rho):
        calls.append(rho)
        return expand(rho)

    monkeypatch.setattr(sympoly, "symbolic_rep_det", counting)
    assert rep_factor_check(tables) is holds
    assert len(calls) == expansions


# ---------------------------------------------------------------------------
# compiled block kernels, against elimination of the full group matrix

KERNEL_GROUPS = (
    [f"Z{n}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18)]
    + [f"D:{2 * n}" for n in (2, 3, 4, 5, 6, 7, 8, 9)]
    + ["K4", "A4", "S4"]
)


@st.composite
def kernel_cases(draw):
    """A table and a vector for it, entries up to 10^6, sometimes with a block forced to 0."""
    g = build_group(draw(st.sampled_from(KERNEL_GROUPS)))
    bound = draw(st.sampled_from([2, 10**6]))
    coeffs = draw(st.lists(st.integers(-bound, bound), min_size=g.order, max_size=g.order))
    shape = draw(st.sampled_from(["free", "sum zero", "constant"]))
    if shape == "sum zero":  # the trivial character vanishes
        coeffs[-1] -= sum(coeffs)
    elif shape == "constant":  # every nontrivial block vanishes
        coeffs = [coeffs[0]] * g.order
    return g, coeffs


@settings(max_examples=400, deadline=None)
@given(kernel_cases())
def test_kernel_equals_elimination(case):
    g, coeffs = case
    assert kernel_for(g)(tuple(coeffs)) == det_int(group_matrix(g, coeffs))


@pytest.mark.parametrize("name, coeffs", [
    ("Z9", [1, 0, 0, 1, 0, 0, 1, 0, 0]),           # Phi_9 itself: only the 6x6 block is 0
    ("Z4", [1, 0, 1, 0]),                          # 1 + x^2: only the Phi_4 block is 0
    ("D:6", [1, 1, 1, 0, 0, 0]),                   # 1 + r + r^2: only the 2x2 block is 0
    ("D8", [1, 0, 0, 0, 1, 0, 0, 0]),              # 1 + s: the r -> 1, s -> -1 character is 0
    ("K4", [1, 1, 0, 0]),                          # two characters are 0
    ("A4", [1, 1, 1, 1] + [0] * 8),                # Klein sum: only the 3-dimensional block is 0
    ("Z7", [1] * 7),                               # Phi_7 itself: only the Phi_7 block is 0
    ("Z14", [1] * 7 + [0] * 7),                    # Phi_7 again: Phi_14 and both characters are not
    ("S4", [int(s in (15, 19, 23)) for s in range(24)]),     # only q1 is 0
    ("S4", [int(s in (5, 10, 11, 19)) for s in range(24)]),  # only d1 is 0
    ("S4", [int(s in (3, 8, 9, 12)) for s in range(24)]),    # only d2 is 0
    ("D:10", [1, 1, 1, 1, 0, 0, 0, 0, 0, 1]),      # 1 + r + r^2 + r^3 + s r^4: only Phi_5 is 0
    ("Z12", [1, 0, -1, 0, 1] + [0] * 7),           # Phi_12 itself: only the Phi_12 block is 0
    ("S4", [{6: 2, 9: -1, 21: -1}.get(s, 0) for s in range(24)]),  # only l1 is 0
    ("S4", [{0: 1, 12: -1, 17: 2}.get(s, 0) for s in range(24)]),  # only l2 is 0
])
def test_kernel_zero_block(name, coeffs):
    g = build_group(name)
    assert kernel_for(g)(tuple(coeffs)) == 0 == det_int(group_matrix(g, coeffs))


@pytest.mark.parametrize("name, eliminates", [
    ("Z5", False), ("Z7", False), ("Z8", False), ("Z9", False), ("Z12", False),
    ("D:10", False), ("D:14", False), ("Z15", True), ("Z16", True),
])
def test_prime_cyclic_kernels_need_no_elimination(monkeypatch, name, eliminates):
    """A Phi_d block is a phi(d)/2-square norm: only phi(d) >= 8 (Phi_15, Phi_16) is eliminated."""
    g = build_group(name)
    kernel = kernel_for(g)
    calls = []

    def counting(rows):
        calls.append(rows)
        return det_int(rows)

    monkeypatch.setitem(kernel.__globals__, "det_int", counting)
    rng = random.Random(5)
    for _ in range(50):
        coeffs = [rng.randint(-10**6, 10**6) for _ in range(g.order)]
        assert kernel(tuple(coeffs)) == det_int(group_matrix(g, coeffs))
    assert bool(calls) == eliminates


def test_kernel_code_names_its_group():
    assert kernel_for(build_group("Z9")).__code__.co_filename == "<gdet kernel Z9>"
    assert kernel_for(build_group("S3")).__code__.co_filename == "<gdet kernel D6>"
    assert kernel_for(build_group("S4")).__code__.co_filename == "<gdet kernel S4>"


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(KERNEL_GROUPS), st.data())
def test_kernel_is_multiplicative(name, data):
    """D(a*b) = D(a) * D(b) for the convolution product of the group ring."""
    g = build_group(name)
    vectors = st.lists(st.integers(-5, 5), min_size=g.order, max_size=g.order)
    a, b = ring_element(g, data.draw(vectors)), ring_element(g, data.draw(vectors))
    kernel = kernel_for(g)
    assert kernel(convolve(a, b).coeffs) == kernel(a.coeffs) * kernel(b.coeffs)


def _readme_table_names():
    """Every name and alias of a table group in the README's group-name table, expanded."""
    names = []
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        cols = [col.strip() for col in line.strip().strip("|").split("|")]
        if len(cols) != 4 or not cols[2].startswith("yes"):
            continue
        for name in re.findall(r"`([^`]+)`", cols[0] + " " + cols[1]):
            if name == "D:<2n>":
                names += [f"D:{order}" for order in range(4, 65, 2)]
            else:
                names += [name.replace("<n>", str(n)) for n in range(1, 65)] if "<n>" in name else [name]
    return names


def test_every_readme_table_gets_a_kernel():
    names = _readme_table_names()
    assert {"S4", "A4", "K4", "Klein4", "S3", "D8", "D:8", "D:64", "Z1", "Z64", "Zn:64"} <= set(names)
    rng = random.Random(6)
    for name in names:
        g = build_group(name)
        coeffs = tuple(rng.randint(-1, 1) for _ in range(g.order))
        assert kernel_for(g)(coeffs) == det_int(group_matrix(g, coeffs)), name


# det_exact eliminates on differences; certificates sit close to a common value


def _odd_cofactor(rng, bits, mod4):
    """A random odd integer of `bits` bits, prime to 3, that is `mod4` mod 4 (1 or 3)."""
    c = rng.randrange(1 << (bits - 1), 1 << bits) | 1
    c = c if c % 4 == mod4 else -c  # negating an odd number swaps 1 and 3 mod 4
    return c if c % 3 else c + (4 if c > 0 else -4)


def _member_targets(rng):
    """Members of each class the witness trail plans for, |m| up to 2^64."""
    for _ in range(4):
        v3 = rng.randint(3, 9)
        yield _odd_cofactor(rng, rng.randint(3, 62), 1)                       # odd
        yield 3 ** v3 * _odd_cofactor(rng, rng.randint(3, 62 - 2 * v3),
                                      3 if v3 % 2 else 1)                     # 3-adic >= 3
        yield _odd_cofactor(rng, rng.randint(3, 54), 1) << 8                  # 2^8
        yield _odd_cofactor(rng, rng.randint(3, 52), 3) << 10                 # 2^10
        yield _odd_cofactor(rng, rng.randint(3, 50), rng.choice((1, 3))) << 12  # 2^12
        v2 = rng.randint(13, 48)
        yield _odd_cofactor(rng, rng.randint(3, 62 - v2), rng.choice((1, 3))) << v2  # 2^>=13
    yield (1 << 64) - 3  # odd and 1 mod 4
    yield 1 << 64


_CERT_TARGETS = list(_member_targets(random.Random(20180223)))


@pytest.mark.parametrize("target", _CERT_TARGETS)
def test_det_exact_on_certificates_equals_bareiss(target):
    from gdet import classify, witness

    assert classify.member(classify.GroupRule("S4"), target).member
    e = witness.synthesize(target).element
    c = e.coeffs
    assert max(c) - min(c) < max(map(abs, c))  # close to a common value
    assert det_exact(e.group, e) == det_int(group_matrix(e.group, c)) == target


def test_det_exact_leaves_one_large_entry_for_bareiss(monkeypatch):
    """On a certificate only the last entry of the eliminated matrix carries c·Σg."""
    from gdet import detcalc, witness

    seen = []
    monkeypatch.setattr(detcalc, "det_int", lambda rows: seen.append(rows) or det_int(rows))
    e = witness.synthesize(_CERT_TARGETS[0]).element
    assert det_exact(e.group, e) == _CERT_TARGETS[0]
    (rows,) = seen
    c = e.coeffs
    spread = max(c) - min(c)
    assert rows[-1][-1] == c[e.group.identity_index]
    assert all(abs(x) <= 2 * spread for row in rows for x in row[:-1])
    assert all(abs(row[-1]) <= spread for row in rows[:-1])


@pytest.mark.parametrize("c", [7, -(10 ** 15)])
def test_det_exact_of_a_multiple_of_the_group_sum_is_zero(s4, c):
    coeffs = [c] * 24  # c·Σg: every nontrivial block vanishes
    assert det_exact(s4, ring_element(s4, coeffs)) == det_int(group_matrix(s4, coeffs)) == 0


def test_det_exact_on_a_high_power_equals_bareiss(s4):
    from gdet import parse_expr

    e = parse_expr("(3+x+y)^400", s4)
    c = e.coeffs
    assert max(c) - min(c) < max(c)  # close to a common value
    assert det_exact(s4, e) == det_int(group_matrix(s4, c)) == s4_det_fast(e)


@pytest.mark.parametrize("name, shift", [
    (name, shift) for name in ("Z7", "D8", "A4", "K4", "S4") for shift in (10 ** 12, -(10 ** 12))
])
def test_det_exact_on_shifted_random_vectors_equals_bareiss(name, shift):
    g = build_group(name)
    rng = random.Random(f"{name}/{shift}")
    for _ in range(5):
        coeffs = [shift + rng.randint(-3, 3) for _ in range(g.order)]
        assert det_exact(g, ring_element(g, coeffs)) == det_int(group_matrix(g, coeffs))


def test_det_exact_on_small_random_vectors_equals_bareiss(s4):
    rng = random.Random(7)
    for _ in range(200):
        coeffs = [rng.randint(-3, 3) for _ in range(24)]
        assert det_exact(s4, ring_element(s4, coeffs)) == det_int(group_matrix(s4, coeffs))
