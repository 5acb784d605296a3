"""Exact group-determinant evaluation.

Two routes: fraction-free (Bareiss) elimination of the group matrix, which
works for any group table and is the oracle, and `kernel_for`, the compiled
block kernel of any table group (`gdet.kernels`), which scans and `gdet det`
use; exhaustive scans run the same statements as a box walker.  For S4 the
kernel is the paper's factored form

    D = l1 * l2 * q1^2 * d1^3 * d2^3

through the five irreducible factors.  `s4_forms` gives them and the
intermediates of the congruence analysis (quartet sums, u, v, w and the
six-term forms A_i and B_i) over any ring, with all five factors run from
the kernel's own block statements (`kernels.factors`): `s4_factors`
evaluates it on integers, with the 2-/3-adic valuations, and
`sympoly.build_symbolic` on polynomial variables.  The cubic cells of d1
and d2, and the six-term forms, are derived from the canonical
permutations through their signed action on three vectors of Z^4
(`_signed_action`), which also gives rho1's action on the pairings.  The
representations computed from the permutations check the polynomials
(`rep_factor_check`), and Bareiss elimination the values.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .classify import valuation
from .groups import (
    GroupTable, Record, _invert, _s4_perms_and_names, generating_set, symmetric_group4,
)
from .ring import RingElement


# ---------------------------------------------------------------------------
# generic exact elimination


def det_int(rows) -> int:
    """Exact determinant of an integer matrix by one-step Bareiss elimination.

    Intermediate entries are minors of the input, so they stay polynomially
    bounded and every division is exact.
    """
    a = [list(row) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for size in range(n, 1, -1):
        if a[0][0] == 0:
            for r in range(1, size):
                if a[r][0]:
                    a[0], a[r] = a[r], a[0]
                    sign = -sign
                    break
            else:
                return 0
        p = a[0][0]
        top = a[0]
        a = [
            [(p * row[j] - row[0] * top[j]) // prev for j in range(1, size)]
            for row in a[1:]
        ]
        prev = p
    return sign * a[0][0]


def group_matrix(g: GroupTable, coeffs):
    """The order x order matrix with (i, j) entry coeffs[g_i * g_j^-1]."""
    mul, inv = g.mul, g.inv
    return [[coeffs[mul[i][inv[j]]] for j in range(g.order)] for i in range(g.order)]


def det_exact(g: GroupTable, e: RingElement) -> int:
    """Group determinant of a ring element, by exact elimination.

    Every row and column of the group matrix holds each coefficient once.
    Row 0 is subtracted from every other row and column 0 from every other
    column, and row 0 and column 0 are moved last.  The subtractions keep
    the determinant, and the two cyclic moves of equal length have equal
    signs, so the value is exact for every element.  It pays on witness
    certificates, the one caller outside the tests: each is c·Σg plus a
    pattern of small coefficients (Σg is central), so every entry carries
    the same large c, and after the steps only the last entry does.
    Bareiss's pivots, which are leading minors, then stay small.
    """
    if e.group.order != g.order or e.group.kind != g.kind:
        raise ValueError("element group does not match")
    m = group_matrix(g, e.coeffs)
    top = m[0]
    m = [[x - t for x, t in zip(row, top)] for row in m[1:]] + [top]
    m = [[x - row[0] for x in row[1:]] + [row[0]] for row in m]
    return det_int(m)


# ---------------------------------------------------------------------------
# the S4 factor forms, over any ring


def cofactor_det(m):
    """Determinant of a flat row-major 1x1, 2x2 or 3x3 matrix over any ring, by cofactors."""
    if len(m) == 9:
        a, b, c, d, e, f, g, h, i = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if len(m) == 4:
        a, b, c, d = m
        return a * d - b * c
    if len(m) == 1:
        return m[0]
    raise ValueError(f"a cofactor determinant takes 1, 4 or 9 entries, got {len(m)}")


# S4 permutes these three vectors of Z^4 up to sign: each is +1 on one pair of
# points and -1 on the other, for the pairings 12|34, 14|23 and 13|24
_PAIRING_VECTORS = ((1, 1, -1, -1), (-1, 1, 1, -1), (1, -1, 1, -1))


def _signed_action(p):
    """(r, sign) for each k, with p.w_k = sign * w_r for the `_PAIRING_VECTORS` w.

    The permutation p moves coordinate i to p[i].  This is the signed
    permutation matrix of p on the w: +-1 at (r, k), 0 elsewhere.
    """
    signed = {tuple(s * x for x in w): (r, s)
              for r, w in enumerate(_PAIRING_VECTORS) for s in (1, -1)}
    inverse = _invert(p)
    action = []
    for w in _PAIRING_VECTORS:
        image = tuple(w[i] for i in inverse)
        if image not in signed:
            raise AssertionError(f"{p} sends {w} to {image}, which is no signed pairing vector")
        action.append(signed[image])
    return tuple(action)


_ACTIONS = tuple(_signed_action(p) for p in _s4_perms_and_names()[0])

# Per cell (r, k) of the cubic matrices, row-major, the slots of A's cell, then
# of B's; d1 = det(A + B) and d2 = det(A - B).  Cell (r, k) of A (of B) holds
# the even (odd) slots whose signed action is +1 at (r, k), then those where
# it is -1: two of each.
_CUBIC_CELLS = tuple(
    tuple(i for lo in (0, 12) for sign in (1, -1) for i in range(lo, lo + 12)
          if _ACTIONS[i][k] == (r, sign))
    for r in range(3) for k in range(3)
)

# The slots of the six-term forms A1, A2, A3, B1, B2, B3 of w.  The four
# permutations of a quartet (a Klein coset) send each pairing vector to the
# same pairing up to sign, so quartet q occupies three cells.  A_i holds A's
# +1 slots on odd quartet i's cells, B_i B's -1 slots on even quartet i's.
_SIX_TERM_FORMS = tuple(
    tuple(sorted(s for k, (r, _) in enumerate(_ACTIONS[4 * q])
                 for s in _CUBIC_CELLS[3 * r + k][part]))
    for part, quartets in ((slice(0, 2), (3, 4, 5)), (slice(6, 8), (0, 1, 2))) for q in quartets
)


class S4Forms(Record):
    """The five S4 factors and the auxiliary forms of the congruence analysis, in one ring.

    u1..u3 and v1..v3 are the sums of the six quartets a1-a4, ..., b9-b12;
    u and v their totals; A_i and B_i the six-term forms (`_SIX_TERM_FORMS`), and
    w = u1*B1 + u2*B2 + u3*B3 + v1*A1 + v2*A2 + v3*A3.
    """

    __slots__ = ("l1", "l2", "q1", "d1", "d2", "u1", "u2", "u3", "v1", "v2", "v3",
                 "u", "v", "w", "A1", "A2", "A3", "B1", "B2", "B3")


def s4_forms(c) -> dict:
    """The `S4Forms` fields, by name, of 24 S4 coefficients c.

    The entries may be of any ring with +, - and *, mixed with ints: integers
    give the values of `s4_factors`, polynomial variables the polynomials of
    `sympoly.build_symbolic`.  The five factors are the S4 kernel's own
    blocks (`kernels.factors`), so both read the text scans evaluate.
    """
    from . import kernels  # imported on first use, as in `kernel_for`

    l1, l2, q1, d1, d2 = kernels.factors("S4")(c)
    u1, u2, u3, v1, v2, v3 = (sum(c[lo:lo + 4]) for lo in range(0, 24, 4))
    u = u1 + u2 + u3
    v = v1 + v2 + v3
    a1, a2, a3, b1, b2, b3 = (sum(c[i] for i in slots) for slots in _SIX_TERM_FORMS)
    return dict(
        l1=l1, l2=l2, q1=q1, d1=d1, d2=d2,
        u1=u1, u2=u2, u3=u3, v1=v1, v2=v2, v3=v3, u=u, v=v,
        w=u1 * b1 + u2 * b2 + u3 * b3 + v1 * a1 + v2 * a2 + v3 * a3,
        A1=a1, A2=a2, A3=a3, B1=b1, B2=b2, B3=b3,
    )


class FactorProfile(S4Forms):
    """The S4 forms of an integer element, its determinant and that value's 2-/3-adic valuations."""

    __slots__ = ("det", "val2", "val3")


def s4_factors(e: RingElement) -> FactorProfile:
    if e.group.kind != "S4":
        raise ValueError("factor profile is defined for S4 elements only")
    f = s4_forms(e.coeffs)
    det = kernel_for(e.group)(e.coeffs)
    return FactorProfile(**f, det=det, val2=valuation(det, 2), val3=valuation(det, 3))


def s4_det_fast(e: RingElement) -> int:
    """Group determinant of an S4 element through its compiled block kernel."""
    if e.group.kind != "S4":
        raise ValueError("fast path is defined for S4 elements only")
    return kernel_for(e.group)(e.coeffs)


# ---------------------------------------------------------------------------
# compiled block kernels


def kernel_for(g: GroupTable):
    """An exact coeffs -> int group determinant for any table `build_group` returns.

    It is compiled on first use for each table kind and cached; see
    `gdet.kernels`.  This is the fast evaluator of one vector, S4 included;
    `group_matrix` with `det_int` stays its oracle.  The caller passes
    exactly `g.order` integer coefficients.
    """
    from . import kernels  # imported on first use, so importing gdet does not compile it

    return kernels.kernel(g.kind)


# ---------------------------------------------------------------------------
# representations from the permutations, and the cross-check against the factor matrices


class RepTable(Record):
    """Integer matrices of the degree-2 and the two degree-3 representations, per element.

    rho1 holds 24 2x2 integer tuples, rho2 and rho3 24 3x3 ones.
    """

    __slots__ = ("rho1", "rho2", "rho3")


def _sum_zero_action(p):
    """Integer matrix of a permutation p of n points on the sum-zero lattice of Z^n.

    Points are 0..n-1 and p sends i to p[i].  The basis is f_i = e_i - e_last
    for i < last = n-1, and p sends f_i to f_p[i] - f_p[last], where f_last = 0;
    column i holds that image.
    """
    last = len(p) - 1
    return tuple(
        tuple((p[i] == r) - (p[last] == r) for i in range(last)) for r in range(last)
    )


def _sign_twist(rho):
    """sign * rho for a table of 24 matrices: those of the odd permutations, 12..23, negated."""
    return rho[:12] + tuple(tuple(tuple(-x for x in row) for row in m) for m in rho[12:])


@lru_cache(maxsize=None)
def default_rep_table() -> RepTable:
    """The three representations, derived from the canonical S4 permutations.

    rho2 is S4 on the sum-zero lattice of Z^4, rho1 is S4 on the sum-zero
    lattice of the pairings (through S4 -> S3), and rho3 is sign * rho2; the
    odd permutations are the canonical indices 12..23.
    """
    perms, _ = _s4_perms_and_names()
    rho1 = tuple(_sum_zero_action(tuple(r for r, _ in _signed_action(p))) for p in perms)
    rho2 = tuple(_sum_zero_action(p) for p in perms)
    return RepTable(rho1=rho1, rho2=rho2, rho3=_sign_twist(rho2))


def _mat_mul_int(a, b):
    cols = tuple(zip(*b))
    return tuple([tuple([sum(map(mul, row, col)) for col in cols]) for row in a])


def rep_is_homomorphism(tables: RepTable) -> bool:
    """Check rho(s)rho(h) = rho(sh) for each generator s of S4 and each h, in all three tables.

    The g with rho(g)rho(h) = rho(gh) for all h are closed under products,
    so this proves all 576 pairs.
    """
    g = symmetric_group4()
    gens = generating_set(g)
    for rho in (tables.rho1, tables.rho2, tables.rho3):
        for s in gens:
            for h in range(24):
                if _mat_mul_int(rho[s], rho[h]) != rho[g.mul[s][h]]:
                    return False
    return True


def rep_factor_check(tables: RepTable | None = None) -> bool:
    """True iff the representations reproduce the q1/d1/d2 factor polynomials.

    The tables must be homomorphisms, and det(sum x_g rho(g)) must equal q1,
    d1 and d2 symbolically for rho1, rho2 and rho3; a False return means the
    factor matrices and the representations disagree.  When rho3 is sign *
    rho2, as in the default table, sum x_g rho3(g) is the rho2 matrix with
    the twelve odd variables b negated, so rho3's determinant is rho2's under
    b -> -b: once rho2's is d1, that is sigma(d1), which the factor set
    caches (`SymbolicFactors.sigma_d1`).  Any other rho3 is expanded itself.
    """
    from . import sympoly

    tables = tables or default_rep_table()
    if not rep_is_homomorphism(tables):
        return False
    named = sympoly.build_symbolic()
    if sympoly.symbolic_rep_det(tables.rho1) != named.q1:
        return False
    det2 = sympoly.symbolic_rep_det(tables.rho2)
    if det2 != named.d1:
        return False
    if tables.rho3 == _sign_twist(tables.rho2):
        return named.sigma_d1 == named.d2
    return sympoly.symbolic_rep_det(tables.rho3) == named.d2
