"""Exact group-determinant evaluation.

Two routes: fraction-free (Bareiss) elimination of the group matrix, which
works for any group table, and the factored S4 evaluation

    D = l1 * l2 * q1^2 * d1^3 * d2^3

through the five irreducible factors.  The two routes are independent and
tested against each other; `s4_factors` also reports every intermediate
quantity used by the congruence analysis (quartet sums, u, v, w, the
six-term forms A_i and B_i, and 2-/3-adic valuations).  `kernel_for` gives
the compiled block kernel of any table group (`gdet.kernels`), which scans
and `gdet det` use; elimination stays its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from functools import lru_cache

from . import s4data
from .groups import GroupTable, symmetric_group4
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
    """Group determinant of a ring element, by exact elimination."""
    if e.group.order != g.order or e.group.kind != g.kind:
        raise ValueError("element group does not match")
    return det_int(group_matrix(g, e.coeffs))


def valuation(m: int, p: int):
    """p-adic valuation of m; None encodes the infinite valuation of 0."""
    if p < 2:
        raise ValueError(f"valuation needs a base p >= 2, got {p}")
    if m == 0:
        return None
    if p == 2:
        return (m & -m).bit_length() - 1
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Eisenstein integers (for the degree-2 factor)


@dataclass(frozen=True)
class EisensteinInt:
    """x + y*w with w = exp(2*pi*i/3), so w^2 = -1 - w."""

    x: int
    y: int

    def __add__(self, other):
        return EisensteinInt(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return EisensteinInt(self.x - other.x, self.y - other.y)

    def __mul__(self, other):
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        return EisensteinInt(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2 - y1 * y2)

    def scale(self, n: int):
        return EisensteinInt(n * self.x, n * self.y)

    def norm(self) -> int:
        return self.x * self.x - self.x * self.y + self.y * self.y


EISENSTEIN_ZERO = EisensteinInt(0, 0)


def quadratic_form(x: int, y: int, z: int) -> int:
    """x^2 + y^2 + z^2 - xy - yz - zx, the norm of x + y*w + z*w^2."""
    return x * x + y * y + z * z - x * y - y * z - z * x


# ---------------------------------------------------------------------------
# factored S4 evaluation


def _compile_cells(table, offset):
    """Flatten an s4data (slot, sign) table into one (plus, plus, minus, minus) tuple per cell.

    Cells are listed row-major and slots are shifted by `offset` into the
    flat 24-slot coefficient vector.
    """
    cells = []
    for row in table:
        for entries in row:
            plus = tuple(i + offset for i, sign in entries if sign == 1)
            minus = tuple(i + offset for i, sign in entries if sign == -1)
            if len(plus) != 2 or len(minus) != 2:
                raise AssertionError(f"cell {entries} is not two plus and two minus slots")
            cells.append(plus + minus)
    return cells


# per cell of the cubic matrices: the A cell's slots, then the B cell's slots
_CUBIC_CELLS = tuple(
    a + b for a, b in zip(_compile_cells(s4data.A_ENTRIES, 0), _compile_cells(s4data.B_ENTRIES, 12))
)


def cubic_matrices(c):
    """The 3x3 matrices A + B and A - B (det d1 and d2), flat row-major, for S4 coefficients c."""
    plus, minus = [], []
    for ap1, ap2, am1, am2, bp1, bp2, bm1, bm2 in _CUBIC_CELLS:
        a = c[ap1] + c[ap2] - c[am1] - c[am2]
        b = c[bp1] + c[bp2] - c[bm1] - c[bm2]
        plus.append(a + b)
        minus.append(a - b)
    return plus, minus


def det3(m) -> int:
    """Determinant of a flat row-major 3x3 matrix, by cofactor expansion."""
    a, b, c, d, e, f, g, h, i = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _quartet_sums(c):
    """u1, u2, u3, v1, v2, v3: the sums of the six blocks of four coefficient slots."""
    return (
        c[0] + c[1] + c[2] + c[3], c[4] + c[5] + c[6] + c[7], c[8] + c[9] + c[10] + c[11],
        c[12] + c[13] + c[14] + c[15], c[16] + c[17] + c[18] + c[19],
        c[20] + c[21] + c[22] + c[23],
    )


@dataclass(frozen=True)
class FactorProfile:
    """The five S4 factor values plus every intermediate of the analysis."""

    l1: int
    l2: int
    q1: int
    d1: int
    d2: int
    u1: int
    u2: int
    u3: int
    v1: int
    v2: int
    v3: int
    u: int
    v: int
    w: int
    A1: int
    A2: int
    A3: int
    B1: int
    B2: int
    B3: int
    det: int
    val2: int | None
    val3: int | None

    def as_dict(self):
        return asdict(self)


def s4_factors(e: RingElement) -> FactorProfile:
    if e.group.kind != "S4":
        raise ValueError("factor profile is defined for S4 elements only")
    c = e.coeffs
    u1, u2, u3, v1, v2, v3 = _quartet_sums(c)
    u = u1 + u2 + u3
    v = v1 + v2 + v3
    l1 = u + v
    l2 = u - v
    q1 = quadratic_form(u1, u2, u3) - quadratic_form(v1, v2, v3)
    m1, m2 = cubic_matrices(c)
    d1 = det3(m1)
    d2 = det3(m2)
    forms_a = [sum(c[i] for i in idx) for idx in s4data.A_FORMS]
    forms_b = [sum(c[i + 12] for i in idx) for idx in s4data.B_FORMS]
    w = (
        u1 * forms_b[0] + u2 * forms_b[1] + u3 * forms_b[2]
        + v1 * forms_a[0] + v2 * forms_a[1] + v3 * forms_a[2]
    )
    det = l1 * l2 * q1 * q1 * d1 ** 3 * d2 ** 3
    return FactorProfile(
        l1=l1, l2=l2, q1=q1, d1=d1, d2=d2,
        u1=u1, u2=u2, u3=u3, v1=v1, v2=v2, v3=v3,
        u=u, v=v, w=w,
        A1=forms_a[0], A2=forms_a[1], A3=forms_a[2],
        B1=forms_b[0], B2=forms_b[1], B3=forms_b[2],
        det=det, val2=valuation(det, 2), val3=valuation(det, 3),
    )


def s4_det_fast(e: RingElement) -> int:
    """Group determinant of an S4 element through the factored form."""
    if e.group.kind != "S4":
        raise ValueError("fast path is defined for S4 elements only")
    c = e.coeffs
    u1, u2, u3, v1, v2, v3 = _quartet_sums(c)
    u = u1 + u2 + u3
    v = v1 + v2 + v3
    l1 = u + v
    l2 = u - v
    if l1 == 0 or l2 == 0:
        return 0
    q1 = quadratic_form(u1, u2, u3) - quadratic_form(v1, v2, v3)
    if q1 == 0:
        return 0
    m1, m2 = cubic_matrices(c)
    return l1 * l2 * q1 * q1 * det3(m1) ** 3 * det3(m2) ** 3


# ---------------------------------------------------------------------------
# compiled block kernels


def kernel_for(g: GroupTable):
    """An exact coeffs -> int group determinant for any table `build_group` returns.

    It is compiled on first use for each table kind and cached; see
    `gdet.kernels`.  S4 goes through `s4_det_fast`; `group_matrix` with
    `det_int` stays the oracle.  The caller passes exactly `g.order` integer
    coefficients.
    """
    from . import kernels  # imported on first use, so importing gdet does not compile it

    return kernels.kernel(g.kind)


# ---------------------------------------------------------------------------
# representation tables and the cross-check against the factor matrices


@dataclass(frozen=True)
class RepTable:
    """Matrices of the degree-2 and the two degree-3 representations, per element."""

    rho1: tuple  # 24 entries, each a 2x2 tuple of EisensteinInt
    rho2: tuple  # 24 entries, each a 3x3 integer tuple
    rho3: tuple


@lru_cache(maxsize=None)
def default_rep_table() -> RepTable:
    rho1 = tuple(
        tuple(tuple(EisensteinInt(*p) for p in row) for row in s4data.rho1_of(i))
        for i in range(24)
    )
    rho2 = s4data.RHO2
    rho3 = tuple(
        m if i < 12 else tuple(tuple(-x for x in row) for row in m)
        for i, m in enumerate(rho2)
    )
    return RepTable(rho1=rho1, rho2=rho2, rho3=rho3)


def _mat_mul_int(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _mat_mul_eis(a, b):
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            acc = EISENSTEIN_ZERO
            for k in range(2):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def rep_is_homomorphism(tables: RepTable, g: GroupTable | None = None) -> bool:
    """Check rho(g)rho(h) = rho(gh) for all 576 pairs, for all three tables."""
    g = g or symmetric_group4()
    mul = g.mul
    for i in range(24):
        for j in range(24):
            k = mul[i][j]
            if _mat_mul_int(tables.rho2[i], tables.rho2[j]) != tuple(map(tuple, tables.rho2[k])):
                return False
            if _mat_mul_int(tables.rho3[i], tables.rho3[j]) != tuple(map(tuple, tables.rho3[k])):
                return False
            if _mat_mul_eis(tables.rho1[i], tables.rho1[j]) != tables.rho1[k]:
                return False
    return True


def rep_factor_check(tables: RepTable | None = None) -> bool:
    """True iff the representation tables reproduce the q1/d1/d2 factor polynomials.

    The degree-3 tables must satisfy det(sum x_g rho2(g)) = d1 and
    det(sum x_g rho3(g)) = d2 symbolically, and the degree-2 table must give
    q1 over the Eisenstein integers; a False return means a transcription
    error in one of the tables.
    """
    from . import sympoly

    tables = tables or default_rep_table()
    if not rep_is_homomorphism(tables):
        return False
    named = sympoly.build_symbolic()
    if sympoly.symbolic_rep_det3(tables.rho2) != named.d1:
        return False
    if sympoly.symbolic_rep_det3(tables.rho3) != named.d2:
        return False
    re_part, omega_part = sympoly.symbolic_rep_det2(tables.rho1)
    return omega_part.is_zero() and re_part == named.q1
