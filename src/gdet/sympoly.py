"""Sparse multivariate polynomials over the 24 S4 coefficient variables.

Variables 0..11 are a1..a12 and 12..23 are b1..b12.  A monomial is one packed
int: the exponent of variable i sits in the 4-bit field at bits 4i..4i+3, so
the product of two monomials is the sum of their keys.  A field would carry
into the next only at exponent 16, so every product is guarded to total
degree at most 15 and raises beyond it; no exponent is ever wrapped.
Coefficients are exact integers; `reduce_mod(m)` reduces them into [0, m).
This is enough to state the quadratic and cubic factors symbolically and to
verify, as exact polynomial identities, the congruences that the membership
classification rests on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from . import s4data
from .detcalc import EisensteinInt

NVARS = 24
FIELD_BITS = 4
MAX_DEGREE = (1 << FIELD_BITS) - 1  # a field's largest exponent and bit mask; the product bound

# masks for summing the 24 exponent fields: nibbles into bytes, then bytes into 16-bit words
_NIBBLES_LOW = int("0f" * (NVARS // 2), 16)
_BYTES_LOW = int("00ff" * (NVARS // 4), 16)


def pack_monomial(exponents) -> int:
    """The key of the monomial with these 24 exponents, each in 0..15."""
    exponents = tuple(exponents)
    if len(exponents) != NVARS:
        raise ValueError(f"need {NVARS} exponents, got {len(exponents)}")
    key = 0
    for i, e in enumerate(exponents):
        if not 0 <= e <= MAX_DEGREE:
            raise ValueError(f"exponent {e} of variable {i} is outside 0..{MAX_DEGREE}")
        key |= e << (FIELD_BITS * i)
    return key


def _mono_degree(key: int) -> int:
    """Total degree: the sum of the 24 fields (at most 360, so the words never carry)."""
    key = (key & _NIBBLES_LOW) + ((key >> 4) & _NIBBLES_LOW)
    key = (key & _BYTES_LOW) + ((key >> 8) & _BYTES_LOW)
    return key % 0xFFFF


class SparsePoly:
    """Map from packed monomial to nonzero coefficient; no zero terms stored."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {} if terms is None else {m: c for m, c in terms.items() if c}

    # -- constructors

    @staticmethod
    def zero():
        return SparsePoly()

    @staticmethod
    def const(c):
        return SparsePoly({0: c})

    @staticmethod
    def var(i):
        return SparsePoly.linear([(i, 1)])

    @staticmethod
    def linear(entries):
        """Linear form from (variable index, coefficient) pairs."""
        terms = {}
        for i, c in entries:
            if not 0 <= i < NVARS:
                raise ValueError(f"variable index {i} is outside 0..{NVARS - 1}")
            mono = 1 << (FIELD_BITS * i)
            terms[mono] = terms.get(mono, 0) + c
        return SparsePoly(terms)

    # -- ring operations

    def _combine(self, other, sign):
        """self + sign*other in one pass over other's terms."""
        if isinstance(other, int):
            other = SparsePoly.const(other)
        out = dict(self.terms)
        get = out.get
        for m, c in other.terms.items():
            c = get(m, 0) + sign * c
            if c:
                out[m] = c
            else:
                out.pop(m, None)
        result = SparsePoly()
        result.terms = out  # already free of zeros
        return result

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return SparsePoly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return SparsePoly({m: c * other for m, c in self.terms.items()})
        degree = self.degree() + other.degree()
        if degree > MAX_DEGREE:
            raise ValueError(f"product of degree {degree} exceeds the packed-monomial bound {MAX_DEGREE}")
        out: dict = {}
        get = out.get
        right = list(other.terms.items())
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                key = m1 + m2
                out[key] = get(key, 0) + c1 * c2
        return SparsePoly(out)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = SparsePoly.const(1)
        for _ in range(e):
            result = result * self
        return result

    def reduce_mod(self, m: int) -> SparsePoly:
        """The coefficients reduced into [0, m), as a plain integer polynomial."""
        if m <= 0:
            raise ValueError("modulus must be positive")
        return SparsePoly({mono: c % m for mono, c in self.terms.items()})

    # -- queries

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, SparsePoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def degree(self):
        return max(map(_mono_degree, self.terms), default=0)

    def is_homogeneous(self, d: int) -> bool:
        return all(_mono_degree(m) == d for m in self.terms)

    def coefficient(self, mono) -> int:
        """Coefficient of the monomial given by its 24 exponents."""
        return self.terms.get(pack_monomial(mono), 0)

    def evaluate(self, point) -> int:
        if len(point) != NVARS:
            raise ValueError(f"need {NVARS} values, got {len(point)}")
        total = 0
        for mono, c in self.terms.items():
            prod = c
            i = 0
            while mono:
                e = mono & MAX_DEGREE
                if e:
                    prod *= point[i] ** e
                mono >>= FIELD_BITS
                i += 1
            total += prod
        return total

    def negate_vars(self, indices) -> SparsePoly:
        """Substitute x_i -> -x_i for every i in indices."""
        # a term changes sign when the exponents of the negated variables have an
        # odd sum, that is when an odd number of their fields have the low bit set
        low_bits = 0
        for i in set(indices):
            low_bits |= 1 << (FIELD_BITS * i)
        out = {}
        for mono, c in self.terms.items():
            out[mono] = -c if (mono & low_bits).bit_count() & 1 else c
        return SparsePoly(out)

    def divide_exact(self, n: int):
        """Divide every coefficient by n; returns (quotient, residual monomials)."""
        bad = [m for m, c in self.terms.items() if c % n]
        if bad:
            return None, bad
        return SparsePoly({m: c // n for m, c in self.terms.items()}), []

    def __repr__(self):
        return f"SparsePoly({len(self.terms)} terms, degree {self.degree()})"


def symbolic_det(entries) -> SparsePoly:
    """Cofactor-expansion determinant of a 1x1, 2x2 or 3x3 polynomial matrix."""
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise ValueError("matrix is not square")
    if n == 1:
        return entries[0][0]
    if n == 2:
        return entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = entries
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    raise ValueError("symbolic determinants only go up to 3x3")


# ---------------------------------------------------------------------------
# the named factor polynomials


@dataclass(frozen=True)
class SymbolicFactors:
    l1: SparsePoly
    l2: SparsePoly
    q1: SparsePoly
    d1: SparsePoly
    d2: SparsePoly
    u: SparsePoly
    v: SparsePoly
    w: SparsePoly
    A1: SparsePoly
    A2: SparsePoly
    A3: SparsePoly
    B1: SparsePoly
    B2: SparsePoly
    B3: SparsePoly


def _quartets():
    us = [SparsePoly.linear([(i, 1) for i in range(lo, lo + 4)]) for lo in (0, 4, 8)]
    vs = [SparsePoly.linear([(i, 1) for i in range(lo, lo + 4)]) for lo in (12, 16, 20)]
    return us, vs


def _q_form(x, y, z):
    return x * x + y * y + z * z - x * y - y * z - z * x


@lru_cache(maxsize=None)
def build_symbolic() -> SymbolicFactors:
    """Construct l1, l2, q1, d1, d2 and the auxiliary forms as polynomials."""
    us, vs = _quartets()
    u = us[0] + us[1] + us[2]
    v = vs[0] + vs[1] + vs[2]
    l1 = u + v
    l2 = u - v
    q1 = _q_form(*us) - _q_form(*vs)
    mat_a = [
        [SparsePoly.linear(s4data.A_ENTRIES[i][j]) for j in range(3)]
        for i in range(3)
    ]
    mat_b = [
        [SparsePoly.linear([(i12 + 12, s) for i12, s in s4data.B_ENTRIES[i][j]]) for j in range(3)]
        for i in range(3)
    ]
    d1 = symbolic_det([[mat_a[i][j] + mat_b[i][j] for j in range(3)] for i in range(3)])
    d2 = symbolic_det([[mat_a[i][j] - mat_b[i][j] for j in range(3)] for i in range(3)])
    forms_a = [SparsePoly.linear([(i, 1) for i in idx]) for idx in s4data.A_FORMS]
    forms_b = [SparsePoly.linear([(i + 12, 1) for i in idx]) for idx in s4data.B_FORMS]
    w = (
        us[0] * forms_b[0] + us[1] * forms_b[1] + us[2] * forms_b[2]
        + vs[0] * forms_a[0] + vs[1] * forms_a[1] + vs[2] * forms_a[2]
    )
    return SymbolicFactors(
        l1=l1, l2=l2, q1=q1, d1=d1, d2=d2, u=u, v=v, w=w,
        A1=forms_a[0], A2=forms_a[1], A3=forms_a[2],
        B1=forms_b[0], B2=forms_b[1], B3=forms_b[2],
    )


# ---------------------------------------------------------------------------
# identity suite


class IdentityId(Enum):
    L_MOD2 = "L_MOD2"
    D_MOD2 = "D_MOD2"
    Q_MOD3 = "Q_MOD3"
    PROD_MOD4 = "PROD_MOD4"
    SUM_MOD4 = "SUM_MOD4"
    D1_EXPANSION = "D1_EXPANSION"
    SUM_MOD8 = "SUM_MOD8"
    DIFF_MOD8 = "DIFF_MOD8"


@dataclass
class IdentityReport:
    identity: IdentityId
    holds: bool
    residual_term_count: int
    elapsed: float
    quotient: SparsePoly | None = None  # the cubic C for D1_EXPANSION


def _residual(id_: IdentityId, f: SymbolicFactors):
    """Exact integer polynomial and modulus whose vanishing is the identity."""
    l1, l2, q1, d1, d2 = f.l1, f.l2, f.q1, f.d1, f.d2
    u, v, w = f.u, f.v, f.w
    if id_ is IdentityId.L_MOD2:
        return l1 - l2, 2
    if id_ is IdentityId.D_MOD2:
        return d1 - d2, 2
    if id_ is IdentityId.Q_MOD3:
        return q1 - l1 * l2, 3
    if id_ is IdentityId.PROD_MOD4:
        return d1 * d2 - l1 * l2 * q1 * q1, 4
    if id_ is IdentityId.SUM_MOD4:
        return d1 + d2 - (l1 + l2) * q1, 4
    if id_ is IdentityId.SUM_MOD8:
        return d1 + d2 - (2 * u * q1 + 4 * u * v * v + 4 * v * w), 8
    if id_ is IdentityId.DIFF_MOD8:
        return d1 - d2 - (2 * v * q1 + 4 * u * u * v + 4 * u * w), 8
    raise ValueError(f"no residual form for {id_}")


def check_identity(id_: IdentityId, factors: SymbolicFactors | None = None) -> IdentityReport:
    """Verify one congruence identity exactly over the integers, then reduce."""
    f = factors or build_symbolic()
    t0 = time.perf_counter()
    if id_ is IdentityId.D1_EXPANSION:
        residual = f.d1 - f.l1 * (f.q1 + 2 * f.u * f.v + 2 * f.w)
        quotient, bad = residual.divide_exact(4)
        holds = not bad and quotient.is_homogeneous(3)
        return IdentityReport(
            identity=id_,
            holds=holds,
            residual_term_count=len(bad),
            elapsed=time.perf_counter() - t0,
            quotient=quotient,
        )
    residual, modulus = _residual(id_, f)
    reduced = residual.reduce_mod(modulus)
    return IdentityReport(
        identity=id_,
        holds=reduced.is_zero(),
        residual_term_count=len(reduced),
        elapsed=time.perf_counter() - t0,
    )


def cubic_corrections(factors: SymbolicFactors | None = None):
    """The cubic C with d1 = l1*(q1 + 2uv + 2w) + 4*C, and its b -> -b mirror."""
    f = factors or build_symbolic()
    report = check_identity(IdentityId.D1_EXPANSION, f)
    if not report.holds:
        raise ArithmeticError("cubic correction is not divisible by 4")
    c_ab = report.quotient
    c_a_negb = c_ab.negate_vars(range(12, 24))
    return c_ab, c_a_negb


# ---------------------------------------------------------------------------
# symbolic determinants straight from the representation tables


def symbolic_rep_det3(rho_table) -> SparsePoly:
    """det(sum over g of x_g * rho(g)) for a 3x3 integer representation table."""
    entries = []
    for i in range(3):
        row = []
        for j in range(3):
            row.append(SparsePoly.linear(
                [(g, rho_table[g][i][j]) for g in range(24) if rho_table[g][i][j]]
            ))
        entries.append(row)
    return symbolic_det(entries)


def symbolic_rep_det2(rho_table):
    """det(sum x_g * rho(g)) for the 2x2 Eisenstein table, as (re, omega) parts.

    Entries are EisensteinInt values with SparsePoly parts.
    """
    entries = []
    for i in range(2):
        row = []
        for j in range(2):
            cells = [rho_table[g][i][j] for g in range(24)]
            row.append(EisensteinInt(
                SparsePoly.linear([(g, c.x) for g, c in enumerate(cells) if c.x]),
                SparsePoly.linear([(g, c.y) for g, c in enumerate(cells) if c.y]),
            ))
        entries.append(row)
    det = entries[0][0] * entries[1][1] - entries[0][1] * entries[1][0]
    return det.x, det.y
