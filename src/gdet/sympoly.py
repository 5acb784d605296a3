"""Sparse multivariate polynomials over the 24 S4 coefficient variables.

Variables 0..11 are a1..a12 and 12..23 are b1..b12.  Monomials are
fixed-length exponent tuples; coefficients are exact integers, optionally
reduced into [0, m) for a fixed modulus.  This is enough to state the
quadratic and cubic factors symbolically and to verify, as exact polynomial
identities, the congruences that the membership classification rests on.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from . import s4data
from .detcalc import EisensteinInt

NVARS = 24

_ZERO_MONO = (0,) * NVARS


def _join_modulus(m1, m2):
    if m1 == m2:
        return m1
    if m1 is None:
        return m2
    if m2 is None:
        return m1
    raise ValueError(f"modulus mismatch: {m1} vs {m2}")


class SparsePoly:
    """Map from exponent tuple to nonzero coefficient; no zero terms stored."""

    __slots__ = ("terms", "modulus")

    def __init__(self, terms=None, modulus=None):
        self.modulus = modulus
        if terms is None:
            self.terms = {}
        else:
            if modulus is None:
                self.terms = {m: c for m, c in terms.items() if c}
            else:
                self.terms = {}
                for m, c in terms.items():
                    c %= modulus
                    if c:
                        self.terms[m] = c

    # -- constructors

    @staticmethod
    def zero(modulus=None):
        return SparsePoly({}, modulus)

    @staticmethod
    def const(c, modulus=None):
        return SparsePoly({_ZERO_MONO: c}, modulus)

    @staticmethod
    def var(i, modulus=None):
        mono = tuple(1 if j == i else 0 for j in range(NVARS))
        return SparsePoly({mono: 1}, modulus)

    @staticmethod
    def linear(entries, modulus=None):
        """Linear form from (variable index, coefficient) pairs."""
        terms = {}
        for i, c in entries:
            mono = tuple(1 if j == i else 0 for j in range(NVARS))
            terms[mono] = terms.get(mono, 0) + c
        return SparsePoly(terms, modulus)

    # -- ring operations

    def __add__(self, other):
        if isinstance(other, int):
            other = SparsePoly.const(other, self.modulus)
        mod = _join_modulus(self.modulus, other.modulus)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return SparsePoly(out, mod)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return SparsePoly({m: -c for m, c in self.terms.items()}, self.modulus)

    def __mul__(self, other):
        if isinstance(other, int):
            return SparsePoly({m: c * other for m, c in self.terms.items()}, self.modulus)
        mod = _join_modulus(self.modulus, other.modulus)
        out: dict = {}
        get = out.get
        add = operator.add
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = tuple(map(add, m1, m2))
                out[key] = get(key, 0) + c1 * c2
        return SparsePoly(out, mod)

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = SparsePoly.const(1, self.modulus)
        for _ in range(e):
            result = result * self
        return result

    def reduce_mod(self, m: int) -> SparsePoly:
        if m <= 0:
            raise ValueError("modulus must be positive")
        return SparsePoly(dict(self.terms), m)

    # -- queries

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, SparsePoly)
            and self.modulus == other.modulus
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.modulus, frozenset(self.terms.items())))

    def degree(self):
        return max((sum(m) for m in self.terms), default=0)

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(m) == d for m in self.terms)

    def coefficient(self, mono) -> int:
        return self.terms.get(tuple(mono), 0)

    def evaluate(self, point) -> int:
        if len(point) != NVARS:
            raise ValueError(f"need {NVARS} values, got {len(point)}")
        total = 0
        for mono, c in self.terms.items():
            prod = c
            for i, e in enumerate(mono):
                if e:
                    prod *= point[i] ** e
            total += prod
        if self.modulus is not None:
            total %= self.modulus
        return total

    def negate_vars(self, indices) -> SparsePoly:
        """Substitute x_i -> -x_i for every i in indices."""
        idx = set(indices)
        out = {}
        for mono, c in self.terms.items():
            if sum(mono[i] for i in idx) % 2:
                c = -c
            out[mono] = c
        return SparsePoly(out, self.modulus)

    def divide_exact(self, n: int):
        """Divide every coefficient by n; returns (quotient, residual monomials)."""
        bad = [m for m, c in self.terms.items() if c % n]
        if bad:
            return None, bad
        return SparsePoly({m: c // n for m, c in self.terms.items()}, self.modulus), []

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


def check_all_identities(factors: SymbolicFactors | None = None) -> list[IdentityReport]:
    f = factors or build_symbolic()
    return [check_identity(id_, f) for id_ in IdentityId]


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
