"""Sparse multivariate polynomials over the 24 S4 coefficient variables.

Variables 0..11 are a1..a12 and 12..23 are b1..b12.  A monomial is one packed
int: the exponent of variable i sits in the 4-bit field at bits 4i..4i+3, so
the product of two monomials is the sum of their keys.  A field would carry
into the next only at exponent 16, so every product is guarded to total
degree at most 15 and raises beyond it; no exponent is ever wrapped.

Coefficients are exact integers; `reduce_mod(m)` reduces them into [0, m).
`build_symbolic` evaluates `detcalc.s4_forms` on the 24 variables, so l1, l2,
q1, d1 and d2 are the S4 kernel's own block statements, the text that scans
and `s4_factors` evaluate on integers.  The identity suite verifies, as exact
polynomial identities, the congruences that the membership classification
rests on, and the representations computed from the permutations check q1,
d1 and d2 (`detcalc.rep_factor_check`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

from .detcalc import S4Forms, cofactor_det, s4_forms

NVARS = 24
FIELD_BITS = 4
MAX_DEGREE = (1 << FIELD_BITS) - 1  # a field's largest exponent and bit mask; the product bound
_B_VARS = range(12, NVARS)  # b1..b12

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
    """Total degree: the sum of the 24 exponent fields.

    Nibbles are summed into bytes and bytes into 16-bit words, each word at
    most 60; `% 0xFFFF` then sums the six words, at most 360, with no carry.
    """
    key = (key & _NIBBLES_LOW) + ((key >> 4) & _NIBBLES_LOW)
    return ((key & _BYTES_LOW) + ((key >> 8) & _BYTES_LOW)) % 0xFFFF


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

    __radd__ = __add__  # so that sum() can start from 0

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
        right = other.terms.items()
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


# ---------------------------------------------------------------------------
# the named factor polynomials


@dataclass(frozen=True)
class SymbolicFactors(S4Forms["SparsePoly"]):
    """The S4 forms as polynomials in the 24 coefficient variables."""

    @cached_property
    def d1_quotient(self):
        """(C, residual monomials) of (d1 - l1*X) / 4 with X = q1 + 2*(uv + w): D1_EXPANSION.

        Computed once per factor set; a copy made with `dataclasses.replace`
        computes its own.
        """
        x = self.q1 + 2 * (self.u * self.v + self.w)
        return (self.d1 - self.l1 * x).divide_exact(4)


@lru_cache(maxsize=None)
def build_symbolic() -> SymbolicFactors:
    """The forms of `detcalc.s4_forms` on the 24 coefficient variables."""
    return SymbolicFactors(**s4_forms([SparsePoly.var(i) for i in range(NVARS)]))


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
    """Verify one congruence identity exactly over the integers, then reduce.

    PROD_MOD4 is first proved from D1_EXPANSION and the b -> -b symmetry
    (`_prod_mod4_by_symmetry`); only when that proof does not apply is the
    product `d1*d2` expanded, and then it alone decides.
    """
    f = factors or build_symbolic()
    t0 = time.perf_counter()
    if id_ is IdentityId.D1_EXPANSION:
        quotient, bad = f.d1_quotient
        holds = not bad and quotient.is_homogeneous(3)
        return IdentityReport(
            identity=id_,
            holds=holds,
            residual_term_count=len(bad),
            elapsed=time.perf_counter() - t0,
            quotient=quotient,
        )
    if id_ is IdentityId.PROD_MOD4 and _prod_mod4_by_symmetry(f):
        return IdentityReport(identity=id_, holds=True, residual_term_count=0,
                              elapsed=time.perf_counter() - t0)
    residual, modulus = _residual(id_, f)
    reduced = residual.reduce_mod(modulus)
    return IdentityReport(
        identity=id_,
        holds=reduced.is_zero(),
        residual_term_count=len(reduced),
        elapsed=time.perf_counter() - t0,
    )


def _mirror(p: SparsePoly) -> SparsePoly:
    """sigma: the substitution b -> -b of the twelve b variables."""
    return p.negate_vars(_B_VARS)


def _prod_mod4_by_symmetry(f: SymbolicFactors) -> bool:
    """A proof of d1*d2 = l1*l2*q1^2 (mod 4) that never forms d1*d2.

    It checks four exact identities: d1 - l1*X is divisible by 4, so
    d1 = l1*X + 4*C with C integral; sigma(d1) = d2; sigma(l1) = l2; and
    sigma(q1) = q1.  Then d2 = l2*sigma(X) + 4*sigma(C), and

        d1*d2 - l1*l2*q1^2 = l1*l2*(X*sigma(X) - q1^2)
                             + 4*(l1*X*sigma(C) + l2*sigma(X)*C + 4*C*sigma(C)).

    With X = q1 + 2Y, X*sigma(X) = q1^2 + 2*q1*(Y + sigma(Y)) + 4*Y*sigma(Y),
    and Y + sigma(Y) is twice the part of Y of even degree in b, so the whole
    difference is 4 times an integer polynomial.  No condition on Y is needed.

    The proof is sufficient, not necessary: False only means it does not
    apply, and the caller must expand the product to decide.
    """
    _, bad = f.d1_quotient
    return (not bad and _mirror(f.d1) == f.d2 and _mirror(f.l1) == f.l2
            and _mirror(f.q1) == f.q1)


# ---------------------------------------------------------------------------
# symbolic determinants straight from the representation tables


def symbolic_rep_det(rho_table) -> SparsePoly:
    """det(sum over g of x_g * rho(g)) for a table of 24 square integer matrices."""
    n = len(rho_table[0])
    return cofactor_det([
        SparsePoly.linear([(g, m[i][j]) for g, m in enumerate(rho_table) if m[i][j]])
        for i in range(n) for j in range(n)
    ])
