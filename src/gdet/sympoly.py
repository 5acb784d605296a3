"""Sparse multivariate polynomials over the 24 S4 coefficient variables.

Variables 0..11 are a1..a12 and 12..23 are b1..b12.  A monomial is one packed
int: the exponent of variable i sits in the 4-bit field at bits 4i..4i+3, and
the total degree sits above the 24 fields, from bit 96 up.  The product of two
monomials is the sum of their keys, degrees included.  A field would carry
into the next only at exponent 16, so every product is guarded to total
degree at most 15 and raises beyond it; no exponent is ever wrapped.  Since
the degree is the key's top part, a polynomial's largest key has its largest
degree and its smallest key its smallest.

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
from enum import Enum
from functools import cached_property, lru_cache

from .detcalc import S4Forms, cofactor_det, s4_forms
from .groups import Record

NVARS = 24
FIELD_BITS = 4
MAX_DEGREE = (1 << FIELD_BITS) - 1  # a field's largest exponent and bit mask; the product bound
DEGREE_SHIFT = FIELD_BITS * NVARS  # the total degree sits above the 24 exponent fields
_FIELDS = (1 << DEGREE_SHIFT) - 1  # the 24 exponent fields of a key, without its degree
_B_VARS = range(12, NVARS)  # b1..b12


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
    return sum(exponents) << DEGREE_SHIFT | key


def _mono_degree(key: int) -> int:
    """Total degree: the bits above the 24 exponent fields."""
    return key >> DEGREE_SHIFT


def _is_key(m) -> bool:
    """Whether m is a packed monomial: its degree bits hold the sum of its fields.

    Each hex digit of the 24 fields is one exponent.
    """
    return isinstance(m, int) and m >= 0 and _mono_degree(m) == sum(
        int(h, 16) for h in f"{m & _FIELDS:x}")


def _check_int(n, what):
    if not isinstance(n, int):
        raise TypeError(f"{what} must be an int, got {type(n).__name__}")


class SparsePoly:
    """Map from packed monomial to nonzero int coefficient; no zero terms stored.

    The constructor checks every key and coefficient and drops zeros.  The
    ring operations, `var` and `linear` build each result's dict once, keys
    valid and zeros already dropped, and wrap it with `_of`, which checks
    nothing.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        for m, c in terms.items():
            if not _is_key(m):
                raise ValueError(f"{m!r} is not a packed monomial (see pack_monomial)")
            _check_int(c, "a coefficient")
        self.terms = {m: c for m, c in terms.items() if c}

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
            _check_int(c, "a coefficient")
            mono = 1 << DEGREE_SHIFT | 1 << (FIELD_BITS * i)
            terms[mono] = terms.get(mono, 0) + c
        return _of({m: c for m, c in terms.items() if c})

    # -- ring operations

    def _combine(self, other, sign):
        """self + sign*other in one pass over other's terms."""
        if isinstance(other, int):
            other = SparsePoly.const(other)
        elif not isinstance(other, SparsePoly):
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for m, c in other.terms.items():
            c = get(m, 0) + sign * c
            if c:
                out[m] = c
            else:
                out.pop(m, None)
        return _of(out)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__  # so that sum() can start from 0

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __neg__(self):
        return _of({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            if not isinstance(other, int):
                return NotImplemented
            return _of({m: c * other for m, c in self.terms.items()} if other else {})
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
        for key in [key for key, c in out.items() if not c]:
            del out[key]
        return _of(out)

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
        _check_int(m, "the modulus")
        if m <= 0:
            raise ValueError("modulus must be positive")
        return _of({mono: r for mono, c in self.terms.items() if (r := c % m)})

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
        return _mono_degree(max(self.terms, default=0))

    def is_homogeneous(self, d: int) -> bool:
        terms = self.terms
        return not terms or _mono_degree(min(terms)) == d == _mono_degree(max(terms))

    def coefficient(self, mono) -> int:
        """Coefficient of the monomial given by its 24 exponents."""
        return self.terms.get(pack_monomial(mono), 0)

    def evaluate(self, point) -> int:
        if len(point) != NVARS:
            raise ValueError(f"need {NVARS} values, got {len(point)}")
        total = 0
        for mono, c in self.terms.items():
            prod = c
            mono &= _FIELDS
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
        return _of({mono: -c if (mono & low_bits).bit_count() & 1 else c
                    for mono, c in self.terms.items()})

    def divide_exact(self, n: int):
        """Divide every coefficient by n; returns (quotient, residual monomials)."""
        _check_int(n, "the divisor")
        if not n:
            raise ValueError("divisor must be nonzero")
        bad = [m for m, c in self.terms.items() if c % n]
        if bad:
            return None, bad
        return _of({m: c // n for m, c in self.terms.items()}), []

    def __repr__(self):
        return f"SparsePoly({len(self.terms)} terms, degree {self.degree()})"


def _of(terms: dict) -> SparsePoly:
    """The polynomial with these terms, taken as they are: int coefficients, none zero."""
    p = object.__new__(SparsePoly)
    p.terms = terms
    return p


# ---------------------------------------------------------------------------
# the named factor polynomials


class SymbolicFactors(S4Forms):
    """The S4 forms as polynomials in the 24 coefficient variables.

    It declares no `__slots__`, so it keeps a `__dict__` for its cached properties.
    """

    @cached_property
    def d1_quotient(self):
        """(C, residual monomials) of (d1 - l1*X) / 4 with X = q1 + 2*(uv + w): D1_EXPANSION.

        Computed once per factor set.
        """
        x = self.q1 + 2 * (self.u * self.v + self.w)
        return (self.d1 - self.l1 * x).divide_exact(4)

    @cached_property
    def sigma_d1(self):
        """sigma(d1): d1 under the substitution b -> -b of the twelve b variables."""
        return _mirror(self.d1)

    @cached_property
    def certificate(self) -> frozenset:
        """The steps of the symmetry proof that hold for these factors, by name.

        Let sigma negate the twelve b variables, Y = uv + w and X = q1 + 2Y.
        The steps are exact identities:

            d1 = l1*X + 4C     d1 - l1*X is divisible by 4, so C is integral (D1_EXPANSION)
            sigma(d1) = d2     sigma(l1) = l2     sigma(q1) = q1
            sigma(Y) = -Y      l1 = u + v         l2 = u - v

        For any integer polynomial P, P + sigma(P) and P - sigma(P) have even
        coefficients: twice the part of P of even, and of odd, degree in b.

        D_MOD2 (sigma(d1) = d2): d1 - d2 = d1 - sigma(d1) is even.

        PROD_MOD4 and SUM_MOD4 (the first four steps): d2 = sigma(d1)
        = l2*sigma(X) + 4*sigma(C) and sigma(X) = q1 + 2*sigma(Y), so

            d1*d2 - l1*l2*q1^2 = l1*l2*(X*sigma(X) - q1^2)
                                 + 4*(l1*X*sigma(C) + l2*sigma(X)*C + 4*C*sigma(C)),
            X*sigma(X) - q1^2 = 2*q1*(Y + sigma(Y)) + 4*Y*sigma(Y),
            d1 + d2 - (l1 + l2)*q1 = 2*(l1*Y + sigma(l1*Y)) + 4*(C + sigma(C)),

        and Y + sigma(Y) and l1*Y + sigma(l1*Y) are even: no condition on Y.

        SUM_MOD8 and DIFF_MOD8 (all seven steps): sigma(X) = q1 - 2Y, so
        d2 = l2*(q1 - 2Y) + 4*sigma(C), and with l1 + l2 = 2u, l1 - l2 = 2v,

            d1 + d2 = 2u*q1 + 4uv^2 + 4vw + 4*(C + sigma(C)),
            d1 - d2 = 2v*q1 + 4u^2v + 4uw + 4*(C - sigma(C)),

        where C + sigma(C) and C - sigma(C) are even.

        Every step is computed once per factor set, d1_quotient's division
        included.  The proof is sufficient, not necessary: an identity whose
        steps do not all hold is decided by expanding its residual.
        """
        _, bad = self.d1_quotient
        y = self.u * self.v + self.w
        steps = {
            "d1 = l1*X + 4C": not bad,
            "sigma(d1) = d2": self.sigma_d1 == self.d2,
            "sigma(l1) = l2": _mirror(self.l1) == self.l2,
            "sigma(q1) = q1": _mirror(self.q1) == self.q1,
            "sigma(Y) = -Y": _mirror(y) == -y,
            "l1 = u + v": self.l1 == self.u + self.v,
            "l2 = u - v": self.l2 == self.u - self.v,
        }
        return frozenset(name for name, holds in steps.items() if holds)


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


class IdentityReport(Record):
    """One identity's verdict, its residual's term count and the seconds it took.

    `quotient` is the cubic C for D1_EXPANSION, None for the other identities.
    """

    __slots__ = ("identity", "holds", "residual_term_count", "elapsed", "quotient")

    def __init__(self, identity: IdentityId, holds: bool, residual_term_count: int,
                 elapsed: float, quotient: SparsePoly | None = None):
        super().__init__(identity, holds, residual_term_count, elapsed, quotient)


# the steps of `SymbolicFactors.certificate` that prove each identity
_SYMMETRY_STEPS = frozenset({"d1 = l1*X + 4C", "sigma(d1) = d2", "sigma(l1) = l2", "sigma(q1) = q1"})
_ALL_STEPS = _SYMMETRY_STEPS | {"sigma(Y) = -Y", "l1 = u + v", "l2 = u - v"}
_PROOF_STEPS = {
    IdentityId.D_MOD2: frozenset({"sigma(d1) = d2"}),
    IdentityId.PROD_MOD4: _SYMMETRY_STEPS,
    IdentityId.SUM_MOD4: _SYMMETRY_STEPS,
    IdentityId.SUM_MOD8: _ALL_STEPS,
    IdentityId.DIFF_MOD8: _ALL_STEPS,
}


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

    D_MOD2, PROD_MOD4, SUM_MOD4, SUM_MOD8 and DIFF_MOD8 are first proved from
    the steps `_PROOF_STEPS` names (`SymbolicFactors.certificate`); only when
    one of them does not hold is the residual expanded, and then it alone
    decides.  So `d1*d2` is never formed for factors that pass the proof.
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
    if id_ in _PROOF_STEPS and _PROOF_STEPS[id_] <= f.certificate:
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


# ---------------------------------------------------------------------------
# symbolic determinants straight from the representation tables


def symbolic_rep_det(rho_table) -> SparsePoly:
    """det(sum over g of x_g * rho(g)) for a table of 24 square integer matrices."""
    n = len(rho_table[0])
    return cofactor_det([
        SparsePoly.linear([(g, m[i][j]) for g, m in enumerate(rho_table) if m[i][j]])
        for i in range(n) for j in range(n)
    ])
