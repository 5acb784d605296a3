"""Small finite groups as immutable Cayley tables.

Every table is built from a list of permutations by one builder,
`_table_from_perms`, which also checks the group laws: Z<n> as the n
rotations of n points, D:<2n> as r and s acting on 2n points, K4 as the
D:4 permutations, and S4 and A4 as permutations of four points.  Each
builder is cached, so a name is built once per process.

The S4 table fixes a canonical element order: twelve even permutations
(coefficient slots a1..a12) followed by twelve odd ones (b1..b12), each
realized both as a generator word in x = (1234), y = (12) and as a cycle
label.  Products apply the right factor first: mul[i][j] is "do j, then i".
"""

from __future__ import annotations

import re
from functools import lru_cache

from . import s4data

MAX_ORDER = 64
PRIME_BOUND = 1 << 64  # the parameter of a Zp or Z2p rule is below it

# x = (1234) and y = (12), each as (canonical index, permutation, order)
S4_GENERATORS = {"x": (12, (1, 2, 3, 0), 4), "y": (20, (1, 0, 2, 3), 2)}


class GroupTable:
    """A finite group of order n with elements indexed 0..n-1, immutable.

    A plain class, not a dataclass, so that starting gdet does not import
    `dataclasses`: equal when every field is, hashed on the fields.
    """

    __slots__ = ("kind", "order", "mul", "inv", "identity_index", "names")

    def __init__(self, kind: str, order: int, mul: tuple[tuple[int, ...], ...],
                 inv: tuple[int, ...], identity_index: int, names: tuple[str, ...]):
        for name, value in zip(self.__slots__, (kind, order, mul, inv, identity_index, names)):
            object.__setattr__(self, name, value)

    def _fields(self):
        return self.kind, self.order, self.mul, self.inv, self.identity_index, self.names

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return GroupTable, self._fields()

    def __repr__(self):
        return f"GroupTable({self.kind}, order={self.order})"


def check_group_laws(g: GroupTable) -> None:
    """Verify the identity and inverse laws, then associativity by Light's test.

    Only triples (i, s, k) with s in `generating_set(g)` are checked: the b
    with (ab)c = a(bc) for all a, c include e and are closed under products.
    """
    n = g.order
    e = g.identity_index
    mul = g.mul
    for i in range(n):
        if mul[e][i] != i or mul[i][e] != i:
            raise ValueError(f"identity law fails at element {i}")
        if mul[i][g.inv[i]] != e or mul[g.inv[i]][i] != e:
            raise ValueError(f"inverse law fails at element {i}")
    for s in generating_set(g):
        for i in range(n):
            row_i, row_is = mul[i], mul[mul[i][s]]
            for k, sk in enumerate(mul[s]):
                if row_is[k] != row_i[sk]:
                    raise ValueError(f"associativity fails at ({i},{s},{k})")


def generating_set(g: GroupTable) -> tuple[int, ...]:
    """Greedy generators: from the last index down, each element the earlier ones do not reach.

    They reach the closure of e under right multiplication by them.  Tables
    list a small subgroup first, so S4 takes three, every other table at most two.
    """
    gens, reached = [], {g.identity_index}
    for x in reversed(range(g.order)):
        if x not in reached:
            gens.append(x)
            frontier = set(reached)
            while frontier:
                frontier = {g.mul[a][s] for a in frontier for s in gens} - reached
                reached |= frontier
    return tuple(gens)


def _table_from_perms(kind, perms, names):
    """The table of `perms` under composition, with the group laws checked."""
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    mul = tuple(
        tuple(index[_compose(perms[i], perms[j])] for j in range(n)) for i in range(n)
    )
    inv = tuple(index[_invert(p)] for p in perms)
    ident = index[tuple(range(len(perms[0])))]
    g = GroupTable(kind, n, mul, inv, ident, tuple(names))
    check_group_laws(g)
    return g


def _compose(p, q):
    # apply q first, then p
    return tuple(p[q[i]] for i in range(len(p)))


def _invert(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_from_cycles(text: str, n: int = 4):
    """Parse a cycle label like "(134)" or "(13)(24)" into a permutation tuple.

    Points are 1-based digits; "e" is the identity.
    """
    if text == "e":
        return tuple(range(n))
    if not re.fullmatch(r"(\([0-9]+\))+", text):
        raise ValueError(f"bad cycle label: {text!r}")
    out = list(range(n))
    for cyc in re.findall(r"\(([0-9]+)\)", text):
        pts = [int(c) - 1 for c in cyc]
        if len(set(pts)) != len(pts) or any(not 0 <= p < n for p in pts):
            raise ValueError(f"bad cycle label: {text!r}")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            out[a] = b
    return tuple(out)


# ---------------------------------------------------------------------------
# generator words


def parse_gen_word(text: str) -> list[tuple[str, int]]:
    """Parse a word over {x, y} with optional integer exponents.

    Accepts e.g. "x^3 y x^-1"; juxtaposition needs no operator.  The empty
    word is the identity.
    """
    word = []
    pos = 0
    n = len(text)
    while pos < n:
        c = text[pos]
        if c.isspace():
            pos += 1
            continue
        if c not in ("x", "y"):
            raise ValueError(f"bad generator word at position {pos}: {text!r}")
        pos += 1
        exp = 1
        if pos < n and text[pos] == "^":
            m = re.match(r"\^(-?[0-9]+)", text[pos:])
            if not m:
                raise ValueError(f"bad exponent at position {pos}: {text!r}")
            exp = int(m.group(1))
            pos += m.end()
        word.append((c, exp))
    return word


# ---------------------------------------------------------------------------
# builders


@lru_cache(maxsize=None)
def cyclic_group(n: int) -> GroupTable:
    """Cyclic group of order n: g^i turns the n points k by i."""
    if n < 1 or n > MAX_ORDER:
        raise ValueError(f"cyclic group order must be in 1..{MAX_ORDER}, got {n}")
    perms = [tuple((k + i) % n for k in range(n)) for i in range(n)]
    names = ["e" if i == 0 else f"g^{i}" for i in range(n)]
    return _table_from_perms(f"Z{n}", perms, names)


def _dihedral_perms(n: int):
    """r^i, then s r^i, for i = 0..n-1, on the 2n points k + n*side.

    r^i turns k by i and s sends k to -k and swaps the side; the swap keeps
    the action faithful for n = 2, where k -> -k is the identity.
    """
    return [tuple((sign * (k + i)) % n + n * (side ^ (sign < 0))
                  for side in (0, 1) for k in range(n))
            for sign in (1, -1) for i in range(n)]


@lru_cache(maxsize=None)
def klein_group() -> GroupTable:
    """The Klein four-group, as the D:4 permutations."""
    return _table_from_perms("K4", _dihedral_perms(2), ("e", "a", "b", "ab"))


@lru_cache(maxsize=None)
def dihedral_group(order: int) -> GroupTable:
    """Dihedral group of the given (even) order 2n, n >= 2: r^i, then s r^i."""
    if order % 2 or order < 4 or order > MAX_ORDER:
        raise ValueError(f"dihedral order must be even, in 4..{MAX_ORDER}, got {order}")
    n = order // 2
    names = ["e" if i == 0 else f"r^{i}" for i in range(n)]
    names += ["s" if i == 0 else f"s r^{i}" for i in range(n)]
    return _table_from_perms(f"D{order}", _dihedral_perms(n), names)


def _s4_perms_and_names():
    perms = []
    names = []
    for words, labels in (
        (s4data.EVEN_WORDS, s4data.EVEN_NAMES),
        (s4data.ODD_WORDS, s4data.ODD_NAMES),
    ):
        for wtext, label in zip(words, labels):
            acc = (0, 1, 2, 3)
            for letter, exp in parse_gen_word(wtext):
                _, base, order = S4_GENERATORS[letter]
                for _ in range(exp % order):
                    acc = _compose(acc, base)
            labelled = perm_from_cycles(label)
            if acc != labelled:
                raise AssertionError(
                    f"word {wtext!r} gives {acc}, cycle label {label!r} gives {labelled}"
                )
            perms.append(acc)
            names.append(label)
    if len(set(perms)) != 24:
        raise AssertionError("S4 element list is not 24 distinct permutations")
    if any(perms[index] != perm for index, perm, _ in S4_GENERATORS.values()):
        raise AssertionError("a generator's canonical index holds another permutation")
    return perms, names


@lru_cache(maxsize=None)
def symmetric_group4() -> GroupTable:
    perms, names = _s4_perms_and_names()
    return _table_from_perms("S4", perms, names)


@lru_cache(maxsize=None)
def alternating_group4() -> GroupTable:
    # reuse the canonical even-permutation order of the S4 table
    perms, names = _s4_perms_and_names()
    return _table_from_perms("A4", perms[:12], names[:12])


# ---------------------------------------------------------------------------
# names


def is_decimal(text: str) -> bool:
    """Whether `text` is an integer written as an optional "-" and ASCII digits.

    int() alone would also take "+5", " 5", "1_0" and the digits of other
    scripts, such as "٣".
    """
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Whether n is prime, for n below 2^64 (PRIME_BOUND); larger n raise ValueError.

    Miller-Rabin on the twelve primes up to 37 as bases: no composite below
    3.18e23 is a strong pseudoprime to all of them (Sorenson and Webster
    2015), so the answer is exact.
    """
    if n >= PRIME_BOUND:
        raise ValueError(f"rule parameters must be below 2^64 = {PRIME_BOUND}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _cyclic_rule(n: int):
    if n in (4, 9):
        return (f"Z{n}", None)
    if n % 2 == 0 and n // 2 >= 3:
        return ("Z2p", n // 2) if _is_prime(n // 2) else None
    return ("Zp", n) if _is_prime(n) else None


_ALIASES = {"Klein4": "K4", "D8": "D:8", "S3": "D:6"}
_FIXED_NAMES = {
    "S4": (symmetric_group4, ("S4", None)),
    "A4": (alternating_group4, ("A4", None)),
    "K4": (klein_group, ("Klein4", None)),
}
_PARAMETRIC_NAME = re.compile(r"(Z|Zn:|D:|Zp:|Z2p:)([0-9]+)")


def _parse_name(name: str):
    """(fixed name, None) or (parametric prefix, its integer) of a group or rule name.

    Names: "S4", "A4", "K4"/"Klein4", "S3"/"D:6", "D8"/"D:8", "D:<2n>",
    cyclic "Z<n>"/"Zn:<n>", and the rule-only names "Zp:<p>" and "Z2p:<p>".
    A parameter is written in ASCII digits.
    """
    text = name.strip()
    text = _ALIASES.get(text, text)
    if text in _FIXED_NAMES:
        return text, None
    m = _PARAMETRIC_NAME.fullmatch(text)
    if not m:
        raise ValueError(f"unknown group name: {name!r}")
    return m.group(1), int(m.group(2))


def rule_spec(name: str):
    """The (kind, p) rule a name stands for, for `classify.GroupRule`, or None.

    D:6 carries the S3 rule, D:8 the D8 rule, and a cyclic name the rule
    known for its order (prime, 4, 9, or twice an odd prime), if any.  The
    parameter of a Zp or Z2p name is checked by the rule, not here.
    """
    prefix, n = _parse_name(name)
    if prefix in _FIXED_NAMES:
        return _FIXED_NAMES[prefix][1]
    if prefix in ("Zp:", "Z2p:"):
        return prefix[:-1], n
    if prefix == "D:":
        return {6: ("S3", None), 8: ("D8", None)}.get(n)
    return _cyclic_rule(n)


def build_group(kind: str) -> GroupTable:
    """Build the group table a name stands for (see `_parse_name`).

    The builders check the order; no rule is looked up, so no cyclic order
    is tested for primality.
    """
    prefix, n = _parse_name(kind)
    if prefix in _FIXED_NAMES:
        return _FIXED_NAMES[prefix][0]()
    if prefix == "D:":
        return dihedral_group(n)
    if prefix in ("Z", "Zn:"):
        return cyclic_group(n)
    table = f"Z{n if prefix == 'Zp:' else 2 * n}"
    raise ValueError(
        f"{kind.strip()!r} names a membership rule without a group table; use {table}"
    )
