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
from dataclasses import dataclass
from functools import lru_cache, partial

from . import s4data

MAX_ORDER = 64

S4_ALPHA_INDEX = 12  # x = (1234)
S4_BETA_INDEX = 20   # y = (12)


@dataclass(frozen=True)
class GroupTable:
    """A finite group of order n with elements indexed 0..n-1."""

    kind: str
    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    identity_index: int
    names: tuple[str, ...]

    def __repr__(self):
        return f"GroupTable({self.kind}, order={self.order})"


def check_group_laws(g: GroupTable) -> None:
    """Exhaustively verify associativity, identity and inverse laws.

    Cubic in the order, which is fine for order <= 64.
    """
    n = g.order
    e = g.identity_index
    mul = g.mul
    for i in range(n):
        if mul[e][i] != i or mul[i][e] != i:
            raise ValueError(f"identity law fails at element {i}")
        if mul[i][g.inv[i]] != e or mul[g.inv[i]][i] != e:
            raise ValueError(f"inverse law fails at element {i}")
    for i in range(n):
        for j in range(n):
            mij = mul[i][j]
            row_i = mul[i]
            for k in range(n):
                if mul[mij][k] != row_i[mul[j][k]]:
                    raise ValueError(f"associativity fails at ({i},{j},{k})")


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


def _perm_power(p, e):
    n = len(p)
    acc = tuple(range(n))
    base = p if e >= 0 else _invert(p)
    for _ in range(abs(e)):
        acc = _compose(acc, base)
    return acc


def perm_from_cycles(text: str, n: int = 4):
    """Parse a cycle label like "(134)" or "(13)(24)" into a permutation tuple.

    Points are 1-based digits; "e" is the identity.
    """
    if text == "e":
        return tuple(range(n))
    if not re.fullmatch(r"(\(\d+\))+", text):
        raise ValueError(f"bad cycle label: {text!r}")
    out = list(range(n))
    for cyc in re.findall(r"\((\d+)\)", text):
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
            m = re.match(r"\^(-?\d+)", text[pos:])
            if not m:
                raise ValueError(f"bad exponent at position {pos}: {text!r}")
            exp = int(m.group(1))
            pos += m.end()
        word.append((c, exp))
    return word


def word_to_element(g: GroupTable, word) -> int:
    """Evaluate a generator word (string or (letter, exp) list) to an element index."""
    if g.kind != "S4":
        raise ValueError("generator words are defined for the S4 table only")
    if isinstance(word, str):
        word = parse_gen_word(word)
    acc = g.identity_index
    for letter, exp in word:
        base = S4_ALPHA_INDEX if letter == "x" else S4_BETA_INDEX
        exp %= 4 if letter == "x" else 2
        for _ in range(exp):
            acc = g.mul[acc][base]
    return acc


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
    alpha = (1, 2, 3, 0)  # (1234)
    beta = (1, 0, 2, 3)   # (12)
    gens = {"x": alpha, "y": beta}
    perms = []
    names = []
    for words, labels in (
        (s4data.EVEN_WORDS, s4data.EVEN_NAMES),
        (s4data.ODD_WORDS, s4data.ODD_NAMES),
    ):
        for wtext, label in zip(words, labels):
            acc = (0, 1, 2, 3)
            for letter, exp in parse_gen_word(wtext):
                acc = _compose(acc, _perm_power(gens[letter], exp))
            labelled = perm_from_cycles(label)
            if acc != labelled:
                raise AssertionError(
                    f"word {wtext!r} gives {acc}, cycle label {label!r} gives {labelled}"
                )
            perms.append(acc)
            names.append(label)
    if len(set(perms)) != 24:
        raise AssertionError("S4 element list is not 24 distinct permutations")
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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _cyclic_rule(n: int):
    if n in (4, 9):
        return (f"Z{n}", None)
    if _is_prime(n):
        return ("Zp", n)
    if n % 2 == 0 and n // 2 >= 3 and _is_prime(n // 2):
        return ("Z2p", n // 2)
    return None


_ALIASES = {"Klein4": "K4", "D8": "D:8", "S3": "D:6"}
_FIXED_NAMES = {
    "S4": (symmetric_group4, ("S4", None)),
    "A4": (alternating_group4, ("A4", None)),
    "K4": (klein_group, ("Klein4", None)),
}
_PARAMETRIC_NAME = re.compile(r"(Z|Zn:|D:|Zp:|Z2p:)(\d+)")


def resolve_name(name: str):
    """Resolve a group or rule name to (table builder or None, rule spec or None).

    The rule spec is a (kind, p) pair for `classify.GroupRule`.  Names:
    "S4", "A4", "K4"/"Klein4", "S3"/"D:6", "D8"/"D:8", "D:<2n>", cyclic
    "Z<n>"/"Zn:<n>", and the rule-only names "Zp:<p>" and "Z2p:<p>".  D:6
    carries the S3 rule, D:8 the D8 rule, and a cyclic name the rule known
    for its order (prime, 4, 9, or twice an odd prime), if any.  Orders and
    primes are checked by the builder and the rule, not here.
    """
    text = name.strip()
    text = _ALIASES.get(text, text)
    if text in _FIXED_NAMES:
        return _FIXED_NAMES[text]
    m = _PARAMETRIC_NAME.fullmatch(text)
    if not m:
        raise ValueError(f"unknown group name: {name!r}")
    prefix, n = m.group(1), int(m.group(2))
    if prefix == "Zp:":
        return None, ("Zp", n)
    if prefix == "Z2p:":
        return None, ("Z2p", n)
    if prefix == "D:":
        return partial(dihedral_group, n), {6: ("S3", None), 8: ("D8", None)}.get(n)
    return partial(cyclic_group, n), _cyclic_rule(n)


def build_group(kind: str) -> GroupTable:
    """Build the group table a name stands for (see `resolve_name`)."""
    builder, rule = resolve_name(kind)
    if builder is None:
        rule_kind, p = rule
        table = f"Z{p if rule_kind == 'Zp' else 2 * p}"
        raise ValueError(
            f"{kind.strip()!r} names a membership rule without a group table; use {table}"
        )
    return builder()
