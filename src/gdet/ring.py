"""Integer group-ring elements and their convolution product.

An element of Z[G] is a coefficient vector indexed by the group's canonical
element order; for S4 that means slots 0..11 hold a1..a12 and slots 12..23
hold b1..b12.  Elements can also be entered as noncommutative polynomial
expressions in the S4 generators x and y.
"""

from __future__ import annotations

import re

from .groups import GroupTable, Record, S4_GENERATORS, build_group

MAX_EXPONENT = 4096
# parentheses and unary minus signs open at once; each level costs the
# recursive-descent parser a few Python stack frames
MAX_NESTING = 100
# a power may not produce coefficients longer than this many bits
MAX_COEFF_BITS = 1 << 16


class RingElement(Record):
    """An element of Z[G]: its group's table and one coefficient per element."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: GroupTable, coeffs: tuple[int, ...]):
        if len(coeffs) != group.order:
            raise ValueError(
                f"coefficient vector has length {len(coeffs)}, "
                f"group order is {group.order}"
            )
        # set directly, not through Record.__init__: parsing builds many elements
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coeffs", coeffs)

    def __add__(self, other):
        self._check_group(other)
        return RingElement(self.group, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check_group(other)
        return RingElement(self.group, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return RingElement(self.group, tuple(-x for x in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return RingElement(self.group, tuple(other * x for x in self.coeffs))
        return convolve(self, other)

    __rmul__ = __mul__

    def _check_group(self, other):
        if self.group is not other.group and self.group != other.group:
            raise ValueError("ring elements belong to different groups")


def ring_element(group: GroupTable, coeffs) -> RingElement:
    """An element from its coefficients, which must be ints (not bools, floats or strings)."""
    coeffs = tuple(coeffs)
    for c in coeffs:
        if type(c) is not int:
            raise ValueError(f"coefficients must be integers, got {c!r}")
    return RingElement(group, coeffs)


def identity_element(group: GroupTable) -> RingElement:
    c = [0] * group.order
    c[group.identity_index] = 1
    return RingElement(group, tuple(c))


def scalar_element(group: GroupTable, n: int) -> RingElement:
    c = [0] * group.order
    c[group.identity_index] = n
    return RingElement(group, tuple(c))


def basis_element(group: GroupTable, index: int) -> RingElement:
    c = [0] * group.order
    c[index] = 1
    return RingElement(group, tuple(c))


def convolve(a: RingElement, b: RingElement) -> RingElement:
    """Group-ring product: c_g = sum over u*v = g of a_u * b_v."""
    a._check_group(b)
    mul = a.group.mul
    out = [0] * a.group.order
    for u, au in enumerate(a.coeffs):
        if not au:
            continue
        row = mul[u]
        for v, bv in enumerate(b.coeffs):
            if bv:
                out[row[v]] += au * bv
    return RingElement(a.group, tuple(out))


def element_power(a: RingElement, e: int) -> RingElement:
    if e < 0:
        raise ValueError("negative exponents are not supported")
    if e > MAX_EXPONENT:
        raise ValueError(f"exponent overflow: {e} > {MAX_EXPONENT}")
    # |coefficients of a^e| <= ||a||_1^e, and ceil(log2 n) == (n - 1).bit_length()
    bits = e * (sum(map(abs, a.coeffs)) - 1).bit_length()
    if bits > MAX_COEFF_BITS:
        raise ValueError(
            f"power too large: coefficients of up to {bits} bits exceed the budget of {MAX_COEFF_BITS}"
        )
    result = identity_element(a.group)
    base = a
    while e:
        if e & 1:
            result = convolve(result, base)
        base = convolve(base, base) if e > 1 else base
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# expression parser
#
# grammar (a unary minus binds tightest, to the atom right after it, so -2^2
# is (-2)^2 = 4 and -x^2 is (-x)^2 = x^2, while 1 - x^2 subtracts x^2; then
# ^, then *, then + and -; * and +,- associate left; a factor takes at most
# one exponent, so powers do not chain and x^2^3 is an error; implicit
# multiplication is invalid):
#
#   expr   := term (('+' | '-') term)*
#   term   := factor ('*' factor)*
#   factor := atom ('^' integer)?
#   atom   := integer | 'x' | 'y' | '-' atom | '(' expr ')'


class ParseError(ValueError):
    """Syntax error in a ring expression, carrying the character offset."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN = re.compile(r"\s*(?:([0-9]+)|([xy+\-*^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                bad = pos + len(text[pos:]) - len(text[pos:].lstrip())
                raise ParseError(f"unexpected character {text[bad]!r}", bad)
            break
        if m.group(1) is not None:
            tokens.append((int(m.group(1)), m.start(1)))
        else:
            tokens.append((m.group(2), m.start(2)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, group, end):
        self.tokens = tokens
        self.group = group
        self.i = 0
        self.end = end
        self.depth = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self):
        return self.tokens[self.i][1] if self.i < len(self.tokens) else self.end

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def nested(self, parse):
        """The result of parse() one nesting level deeper, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels", self.pos())
        self.depth += 1
        result = parse()
        self.depth -= 1
        return result

    def expr(self):
        left = self.term()
        while self.peek() in ("+", "-"):
            op, _ = self.take()
            right = self.term()
            left = left + right if op == "+" else left - right
        return left

    def term(self):
        left = self.factor()
        while self.peek() == "*":
            self.take()
            left = convolve(left, self.factor())
        return left

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.peek()
            if not isinstance(tok, int):
                raise ParseError("expected integer exponent after '^'", self.pos())
            exp, pos = self.take()
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent overflow: {exp} > {MAX_EXPONENT}", pos)
            return element_power(base, exp)
        return base

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.pos())
        if tok == "-":
            self.take()
            return -self.nested(self.atom)
        if isinstance(tok, int):
            self.take()
            return scalar_element(self.group, tok)
        if tok in S4_GENERATORS:
            self.take()
            return basis_element(self.group, S4_GENERATORS[tok][0])
        if tok == "(":
            _, open_pos = self.take()
            inner = self.nested(self.expr)
            if self.peek() != ")":
                raise ParseError("unbalanced parenthesis", open_pos)
            self.take()
            return inner
        raise ParseError(f"unexpected token {tok!r}", self.pos())


def parse_expr(text: str, group: GroupTable) -> RingElement:
    """Parse an integer polynomial in x, y into a reduced group-ring element."""
    if group.kind != "S4":
        raise ValueError("expressions in x, y are defined over the S4 table only")
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    parser = _Parser(tokens, group, len(text))
    result = parser.expr()
    if parser.i != len(tokens):
        raise ParseError(f"unexpected token {parser.peek()!r}", parser.pos())
    return result


# ---------------------------------------------------------------------------
# JSON / array input


def _array(obj, key):
    if not isinstance(obj[key], list):
        raise ValueError(f"{key!r} must be an array of integers, got {type(obj[key]).__name__}")
    return obj[key]


def element_from_json(obj, group: GroupTable) -> RingElement:
    """Build an element from a flat coefficient list or an object.

    An object holds "coeffs" alone or, for S4 only, "a" with "b", and may
    name its "group" by any name of the same table (see `groups.build_group`);
    any other key is an error.
    """
    if isinstance(obj, list):
        return ring_element(group, obj)
    if isinstance(obj, dict):
        if "group" in obj:
            name = obj["group"]
            if not isinstance(name, str):
                raise ValueError(f"element 'group' must be a group name, got {name!r}")
            if build_group(name).kind != group.kind:
                raise ValueError(f"element is for group {name!r}, expected {group.kind!r}")
        keys = obj.keys() - {"group"}
        unknown = sorted(keys - {"coeffs", "a", "b"})
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in element object")
        if "coeffs" in keys:
            if keys != {"coeffs"}:
                raise ValueError(f"key {min(keys - {'coeffs'})!r} conflicts with 'coeffs'")
            return ring_element(group, _array(obj, "coeffs"))
        if group.kind == "S4" and keys == {"a", "b"}:
            a, b = _array(obj, "a"), _array(obj, "b")
            if len(a) != 12 or len(b) != 12:
                raise ValueError("S4 element needs 12 'a' and 12 'b' coefficients")
            return ring_element(group, list(a) + list(b))
        raise ValueError("element object needs 'coeffs' or S4-style 'a'/'b' arrays")
    raise ValueError(f"cannot build a ring element from {type(obj).__name__}")
