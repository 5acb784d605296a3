"""Compiled block kernels: the group determinant of every table group.

Over Q the regular representation of a group splits into blocks, one per
rational irreducible representation, so the group determinant is the
product of the block determinants, each raised to the block's multiplicity.
Every block below is written over Z, so the product is exact:

- Z<n>: for each d | n, multiplication by f(x) = sum a_k x^k on Z[x]/Phi_d
  (the circulant determinant is the product of the resultants Res(Phi_d, f));
- D:<2n>: each d | n acts on Z[x]/Phi_d with r as x and s as x -> x^-1;
- K4: its four characters;
- A4: the trivial character, an Eisenstein norm and a 3-dimensional block;
- S4: the factored form `detcalc.s4_det_fast`.

A block is compiled once into one tuple of signed coefficient slots per
matrix cell: slot s reads c[s], slot order + s reads -c[s], and slot
2 * order reads 0.  `detcalc.kernel_for` is the entry point.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import isqrt
from operator import itemgetter

from . import detcalc
from .detcalc import _CUBIC_CELLS, det3, det_int
from .groups import symmetric_group4
from .ring import RingElement


def _divide_monic(num, den):
    """Quotient of two integer polynomials (constant term first) whose divisor is monic."""
    num = list(num)
    deg = len(den) - 1
    quot = [0] * (len(num) - deg)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = top = num[k + deg]
        for i, a in enumerate(den):
            num[k + i] -= top * a
    if any(num):
        raise AssertionError("inexact polynomial division")
    return quot


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """The d-th cyclotomic polynomial, constant term first."""
    poly = [-1] + [0] * (d - 1) + [1]  # x^d - 1 is the product of Phi_e over e | d
    for e in range(1, d):
        if d % e == 0:
            poly = _divide_monic(poly, _cyclotomic(e))
    return tuple(poly)


def _powers_mod(d: int):
    """x^m mod Phi_d for m = 0..d-1, each in the basis 1..x^(phi(d)-1)."""
    phi = _cyclotomic(d)
    deg = len(phi) - 1
    out = []
    cur = [1] + [0] * (deg - 1)
    for _ in range(d):
        out.append(cur)
        # times x, then x^deg = -(phi[0] + ... + phi[deg-1] x^(deg-1))
        top = cur[-1]
        cur = [a - top * p for a, p in zip([0] + cur[:-1], phi)]
    return out


def _module_cells(order, d, actions):
    """Cells of an element acting on Z[x]/Phi_d, flat row-major, as signed slot lists.

    `actions` lists (slot, k, e, sign): the group element in `slot` maps x^j
    to sign * x^(e * (k + j)).  A weight w in a cell repeats its slot |w| times.
    """
    powers = _powers_mod(d)
    size = len(powers[0])
    cells = []
    for i in range(size):
        for j in range(size):
            slots = []
            for slot, k, e, sign in actions:
                w = sign * powers[e * (k + j) % d][i]
                slots += [slot if w > 0 else order + slot] * abs(w)
            cells.append(slots)
    return cells


def _det2(m) -> int:
    return m[0] * m[3] - m[1] * m[2]


def _square_det(n_cells: int):
    """The determinant of a flat row-major square matrix of n_cells cells; None for 1x1."""
    size = isqrt(n_cells)
    if size == 1:
        return None
    if size == 2:
        return _det2
    if size == 3:
        return det3
    return lambda m: det_int([m[i:i + size] for i in range(0, n_cells, size)])


def _eis_mul(x1, y1, x2, y2):
    """(x1 + y1*w)(x2 + y2*w) with w^2 = -1 - w, as a pair."""
    return x1 * x2 - y1 * y2, x1 * y2 + y1 * x2 - y1 * y2


def _phi9_norm(g) -> int:
    """Norm of g0 + g1 x + ... + g5 x^5 from Z[x]/Phi_9 down to Z.

    With w = x^3 and t = x, the ring is Z[w][t]/(t^3 - w) and the element is
    A + B t + C t^2 with A = g0 + g3 w, B = g1 + g4 w, C = g2 + g5 w.  Its
    norm down to Z[w] is A^3 + w B^3 + w^2 C^3 - 3 w ABC, and the norm of
    x + y w down to Z is x^2 - xy + y^2.
    """
    a0, a1, b0, b1, c0, c1 = g[0], g[3], g[1], g[4], g[2], g[5]
    a2 = _eis_mul(a0, a1, a0, a1)
    x, y = _eis_mul(*a2, a0, a1)                    # A^3
    b2 = _eis_mul(b0, b1, b0, b1)
    bx, by = _eis_mul(*b2, b0, b1)                  # B^3, times w below
    c2 = _eis_mul(c0, c1, c0, c1)
    cx, cy = _eis_mul(*c2, c0, c1)                  # C^3, times w^2 below
    px, py = _eis_mul(*_eis_mul(a0, a1, b0, b1), c0, c1)  # ABC, times -3w below
    x += -by + (cy - cx) + 3 * py
    y += (bx - by) - cx - 3 * (px - py)
    return x * x - x * y + y * y


def _cyclic_blocks(n):
    """Blocks for `cyclic_group(n)`: slot k is g^k, which acts on each Z[x]/Phi_d as x^k."""
    actions = [(k, k, 1, 1) for k in range(n)]
    blocks = []
    for d in range(1, n + 1):
        if n % d:
            continue
        cells = _module_cells(n, d, actions)
        if d == 9:  # a multiplication matrix: its first column is the element itself
            blocks.append((cells[::6], _phi9_norm, 1))
        else:
            blocks.append((cells, None, 1))
    return blocks


def _dihedral_blocks(order):
    """Blocks for `dihedral_group(order)`: slots 0..n-1 are r^k, slots n..2n-1 are s r^k.

    Each d | n acts on Z[x]/Phi_d with r as x and s as x -> x^-1.  For d <= 2
    that is a linear character, and twisting s by -1 gives the other one; for
    d > 2 the block is irreducible and occurs twice.
    """
    n = order // 2
    blocks = []
    for d in range(1, n + 1):
        if n % d:
            continue
        for sign in (1, -1) if d <= 2 else (1,):
            actions = [(k, k, 1, 1) for k in range(n)] + [(n + k, k, -1, sign) for k in range(n)]
            blocks.append((_module_cells(order, d, actions), None, 1 if d <= 2 else 2))
    return blocks


def _klein_blocks():
    """The four characters of K4, whose product is XOR of the indices."""
    return [
        ([[s if bin(s & t).count("1") % 2 == 0 else 4 + s for s in range(4)]], None, 1)
        for t in range(4)
    ]


def _a4_blocks():
    """Blocks for `alternating_group4()`, the even half of the S4 order.

    The quartets of slots 0..11 are the cosets of the Klein subgroup, and
    quartet q maps to the generator power q of A4 / K4 = Z3.  Through Z3 come
    the trivial character u and the Eisenstein norm quadratic_form(u1, u2, u3);
    the 3-dimensional block is the A half of the S4 cubic matrices, cubed.
    """
    quartets = [(s, s // 4, 1, 1) for s in range(12)]
    cubic = [(ap1, ap2, 12 + am1, 12 + am2) for ap1, ap2, am1, am2, *_ in _CUBIC_CELLS]
    return [
        (_module_cells(12, 1, quartets), None, 1),
        (_module_cells(12, 3, quartets), None, 1),
        (cubic, None, 3),
    ]


def _compile(order, blocks):
    """A coeffs -> int evaluator for blocks of (signed slot cells, determinant, power).

    A determinant of None is the plain determinant of the square block.
    Every cell is read in one pass; then the 1x1 blocks multiply together,
    and the product stops at the first zero.
    """
    zero = 2 * order
    getters, linear, squares = [], [], []
    for cells, det, power in blocks:
        start = len(getters)
        # itemgetter of one slot returns a bare item, so pad to two slots with the zero slot
        getters += [itemgetter(*slots, *[zero] * (2 - len(slots))) for slots in cells]
        det = det or _square_det(len(cells))
        if det is None:
            linear.append(start)
        else:
            squares.append((start, len(getters), det, power))
    getters, linear, squares = tuple(getters), tuple(linear), tuple(squares)

    def evaluate(c):
        signed = (*c, *[-x for x in c], 0)
        cells = [sum(get(signed)) for get in getters]
        value = 1
        for i in linear:
            value *= cells[i]
        if value == 0:
            return 0
        for start, stop, det, power in squares:
            d = det(cells[start:stop])
            if d == 0:
                return 0
            value *= d ** power
        return value

    return evaluate


_KIND = re.compile(r"([ZD])(\d+)")


@lru_cache(maxsize=None)
def kernel(kind: str):
    """The evaluator for a table kind (`GroupTable.kind`), built once."""
    if kind == "S4":
        g = symmetric_group4()
        return lambda c: detcalc.s4_det_fast(RingElement(g, c))
    if kind == "K4":
        return _compile(4, _klein_blocks())
    if kind == "A4":
        return _compile(12, _a4_blocks())
    m = _KIND.fullmatch(kind)
    if not m:
        raise ValueError(f"no determinant kernel for group kind {kind!r}")
    order = int(m.group(2))
    if m.group(1) == "Z":
        return _compile(order, _cyclic_blocks(order))
    return _compile(order, _dihedral_blocks(order))
