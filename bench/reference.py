"""Reference answers computed without gdet's arithmetic.

The benchmark checks gdet's answers against these.  Group tables are built
here from permutations, and the determinant is the benchmark's own
fraction-free elimination, so a wrong kernel, matrix builder, ring
operation or group table in gdet cannot agree with them by sharing code.
Only the order of the S4 elements comes from gdet (its cycle labels),
because gdet's coefficient vectors are written in that order.
"""

from __future__ import annotations

import itertools
from collections import Counter


def det(rows) -> int:
    """Determinant of an integer matrix by fraction-free Gaussian elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        p, top = a[k][k], a[k]
        for r in range(k + 1, n):
            row, lead = a[r], a[r][k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - lead * top[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1]


def compose(p, q):
    """The permutation that applies q first, then p."""
    return tuple(p[x] for x in q)


def table(perms):
    """Multiplication table of a permutation group: mul[i][j] is perms[i] after perms[j]."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[compose(p, q)] for q in perms] for p in perms]


def det_matrix(mul):
    """For each (i, j), the index of g_i * g_j^-1: the slots of the group matrix."""
    n = len(mul)
    identity = next(i for i in range(n) if all(mul[i][j] == j for j in range(n)))
    inv = [next(j for j in range(n) if mul[i][j] == identity) for i in range(n)]
    return [[mul[i][inv[j]] for j in range(n)] for i in range(n)]


def group_det(slots, coeffs) -> int:
    """det(x_{g h^-1}) given det_matrix(mul) of the group."""
    return det([[coeffs[k] for k in row] for row in slots])


def dihedral(order):
    """Symmetries of a regular (order/2)-gon, as permutations of its vertices."""
    n = order // 2
    return [tuple((s * v + r) % n for v in range(n)) for s in (1, -1) for r in range(n)]


def small_group(name):
    """Permutations of a small group by its CLI name: Z<n>, K4, D8, D:<2n> or S3."""
    if name == "K4":
        return [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    if name == "S3":
        return list(itertools.permutations(range(3)))
    if name == "D8":
        return dihedral(8)
    if name.startswith("D:"):
        return dihedral(int(name[2:]))
    n = int(name[1:])
    return [tuple((v + r) % n for v in range(n)) for r in range(n)]


def box_values(name, lo, hi) -> Counter:
    """Multiset of group determinants over every vector with entries in lo..hi.

    The box is the same in every coordinate, so the multiset does not
    depend on how a group's elements are numbered, only on the group.
    """
    slots = det_matrix(table(small_group(name)))
    return Counter(group_det(slots, c)
                   for c in itertools.product(range(lo, hi + 1), repeat=len(slots)))


def cycles(label, n=4):
    """A permutation from a cycle label such as "(13)(24)", or "e" for the identity."""
    out = list(range(n))
    for cycle in label.strip("()").split(")(") if label != "e" else ():
        points = [int(c) - 1 for c in cycle]
        for a, b in zip(points, points[1:] + points[:1]):
            out[a] = b
    return tuple(out)


class S4:
    """S4 with gdet's element order, from its cycle labels; x = (1234), y = (12)."""

    GENERATORS = {"x": cycles("(1234)"), "y": cycles("(12)")}

    def __init__(self, names):
        self.perms = [cycles(label) for label in names]
        self.index = {p: i for i, p in enumerate(self.perms)}
        self.mul = table(self.perms)
        self.slots = det_matrix(self.mul)

    def element(self, word):
        """Index of a product of generator powers [(letter, exponent), ...], left to right."""
        p = tuple(range(4))
        for letter, exp in word:
            for _ in range(exp):
                p = compose(p, self.GENERATORS[letter])
        return self.index[p]

    def convolve(self, a, b):
        out = [0] * 24
        for u, au in enumerate(a):
            for v, bv in enumerate(b):
                out[self.mul[u][v]] += au * bv
        return out

    def det(self, coeffs) -> int:
        return group_det(self.slots, coeffs)
