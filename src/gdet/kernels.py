"""Compiled block kernels: the group determinant of every table group.

Over Q the regular representation of a group splits into blocks, one per
rational irreducible representation, so the group determinant is the
product of the block determinants, each raised to the block's multiplicity.
Every block below is written over Z, so the product is exact:

- Z<n>: for each d | n, multiplication by f(x) = sum a_k x^k on Z[x]/Phi_d
  (the circulant determinant is the product of the resultants Res(Phi_d, f));
  for a prime d >= 5 that determinant is taken as a norm from the real
  subfield of Q(zeta_d), and for d = 9 as a norm through Q(zeta_3);
- D:<2n>: each d | n acts on Z[x]/Phi_d with r as x and s as x -> x^-1;
- K4: its four characters;
- A4: the trivial character, an Eisenstein norm and a 3-dimensional block;
- S4: the paper's factorization l1 * l2 * q1^2 * d1^3 * d2^3, with q1 the
  2-dimensional block of S4 / K4 = D:6 and d1, d2 the cubic matrices.

Each table kind is compiled once into one straight-line Python function:
it unpacks the coefficients into c0, c1, ..., assigns one linear form per
block cell, multiplies the 1x1 blocks, writes 2x2 and 3x3 determinants
inline and returns 0 at the first zero block.  Only blocks of size 4 or
more call `det_int`.  The source is built from this module's integer tables
alone.  `detcalc.kernel_for` is the entry point.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import count
from math import isqrt

from .detcalc import _CUBIC_CELLS, det_int
from .groups import _is_prime


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


def _module_cells(d, actions):
    """Cells of an element acting on Z[x]/Phi_d, flat row-major, as linear forms.

    `actions` lists (slot, k, e, sign): the group element in `slot` maps x^j
    to sign * x^(e * (k + j)).  A form maps a coefficient name to its weight.
    """
    powers = _powers_mod(d)
    size = len(powers[0])
    cells = []
    for i in range(size):
        for j in range(size):
            form = {}
            for slot, k, e, sign in actions:
                w = sign * powers[e * (k + j) % d][i]
                if w:
                    form[f"c{slot}"] = form.get(f"c{slot}", 0) + w
            cells.append(form)
    return cells


def _period_cells(p, r):
    """Multiplication by r[0] + sum_m r[m] * eta_m on the real subfield of Q(zeta_p), p an odd prime.

    The basis is the Gaussian periods eta_m = zeta^m + zeta^-m, m = 1..h with
    h = (p - 1) / 2, which multiply as eta_i eta_j = eta_(i+j) + eta_(i-j),
    with eta_-m = eta_m and eta_0 = 2 = -2 * (eta_1 + ... + eta_h).  The
    cells are linear forms over the names r[0..h], flat row-major.
    """
    h = (p - 1) // 2

    def eta(m):
        m %= p
        return {k: -2 for k in range(1, h + 1)} if m == 0 else {min(m, p - m): 1}

    cells = [[{} for _ in range(h)] for _ in range(h)]  # cells[k-1][j-1]: eta_k in alpha * eta_j
    for j in range(1, h + 1):
        cells[j - 1][j - 1][r[0]] = 1
        for m in range(1, h + 1):
            for part in (eta(m + j), eta(m - j)):
                for k, w in part.items():
                    cell = cells[k - 1][j - 1]
                    cell[r[m]] = cell.get(r[m], 0) + w
    return [cell for row in cells for cell in row]


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


# A block is (how, forms, power): "det" is the determinant of a square matrix
# of linear forms, flat row-major; "phi9" is `_phi9_norm` of the six
# coefficients of an element of Z[x]/Phi_9; "real" is the norm of
# f(x) = sum_j b_j x^j on Z[x]/Phi_p for a prime p >= 5, given b_0..b_(p-1).


def _cyclic_blocks(n):
    """Blocks for `cyclic_group(n)`: slot k is g^k, which acts on each Z[x]/Phi_d as x^k."""
    actions = [(k, k, 1, 1) for k in range(n)]
    blocks = []
    for d in range(1, n + 1):
        if n % d:
            continue
        if d >= 5 and _is_prime(d):  # x^d = 1 there, so slot k folds onto x^(k mod d)
            blocks.append(("real", [{f"c{k}": 1 for k in range(j, n, d)} for j in range(d)], 1))
        elif d == 9:  # a multiplication matrix: its first column is the element itself
            blocks.append(("phi9", _module_cells(d, actions)[::6], 1))
        else:
            blocks.append(("det", _module_cells(d, actions), 1))
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
            blocks.append(("det", _module_cells(d, actions), 1 if d <= 2 else 2))
    return blocks


def _klein_blocks():
    """The four characters of K4, whose product is XOR of the indices."""
    return [
        ("det", [{f"c{s}": 1 if bin(s & t).count("1") % 2 == 0 else -1 for s in range(4)}], 1)
        for t in range(4)
    ]


def _cubic_cells(b_sign):
    """The 3x3 matrix A + b_sign * B of the S4 cubic factors, flat row-major, as linear forms."""
    cells = []
    for ap1, ap2, am1, am2, bp1, bp2, bm1, bm2 in _CUBIC_CELLS:
        form = {}
        for slot, w in ((ap1, 1), (ap2, 1), (am1, -1), (am2, -1),
                        (bp1, b_sign), (bp2, b_sign), (bm1, -b_sign), (bm2, -b_sign)):
            form[f"c{slot}"] = form.get(f"c{slot}", 0) + w
        cells.append(form)
    return cells


def _a4_blocks():
    """Blocks for `alternating_group4()`, the even half of the S4 order.

    The quartets of slots 0..11 are the cosets of the Klein subgroup, and
    quartet q maps to the generator power q of A4 / K4 = Z3.  Through Z3 come
    the trivial character u and the Eisenstein norm quadratic_form(u1, u2, u3);
    the 3-dimensional block is the A half of the S4 cubic matrices, cubed.
    """
    quartets = [(s, s // 4, 1, 1) for s in range(12)]
    return [
        ("det", _module_cells(1, quartets), 1),
        ("det", _module_cells(3, quartets), 1),
        ("det", _cubic_cells(0), 3),
    ]


def _s4_blocks():
    """Blocks for `symmetric_group4()`: D = l1 * l2 * q1^2 * d1^3 * d2^3.

    l1 is the trivial and l2 the sign character (slots 12..23 are odd).  The
    six quartets are the cosets of the Klein subgroup, and S4 / K4 = S3 = D:6
    with even quartet q mapped to r^q and odd quartet q to s r^(q-3); its
    2-dimensional block, occurring twice, is q1.  The 3-dimensional blocks
    d1 and d2 are the S4 cubic matrices A + B and A - B, each cubed.
    """
    quartets = [(s, s // 4, 1, 1) if s < 12 else (s, s // 4 - 3, -1, 1) for s in range(24)]
    return [
        ("det", [{f"c{s}": 1 for s in range(24)}], 1),
        ("det", [{f"c{s}": 1 if s < 12 else -1 for s in range(24)}], 1),
        ("det", _module_cells(3, quartets), 2),
        ("det", _cubic_cells(1), 3),
        ("det", _cubic_cells(-1), 3),
    ]


def _render(form) -> str:
    """Python source of a linear form {name: integer weight}."""
    terms = [(name, w) for name, w in form.items() if w]
    if not terms:
        return "0"
    out = ""
    for name, w in terms:
        out += (" - " if w < 0 else " + ") + (name if abs(w) == 1 else f"{abs(w)} * {name}")
    return out[3:] if out.startswith(" + ") else "-" + out[3:]


def _compile(kind, order, blocks):
    """Compile blocks (see `_cyclic_blocks`) into one straight-line coeffs -> int function."""
    lines = []
    names = count()

    def let(expr):
        """A name for an expression: a new local unless it is already one name or number."""
        if re.fullmatch(r"-?\w+", expr):
            return expr
        name = f"t{next(names)}"
        lines.append(f"    {name} = {expr}")
        return name

    def square(cells):
        """A name for the determinant of a square matrix of linear forms, flat row-major."""
        m = [let(_render(form)) for form in cells]
        if len(m) == 4:
            return let(f"{m[0]} * {m[3]} - {m[1]} * {m[2]}")
        if len(m) == 9:
            a, b, c, d, e, f, g, h, i = m
            return let(f"{a} * ({e} * {i} - {f} * {h}) - {b} * ({d} * {i} - {f} * {g})"
                       f" + {c} * ({d} * {h} - {e} * {g})")
        size = isqrt(len(m))
        rows = ", ".join(f"({', '.join(m[i:i + size])},)" for i in range(0, len(m), size))
        return let(f"det_int(({rows},))")

    def determinant(how, forms):
        if how == "det":
            return square(forms)
        b = [let(_render(form)) for form in forms]
        if how == "phi9":
            return let(f"_phi9_norm(({', '.join(b)},))")
        # N(f(zeta)) is the norm from the real subfield of f(zeta) f(zeta^-1) = r0 + sum rm eta_m,
        # where rm = sum_k b_k b_(k+m) are the cyclic autocorrelations
        p = len(b)
        r = [let(" + ".join(f"{b[k]} * {b[(k + m) % p]}" for k in range(p))) for m in range((p + 1) // 2)]
        return square(_period_cells(p, r))

    linear, larger = [], []
    for block in blocks:
        (linear if block[0] == "det" and len(block[1]) == 1 else larger).append(block)
    lines.append(f"    value = {' * '.join(f'({_render(forms[0])})' for _, forms, _ in linear) or '1'}")
    lines.append("    if not value:\n        return 0")
    result = "value"
    for how, forms, power in larger:
        d = determinant(how, forms)
        lines.append(f"    if not {d}:\n        return 0")
        result += f" * {d}" if power == 1 else f" * {d} ** {power}"
    head = ["def kernel(c):", f"    {''.join(f'c{s}, ' for s in range(order))}= c"]
    src = "\n".join(head + lines + [f"    return {result}", ""])
    namespace = {"det_int": det_int, "_phi9_norm": _phi9_norm}
    exec(compile(src, f"<gdet kernel {kind}>", "exec"), namespace)
    return namespace["kernel"]


_KIND = re.compile(r"([ZD])(\d+)")


@lru_cache(maxsize=None)
def kernel(kind: str):
    """The evaluator for a table kind (`GroupTable.kind`), built once."""
    if kind == "S4":
        return _compile(kind, 24, _s4_blocks())
    if kind == "K4":
        return _compile(kind, 4, _klein_blocks())
    if kind == "A4":
        return _compile(kind, 12, _a4_blocks())
    m = _KIND.fullmatch(kind)
    if not m:
        raise ValueError(f"no determinant kernel for group kind {kind!r}")
    order = int(m.group(2))
    if m.group(1) == "Z":
        return _compile(kind, order, _cyclic_blocks(order))
    return _compile(kind, order, _dihedral_blocks(order))
