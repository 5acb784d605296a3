"""Compiled block kernels: the group determinant of every table group.

Over Q the regular representation of a group splits into blocks, one per
rational irreducible representation, so the group determinant is the
product of the block determinants, each raised to the block's multiplicity.
Every block below is written over Z, so the product is exact.  Two builders
make every block of a cyclic or dihedral group, and of a quotient onto one:

- `_cyclic_blocks`: sum_k a_k g^k acts on Z[x]/Phi_d, for each d | n, as
  multiplication by A(x) = sum_k a_k x^k, so the circulant determinant is
  the product of the resultants Res(Phi_d, A) (Newman 1980; Laquer 1980);
- `_dihedral_blocks`: sum_k a_k r^k + sum_k b_k s r^k acts on the same
  modules with r as x and s as x -> x^-1, and for d >= 3 that block occurs
  twice.

For d <= 2 a block is a linear character: A(+-1), or A(+-1) +- B(+-1).  For
d >= 3 it is a norm: with zeta a primitive d-th root of unity, its
determinant is the norm of A(zeta) A(zeta^-1) - B(zeta) B(zeta^-1) (B = 0
for cyclic groups) from the real subfield Q(zeta + zeta^-1), a
phi(d)/2-square determinant whose cells are linear in the autocorrelations
of A and B (`_real_cells`).  The groups use them as follows:

- Z<n> and D:<2n>: the builders on the coefficients themselves;
- K4: the D:4 blocks, since `groups.klein_group` is the D:4 table;
- A4: A4 / K4 = Z3 on the three Klein cosets, and the A half of the S4
  cubic matrices, cubed;
- S4: the paper's factorization l1 * l2 * q1^2 * d1^3 * d2^3, where
  S4 / K4 = S3 = D:6 gives l1, l2 and q1, and d1, d2 are the cubic matrices.

Each table kind is turned once into one list of statements (`_program`):
the coefficients are c0, c1, ..., each distinct linear form,
autocorrelation and block cell is named once, the linear characters are
multiplied, determinants up to 3x3 are written inline, and a check ends
the evaluation at the first zero block.  A4 and S4 also name the sums
their blocks share, as `detcalc.s4_forms` does (`_klein_sums`): the
quartet sums q0, q1, ..., which l1, l2 and q1 (A4: its Z3 blocks) read,
and the halves a<i> and b<i> of the nine cubic cells, each of which is
a<i> + b<i> in d1 and a<i> - b<i> in d2 (A4: a<i> alone).  A named sum is
emitted just before the first statement that reads it, so an early exit
still skips the sums of the later blocks.  Only norm blocks with
phi(d) >= 8 call `det_int`.  The source is built from this module's
integer tables alone.  Six renderings of the same list are compiled:

- `kernel`, a straight-line coeffs -> int function, one line per
  statement; `detcalc.kernel_for` is its entry point, for single vectors
  and index-order walks (--full, and the violations of a scan);
- `random_walker`, the same lines in one loop over the vectors of a random
  shard: each vector is drawn into c0, c1, ... by the scan's RNG
  (`_random_source`, the one text of the draw, which `random_vectors`
  renders as a stream of tuples), a check that fails goes on to the next
  vector, and each nonzero value is counted; random scans count with it;
- `factors`, the same lines without the checks, returning each linear
  character and each larger block instead of their product:
  `detcalc.s4_forms` runs it on integers and on polynomial variables, so
  the profile and the identities read all five S4 factors here;
- `walker`, one nested loop per slot over a box of vectors, slot 0
  innermost (every folded form of Z_p reads the last slot), each statement
  at the level of the deepest slot it reads and each sum split into a
  chain of partial sums, so that a loop adds only the terms of its own
  slot; exhaustive scans of K4, D:4, A4, S4 and Z<n> with n > 16 count
  with it, and so does `lambda --scan-range --support`, whose other slots
  take only 0.  A check that fails skips the vectors below it, so it
  counts only nonzero values.  Python allows at most 20 statically nested
  blocks, so past 16 slots the outer slots share one loop over their
  product;
- `necklace_walker`, for Z<n> with n <= 16: the walker's loops and
  statements, run over one vector per rotation orbit of a box, its
  necklace.  A one-slot rotation is left translation by the generator,
  which multiplies the determinant by (-1)^(n-1), so one evaluation counts
  the whole orbit; exhaustive Z<n> scans count with it.  It takes the same
  block as the product walker, each slot a run of integers that are its
  digits, and also counts only nonzero values;
- the half walker, for D<2n> with n >= 3 (`_half_source`): every block of
  a dihedral kind reads the r^k half A of the slots and the s r^k half B
  only through numbers of each half alone, A(+-1), B(+-1) and each half's
  autocorrelations, which the norm cells read as s_A - s_B.  So a
  statement is split by the half of the slots it reads (`_half_split`),
  after each linear statement is added into the sums that read it; each
  half's loops list the profile of each of its vectors, the parts of the
  statements that read both halves, and the pair statements and checks
  run once per pair of distinct profiles, counting the product of their
  multiplicities.  Exhaustive scans of D:6 and up count with it; K4 and
  D:4, whose half profile is the half itself, keep the product walker.

`count_walker(kind)` picks the walker that counts an exhaustive shard, and
`random_walker(kind)` counts a random one.  The harness hands each box
walker its block reversed (`harness._walker_block`), so the block's
one-value slots are the walker's outermost loops.  `lambda --scan-range`
reads its minimum off the counts of the same blocks (`harness.lambda_scan`).
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from functools import lru_cache
from math import isqrt
from random import Random

from .detcalc import _CUBIC_CELLS, det_int


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


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _combine(terms):
    """The linear form sum w * form over (w, form) pairs; a form maps a name to its weight."""
    out = {}
    for w, form in terms:
        for name, v in form.items():
            out[name] = out.get(name, 0) + w * v
    return {name: v for name, v in out.items() if v}


def _fold(d, a):
    """sum_k a[k] x^k with x^len(a) = 1, reduced mod Phi_d for d | len(a): phi(d) linear forms."""
    powers = _powers_mod(d)
    return [_combine((powers[k % d][i], form) for k, form in enumerate(a))
            for i in range(len(powers[0]))]


def _real_cells(d):
    """Multiplication by s_0 + sum_(m=1..2h-1) s_m E_m on Z[zeta + zeta^-1], zeta = zeta_d, d >= 3.

    E_m = zeta^m + zeta^-m, so E_0 = 2 and E_m E_j = E_(m+j) + E_|m-j|, and
    with h = phi(d) / 2 the ring has the basis 1, E_1, ..., E_(h-1).  The
    palindromic Phi_d = sum_i phi_i x^i is x^h (phi_h + sum_(m=1..h) phi_(h+m) E_m)
    at x = zeta, so E_h = -(phi_h + phi_(h+1) E_1 + ... + phi_(2h-1) E_(h-1)).
    The cells are flat row-major, as linear forms over m (the index of s_m);
    their determinant is the norm of the element down to Q.
    """
    phi = _cyclotomic(d)
    h = (len(phi) - 1) // 2
    basis = [[int(i == k) for i in range(h)] for k in range(h)]
    e = [[2 * x for x in basis[0]]] + basis[1:] + [[-c for c in phi[h:2 * h]]]  # E_0..E_h

    def times(m, j):
        """E_m times the basis element j, which is 1 for j = 0 and E_j after."""
        return e[m] if j == 0 else [a + b for a, b in zip(e[m + j], e[abs(m - j)])]

    while len(e) < 3 * h - 1:  # E_(k+1) = E_1 E_k - E_(k-1)
        nxt = [-b for b in e[-2]]
        for j, w in enumerate(e[-1]):
            nxt = [n + w * t for n, t in zip(nxt, times(1, j))]
        e.append(nxt)
    cells = [{} for _ in range(h * h)]
    for j in range(h):
        for m in range(2 * h):  # s_0 multiplies 1, and s_m multiplies E_m
            for i, w in enumerate(basis[j] if m == 0 else times(m, j)):
                if w:
                    cells[i * h + j][m] = w
    return cells


# A block is (how, forms, power).  "det" is the determinant of a square matrix
# of linear forms, flat row-major.  "norm" is given (d, A, B), d >= 3, with
# A and B elements of Z[x]/Phi_d whose coefficients are linear forms (B may be
# empty); it is the norm of A(zeta) A(zeta^-1) - B(zeta) B(zeta^-1), that is
# `_real_cells` with s_m = sum_k a_k a_(k+m) - sum_k b_k b_(k+m).


def _cyclic_blocks(a):
    """Blocks of sum_k a[k] g^k in Z[Z_n], n = len(a), for linear forms a[k]."""
    return [("det", _fold(d, a), 1) if d <= 2 else ("norm", (d, _fold(d, a), []), 1)
            for d in _divisors(len(a))]


def _dihedral_blocks(a, b):
    """Blocks of sum_k a[k] r^k + sum_k b[k] s r^k in Z[D_n], n = len(a) = len(b).

    For d <= 2, twisting s by -1 turns the character A + B into A - B; for
    d >= 3, over C the block is [[A(zeta), B(zeta^-1)], [B(zeta), A(zeta^-1)]].
    """
    blocks = []
    for d in _divisors(len(a)):
        fa, fb = _fold(d, a), _fold(d, b)
        if d <= 2:
            blocks += [("det", [_combine([(1, fa[0]), (sign, fb[0])])], 1) for sign in (1, -1)]
        else:
            blocks.append(("norm", (d, fa, fb), 2))
    return blocks


def _klein_sums(order):
    """The named sums of A4 and S4: the quartet sums q<i> and the cubic-cell halves a<i>, b<i>.

    The quartets of slots are the cosets of the Klein subgroup.  Cell i of
    the cubic matrices is a<i> + b<i> or a<i> - b<i>, where a<i> and b<i>
    each add two slots and subtract two (`detcalc._CUBIC_CELLS`).
    """
    sums = {f"q{q}": {f"c{s}": 1 for s in range(4 * q, 4 * q + 4)} for q in range(order // 4)}
    for i, cell in enumerate(_CUBIC_CELLS):
        sums[f"a{i}"] = {f"c{slot}": w for slot, w in zip(cell[:4], (1, 1, -1, -1))}
        sums[f"b{i}"] = {f"c{slot}": w for slot, w in zip(cell[4:], (1, 1, -1, -1))}
    return sums


def _cubic_cells(b_sign):
    """The 3x3 matrix A + b_sign * B of the S4 cubic factors, flat row-major, over the halves."""
    return [_combine([(1, {f"a{i}": 1}), (b_sign, {f"b{i}": 1})]) for i in range(len(_CUBIC_CELLS))]


_ATOM = re.compile(r"-?\w+")


def _sum(form):
    """The terms (weight, (name,)) of a linear form {name: integer weight}."""
    return [(w, (name,)) for name, w in form.items() if w]


def _sum_text(terms, head=""):
    """Python source of the sum of w * x * y * ... over (w, (x, y, ...)), added to `head` if given."""
    out = head
    for w, names in terms:
        body = " * ".join(names)
        out += (" - " if w < 0 else " + ") + (body if abs(w) == 1 else f"{abs(w)} * {body}")
    if head:
        return out
    if not out:
        return "0"
    return out[3:] if out.startswith(" + ") else "-" + out[3:]


def _text(how, arg):
    """Python source of the right-hand side of a statement (see `_program`)."""
    if how == "sum":
        return _sum_text(arg)
    if how == "product":
        return " * ".join(f"({_sum_text(terms)})" for terms in arg) or "1"
    return arg[0]


def _reads(how, arg):
    """The names a statement reads (see `_program`)."""
    if how == "sum":
        return [name for _, names in arg for name in names]
    if how == "product":
        return [name for terms in arg for _, names in terms for name in names]
    return arg[1] if how == "text" else []


@lru_cache(maxsize=None)
def _program(kind):
    """The statements of a table kind's determinant: (order, statements, result).

    A statement is (name, how, arg).  `how` is "sum", a sum of weighted
    products of names (`_sum_text`); "product", a product of such sums;
    "text", fixed source given with the names it reads; or "check", which
    ends the evaluation with 0 when `name` is 0.  `result` lists (name, power)
    for "value", the linear characters' product, then each larger block.
    The kernel writes each statement as one line; the box walker places it
    at the loop level of the deepest slot it reads (`_walker_source`).  A
    named sum of the kind (`_blocks`) is emitted just before the first
    statement that reads it, so a check that ends the evaluation early also
    skips the sums only later blocks read.
    """
    order, blocks, named = _blocks(kind)
    stmts = []
    known = {}
    pending = dict(named)

    def add(name, how, arg):
        """Append a statement, after the named sums it reads that are not emitted yet."""
        for read in _reads(how, arg):
            read = read.lstrip("-")
            if read in pending:
                add(read, "sum", _sum(pending.pop(read)))
        stmts.append((name, how, arg))

    def let(how, arg):
        """A name for an expression: a name or number as it is, else one local per distinct text."""
        expr = _text(how, arg)
        if _ATOM.fullmatch(expr):
            return expr
        if expr not in known:
            known[expr] = f"t{len(known)}"
            add(known[expr], how, arg)
        return known[expr]

    def square(cells):
        """A name for the determinant of a square matrix of linear forms, flat row-major."""
        m = [let("sum", _sum(form)) for form in cells]
        if len(m) == 1:
            return m[0]
        if len(m) == 4:
            return let("text", (f"{m[0]} * {m[3]} - {m[1]} * {m[2]}", m))
        if len(m) == 9:
            a, b, c, d, e, f, g, h, i = m
            return let("text", (f"{a} * ({e} * {i} - {f} * {h}) - {b} * ({d} * {i} - {f} * {g})"
                                f" + {c} * ({d} * {h} - {e} * {g})", m))
        size = isqrt(len(m))
        rows = ", ".join(f"({', '.join(m[i:i + size])},)" for i in range(0, len(m), size))
        return let("text", (f"det_int(({rows},))", m))

    def determinant(how, forms):
        if how == "det":
            return square(forms)
        d, a, b = forms
        a = [let("sum", _sum(form)) for form in a]
        b = [let("sum", _sum(form)) for form in b]
        cells = _real_cells(d)
        s = {}
        for m in sorted({m for cell in cells for m in cell}):  # only the s_m the cells use
            terms = [(1, (a[k], a[k + m])) for k in range(len(a) - m)]
            terms += [(-1, (b[k], b[k + m])) for k in range(len(b) - m)]
            s[m] = let("sum", terms)
        return square([{s[m]: w for m, w in cell.items()} for cell in cells])

    linear, larger = [], []
    for block in blocks:
        (linear if block[0] == "det" and len(block[1]) == 1 else larger).append(block)
    add("value", "product", [_sum(forms[0]) for _, forms, _ in linear])
    add("value", "check", None)
    result = [("value", 1)]
    for how, forms, power in larger:
        d = determinant(how, forms)
        add(d, "check", None)
        result.append((d, power))
    return order, stmts, result


def _product_text(result):
    """The source of the product of name ** power over a `_program` result."""
    return " * ".join(name if power == 1 else f"{name} ** {power}" for name, power in result)


def _compile(kind, role, src, det=det_int):
    namespace = {"det_int": det, "product": itertools.product, "Counter": Counter, "Random": Random}
    exec(compile(src, f"<gdet {role} {kind}>", "exec"), namespace)
    return namespace[role]


_KIND = re.compile(r"([ZD])([0-9]+)")


def _blocks(kind):
    """The order of a table kind, the blocks of its determinant and the named sums they read.

    The named sums map a name to a linear form over the slots; the blocks
    of A4 and S4 read the quartet sums and cubic-cell halves (`_klein_sums`)
    by name, and the other kinds name none.
    """
    m = _KIND.fullmatch(kind)
    order = {"S4": 24, "A4": 12, "K4": 4}.get(kind) or (int(m.group(2)) if m else 0)
    if not order:
        raise ValueError(f"no determinant kernel for group kind {kind!r}")
    slots = [{f"c{s}": 1} for s in range(order)]
    named = _klein_sums(order) if kind in ("S4", "A4") else {}
    quartets = [{f"q{q}": 1} for q in range(order // 4)]
    if kind == "S4":
        # S4 / K4 = S3 = D:6, even quartet q mapped to r^q and odd quartet q to
        # s r^(q-3), gives l1, l2 and q1; d1 and d2 are the cubic matrices A + B, A - B
        blocks = _dihedral_blocks(quartets[:3], quartets[3:])
        blocks += [("det", _cubic_cells(1), 3), ("det", _cubic_cells(-1), 3)]
    elif kind == "A4":  # A4 / K4 = Z3, and the A half of the cubic matrices
        blocks = _cyclic_blocks(quartets) + [("det", _cubic_cells(0), 3)]
    elif kind == "K4" or m.group(1) == "D":  # K4 has the D:4 table
        blocks = _dihedral_blocks(slots[:order // 2], slots[order // 2:])
    else:
        blocks = _cyclic_blocks(slots)
    return order, blocks, named


def _straight_lines(stmts, on_zero):
    """One line per statement, in order; a check that fails runs `on_zero`."""
    lines = []
    for target, how, arg in stmts:
        if how == "check":
            lines += [f"if not {target}:", f"    {on_zero}"]
        else:
            lines.append(f"{target} = {_text(how, arg)}")
    return lines


def _kernel_source(order, stmts, returns, name="kernel"):
    """The source of a straight-line function `name`: one line per statement, in order."""
    lines = [f"def {name}(c):", f"    {''.join(f'c{s}, ' for s in range(order))}= c"]
    lines += [f"    {line}" for line in _straight_lines(stmts, "return 0")]
    return "\n".join(lines + [f"    return {returns}", ""])


def _random_source(order, head, body, tail):
    """The source of a loop over vectors start..stop-1 of a random scan, drawn by RNG v1.

    This is the one text of the v1 draw (`harness.RNG_ALGO`): vector j is the
    stream of `Random((seed << 32) + j).randint(lo, hi)`, drawn the way
    CPython's randint draws it (randrange -> _randbelow_with_getrandbits):
    getrandbits(k) for k = width.bit_length(), redrawn while it is not below
    the width.  One generator is reseeded per vector instead of built per
    vector, and randint's argument checks are skipped.  The reseed calls the
    C-level `_random.Random.seed` that `random.Random.seed` ends in: for an
    int seed the wrapper only checks the seed's type and clears the Gaussian
    cache, which getrandbits never reads, so both set the same state.  Entry
    s is drawn into c<s>; then the loop runs `body`.  `head` is the
    function's line and the lines before the loop, `tail` the lines after it.
    """
    lines = head + [
        "    rng = Random()",
        "    reseed, getrandbits = super(Random, rng).seed, rng.getrandbits",
        "    width = hi - lo + 1",
        "    k = width.bit_length()",
        "    base = seed << 32",
        "    for j in range(base + start, base + stop):",
        "        reseed(j)",
    ]
    for s in range(order):
        lines += [f"        c{s} = getrandbits(k)", f"        while c{s} >= width:",
                  f"            c{s} = getrandbits(k)", f"        c{s} += lo"]
    return "\n".join(lines + [f"        {line}" for line in body] + tail + [""])


@lru_cache(maxsize=None)
def random_vectors(order: int):
    """The vectors of a random scan of `order` slots, as a generator function, built once.

    `vectors(seed, start, stop, lo, hi)` yields vectors start..stop-1 of the
    scan with that seed over [lo, hi], each a tuple (`_random_source`).
    """
    head = ["def vectors(seed, start, stop, lo, hi):"]
    body = [f"yield {''.join(f'c{s}, ' for s in range(order))}"]
    return _compile(f"{order} slots", "vectors", _random_source(order, head, body, []))


@lru_cache(maxsize=None)
def random_walker(kind: str):
    """The walker that counts a random shard of a table kind, built once.

    `walk(seed, start, stop, lo, hi, counts)` draws vectors start..stop-1 of
    the random scan with that seed over [lo, hi], as `random_vectors` does,
    runs the kernel's statements on each in the same loop, a check that
    fails going on to the next vector, and adds each nonzero determinant to
    the Counter `counts`; it returns None.
    """
    order, stmts, result = _program(kind)
    head = ["def walk(seed, start, stop, lo, hi, counts):", "    out = []", "    append = out.append"]
    body = _straight_lines(stmts, "continue") + [f"append({_product_text(result)})"]
    # Counter.update counts a list faster than a dict update per vector
    return _compile(kind, "walk", _random_source(order, head, body, ["    counts.update(out)"]))


@lru_cache(maxsize=None)
def kernel(kind: str):
    """The evaluator coeffs -> int for a table kind (`GroupTable.kind`), built once."""
    order, stmts, result = _program(kind)
    return _compile(kind, "kernel", _kernel_source(order, stmts, _product_text(result)))


@lru_cache(maxsize=None)
def factors(kind: str):
    """coeffs -> the linear characters, then the larger blocks (S4: l1, l2, q1, d1, d2), built once.

    The kernel's statements, without its checks and its product of the
    linear characters.  They run over any ring, `sympoly.SparsePoly`
    included, unless a norm block of phi(d) >= 8 (Z13, Z16, ...) calls
    `det_int`, whose `//` needs integers.
    """
    order, stmts, result = _program(kind)
    linear = next(arg for _, how, arg in stmts if how == "product")
    body = [stmt for stmt in stmts if stmt[1] not in ("check", "product")]
    returns = [_sum_text(terms) for terms in linear] + [name for name, _ in result[1:]]
    source = _kernel_source(order, body, f"({', '.join(returns)},)", "factors")

    def integer_det(rows):
        if not all(isinstance(cell, int) for row in rows for cell in row):
            raise ValueError(f"the factors of {kind} have a norm block of phi(d) >= 8, which needs "
                             f"integer elimination (det_int): its entries must be integers")
        return det_int(rows)

    return _compile(kind, "factors", source, integer_det)


# Python refuses more than 20 statically nested blocks, so past this many
# slots the outer ones share one loop over their product.
_MAX_LOOPS = 16


def _levels(order, first=0):
    """The loop levels of slots first..order-1, each a tuple of slots, outermost first.

    The first slot is innermost, and past `_MAX_LOOPS` slots the outer ones
    share the first level.
    """
    slots = list(reversed(range(first, order)))  # every folded form of Z_p reads the last slot
    outer = max(1, len(slots) - _MAX_LOOPS + 1)
    return [tuple(slots[:outer])] + [(s,) for s in slots[outer:]]


def _placed(levels, stmts):
    """The lines of each loop level: each statement at the level of the deepest slot it reads.

    A sum becomes a chain of partial sums, one per level that has terms: so a
    loop only adds the terms of its own slot.  A check that fails at level d
    skips every vector below it, and so counts none of them.
    """
    depth = {f"c{s}": d for d, level in enumerate(levels) for s in level}
    body = [[] for _ in levels]
    partials = {}

    def deepest(names):
        return max((depth.get(name.lstrip("-"), 0) for name in names), default=0)

    def chain(terms):
        """(source, level) of a sum; the partial sums of the shallower levels are emitted."""
        groups = {}
        for term in terms:
            groups.setdefault(deepest(term[1]), []).append(term)
        head = ""
        *shallow, last = sorted(groups) or [0]
        for d in shallow:
            head = _sum_text(groups[d], head)
            if not _ATOM.fullmatch(head):
                if head not in partials:
                    partials[head] = f"p{len(partials)}"
                    body[d].append(f"{partials[head]} = {head}")
                head = partials[head]
        return _sum_text(groups.get(last, []), head), last

    for name, how, arg in stmts:
        if how == "check":
            d = deepest([name])
            body[d] += [f"if not {name}:", "    continue"]
            continue
        if how == "sum":
            text, d = chain(arg)
        elif how == "product":
            factors = [chain(terms) for terms in arg]
            d = max((d for _, d in factors), default=0)
            text = " * ".join(f"({t})" for t, _ in factors) or "1"
        else:
            text, d = arg[0], deepest(arg[1])
        depth[name] = d
        body[d].append(f"{name} = {text}")
    return body


def _walker_source(order, stmts, result):
    """The source of a box walker: one loop per slot, slot 0 innermost (`_levels`).

    The statements are placed by `_placed`, so the walker counts only the
    vectors that pass every check: the nonzero determinants.
    """
    levels = _levels(order)
    body = _placed(levels, stmts)
    # Counter.update counts a list faster than a dict update per vector
    body[-1].append(f"append({result})")
    lines = ["def walk(values, counts):", f"    {''.join(f'v{s}, ' for s in range(order))}= values",
             "    out = []", "    append = out.append"] + _loops(levels, body)
    if len(levels) > 3:
        # counted after each pass of the three innermost loops, so the list
        # never holds a heap int for every vector of a block
        pad = "    " * (len(levels) - 2)
        lines += [f"{pad}counts.update(out)", f"{pad}out.clear()"]
    return "\n".join(lines + ["    counts.update(out)", ""])


def _loops(levels, body):
    """The nested loops over `levels`, one indent in, each with its lines of `body` (`_placed`)."""
    lines = []
    for d, level in enumerate(levels):
        pad = "    " * (d + 1)
        names = ", ".join(f"c{s}" for s in level)
        source = f"product({', '.join(f'v{s}' for s in level)})" if len(level) > 1 else f"v{level[0]}"
        lines.append(f"{pad}for {names} in {source}:")
        lines += [f"{pad}    {line}" for line in body[d]]
    return lines


def _necklace_source(order, stmts, result):
    """The source of a necklace walker of Z<order>, order <= `_MAX_LOOPS`.

    The loops and statements of `_walker_source`, slot order - 1 outermost,
    run only over the prenecklaces of the box, in the order of Fredricksen,
    Kessler and Maiorana (Ruskey, Savage and Wang 1992).  Each slot of the
    block is a run of consecutive integers, and the entries themselves are
    the digits word[1], word[2], ..., for the slots from order - 1 down;
    level t starts at word[t - p], where p (`lyn`) is the period of
    word[1..t-1], and a prenecklace of period p is a necklace when p
    divides the order.  A one-slot rotation of the coefficients is left
    translation by the generator, an n-cycle of the slots, so it multiplies
    D by (-1)^(n-1).  So each necklace of period p stands for p vectors: p
    of value D for odd n, and p/2 of D and p/2 of -D for even n, where an
    odd period would force D = -D = 0.  (A group determinant is 0 on every
    periodic vector, a multiple of the sum of a subgroup, so its checks
    skip them.)  Like the product walker, it counts only nonzero values.
    """
    n = order
    levels = _levels(n)
    body = _placed(levels, stmts)
    bounds = ", ".join(f"(f{s}, e{s})" for s in range(n))
    # word[0] is read only by level 1, whose slot n - 1 starts at its first entry
    lines = ["def walk(block, counts):", f"    {bounds}, = [(v[0], v[-1] + 1) for v in block]",
             f"    word = [f{n - 1}] * {n + 1}", "    lyn0 = 1", "    out = []",
             "    append = out.append", "    tally = Counter()"]
    for t, ((s,), placed) in enumerate(zip(levels, body), 1):
        pad = "    " * t
        lines += [f"{pad}low{t} = word[{t} - lyn{t - 1}]",
                  f"{pad}for c{s} in range(low{t} if low{t} > f{s} else f{s}, e{s}):"]
        if t < n:
            lines.append(f"{pad}    word[{t}] = c{s}")
        lines.append(f"{pad}    lyn{t} = lyn{t - 1} if c{s} == low{t} else {t}")
        if t == n:  # a prenecklace that is no necklace
            lines += [f"{pad}    if {n} % lyn{n}:", f"{pad}        continue"]
        lines += [f"{pad}    {line}" for line in placed]
    pad = "    " * (n + 1)
    # an aperiodic necklace is tallied, and its n rotations counted at the end
    lines += [f"{pad}r = {result}", f"{pad}if lyn{n} == {n}:", f"{pad}    append(r)"]
    if n % 2:
        lines += [f"{pad}else:", f"{pad}    counts[r] += lyn{n}"]
    else:
        lines += [f"{pad}elif lyn{n} % 2:",
                  f"{pad}    raise AssertionError(f'a nonzero determinant {{r}} of odd period {{lyn{n}}}')",
                  f"{pad}else:", f"{pad}    counts[r] += lyn{n} // 2", f"{pad}    counts[-r] += lyn{n} // 2"]
    if n > 3:  # tallied after each pass of the three innermost loops, as in `_walker_source`
        pad = "    " * (n - 2)
        lines += [f"{pad}tally.update(out)", f"{pad}out.clear()"]
    lines += ["    tally.update(out)", "    for r, m in tally.items():"]
    if n % 2:
        lines.append(f"        counts[r] += {n} * m")
    else:
        lines += [f"        m *= {n // 2}", "        counts[r] += m", "        counts[-r] += m"]
    return "\n".join(lines + [""])


@lru_cache(maxsize=None)
def walker(kind: str):
    """The box walker of a table kind, built once.

    `values` holds one sequence of entries per slot, and `walk(values,
    counts)` visits every vector of their product, in an order of its own.
    It adds each nonzero determinant to the Counter `counts` and returns
    None: a scan derives its zeros from its total.
    """
    order, stmts, result = _program(kind)
    return _compile(kind, "walk", _walker_source(order, stmts, _product_text(result)))


@lru_cache(maxsize=None)
def necklace_walker(kind: str):
    """The necklace walker of a cyclic kind Z<n> with n <= 16, built once; None for other kinds.

    `walk(block, counts)` takes the block as the product walker does, one
    sequence of entries per slot, but each a run of consecutive integers,
    and adds to the Counter `counts` each nonzero determinant of every
    vector whose rotation orbit has its least member, read from slot n - 1
    down, in the block; it returns None.  Over the whole box that is every
    vector of it, and over blocks that partition one box, each orbit once.
    """
    m = _KIND.fullmatch(kind)
    if not m or m.group(1) != "Z" or int(m.group(2)) > _MAX_LOOPS:
        return None
    order, stmts, result = _program(kind)
    return _compile(kind, "walk", _necklace_source(order, stmts, _product_text(result)))


def _half_split(order, stmts, result):
    """A D<2n> program split by the half of the slots each statement reads.

    The slots 0..n-1 hold the r^k half A, the slots n..2n-1 the s r^k half
    B.  A sum that reads one half only is that half's.  A sum over both
    halves in which no term mixes them is their sum: its part in each half
    is kept as a polynomial over that half's names, and a later sum that
    reads it as a lone factor of a term reads its parts instead, so a
    linear statement adds up the parts of the statements it reads.  Every
    other statement is a pair statement (a dihedral kind's products are its
    linear characters, which are sums of both halves); a name it reads from
    the halves is the sum of one profile variable per half, x<i> over A and
    y<j> over B, one per distinct part up to sign.  Returns (A statements,
    B statements, A profile, B profile, pair statements): a half's
    statements end with its profile variables.
    """
    n = order // 2
    side = {f"c{s}": int(s >= n) for s in range(order)}  # the half of a one-half name
    parts = {}  # a sum over both halves: its A part and B part, {sorted names: weight} each
    halves, keys = ([], []), ({}, {})
    pair, defined = [], set()

    def split(terms):
        """The parts (A, B) of a sum, or None when a term reads both halves or a pair name."""
        out = ({}, {})
        for w, names in terms:
            if len(names) == 1 and names[0] in parts:
                pieces = parts[names[0]]
            else:
                sides = {side.get(name) for name in names}
                if None in sides or len(sides) > 1:
                    return None
                pieces = [{}, {}]
                pieces[sides.pop()][tuple(sorted(names))] = 1
            for half, poly in zip(out, pieces):
                for mono, v in poly.items():
                    half[mono] = half.get(mono, 0) + w * v
        return tuple({mono: v for mono, v in half.items() if v} for half in out)

    def profile(h, poly):
        """The terms (sign, (variable,)) of a half's part: its profile variable, up to sign."""
        if not poly:
            return []
        monos = sorted(poly)
        sign = 1 if poly[monos[0]] > 0 else -1
        key = tuple((mono, sign * poly[mono]) for mono in monos)
        if key not in keys[h]:
            keys[h][key] = var = f"{'xy'[h]}{len(keys[h])}"
            halves[h].append((var, "sum", [(w, mono) for mono, w in key]))
            defined.add(var)  # the pair loop's own
        return [(sign, (keys[h][key],))]

    def need(name):
        """Define a name of the halves for the pair statements, as its profile variables."""
        if name not in defined:
            pieces = parts.get(name) or [{(name,): 1} if h == side[name] else {} for h in (0, 1)]
            pair.append((name, "sum", profile(0, pieces[0]) + profile(1, pieces[1])))
            defined.add(name)

    for stmt in stmts:
        name, how, arg = stmt
        pieces = split(arg) if how == "sum" else None
        if pieces and pieces[0] and pieces[1]:
            parts[name] = pieces
        elif pieces:
            side[name] = h = int(not pieces[0])
            halves[h].append((name, how, [(w, mono) for mono, w in pieces[h].items()]))
        else:
            if how == "product":
                stmt = (name, how, [profile(0, a) + profile(1, b) for a, b in map(split, arg)])
            for read in [name] if how == "check" else _reads(*stmt[1:]):
                need(read)
            pair.append(stmt)
            defined.add(name)
    for name, _ in result:
        need(name)
    return halves[0], halves[1], list(keys[0].values()), list(keys[1].values()), pair


def _half_source(order, stmts, result):
    """The source of a half walker of a D<2n> kind (`_half_split`).

    Each half's loops (`_levels`) run over that half's slots of the block
    and list its profile, the tuple of its profile variables, per vector;
    the Counter of each list holds every distinct profile once, with its
    multiplicity.  The pair statements then run once per pair of profiles,
    and a pair that passes every check adds the product of the two
    multiplicities to its value.
    """
    n = order // 2
    a_stmts, b_stmts, a_keys, b_keys, pair = _half_split(order, stmts, result)
    lines = ["def halves(values, counts):", f"    {''.join(f'v{s}, ' for s in range(order))}= values",
             "    out = []", "    append = out.append"]
    for half, levels, hstmts, hkeys in (("half_a", _levels(n), a_stmts, a_keys),
                                        ("half_b", _levels(order, n), b_stmts, b_keys)):
        body = _placed(levels, hstmts)
        body[-1].append(f"append(({''.join(f'{key}, ' for key in hkeys)}))")
        lines += [f"    {half} = Counter()"] + _loops(levels, body)
        if len(levels) > 3:  # as in `_walker_source`, the list never holds a whole half
            pad = "    " * (len(levels) - 2)
            lines += [f"{pad}{half}.update(out)", f"{pad}out.clear()"]
        lines += [f"    {half}.update(out)", "    out.clear()"]
    lines += ["    half_b = list(half_b.items())", "    tally = {}", "    get = tally.get",
              f"    for ({''.join(f'{key}, ' for key in a_keys)}), m_a in half_a.items():",
              f"        for ({''.join(f'{key}, ' for key in b_keys)}), m_b in half_b:"]
    (body,) = _placed([()], pair)
    lines += [f"            {line}" for line in body]
    lines += [f"            r = {_product_text(result)}", "            tally[r] = get(r, 0) + m_a * m_b",
              "    counts.update(tally)", ""]
    return "\n".join(lines)


@lru_cache(maxsize=None)
def count_walker(kind: str):
    """The walker that counts an exhaustive shard of a table kind, built once.

    `walk(block, counts)` takes one block of a partition of a box, one run
    of consecutive integers per slot; it adds to the Counter `counts` the
    nonzero determinants it is responsible for, and returns None.  For Z<n>
    with n <= 16 that is the necklace walker (`necklace_walker`), which
    counts the whole rotation orbit of each vector that is its orbit's least
    member; for D<2n> with n >= 3 the half walker (`_half_source`), and for
    every other kind the product walker (`walker`), which each count exactly
    the block's vectors.
    """
    m = _KIND.fullmatch(kind)
    if m and m.group(1) == "D" and int(m.group(2)) >= 6:
        order, stmts, result = _program(kind)
        return _compile(kind, "halves", _half_source(order, stmts, result))
    return necklace_walker(kind) or walker(kind)
