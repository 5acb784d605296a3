"""Group tables: laws, the canonical S4 order, and generator words."""

import hashlib
import math
import pickle
import re

import pytest

from gdet import (
    build_group,
    check_group_laws,
    cyclic_group,
    dihedral_group,
    klein_group,
    parse_expr,
    parse_gen_word,
)
from gdet.groups import (
    S4_GENERATORS,
    GroupTable,
    _is_prime,
    generating_set,
    perm_from_cycles,
)
from gdet.s4data import EVEN_NAMES, EVEN_WORDS, ODD_NAMES, ODD_WORDS

ALL_KINDS = ["Z1", "Z2", "Z3", "Z4", "Z9", "K4", "D8", "D:6", "A4", "S4"]


def first_nonassociative_triple(g):
    """The brute-force oracle for associativity: the first failing (i, j, k), or None."""
    mul = g.mul
    n = g.order
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if mul[mul[i][j]][k] != mul[i][mul[j][k]]:
                    return i, j, k
    return None


def associativity_verdict(g):
    """The triple check_group_laws reports, after checking that it really fails, or None."""
    try:
        check_group_laws(g)
    except ValueError as exc:
        i, j, k = map(int, re.fullmatch(r"associativity fails at \((\d+),(\d+),(\d+)\)",
                                        str(exc)).groups())
        assert g.mul[g.mul[i][j]][k] != g.mul[i][g.mul[j][k]]
        return i, j, k
    return None


# a loop of order 5, the least order of a loop that is not a group: every
# element is its own inverse, and (1*2)*2 = 3*2 = 4 while 1*(2*2) = 1*0 = 1
LOOP5 = GroupTable("loop5", 5, (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
), (0, 1, 2, 3, 4), 0, ("e", "a", "b", "c", "d"))


# a loop of order 6 whose elements 0, 3 and 5 associate in the middle of every
# triple: its first generator, 5, shows nothing, and only the second, 4, fails;
# (1*1)*2 = 0*2 = 2 while 1*(1*2) = 1*3 = 4
LOOP6 = GroupTable("loop6", 6, (
    (0, 1, 2, 3, 4, 5),
    (1, 0, 3, 4, 5, 2),
    (2, 3, 5, 1, 0, 4),
    (3, 4, 1, 5, 2, 0),
    (4, 5, 0, 2, 3, 1),
    (5, 2, 4, 0, 1, 3),
), (0, 1, 4, 5, 2, 3), 0, ("e", "a", "b", "c", "d", "f"))


@pytest.mark.parametrize("loop", [LOOP5, LOOP6], ids=["loop5", "loop6"])
def test_group_laws_reject_a_nonassociative_loop(loop):
    assert first_nonassociative_triple(loop) is not None
    assert associativity_verdict(loop) is not None


def test_light_associativity_test_uses_every_generator():
    mul = LOOP6.mul
    assert generating_set(LOOP6) == (5, 4)
    assert all(mul[mul[i][5]][k] == mul[i][mul[5][k]] for i in range(6) for k in range(6))
    assert associativity_verdict(LOOP6)[1] == 4


def swapped_row_mutants(g):
    """Tables that swap two entries of one row, keeping the identity and inverse laws."""
    e = g.identity_index
    for i in (1, g.order - 1):
        j, k = [c for c in range(g.order) if c not in (e, g.inv[i])][-2:]
        row = list(g.mul[i])
        row[j], row[k] = row[k], row[j]
        mul = g.mul[:i] + (tuple(row),) + g.mul[i + 1:]
        yield GroupTable(g.kind, g.order, mul, g.inv, e, g.names)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_group_laws_exhaustive(kind):
    g = build_group(kind)
    check_group_laws(g)  # raises on any violation
    assert g.mul[g.identity_index][3 % g.order] == 3 % g.order
    # Light's test over the generators agrees with all triples, on g and on mutants of it
    assert first_nonassociative_triple(g) is None
    if g.order < 4:
        return  # no row has two entries to swap outside the identity and inverse columns
    for mutant in swapped_row_mutants(g):
        assert first_nonassociative_triple(mutant) is not None
        assert associativity_verdict(mutant) is not None


def test_trivial_group():
    g = cyclic_group(1)
    assert g.order == 1
    assert g.mul == ((0,),)


def test_s4_canonical_order(s4):
    assert s4.order == 24
    assert s4.names[4] == "(134)"
    assert s4.names[12] == "(1234)"
    assert s4.names[:12] == EVEN_NAMES
    assert s4.names[12:] == ODD_NAMES


def test_s4_alpha_squared(s4):
    # (1234) * (1234) = (13)(24), the element at index 1
    x = S4_GENERATORS["x"][0]
    assert s4.mul[x][x] == 1
    assert s4.names[1] == "(13)(24)"


def _element(s4, expr):
    """The group element that `expr`, a product of generator powers, evaluates to."""
    coeffs = parse_expr(expr, s4).coeffs
    assert sorted(coeffs) == [0] * 23 + [1], f"{expr!r} is no group element"
    return coeffs.index(1)


def test_all_24_words_map_to_their_index(s4):
    seen = set()
    for index, word in enumerate(EVEN_WORDS + ODD_WORDS):
        got = _element(s4, "*".join(word.split()) or "1")
        assert got == index, f"word {word!r} gave index {got}, expected {index}"
        seen.add(got)
    assert seen == set(range(24))


def test_word_examples(s4):
    assert _element(s4, "x^4") == s4.identity_index
    assert _element(s4, "x*y") == 4
    assert _element(s4, "y*x*y") == _element(s4, "x^3*y*x^3")
    assert parse_gen_word("xy") == parse_gen_word("x y") == [("x", 1), ("y", 1)]


def test_word_negative_exponent(s4):
    assert parse_gen_word("x^-1 y^3") == [("x", -1), ("y", 3)]
    assert _element(s4, "x*x^3") == s4.identity_index  # x^-1 is x^3


def test_cycle_names_agree_with_multiplication(s4):
    # composing the labelled permutations reproduces the Cayley table
    perms = [perm_from_cycles(name) for name in s4.names]
    index = {p: i for i, p in enumerate(perms)}
    for i in range(24):
        for j in range(24):
            composed = tuple(perms[i][perms[j][t]] for t in range(4))
            assert s4.mul[i][j] == index[composed]


def test_word_parse_errors():
    with pytest.raises(ValueError):
        parse_gen_word("z")
    with pytest.raises(ValueError):
        parse_gen_word("x^")


@pytest.mark.parametrize("digit", ["\u0663", "\uff13", "\u09e9"])  # Arabic-Indic, fullwidth, Bengali 3
def test_words_and_cycle_labels_take_ascii_digits_only(digit):
    assert parse_gen_word("x^3") == [("x", 3)]
    with pytest.raises(ValueError, match="bad exponent"):
        parse_gen_word(f"x^{digit}")
    assert perm_from_cycles("(13)") == (2, 1, 0, 3)
    with pytest.raises(ValueError, match="bad cycle label"):
        perm_from_cycles(f"(1{digit})")


def test_word_requires_s4():
    with pytest.raises(ValueError, match="S4 table only"):
        parse_expr("x", klein_group())


@pytest.mark.parametrize("bad", ["Z0", "Z65", "D:3", "D:2", "Q8", ""])
def test_build_group_rejects(bad):
    with pytest.raises(ValueError):
        build_group(bad)


def test_is_prime_matches_trial_division():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(200_000):
        assert _is_prime(n) == trial_division(n), n


@pytest.mark.parametrize("n, prime", [
    # strong pseudoprimes to the bases 2; 2, 3; 2, 3, 5, 7; and 2 through 23
    (2047, False),
    (1373653, False),
    (3215031751, False),
    (3825123056546413051, False),
    (2 ** 61 - 1, True),
    (10 ** 18 + 3, True),
    (2 ** 64 - 59, True),  # the largest prime below 2^64
])
def test_is_prime_beyond_trial_division(n, prime):
    assert _is_prime(n) is prime


def test_is_prime_rejects_2_to_the_64():
    with pytest.raises(ValueError, match="below 2\\^64"):
        _is_prime(2 ** 64)


def test_dihedral_structure():
    g = dihedral_group(8)
    assert g.order == 8
    # reflections are involutions
    for i in range(4, 8):
        assert g.mul[i][i] == g.identity_index


def test_group_matrix_rows_are_permutations(s4):
    from gdet import group_matrix

    coeffs = tuple(range(24))
    mat = group_matrix(s4, coeffs)
    for row in mat:
        assert sorted(row) == list(range(24))
    for j in range(24):
        assert sorted(mat[i][j] for i in range(24)) == list(range(24))
    # row of the identity element is the coefficients reordered by inverse
    assert mat[0] == [coeffs[s4.inv[j]] for j in range(24)]


# sha256 over repr((kind, order, mul, inv, identity_index, names)) of every
# table below, in this order, as the modular, XOR and case-by-case dihedral
# tables gave them before every table was built from permutations
PINNED_NAMES = ([f"Z{n}" for n in range(1, 65)] + [f"D:{n}" for n in range(4, 65, 2)]
                + ["K4", "A4", "S4"])
PINNED_DIGEST = "ba6cdefab62778955944d5067910f088605ab11757a9ce6886d1947422bd0212"


def test_tables_match_pinned_digest():
    h = hashlib.sha256()
    for name in PINNED_NAMES:
        g = build_group(name)
        h.update(repr((g.kind, g.order, g.mul, g.inv, g.identity_index, g.names)).encode())
    assert h.hexdigest() == PINNED_DIGEST


def test_generating_set_generates_every_table():
    for name in PINNED_NAMES:
        g = build_group(name)
        gens = generating_set(g)
        reached = {g.identity_index, *gens}
        while True:
            grown = reached | {g.mul[a][b] for a in reached for b in reached}
            if grown == reached:
                break
            reached = grown
        assert reached == set(range(g.order)), name
        assert len(gens) <= (3 if name == "S4" else 2), name


def test_klein_table_is_the_d4_table():
    # the K4 kernel is the D:4 blocks, which needs the same multiplication
    k4, d4 = klein_group(), dihedral_group(4)
    assert (k4.mul, k4.inv) == (d4.mul, d4.inv)


@pytest.mark.parametrize("first, second", [
    ("K4", "Klein4"), ("D:8", "D8"), ("D:6", "S3"), ("Z7", "Zn:7"), ("Z9", "Z9"), ("S4", "S4"),
])
def test_build_group_returns_one_object_per_table(first, second):
    assert build_group(first) is build_group(second)


def test_group_table_is_an_immutable_value():
    """Equal and hashed on its fields, as a frozen dataclass was; assignment raises."""
    g = build_group("D8")
    copy = GroupTable(g.kind, g.order, g.mul, g.inv, g.identity_index, g.names)
    assert copy is not g and copy == g and hash(copy) == hash(g)
    assert hash(g) == hash((g.kind, g.order, g.mul, g.inv, g.identity_index, g.names))
    assert g != build_group("Z8") and g != (g.kind, g.order) and repr(g) == "GroupTable(D8, order=8)"
    assert pickle.loads(pickle.dumps(g)) == g
    with pytest.raises(AttributeError):
        g.order = 4
    with pytest.raises(AttributeError):
        del g.kind
