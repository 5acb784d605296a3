"""Group tables: laws, the canonical S4 order, and generator words."""

import hashlib
import math

import pytest

from gdet import (
    build_group,
    check_group_laws,
    cyclic_group,
    dihedral_group,
    klein_group,
    parse_gen_word,
    word_to_element,
)
from gdet.groups import S4_ALPHA_INDEX, S4_BETA_INDEX, _is_prime, perm_from_cycles
from gdet.s4data import EVEN_NAMES, EVEN_WORDS, ODD_NAMES, ODD_WORDS

ALL_KINDS = ["Z1", "Z2", "Z3", "Z4", "Z9", "K4", "D8", "D:6", "A4", "S4"]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_group_laws_exhaustive(kind):
    g = build_group(kind)
    check_group_laws(g)  # raises on any violation
    assert g.mul[g.identity_index][3 % g.order] == 3 % g.order


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
    assert s4.mul[S4_ALPHA_INDEX][S4_ALPHA_INDEX] == 1
    assert s4.names[1] == "(13)(24)"


def test_all_24_words_map_to_their_index(s4):
    seen = set()
    for index, word in enumerate(EVEN_WORDS + ODD_WORDS):
        got = word_to_element(s4, word)
        assert got == index, f"word {word!r} gave index {got}, expected {index}"
        seen.add(got)
    assert seen == set(range(24))


def test_word_examples(s4):
    assert word_to_element(s4, "x^4") == 0
    assert word_to_element(s4, "x y") == 4
    assert word_to_element(s4, "xy") == 4
    assert word_to_element(s4, "y x y") == word_to_element(s4, "x^3 y x^3")


def test_word_negative_exponent(s4):
    assert word_to_element(s4, "x^-1") == word_to_element(s4, "x^3")
    assert word_to_element(s4, "x x^-1") == 0


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


def test_word_requires_s4():
    with pytest.raises(ValueError):
        word_to_element(klein_group(), "x")


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


def test_klein_table_is_the_d4_table():
    # the K4 kernel is the D:4 blocks, which needs the same multiplication
    k4, d4 = klein_group(), dihedral_group(4)
    assert (k4.mul, k4.inv) == (d4.mul, d4.inv)


@pytest.mark.parametrize("first, second", [
    ("K4", "Klein4"), ("D:8", "D8"), ("D:6", "S3"), ("Z7", "Zn:7"), ("Z9", "Z9"), ("S4", "S4"),
])
def test_build_group_returns_one_object_per_table(first, second):
    assert build_group(first) is build_group(second)
