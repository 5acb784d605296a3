"""Canonical S4 data: element order, generator words and cycle labels, the six-term forms.

Everything here is keyed by the canonical element index 0..23: the twelve
even permutations first (coefficient slots a1..a12), then the twelve odd
permutations (slots b1..b12).  The generators are x = (1234) and y = (12);
products apply the right factor first.
"""

# Generator words realizing each element, in canonical order.
EVEN_WORDS = (
    "",
    "x^2",
    "y x^2 y",
    "x^2 y x^2 y",
    "x y",
    "x^3 y",
    "x y x^2",
    "x^3 y x^2",
    "y x^3",
    "x^2 y x",
    "x^2 y x^3",
    "y x",
)

ODD_WORDS = (
    "x",
    "x^3",
    "x y x^2 y",
    "y x^2 y x",
    "x^3 y x",
    "x y x^3",
    "x y x",
    "x^3 y x^3",
    "y",
    "x^2 y x^2",
    "y x^2",
    "x^2 y",
)

# Cycle labels for the same elements, an independent transcription of the
# canonical order (group construction cross-checks words against these).
EVEN_NAMES = (
    "e",
    "(13)(24)",
    "(14)(23)",
    "(12)(34)",
    "(134)",
    "(243)",
    "(142)",
    "(123)",
    "(143)",
    "(132)",
    "(124)",
    "(234)",
)

ODD_NAMES = (
    "(1234)",
    "(1432)",
    "(24)",
    "(13)",
    "(14)",
    "(23)",
    "(1243)",
    "(1342)",
    "(12)",
    "(34)",
    "(1324)",
    "(1423)",
)

# Slot index lists (within the a- or b-half) for the six-term linear forms
# entering the cross term w = u1*B1 + u2*B2 + u3*B3 + v1*A1 + v2*A2 + v3*A3.
A_FORMS = (
    (0, 1, 4, 7, 8, 9),
    (0, 2, 5, 7, 9, 11),
    (0, 3, 6, 7, 9, 10),
)

B_FORMS = (
    (0, 1, 6, 7, 10, 11),
    (1, 2, 4, 7, 9, 10),
    (0, 2, 4, 6, 9, 11),
)
