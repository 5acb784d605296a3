"""Workload inputs, as a pure function of the benchmark seed.

Nothing here touches gdet: the program under test receives only the argv
lists and targets built below.  Every generator draws from its own
``random.Random`` seeded with a string of the workload name and the seed,
so the same seed always gives the same inputs and workloads never share a
stream.
"""

from __future__ import annotations

import random

WORKLOADS = ("identities", "scan", "certify", "small-groups")

# Seeds 1-10 were used while the benchmark was written and tuned.  Later
# performance claims must also hold on this one.
HELD_OUT_SEED = 7919

# scan: the documented range, and two full harness shards (SHARD_SIZE is
# 20000), so that GDET_THREADS=2 has two shards to run in parallel.
SCAN_RANGE = "-3:3"
SCAN_COUNT = 40_000
SCAN_ROUNDS = 32  # more rounds than a 60 s run can use
# Each round also reruns its first SCAN_CHECK vectors with --full, untimed,
# and checks every record against the documented draw and a reference det.
SCAN_CHECK = 200

# small-groups: group name and entry range.  The seed mirrors each scan's
# range (lo:hi becomes -hi:-lo, which negates every vector and keeps the
# cost of each determinant) and shuffles the order of the groups, so every
# seed does the same amount of work on different inputs.  lambda stops at
# the first |det| = 2 it meets, so a mirrored range would change its cost;
# it always gets the range given here.
SMALL_GROUPS = (
    ("K4", -1, 3), ("Z4", -1, 3), ("Z7", 0, 2), ("Z9", 0, 2), ("D8", 0, 2),
    ("D:6", -1, 3), ("S3", -1, 3),
)

# certify: a fixed rotation of request kinds and target classes, so that
# the latency mix is the same for every seed; only the values change.
CERTIFY_POOL = 1200
MEMBER_CLASSES = ("odd", "3-adic>=3", "2^8", "2^10", "2^12", "2^>=13")
NONMEMBER_CLASSES = (
    "odd:3mod4", "v2:bad", "2^8:cof3mod4", "2^10:cof1mod4", "v3:1or2", "zero",
)
TARGET_CLASSES = MEMBER_CLASSES + NONMEMBER_CLASSES
MAX_TARGET_BITS = 64


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"gdet-bench/{workload}/{seed}")


# the eight congruence identities of the paper, by their CLI names
IDENTITY_IDS = ("L_MOD2", "D_MOD2", "Q_MOD3", "PROD_MOD4", "SUM_MOD4",
                "D1_EXPANSION", "SUM_MOD8", "DIFF_MOD8")


def identities(seed: int) -> list[list[str]]:
    """The identity suite has no inputs, so the seed changes nothing here."""
    del seed
    return [["verify-identities", "--json"]]


def scan(seed: int) -> list[int]:
    """One gdet scan seed per round."""
    rng = _rng("scan", seed)
    return [rng.getrandbits(31) for _ in range(SCAN_ROUNDS)]


def small_groups(seed: int) -> list[tuple[str, int, int]]:
    """(group, lo, hi) of each scan, each range mirrored or not, in a seeded order."""
    rng = _rng("small-groups", seed)
    boxes = [(name, lo, hi) if rng.random() < 0.5 else (name, -hi, -lo)
             for name, lo, hi in SMALL_GROUPS]
    rng.shuffle(boxes)
    return boxes


def _odd_cofactor(rng: random.Random, bits: int, mod4: int | None) -> int:
    """A random odd integer of about `bits` bits, prime to 3, with a given residue mod 4."""
    bits = max(bits, 3)
    c = rng.randrange(1 << (bits - 1), 1 << bits) | 1
    if rng.random() < 0.5:
        c = -c
    if mod4 is None:
        mod4 = rng.choice((1, 3))
    if c % 4 != mod4:
        c = -c  # negating an odd number swaps 1 and 3 mod 4
    if c % 3 == 0:
        c += 4 if c > 0 else -4  # keeps the residue mod 4, leaves the multiples of 3
    return c


def target(rng: random.Random, label: str) -> int:
    """A target of |m| < 2^64 built in the given class (see TARGET_CLASSES)."""
    top = MAX_TARGET_BITS - 2

    def cof(shift_bits: int, mod4: int | None) -> int:
        return _odd_cofactor(rng, rng.randint(3, top - shift_bits), mod4)

    if label == "zero":
        return 0
    if label in ("odd", "odd:3mod4"):
        return cof(0, 1 if label == "odd" else 3)
    if label in ("3-adic>=3", "v3:1or2"):
        v3 = rng.randint(3, 9) if label == "3-adic>=3" else rng.choice((1, 2))
        # 3^v3 is 3 mod 4 for odd v3, so the cofactor fixes m = 1 (mod 4)
        return 3 ** v3 * cof(2 * v3, 3 if v3 % 2 else 1)
    if label in ("2^8", "2^8:cof3mod4"):
        return cof(8, 1 if label == "2^8" else 3) << 8
    if label in ("2^10", "2^10:cof1mod4"):
        return cof(10, 3 if label == "2^10" else 1) << 10
    if label == "2^12":
        return cof(12, None) << 12
    if label == "2^>=13":
        v2 = rng.randint(13, 48)
        return cof(v2, None) << v2
    if label == "v2:bad":
        v2 = rng.choice((1, 2, 3, 4, 5, 6, 7, 9, 11))
        return cof(v2, None) << v2
    raise ValueError(f"unknown target class {label!r}")


def _term(rng: random.Random) -> tuple[int, list[tuple[str, int]]]:
    """A coefficient and a product of generator powers, [(letter, exponent), ...]."""
    coeff = rng.choice((-3, -2, -1, 1, 2, 3))
    word = [rng.choice((("x", 1), ("y", 1), ("x", rng.randint(2, 3))))
            for _ in range(rng.randint(0, 3))]
    return coeff, word


def expression(rng: random.Random) -> tuple[str, list, bool]:
    """A random polynomial in the generators x = (1234) and y = (12).

    Returns its text, its terms as built, and whether the sum is squared;
    the terms let the benchmark check the answer without gdet's parser.
    gdet's grammar binds a unary minus to the atom after it ("-x^2" is
    (-x)^2), so a leading -1 * word is written "-(word)".
    """
    terms = [_term(rng) for _ in range(rng.randint(2, 5))]
    parts = []
    for coeff, word in terms:
        mag = abs(coeff)
        word_text = "*".join(letter if exp == 1 else f"{letter}^{exp}" for letter, exp in word)
        body = word_text if word and mag == 1 else f"{mag}*{word_text}" if word else str(mag)
        sign = "-" if coeff < 0 else "+"
        if parts:
            parts.append(f"{sign} {body}")
        elif coeff == -1 and word:
            parts.append(f"-({body})")
        else:
            parts.append(f"{'-' if coeff < 0 else ''}{body}")
    text = " ".join(parts)
    squared = rng.random() < 0.25
    if squared:
        text = f"({text})^2"
    return text, terms, squared


def certify(seed: int) -> list[dict]:
    """The request pool: det, member and witness in turn, target classes in rotation."""
    rng = _rng("certify", seed)
    pool = []
    for i in range(CERTIFY_POOL):
        kind = ("det", "member", "witness")[i % 3]
        if kind == "det":
            expr, terms, squared = expression(rng)
            pool.append({"kind": kind, "label": "expr", "expr": expr, "terms": terms,
                         "squared": squared,
                         "argv": ["det", f"--expr={expr}", "--factors", "--json"]})
            continue
        label = TARGET_CLASSES[(i // 3) % len(TARGET_CLASSES)]
        m = target(rng, label)
        argv = ["member", "--group", "S4", str(m)] if kind == "member" else ["witness", str(m)]
        pool.append({"kind": kind, "label": label, "m": m,
                     "member": label in MEMBER_CLASSES, "argv": argv})
    return pool


GENERATORS = {
    "identities": identities,
    "scan": scan,
    "certify": certify,
    "small-groups": small_groups,
}


def self_test() -> list[str]:
    """Problems with the generators: a seed that is not reproducible, or two seeds that agree."""
    problems = []
    for name, generate in GENERATORS.items():
        if generate(1) != generate(1):
            problems.append(f"{name}: seed 1 gives different inputs on two calls")
        if name != "identities" and generate(1) == generate(2):
            problems.append(f"{name}: seeds 1 and 2 give the same inputs")
    rng = random.Random(0)
    for label in TARGET_CLASSES:
        for _ in range(200):
            m = target(rng, label)
            if abs(m) >= 1 << MAX_TARGET_BITS:
                problems.append(f"target class {label}: |{m}| >= 2^{MAX_TARGET_BITS}")
                break
    return problems
