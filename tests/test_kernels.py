"""Box walkers against the straight-line kernels rendered from the same statements."""

import itertools
import random
import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from gdet import (build_group, det_exact, kernels, rep_factor_check, ring_element, s4_det_fast,
                  s4_factors, sympoly)
from gdet.detcalc import _CUBIC_CELLS
from gdet.sympoly import IdentityId, check_identity
from gdet.harness import ScanConfig, _box_block, _scan_shard, lambda_scan

# every table kind of order <= 12
SMALL_KINDS = [f"Z{n}" for n in range(1, 13)] + [f"D{n}" for n in range(4, 13, 2)] + ["K4", "A4"]
# every table kind of order <= 24
ALL_KINDS = [f"Z{n}" for n in range(1, 25)] + [f"D{n}" for n in range(4, 25, 2)] + ["K4", "A4", "S4"]
ORDER = {kind: build_group(f"D:{kind[1:]}" if kind[0] == "D" else kind).order
         for kind in SMALL_KINDS + ["S4", "Z15"]}


def _box_vector(lo, hi, n, j):
    """Vector j of the box [lo, hi]^n: the digits of j, the last slot fastest."""
    digits = []
    for _ in range(n):
        j, r = divmod(j, hi - lo + 1)
        digits.append(lo + r)
    return tuple(reversed(digits))


def _walk_counts(kind, values):
    counts = Counter()
    zeros = kernels.walker(kind)(values, counts)
    if zeros:
        counts[0] = zeros
    return counts


def _draw_aligned_shard(data, n, lo, hi, most):
    """An aligned range of [lo, hi]^n: width^m vectors, at most `most`, from a multiple of width^m."""
    width = hi - lo + 1
    m = 0
    while m < n and width ** (m + 1) <= most:
        m += 1
    size = width ** data.draw(st.integers(0, m), label="m")
    start = size * data.draw(st.integers(0, width ** n // size - 1), label="shard")
    return start, size


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_walker_counts_match_kernel_on_any_index_range(data):
    """Any aligned index range is one product block, in index order."""
    kind = data.draw(st.sampled_from(SMALL_KINDS), label="kind")
    n = ORDER[kind]
    lo = data.draw(st.integers(-3, 2), label="lo")
    hi = data.draw(st.integers(lo, lo + 3), label="hi")
    start, size = _draw_aligned_shard(data, n, lo, hi, 1500)
    block = _box_block(lo, hi, n, start, size)
    vectors = list(itertools.product(*block))
    assert vectors == [_box_vector(lo, hi, n, j) for j in range(start, start + size)]
    assert _walk_counts(kind, block) == Counter(map(kernels.kernel(kind), vectors))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_walker_counts_match_kernel_on_any_values(data):
    """Any sequence per slot, repeats allowed; S4 and Z15 vary only a few slots."""
    kind = data.draw(st.sampled_from(SMALL_KINDS + ["S4", "Z15"]), label="kind")
    n = ORDER[kind]
    support = data.draw(st.sets(st.integers(0, n - 1), max_size=6), label="support")
    values = [tuple(data.draw(st.lists(st.integers(-3, 3), min_size=1,
                                       max_size=3 if slot in support else 1)))
              for slot in range(n)]
    want = Counter(map(kernels.kernel(kind), itertools.product(*values)))
    assert _walk_counts(kind, values) == want


RULE_GROUPS = ["Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z9", "Z10", "K4", "D:6", "D8", "A4"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exhaustive_shard_report_matches_kernel_path(data):
    """An aligned shard counted by the walker reports what the kernel's index-order walk (--full) does."""
    group = data.draw(st.sampled_from(RULE_GROUPS), label="group")
    n = build_group(group).order
    lo = data.draw(st.integers(-2, 1), label="lo")
    hi = data.draw(st.integers(lo, lo + 3), label="hi")
    start, size = _draw_aligned_shard(data, n, lo, hi, 1500)
    stop = start + size
    cfg = ScanConfig(group=group, lo=lo, hi=hi, mode="exhaustive")
    full = ScanConfig(group=group, lo=lo, hi=hi, mode="exhaustive", full=True)
    assert _scan_shard((cfg, start, stop)).to_json() == _scan_shard((full, start, stop)).to_json()


def _kernel_minimum(kind, values):
    dets = (abs(v) for v in map(kernels.kernel(kind), itertools.product(*values)))
    return min((v for v in dets if v >= 2), default=None)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_lambda_scan_is_the_kernel_minimum(data):
    group = data.draw(st.sampled_from(
        ["Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "Z9", "Z12", "D:4", "D:6", "D:8",
         "D:10", "K4", "A4", "S4", "Z15"]), label="group")
    g = build_group(group)
    lo = data.draw(st.integers(-2, 1), label="lo")
    hi = data.draw(st.integers(lo, lo + 2), label="hi")
    support = None
    if g.order > 12 or data.draw(st.booleans(), label="with support"):
        support = data.draw(st.lists(st.integers(0, g.order - 1), unique=True, max_size=5),
                            label="support")
    slots = range(g.order) if support is None else support
    assume((hi - lo + 1) ** len(slots) <= 4000)
    values = [range(lo, hi + 1) if slot in slots else (0,) for slot in range(g.order)]
    assert lambda_scan(group, lo, hi, support=support) == _kernel_minimum(g.kind, values)


@pytest.mark.parametrize("sink", ["count", "min"])
def test_walker_compiles_for_every_kind_up_to_order_24(sink):
    """Python nests at most 20 blocks: the outer slots of large orders share one loop."""
    for kind in ALL_KINDS:
        assert callable(kernels.walker(kind, sink))


# value = c0 + c1 + c2, a block c2 - 1 that reads only the outermost slot and
# a block c1 + 1 that reads only the middle one: the walker skips the vectors
# below a zero block in one step
_PROGRAM = (3, [
    ("value", "product", [[(1, ("c0",)), (1, ("c1",)), (1, ("c2",))]]),
    ("value", "check", None),
    ("t0", "sum", [(1, ("c2",)), (-1, ("1",))]),
    ("t0", "check", None),
    ("t1", "sum", [(1, ("c1",)), (1, ("1",))]),
    ("t1", "check", None),
], "value * t0 ** 3 * t1")


@pytest.mark.parametrize("values", [
    [range(-1, 3), (5, -2, 0), range(-3, 1)],
    [(4,), range(-2, 2), (1, 7, 1)],
    [range(3), (-1, 2), range(0, 3)],
])
def test_walker_counts_the_vectors_below_a_zero_block(values):
    kernel = kernels._compile("test", "kernel", kernels._kernel_source(*_PROGRAM))
    vectors = list(itertools.product(*values))
    walk = kernels._compile("test", "walk", kernels._walker_source(*_PROGRAM, "count"))
    counts = Counter()
    zeros = walk(values, counts)
    assert zeros == sum(1 for v in vectors if not kernel(v))
    counts[0] = zeros
    assert counts == Counter(map(kernel, vectors))
    least = kernels._compile("test", "walk", kernels._walker_source(*_PROGRAM, "min"))
    assert least(values) == min(abs(kernel(v)) for v in vectors if abs(kernel(v)) >= 2)


def _named_sums(kind):
    """The statements of a kind's program that define a quartet sum or a cubic-cell half."""
    order, stmts, _ = kernels._program(kind)
    return [(i, stmt) for i, stmt in enumerate(stmts) if re.fullmatch(r"[qab]\d+", stmt[0])]


@pytest.mark.parametrize("kind, quartets, halves", [
    ("S4", 6, ["a", "b"]),
    ("A4", 3, ["a"]),
])
def test_klein_kinds_name_each_quartet_sum_and_cell_half_once(kind, quartets, halves):
    order, stmts, _ = kernels._program(kind)
    named = {name: arg for _, (name, how, arg) in _named_sums(kind)}
    assert len(named) == len(_named_sums(kind))  # each one statement
    want = [f"q{q}" for q in range(quartets)] + [f"{h}{i}" for h in halves for i in range(9)]
    assert sorted(named) == sorted(want)
    for q in range(quartets):
        assert named[f"q{q}"] == [(1, (f"c{s}",)) for s in range(4 * q, 4 * q + 4)]
    for i, cell in enumerate(_CUBIC_CELLS):
        for h, slots in zip(halves, (cell[:4], cell[4:])):
            assert named[f"{h}{i}"] == [(w, (f"c{s}",)) for s, w in zip(slots, (1, 1, -1, -1))]
    # the determinants of the cubic matrices read nine cells each: a half itself
    # in A4, a sum or difference of the two halves in S4
    defs = {name: arg for name, how, arg in stmts if how == "sum"}
    cubics = [arg[1] for _, how, arg in stmts if how == "text" and len(arg[1]) == 9]
    assert len(cubics) == len(halves)
    for sign, cells in zip((1, -1), cubics):
        for i, cell in enumerate(cells):
            if kind == "A4":
                assert cell == f"a{i}"
            else:
                assert defs[cell] == [(1, (f"a{i}",)), (sign, (f"b{i}",))]


@pytest.mark.parametrize("kind", ["S4", "A4"])
def test_named_sums_come_just_before_their_first_reader(kind):
    """So a zero l1 * l2 or q1 ends the evaluation before any cell half is summed."""
    order, stmts, _ = kernels._program(kind)
    named = dict(_named_sums(kind))
    for i, (name, _, _) in named.items():
        first = next(j for j in range(i + 1, len(stmts))
                     if name in kernels._reads(stmts[j][1], stmts[j][2]))
        assert all(j in named for j in range(i + 1, first)), (name, stmts[first])
    checks = [i for i, (_, how, _) in enumerate(stmts) if how == "check"]
    halves = [i for i, (name, _, _) in named.items() if name[0] in "ab"]
    assert min(halves) > checks[1]  # after the checks of l1 * l2 (or the sum) and of q1



def _q1_negated_blocks(kind, blocks=kernels._blocks):
    """The blocks of a kind; for S4, A and B of the d = 3 norm block swapped.

    That norm is q1, a function of A A' - B B', so the swap negates q1 and
    nothing else.  q1 enters the determinant squared, so the kernel's values
    do not change.
    """
    order, found, named = blocks(kind)
    if kind == "S4":
        found = [(how, (args[0], args[2], args[1]) if how == "norm" else args, power)
                 for how, args, power in found]
    return order, found, named


def _linear_swapped_blocks(kind, blocks=kernels._blocks):
    """The blocks of a kind; for S4, its two linear characters l1 and l2 swapped.

    The kernel multiplies them, so its values do not change.
    """
    order, found, named = blocks(kind)
    if kind == "S4":
        assert [len(forms) for _, forms, _ in found[:2]] == [1, 1]  # two 1x1 blocks
        found = [found[1], found[0], *found[2:]]
    return order, found, named


@pytest.fixture
def mutate_blocks(monkeypatch):
    """Installs a `kernels._blocks` mutant on cold caches; forgotten afterwards."""
    def clear():
        for cached in (kernels._program, kernels.kernel, kernels.walker, kernels.factors,
                       sympoly.build_symbolic):
            cached.cache_clear()

    clear()
    yield lambda mutant: monkeypatch.setattr(kernels, "_blocks", mutant)
    monkeypatch.undo()
    clear()


def test_q1_mutant_passes_elimination_but_fails_the_identities(mutate_blocks):
    """The identity suite and the representations read the kernel's own q1 block."""
    mutate_blocks(_q1_negated_blocks)
    s4 = build_group("S4")
    rng = random.Random(20)
    for _ in range(50):
        e = ring_element(s4, [rng.randint(-3, 3) for _ in range(24)])
        assert s4_det_fast(e) == det_exact(s4, e)
    e = ring_element(s4, [1, 0, 0, 0, 1] + [0] * 7 + [3] + [0] * 11)  # 1 + x + x*y + 2*y^2*x
    assert s4_factors(e).q1 == 8  # -8 unmutated
    assert not check_identity(IdentityId.Q_MOD3).holds
    assert rep_factor_check() is False


def test_linear_swap_mutant_passes_elimination_but_fails_d1_expansion(mutate_blocks):
    """The profile and the identity suite read l1 and l2 from the kernel's own blocks."""
    mutate_blocks(_linear_swapped_blocks)
    s4 = build_group("S4")
    rng = random.Random(21)
    for _ in range(50):
        e = ring_element(s4, [rng.randint(-3, 3) for _ in range(24)])
        assert s4_det_fast(e) == det_exact(s4, e)
    p = s4_factors(ring_element(s4, [1, 0, 0, 0, 1] + [0] * 7 + [3] + [0] * 11))
    assert (p.l1, p.l2) == (-1, 5)  # (5, -1) unmutated
    assert not check_identity(IdentityId.D1_EXPANSION).holds


def _block_product(kind, blocks):
    """The product of `factors`' returns, each raised to its block's power in `_program`."""
    _, _, result = kernels._program(kind)
    powers = [1] * (len(blocks) - len(result) + 1) + [power for _, power in result[1:]]
    value = 1
    for block, power in zip(blocks, powers, strict=True):
        value *= block ** power
    return value


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_factors_multiply_to_the_kernel(kind):
    rng = random.Random(kind)
    n = kernels._program(kind)[0]
    for _ in range(20):
        c = [rng.randint(-3, 3) for _ in range(n)]
        assert _block_product(kind, kernels.factors(kind)(c)) == kernels.kernel(kind)(c)


@pytest.mark.parametrize("kind", ["K4", "D6", "Z7", "A4", "S4"])
def test_factors_run_on_polynomial_variables(kind):
    """Each block, expanded on SparsePoly variables, takes the blocks' values at integer points."""
    n = kernels._program(kind)[0]
    polys = kernels.factors(kind)([sympoly.SparsePoly.var(i) for i in range(n)])
    rng = random.Random(kind)
    for _ in range(10):
        c = [rng.randint(-3, 3) for _ in range(n)]
        point = c + [0] * (sympoly.NVARS - n)
        assert [p.evaluate(point) for p in polys] == list(kernels.factors(kind)(c))
