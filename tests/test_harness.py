"""Scan harness: exhaustive oracles, reproducibility, persistence."""

import contextlib
import hashlib
import itertools
import json
import multiprocessing
import random
import tracemalloc
import types
from collections import Counter

import pytest

from gdet import (
    ScanConfig, ScanReport, build_group, classify, det_int, group_matrix, harness, kernels,
    lambda_scan, parse_rule, scan, write_report,
)
from gdet.cli import run
from gdet.detcalc import kernel_for
from gdet.harness import _box_block, _scan_shard


def test_z4_exhaustive_no_violations():
    report = scan(ScanConfig(group="Z4", lo=-2, hi=2, mode="exhaustive"))
    assert report.total == 625
    assert report.violations == []


def test_klein_exhaustive_no_violations():
    report = scan(ScanConfig(group="K4", lo=-2, hi=2, mode="exhaustive"))
    assert report.total == 625
    assert report.violations == []


def test_z3_exhaustive_no_violations():
    report = scan(ScanConfig(group="Z3", lo=-3, hi=3, mode="exhaustive"))
    assert report.total == 343
    assert report.violations == []


def test_zero_range_single_vector():
    report = scan(ScanConfig(group="Z4", lo=0, hi=0, mode="exhaustive"))
    assert report.total == 1
    assert report.zeros == 1
    assert report.violations == []
    assert report.value_counts == {0: 1}


def test_s4_random_scan_no_violations():
    report = scan(ScanConfig(group="S4", lo=-3, hi=3, mode="random", count=3000, seed=9))
    assert report.total == 3000
    assert report.violations == []
    # odd determinants are 1 mod 4; even ones start at valuation 8
    for v, n in report.v2_hist.items():
        assert v == 0 or v == 8 or v == 10 or v >= 12, (v, n)


def test_equal_seeds_give_identical_reports():
    cfg = dict(group="S4", lo=-3, hi=3, mode="random", count=500, seed=4)
    r1 = scan(ScanConfig(**cfg))
    r2 = scan(ScanConfig(**cfg))
    assert r1.to_json() == r2.to_json()


def test_scan_config_copies_from_its_fields_and_reports_its_json_config():
    random_cfg = ScanConfig("S4", -3, 3, "random", 500, 4, "out", True)
    exhaustive = ScanConfig(group="Z4", lo=-2, hi=2, mode="exhaustive")
    for cfg in (random_cfg, exhaustive):
        assert type(cfg)(**cfg.as_dict()) == cfg
    assert random_cfg.report_config() == {
        "group": "S4", "lo": -3, "hi": 3, "mode": "random", "rng": harness.RNG_ALGO,
        "count": 500, "seed": 4}
    assert exhaustive.report_config() == {
        "group": "Z4", "lo": -2, "hi": 2, "mode": "exhaustive", "rng": None}
    assert scan(exhaustive).config == exhaustive.report_config()


def test_different_seeds_differ():
    r1 = scan(ScanConfig(group="S4", lo=-3, hi=3, mode="random", count=500, seed=4))
    r2 = scan(ScanConfig(group="S4", lo=-3, hi=3, mode="random", count=500, seed=5))
    assert r1.to_json() != r2.to_json()


def test_merge_is_shard_independent():
    # one shard vs many aligned shards must agree record for record
    cfg = ScanConfig(group="Z4", lo=-2, hi=2, mode="exhaustive")
    whole = _scan_shard((cfg, 0, 625))
    parts = [_scan_shard((cfg, a, a + 125)) for a in range(0, 625, 125)]
    merged = parts[0]
    for p in parts[1:]:
        merged.merge(p)
    assert merged.total == whole.total
    assert merged.value_counts == whole.value_counts
    assert merged.residue_mod24 == whole.residue_mod24
    assert merged.to_json() == whole.to_json()


@pytest.mark.parametrize("first, second", [
    ({}, {0: 2, 5: 1}),
    ({5: 2, 0: 1, -3: 4, 2 ** 80: 1}, {2 ** 80: 3, 11: 1, 0: 2, -8: 5}),
    ({5: 1, -3: 2}, {7: 1}),
    ({5: 1, -3: 2}, {}),
])
def test_merge_adds_value_counts_as_counter_update_does(first, second):
    expected = Counter(first)
    expected.update(Counter(second))
    merged = _filled_report({}, value_counts=Counter(first))
    merged.merge(_filled_report({}, value_counts=Counter(second)))
    assert list(merged.value_counts.items()) == list(expected.items())


def _box_vector(lo, hi, n, j):
    """Vector j of the box [lo, hi]^n, read from the digits of j: the last slot runs fastest."""
    coeffs = [0] * n
    for slot in reversed(range(n)):
        j, r = divmod(j, hi - lo + 1)
        coeffs[slot] = lo + r
    return coeffs


@pytest.mark.parametrize("start, stop", [
    (0, 5**3),
    (312 * 5**3, 313 * 5**3),  # mid-box: 312 is 2222 in base 5
    (5**7 - 5**3, 5**7),       # up to the last vector
], ids=["first", "middle", "last"])
def test_exhaustive_shard_walks_index_order(start, stop):
    cfg = ScanConfig(group="Z7", lo=-1, hi=3, mode="exhaustive", full=True)
    g = build_group("Z7")
    report = _scan_shard((cfg, start, stop))
    assert report.total == stop - start
    want = [_box_vector(-1, 3, 7, j) for j in range(start, stop)]
    assert [record["coeffs"] for record in report.records] == want
    assert [record["det"] for record in report.records] == [
        det_int(group_matrix(g, coeffs)) for coeffs in want
    ]


@pytest.mark.parametrize("start, size", [
    (1, 5),     # start is no multiple of the size
    (5, 25),
    (0, 6),     # the size is no power of the width
    (0, 5**8),  # more than the box
    (5**7, 5),  # past the last vector
])
def test_box_block_rejects_unaligned_ranges(start, size):
    with pytest.raises(ValueError, match="an aligned block"):
        _box_block(-1, 3, 7, start, size)
    cfg = ScanConfig(group="Z7", lo=-1, hi=3, mode="exhaustive")
    with pytest.raises(ValueError, match="an aligned block"):
        _scan_shard((cfg, start, start + size))


def _scan_with_shards(monkeypatch, cfg):
    """A serial scan, and the (start, stop) of each shard it ran."""
    ranges = []

    def recording(payload):
        ranges.append(payload[1:])
        return _scan_shard(payload)

    monkeypatch.delenv("GDET_THREADS", raising=False)
    monkeypatch.setattr(harness, "_scan_shard", recording)
    return scan(cfg), ranges


def test_exhaustive_shards_are_powers_of_the_width(monkeypatch):
    cfg = ScanConfig(group="Z7", lo=-1, hi=3, mode="exhaustive")
    _, ranges = _scan_with_shards(monkeypatch, cfg)
    assert ranges == [(a, a + 5**6) for a in range(0, 5**7, 5**6)]  # five shards of 15625


def test_exhaustive_shard_is_at_least_the_width(monkeypatch):
    """A width above SHARD_SIZE still frees the last slot, and the report does not change."""
    cfg = ScanConfig(group="Z3", lo=-9, hi=9, mode="exhaustive")
    whole, ranges = _scan_with_shards(monkeypatch, cfg)
    assert ranges == [(0, 19**3)]
    monkeypatch.setattr(harness, "SHARD_SIZE", 7)
    ranges.clear()
    assert scan(cfg).to_json() == whole.to_json()
    assert ranges == [(a, a + 19) for a in range(0, 19**3, 19)]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("full", [False, True])
def test_violations_follow_index_order(monkeypatch, threads, full):
    """Rejecting some values lists every vector that reaches them, in index order.

    D:6 has five shards of 5^5 vectors.  Z7 has 125 shards of 5^4, whose
    necklace walks count orbits that reach into other shards.  The random
    S4 scan has three shards, counted by the random walker.
    """
    decider = classify.decider

    def picky(rule):
        decide = decider(rule)

        def reject_3_mod_7(m):
            ok, v2, v3 = decide(m)
            return ok and m % 7 != 3, v2, v3

        return reject_3_mod_7

    if threads == "2":
        # the workers must inherit the patched decider, which only fork gives them
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context("fork").Pool)
    monkeypatch.setattr(classify, "decider", picky)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setenv("GDET_THREADS", threads)
    for fields, shard_size in [
        (dict(group="D:6", lo=-1, hi=3, mode="exhaustive"), 4000),
        (dict(group="Z7", lo=-1, hi=3, mode="exhaustive"), 700),
        (dict(group="S4", lo=-3, hi=3, mode="random", count=2000, seed=5), 700),
    ]:
        monkeypatch.setattr(harness, "SHARD_SIZE", shard_size)
        cfg = ScanConfig(**fields, full=full)
        report = scan(cfg)

        group = cfg.group
        g = build_group(group)
        if cfg.mode == "random":  # drawn by randint itself
            rngs = (random.Random((cfg.seed << 32) + j) for j in range(cfg.count))
            vectors = [tuple(rng.randint(cfg.lo, cfg.hi) for _ in range(g.order)) for rng in rngs]
        else:
            vectors = itertools.product(range(cfg.lo, cfg.hi + 1), repeat=g.order)
        evaluate, decide = kernel_for(g), picky(parse_rule(group))
        want, records = [], []
        for coeffs in vectors:
            value = evaluate(coeffs)
            records.append({"coeffs": list(coeffs), "det": value})
            if value and not decide(value)[0]:
                want.append({"coeffs": list(coeffs), "value": value})
        assert len(want) > 100
        assert report.violations == want, group
        assert report.records == (records if full else []), group


@pytest.mark.parametrize("threads", ["1", "2"])
def test_full_scan_violations_come_from_its_records(monkeypatch, threads):
    """A --full scan lists its violations from its records, without evaluating a vector again."""
    def refuse(payload):
        raise AssertionError("a --full scan evaluated its vectors a second time")

    monkeypatch.setattr(harness, "_shard_violations", refuse)
    test_violations_follow_index_order(monkeypatch, threads, True)


# (config, SHARD_SIZE, whether it meets a zero): a random scan with zeros and
# one without, the product walker (D8) and the necklace walker (Z7), each over
# several shards
CONTRACT_SCANS = [
    (dict(group="S4", lo=-3, hi=3, mode="random", count=300, seed=5), 70, True),
    (dict(group="S4", lo=-3, hi=3, mode="random", count=12, seed=1), 5, False),
    (dict(group="D8", lo=0, hi=2, mode="exhaustive"), 729, True),
    (dict(group="Z7", lo=-1, hi=2, mode="exhaustive"), 1024, True),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("fields, shard_size, has_zeros", CONTRACT_SCANS,
                         ids=["random", "random-no-zeros", "product-walker", "necklace-walker"])
def test_shards_count_only_nonzero_values(monkeypatch, threads, full, fields, shard_size,
                                          has_zeros):
    """Every shard's counts hold only nonzero values; the scan sets the zeros from its total."""
    partials = []
    merge = ScanReport.merge

    def kept(self, other):  # runs in the parent, whichever process counted the shard
        partials.append(other)
        return merge(self, other)

    monkeypatch.setattr(ScanReport, "merge", kept)
    monkeypatch.setattr(harness, "SHARD_SIZE", shard_size)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setenv("GDET_THREADS", threads)
    cfg = ScanConfig(**fields, full=full)
    report = scan(cfg)

    g = build_group(cfg.group)
    if cfg.mode == "random":
        vectors = kernels.random_vectors(g.order)(cfg.seed, 0, cfg.count, cfg.lo, cfg.hi)
    else:
        vectors = itertools.product(range(cfg.lo, cfg.hi + 1), repeat=g.order)
    values = list(map(kernel_for(g), vectors))
    zeros = values.count(0)
    assert (zeros > 0) == has_zeros
    assert len(partials) >= 3
    assert all(0 not in partial.value_counts and partial.zeros == 0 for partial in partials)
    assert report.zeros == zeros
    assert (0 in report.value_counts) == (zeros > 0)
    assert report.value_counts == Counter(values)


def test_distinct_values_monotone_under_range_inclusion():
    small = scan(ScanConfig(group="Z3", lo=-1, hi=1, mode="exhaustive"))
    large = scan(ScanConfig(group="Z3", lo=-2, hi=2, mode="exhaustive"))
    assert set(small.value_counts) <= set(large.value_counts)


def test_exhaustive_bound_enforced():
    with pytest.raises(ValueError):
        scan(ScanConfig(group="S4", lo=-1, hi=1, mode="exhaustive"))


def test_unknown_decider_rejected():
    with pytest.raises(ValueError):
        scan(ScanConfig(group="D:10", lo=-1, hi=1, mode="exhaustive"))


def test_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(group="Z4", lo=2, hi=-2, mode="exhaustive")
    with pytest.raises(ValueError):
        ScanConfig(group="Z4", lo=-1, hi=1, mode="random", count=0)
    with pytest.raises(ValueError):
        ScanConfig(group="Z4", lo=-1, hi=1, mode="sideways")


def test_config_rejects_negative_seed():
    # Random seeds on |x|: seed -1 would replay vector 0 of seed 1
    with pytest.raises(ValueError):
        ScanConfig(group="S4", lo=-3, hi=3, mode="random", count=10, seed=-1)


def test_config_rejects_count_beyond_index_domain():
    # (seed << 32) + j overlaps the next seed once j reaches 2**32
    with pytest.raises(ValueError):
        ScanConfig(group="S4", lo=-3, hi=3, mode="random", count=2**32, seed=0)
    ScanConfig(group="S4", lo=-3, hi=3, mode="random", count=2**32 - 1, seed=0)


@pytest.mark.parametrize("argv", [
    ["--random", "10", "--seed", "-1"],
    ["--random", str(2**32)],
])
def test_cli_rejects_scan_outside_seed_domain(capsys, argv):
    assert run(["scan", "--group", "S4", "--range=-3:3", *argv]) == 2
    assert "error" in capsys.readouterr().err


# widths of 32, 33 and 34 bits draw several words of 32 bits per getrandbits call
@pytest.mark.parametrize("lo, hi", [(5, 5), (0, 1), (-3, 3), (-4, 3), (-100, 100),
                                    (0, 2**32 - 1), (0, 2**32), (-5 * 10**9, 5 * 10**9)])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 1])
def test_random_vectors_follow_randint_stream(lo, hi, seed):
    got = list(kernels.random_vectors(24)(seed, 0, 40, lo, hi))
    for j, vector in enumerate(got):
        rng = random.Random((seed << 32) + j)
        assert vector == tuple(rng.randint(lo, hi) for _ in range(24))


# sha256 of the .jsonl and .csv that `scan --group S4 --range=-3:3 --random 2000
# --seed 42 --out` wrote when each vector was drawn by Random(...).randint itself
GOLDEN_S42 = {
    "jsonl": "07c5089c7225bd42329284f5f536cb8aec1dfaf2e46bb04fc4e47aa4db201174",
    "csv": "0d5b0fa645e003eda4edafc46f018cb04430d49fe33735948481d927b206f3c3",
}


def test_scan_report_bytes_are_pinned(tmp_path):
    out = tmp_path / "s42"
    argv = ["scan", "--group", "S4", "--range=-3:3", "--random", "2000", "--seed", "42"]
    assert run([*argv, "--out", str(out)]) == 0
    for ext, digest in GOLDEN_S42.items():
        path = tmp_path / f"s42.{ext}"
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, ext


# the first 16 hex digits of the sha256 of `scan --group G --range=R --exhaustive
# --json` as the kernel walked each box in index order, vector by vector
GOLDEN_EXHAUSTIVE = [
    ("K4", "-1:3", "cbad027945248edb"),
    ("Z4", "-1:3", "c3d6ff9b0a10a4d3"),
    ("Z5", "-1:3", "db3fce51c11e0852"),
    ("Z7", "0:2", "e70a2b7cedbc09ac"),
    ("Z9", "0:2", "803709dea9e2f8ec"),
    ("D8", "0:2", "1b7f29b4b755086f"),
    ("D:6", "-1:3", "0808f1d7f9a74562"),
    ("S3", "-1:3", "da93b3d585097aca"),
    ("A4", "0:1", "2b6df971fbe26004"),
]


@pytest.mark.parametrize("group, box, digest", GOLDEN_EXHAUSTIVE)
def test_exhaustive_report_bytes_are_pinned(capsys, group, box, digest):
    assert run(["scan", "--group", group, f"--range={box}", "--exhaustive", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == digest


# the first 16 hex digits of the sha256 of the .jsonl then the .csv that
# `scan --group G --range=R --random 21000 --seed 7 --out` wrote (two shards) when
# each vector was drawn by a Python loop and evaluated by the kernel; the 34-bit
# ranges draw two words per getrandbits, and Z13 and Z11 call det_int
GOLDEN_RANDOM = [
    ("Z9", "-5000000000:5000000000", "e08ec9cf694a8b42"),
    ("D8", "-5000000000:5000000000", "648602217dae71de"),
    ("A4", "-5000000000:5000000000", "e3e4047e76f8a529"),
    ("S4", "-100:100", "1d4e7b2b33f936bf"),
    ("K4", "-1:1", "65ee49299fdbabdf"),
    ("Z13", "-1:2", "3674f01449c7025d"),
    ("D:6", "-4:3", "baa4fc6562e79533"),
    ("Z11", "0:1", "321ace597442ac4b"),
]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("group, box, digest", GOLDEN_RANDOM)
def test_random_report_files_are_pinned(tmp_path, monkeypatch, group, box, digest, threads):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setenv("GDET_THREADS", threads)
    out = tmp_path / "r"
    argv = ["scan", "--group", group, f"--range={box}", "--random", "21000", "--seed", "7"]
    assert run([*argv, "--out", str(out)]) == 0
    data = (tmp_path / "r.jsonl").read_bytes() + (tmp_path / "r.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest()[:16] == digest


# Z7 over [-1, 3] is 78125 vectors, five shards
GOLDEN_Z7 = {
    "jsonl": "b241d9817fabb53d8df7dadee7cf7cc45c10a75f866763103aa9f0e96e81c6e5",
    "csv": "94a6d0c4f4a23b146ed82dff0e6a08eacbc0cabddb14c432d2d467aa8841a089",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_multi_shard_exhaustive_report_files_are_pinned(tmp_path, monkeypatch, threads):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setenv("GDET_THREADS", threads)
    out = tmp_path / "z7"
    assert run(["scan", "--group", "Z7", "--range=-1:3", "--exhaustive", "--out", str(out)]) == 0
    for ext, digest in GOLDEN_Z7.items():
        assert hashlib.sha256((tmp_path / f"z7.{ext}").read_bytes()).hexdigest() == digest, ext


@pytest.mark.parametrize("cpus, want", [(2, [2]), (None, [])])
def test_threads_capped_at_cpu_count(monkeypatch, cpus, want):
    sizes = []

    class RecordingPool:
        """Stands in for multiprocessing.Pool: records the process count, maps in-process."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    cfg = dict(group="S4", lo=-3, hi=3, mode="random", count=50, seed=3)
    serial = scan(ScanConfig(**cfg))
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    monkeypatch.setattr(harness, "SHARD_SIZE", 10)
    monkeypatch.setenv("GDET_THREADS", "64")
    assert scan(ScanConfig(**cfg)).to_json() == serial.to_json()
    assert sizes == want


@pytest.mark.parametrize("threads", ["0", "-3", "abc", "00", "+2", " 2", "1.5", "²"])
def test_bad_thread_count_is_rejected(monkeypatch, capsys, threads):
    monkeypatch.setenv("GDET_THREADS", threads)
    with pytest.raises(ValueError, match="GDET_THREADS"):
        scan(ScanConfig(group="Z4", lo=0, hi=1, mode="exhaustive"))
    assert run(["scan", "--group", "Z4", "--range=0:1", "--exhaustive"]) == 2
    assert "GDET_THREADS must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("threads, want", [("", []), ("1", []), ("02", [2]), ("9" * 5000, [2])])
def test_thread_count_accepts_positive_decimals(monkeypatch, threads, want):
    sizes = []

    def recording_pool(processes):
        sizes.append(processes)
        return contextlib.nullcontext(types.SimpleNamespace(map=lambda fn, items: list(map(fn, items))))

    monkeypatch.setattr(multiprocessing, "Pool", recording_pool)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "SHARD_SIZE", 10)
    monkeypatch.setenv("GDET_THREADS", threads)
    assert scan(ScanConfig(group="Z4", lo=0, hi=1, mode="exhaustive")).total == 16
    assert sizes == want


def test_persistence_formats(tmp_path):
    out = tmp_path / "scan.jsonl"
    report = scan(
        ScanConfig(group="Z4", lo=-1, hi=1, mode="exhaustive", out=str(out), full=True)
    )
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == "gdet-scan" and header["version"] == 1
    assert len(lines) == report.total + 2  # header + per-vector records + summary
    summary = json.loads(lines[-1])
    assert summary["total"] == report.total == 81
    csv_lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert csv_lines[0] == "# gdet-scan-summary v1"
    assert csv_lines[1] == "value,multiplicity"
    assert len(csv_lines) == 2 + len(report.value_counts)


def test_persistence_without_full_skips_records(tmp_path):
    out = tmp_path / "scan"
    scan(ScanConfig(group="Z4", lo=-1, hi=1, mode="exhaustive", out=str(out)))
    lines = (tmp_path / "scan.jsonl").read_text().splitlines()
    assert len(lines) == 2  # header + summary only


def test_parallel_scan_matches_serial(monkeypatch):
    cfg = dict(group="S4", lo=-2, hi=2, mode="random", count=2000, seed=11)
    serial = scan(ScanConfig(**cfg))
    monkeypatch.setenv("GDET_THREADS", "4")
    parallel = scan(ScanConfig(**cfg))
    assert serial.to_json() == parallel.to_json()


# -- lambda scans


def test_lambda_scan_klein():
    assert lambda_scan("K4", -2, 2) == 3


def test_lambda_scan_z3():
    assert lambda_scan("Z3", -2, 2) == 2


def test_lambda_scan_s4_witness_support():
    # the support of the residue-5 witness, entries in [-1, 1]
    assert lambda_scan("S4", -1, 1, support=(1, 4, 8, 14, 16)) == 5


def test_lambda_scan_singleton_support_finds_nothing():
    assert lambda_scan("S4", -1, 1, support=(0,)) is None


def test_lambda_scan_range_too_large():
    with pytest.raises(ValueError):
        lambda_scan("S4", -1, 1)


@pytest.mark.parametrize("support", [(), []])
@pytest.mark.parametrize("group", ["S4", "Z3", "D:6", "K4"])
def test_lambda_scan_of_an_empty_support_finds_nothing(group, support):
    """The box is the zero vector alone."""
    assert lambda_scan(group, -3, 3, support=support) is None


# boxes of more than SHARD_SIZE vectors, each with its lambda from the min sink
# of the product walker, which walked the whole box in one call
_MULTI_BLOCK = [
    ("Z16", 0, 1, None, 3),  # necklaces, four blocks of 2^14
    ("Z7", -1, 3, None, 2),  # necklaces, five blocks of 5^6
    ("Z15", 0, 1, None, 2),  # necklaces and det_int on Phi_15, two blocks
    ("D:10", -1, 1, None, 3),  # half profiles, three blocks of 3^9
    ("S4", -1, 1, (1, 4, 8, 14, 16, 2, 3, 12, 20, 23), 5),  # the product walker, 3^10 vectors
]


@pytest.mark.parametrize("group, lo, hi, support, expected", _MULTI_BLOCK)
def test_lambda_scan_over_several_blocks(group, lo, hi, support, expected):
    slots = build_group(group).order if support is None else len(support)
    assert (hi - lo + 1) ** slots > harness.SHARD_SIZE
    assert lambda_scan(group, lo, hi, support=support) == expected


def _spied_walks(monkeypatch, kinds):
    """Spy on the box walkers: the vectors, the values and the block of each call, in order."""
    real_walker, real_count = kernels.walker, kernels.count_walker
    for kind in kinds:  # cached before the spies are in, so no cached walker is a spy
        real_count(kind)
    calls, spies = [], {}

    def spy(real):
        def get(kind):
            walk = real(kind)
            if walk not in spies:
                def spied(block, counts):
                    walk(block, counts)
                    calls.append((len(list(itertools.product(*block))), set(counts), block))

                spies[walk] = spied
            return spies[walk]

        return get

    monkeypatch.setattr(kernels, "walker", spy(real_walker))
    monkeypatch.setattr(kernels, "count_walker", spy(real_count))
    return calls


@pytest.mark.parametrize("group, lo, hi, support, expected", _MULTI_BLOCK + [
    ("Z9", 0, 2, None, 2), ("D:6", -1, 3, None, 4), ("A4", -1, 1, (0, 3, 4, 11, 7, 8, 9, 10, 1), 5),
    ("Z17", 0, 1, tuple(range(2, 17)), 2),
])
def test_lambda_scan_walks_small_blocks_and_stops_after_two(monkeypatch, group, lo, hi, support,
                                                             expected):
    """No walk gets more than SHARD_SIZE vectors, and none follows one that counted +-2."""
    calls = _spied_walks(monkeypatch, [build_group(group).kind])
    assert lambda_scan(group, lo, hi, support=support) == expected
    assert calls and all(size <= harness.SHARD_SIZE for size, _, _ in calls)
    assert not any(values & {2, -2} for _, values, _ in calls[:-1])
    slots = build_group(group).order if support is None else len(support)
    if expected == 2:
        assert calls[-1][1] & {2, -2}
    else:  # every block was walked, each vector once
        assert sum(size for size, _, _ in calls) == (hi - lo + 1) ** slots


@pytest.mark.parametrize("group, lo, hi, support", [
    ("Z1", -20, 20, None), ("S4", -9, 9, (5,)), ("D:6", -7, 7, (0, 3)), ("Z3", 1, 9, None),
    ("K4", -2, 3, None),
])
def test_lambda_scan_cuts_a_wide_slot_into_runs(monkeypatch, group, lo, hi, support):
    """A slot of more than SHARD_SIZE values is walked a run at a time."""
    g = build_group(group)
    expected = lambda_scan(group, lo, hi, support=support)
    monkeypatch.setattr(harness, "SHARD_SIZE", 6)
    calls = _spied_walks(monkeypatch, [g.kind])
    assert lambda_scan(group, lo, hi, support=support) == expected
    assert calls and all(size <= 6 for size, _, _ in calls)


@pytest.mark.parametrize("group, lo, hi, support", [
    ("A4", -1, 1, None),  # the product walker, 27 shards of 3^9
    ("Z7", -1, 3, None),  # the necklace walker, five shards of 5^6
    ("D:6", -2, 3, None),  # the half walker, six shards of 6^5
    ("S4", -1, 1, (1, 4, 8, 14, 16, 2, 3, 12, 20, 23)),  # the product walker, three blocks of 3^9
])
def test_walkers_take_the_one_value_slots_outermost(monkeypatch, group, lo, hi, support):
    """Every block a scan or lambda walks has its one-value slots on its highest free slots.

    A walker loops over its highest slots outermost, so their partial sums
    are worked out once per block.
    """
    g = build_group(group)
    calls = _spied_walks(monkeypatch, [g.kind])
    if support is None:
        monkeypatch.delenv("GDET_THREADS", raising=False)  # the shards run in this process
        scan(ScanConfig(group=group, lo=lo, hi=hi, mode="exhaustive"))
    lambda_scan(group, lo, hi, support=support)
    free = sorted(range(g.order) if support is None else support)
    assert sum(any(len(block[slot]) == 1 for slot in free) for _, _, block in calls) >= 3
    for _, _, block in calls:
        assert all(block[slot] == (0,) for slot in range(g.order) if slot not in free)
        fixed = [slot for slot in free if len(block[slot]) == 1]
        assert fixed == free[len(free) - len(fixed):]


@pytest.mark.parametrize("lo, hi, n, shard", [
    (0, 1, 5, 4), (-1, 1, 4, 20), (-2, 2, 3, 7), (-3, 3, 1, 3), (0, 9, 2, 25), (1, 1, 3, 5),
    (-1, 1, 0, 5),
])
def test_lambda_blocks_cover_the_box_once(monkeypatch, lo, hi, n, shard):
    monkeypatch.setattr(harness, "SHARD_SIZE", shard)
    blocks = list(harness._lambda_blocks(lo, hi, n))
    vectors = [v for block in blocks for v in itertools.product(*block)]
    assert all(len(list(itertools.product(*block))) <= shard for block in blocks)
    assert sorted(vectors) == sorted(itertools.product(range(lo, hi + 1), repeat=n))


def _rendered_files(report):
    """The report files with the report line from `to_json` and the CSV written pair by pair."""
    header = {"format": "gdet-scan", "version": 1, "config": report.config}
    jsonl = "".join(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n"
                    for line in [header, *report.records])
    jsonl += report.to_json() + "\n"
    csv = "# gdet-scan-summary v1\nvalue,multiplicity\n"
    csv += "".join(f"{v},{n}\n" for v, n in report.distinct())
    return jsonl, csv


def _filled_report(config, **fields):
    report = ScanReport(config)
    for name, value in fields.items():
        setattr(report, name, value)
    return report


def _written_report(kind):
    if kind == "empty":
        return ScanReport({})
    if kind == "one-value":
        return _filled_report({"group": "S4"}, total=3, value_counts=Counter({5: 3}),
                              residue_mod24=Counter({5: 3}), v2_hist=Counter({0: 3}),
                              v3_hist=Counter({0: 3}))
    if kind == "negative-values":
        return _filled_report(
            {"group": "Z4"}, total=9, zeros=2,
            value_counts=Counter({-1024: 1, -27: 3, 0: 2, 2: 1, 7: 2}),
            violations=[{"coeffs": [1, 1, 0, 0], "value": 2}],
            residue_mod24=Counter({8: 1, 21: 3, 2: 1, 7: 2}), v2_hist=Counter({10: 1, 0: 5, 1: 1}),
            v3_hist=Counter({0: 4, 3: 3}),
            records=[{"coeffs": [-1, 0, 0, 1], "det": -27}, {"coeffs": [0, 0, 0, 0], "det": 0}])
    if kind == "chunks":
        chunk = harness.PAIRS_PER_CHUNK
        return _filled_report({"group": "S4"}, total=10**6,
                              value_counts=Counter({v * 2**70 + 3: v % 5 + 1
                                                   for v in range(-chunk, chunk + 7)}))
    assert kind == "full-s4-scan"
    return scan(ScanConfig(group="S4", lo=-2, hi=2, mode="random", count=500, seed=9, full=True))


@pytest.mark.parametrize("kind", ["empty", "one-value", "negative-values", "chunks",
                                  "full-s4-scan"])
def test_streamed_report_files_match_whole_rendering(tmp_path, kind):
    report = _written_report(kind)
    write_report(report, str(tmp_path / "r"))
    jsonl, csv = _rendered_files(report)
    written = (tmp_path / "r.jsonl").read_text()
    assert written.splitlines()[-1] == report.to_json()
    assert written == jsonl
    assert (tmp_path / "r.csv").read_text() == csv


def test_report_write_holds_one_chunk_of_text_at_a_time(tmp_path):
    # 50,000 distinct 61-digit values: the report line alone is 3.5 MB of text
    values = {v * 10**60 + 1: 1 for v in range(-25_000, 25_000)}
    report = _filled_report({}, value_counts=Counter(values))
    tracemalloc.start()
    try:
        write_report(report, str(tmp_path / "big"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * len(report.to_json())


class _Unprintable(int):
    """An int whose decimal formatting fails, so a write breaks in the CSV body."""

    def __format__(self, spec):
        raise OSError("disk full")


@pytest.mark.parametrize("stage", ["jsonl", "csv"])
def test_failed_report_write_keeps_earlier_report(tmp_path, monkeypatch, stage):
    out = tmp_path / "scan.jsonl"
    scan(ScanConfig(group="Z4", lo=-1, hi=1, mode="exhaustive", out=str(out)))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert set(before) == {"scan.jsonl", "scan.csv"}

    report = scan(ScanConfig(group="K4", lo=-2, hi=2, mode="exhaustive"))
    if stage == "jsonl":  # fails after the header line, as the report line starts
        def broken(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(report, "as_dict", broken)
    else:
        report.value_counts[_Unprintable(7)] += 1
    with pytest.raises(OSError, match="disk full"):
        write_report(report, str(out))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
