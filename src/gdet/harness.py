"""Randomized and exhaustive determinant scans against the closed-form deciders.

A scan evaluates the group determinant over a box of coefficient vectors and
checks every nonzero value against the membership rule for that group; any
rejection is a violation and gets dumped with its coefficient vector.  Work
is split into index shards whose partial reports merge associatively, so
shards can run in parallel (GDET_THREADS) without changing the output.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field

from . import classify, detcalc
from .groups import build_group
from .ring import RingElement

EXHAUSTIVE_LIMIT = 10**7
RNG_ALGO = "py-mt19937-pervec-v1"  # vector j drawn from Random((seed << 32) + j)
SHARD_SIZE = 20_000
FORMAT_VERSION = 1


@dataclass(frozen=True)
class ScanConfig:
    group: str
    lo: int
    hi: int
    mode: str  # "exhaustive" or "random"
    count: int = 0
    seed: int = 0
    out: str | None = None
    full: bool = False

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty entry range [{self.lo}, {self.hi}]")
        if self.mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown scan mode: {self.mode!r}")
        if self.mode == "random" and self.count <= 0:
            raise ValueError("random mode needs a positive vector count")
        # vector j is seeded with (seed << 32) + j: the index must fit in 32 bits, and
        # Random seeds on |x|, so a negative seed would replay a non-negative one
        if self.mode == "random" and self.count >= 1 << 32:
            raise ValueError(f"random mode draws fewer than 2**32 vectors, got {self.count}")
        if self.seed < 0:
            raise ValueError(f"scan seed must be non-negative, got {self.seed}")

    def as_dict(self):
        d = {
            "group": self.group,
            "lo": self.lo,
            "hi": self.hi,
            "mode": self.mode,
            "rng": RNG_ALGO if self.mode == "random" else None,
        }
        if self.mode == "random":
            d["count"] = self.count
            d["seed"] = self.seed
        return d


@dataclass
class ScanReport:
    config: dict
    total: int = 0
    zeros: int = 0
    value_counts: Counter = field(default_factory=Counter)
    violations: list = field(default_factory=list)
    residue_mod24: Counter = field(default_factory=Counter)
    v2_hist: Counter = field(default_factory=Counter)
    v3_hist: Counter = field(default_factory=Counter)
    records: list = field(default_factory=list)  # per-vector, only when full

    def merge(self, other: "ScanReport") -> "ScanReport":
        self.total += other.total
        self.zeros += other.zeros
        self.value_counts += other.value_counts
        self.violations += other.violations
        self.residue_mod24 += other.residue_mod24
        self.v2_hist += other.v2_hist
        self.v3_hist += other.v3_hist
        self.records += other.records
        return self

    def distinct_values(self):
        return sorted(self.value_counts)

    def as_dict(self):
        return {
            "format": "gdet-scan-report",
            "version": FORMAT_VERSION,
            "config": self.config,
            "total": self.total,
            "zeros": self.zeros,
            "distinct_values": [[v, self.value_counts[v]] for v in sorted(self.value_counts)],
            "violations": self.violations,
            "residue_mod24": {str(r): self.residue_mod24[r] for r in sorted(self.residue_mod24)},
            "v2_histogram": {str(v): self.v2_hist[v] for v in sorted(self.v2_hist)},
            "v3_histogram": {str(v): self.v3_hist[v] for v in sorted(self.v3_hist)},
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


def _evaluator(g):
    if g.kind == "S4":
        return lambda coeffs: detcalc.s4_det_fast(RingElement(g, coeffs))
    return lambda coeffs: detcalc.det_int(detcalc.group_matrix(g, coeffs))


def _random_vectors(seed, start, stop, n, lo, hi):
    """Vectors start..stop-1 of a random scan, n entries each, in [lo, hi].

    Vector j is the stream of `Random((seed << 32) + j).randint(lo, hi)`,
    drawn the way CPython's randint draws it (randrange ->
    _randbelow_with_getrandbits): getrandbits(k) for k = width.bit_length(),
    redrawn while it is not below the width.  One generator is reseeded per
    vector instead of built per vector, and randint's argument checks are
    skipped.
    """
    rng = random.Random()
    reseed, getrandbits = rng.seed, rng.getrandbits
    width = hi - lo + 1
    k = width.bit_length()
    slots = range(n)
    for j in range(start, stop):
        reseed((seed << 32) + j)
        coeffs = []
        for _ in slots:
            r = getrandbits(k)
            while r >= width:
                r = getrandbits(k)
            coeffs.append(lo + r)
        yield tuple(coeffs)


def _scan_shard(payload):
    cfg, start, stop = payload
    g = build_group(cfg.group)
    rule = classify.parse_rule(cfg.group)
    evaluate = _evaluator(g)
    report = ScanReport(config=cfg.as_dict())
    if cfg.mode == "random":
        vectors = _random_vectors(cfg.seed, start, stop, g.order, cfg.lo, cfg.hi)
    else:
        width = cfg.hi - cfg.lo + 1

        def from_index(j):
            coeffs = [0] * g.order
            for slot in reversed(range(g.order)):
                j, r = divmod(j, width)
                coeffs[slot] = cfg.lo + r
            return tuple(coeffs)

        vectors = (from_index(j) for j in range(start, stop))
    for coeffs in vectors:
        value = evaluate(coeffs)
        if cfg.full:
            report.records.append({"coeffs": list(coeffs), "det": value})
        report.value_counts[value] += 1
        if value == 0:
            continue
        report.residue_mod24[value % 24] += 1
        # every decider reports the 2- and 3-adic valuations it used
        verdict = classify.member(rule, value)
        report.v2_hist[verdict.reason["v2"]] += 1
        report.v3_hist[verdict.reason["v3"]] += 1
        if not verdict.member:
            report.violations.append({"coeffs": list(coeffs), "value": value})
    report.total = stop - start
    report.zeros = report.value_counts[0]
    return report


def _space_size(cfg: ScanConfig, order: int) -> int:
    if cfg.mode == "random":
        return cfg.count
    size = (cfg.hi - cfg.lo + 1) ** order
    if size > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive scan of {size} vectors exceeds limit {EXHAUSTIVE_LIMIT}")
    return size


def scan(cfg: ScanConfig) -> ScanReport:
    """Run a scan, optionally in parallel, and persist it if an output is set."""
    g = build_group(cfg.group)
    classify.parse_rule(cfg.group)  # fail early if no decider exists
    size = _space_size(cfg, g.order)
    shards = [
        (cfg, start, min(start + SHARD_SIZE, size))
        for start in range(0, size, SHARD_SIZE)
    ] or [(cfg, 0, 0)]
    workers = min(int(os.environ.get("GDET_THREADS", "1") or "1"), os.cpu_count() or 1)
    if workers > 1 and len(shards) > 1:
        import multiprocessing

        with multiprocessing.Pool(min(workers, len(shards))) as pool:
            partials = pool.map(_scan_shard, shards)
    else:
        partials = map(_scan_shard, shards)
    report = ScanReport(config=cfg.as_dict())
    for partial in partials:
        report.merge(partial)
    if cfg.out:
        write_report(report, cfg.out)
    return report


def write_report(report: ScanReport, path: str) -> None:
    """Persist a report as JSON-lines plus a CSV value summary."""
    base = path[: -len(".jsonl")] if path.endswith(".jsonl") else path
    jsonl = base + ".jsonl"
    with open(jsonl, "w") as fh:
        header = {"format": "gdet-scan", "version": FORMAT_VERSION, "config": report.config}
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
        for record in report.records:
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        fh.write(report.to_json() + "\n")
    with open(base + ".csv", "w") as fh:
        fh.write(f"# gdet-scan-summary v{FORMAT_VERSION}\n")
        fh.write("value,multiplicity\n")
        for v in sorted(report.value_counts):
            fh.write(f"{v},{report.value_counts[v]}\n")


def lambda_scan(group: str, lo: int, hi: int, support=None):
    """Smallest |determinant| >= 2 over an exhaustive box, or None if absent."""
    g = build_group(group)
    support = tuple(support) if support is not None else tuple(range(g.order))
    width = hi - lo + 1
    if width ** len(support) > EXHAUSTIVE_LIMIT:
        raise ValueError("lambda scan range too large")
    evaluate = _evaluator(g)
    best = None
    base = [0] * g.order
    for combo in itertools.product(range(lo, hi + 1), repeat=len(support)):
        for slot, val in zip(support, combo):
            base[slot] = val
        value = abs(evaluate(tuple(base)))
        if value >= 2 and (best is None or value < best):
            best = value
            if best == 2:
                break
    return best
