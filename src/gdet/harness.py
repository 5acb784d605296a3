"""Randomized and exhaustive determinant scans against the closed-form deciders.

A scan evaluates the group determinant over a box of coefficient vectors and
checks every nonzero value against the membership rule for that group; any
rejection is a violation and gets dumped with its coefficient vector.  Work
is split into index shards whose partial reports merge associatively, so
shards can run in parallel (GDET_THREADS) without changing the output.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from . import classify, detcalc
from .groups import build_group

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
        # every count is positive, so update adds as += does, without its pass
        # that drops counts below 1
        self.value_counts.update(other.value_counts)
        self.violations += other.violations
        self.residue_mod24.update(other.residue_mod24)
        self.v2_hist.update(other.v2_hist)
        self.v3_hist.update(other.v3_hist)
        self.records += other.records
        return self

    def as_dict(self, distinct=None):
        """The report as JSON-ready data; `distinct` is `self.distinct()`, if already made."""
        return {
            "format": "gdet-scan-report",
            "version": FORMAT_VERSION,
            "config": self.config,
            "total": self.total,
            "zeros": self.zeros,
            # json writes each (value, count) pair as a list
            "distinct_values": self.distinct() if distinct is None else distinct,
            "violations": self.violations,
            "residue_mod24": {str(r): self.residue_mod24[r] for r in sorted(self.residue_mod24)},
            "v2_histogram": {str(v): self.v2_hist[v] for v in sorted(self.v2_hist)},
            "v3_histogram": {str(v): self.v3_hist[v] for v in sorted(self.v3_hist)},
        }

    def distinct(self):
        """The (value, count) pairs, by value."""
        return sorted(self.value_counts.items(), key=itemgetter(0))

    def to_json(self, distinct=None) -> str:
        return json.dumps(self.as_dict(distinct), sort_keys=True, separators=(",", ":"))


def _random_vectors(seed, start, stop, n, lo, hi):
    """Vectors start..stop-1 of a random scan, n entries each, in [lo, hi].

    Vector j is the stream of `Random((seed << 32) + j).randint(lo, hi)`,
    drawn the way CPython's randint draws it (randrange ->
    _randbelow_with_getrandbits): getrandbits(k) for k = width.bit_length(),
    redrawn while it is not below the width.  One generator is reseeded per
    vector instead of built per vector, and randint's argument checks are
    skipped.  The reseed calls the C-level `_random.Random.seed` that
    `random.Random.seed` ends in: for an int seed the wrapper only checks
    the seed's type and clears the Gaussian cache, which getrandbits never
    reads, so both set the same state.
    """
    rng = random.Random()
    reseed, getrandbits = super(random.Random, rng).seed, rng.getrandbits
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


def _box_blocks(lo, hi, n, start, stop):
    """Vectors start..stop-1 of the box [lo, hi]^n as at most about 2n product blocks.

    Vector j has the base-(hi - lo + 1) digits of j as its entries, so the
    last slot runs fastest.  A block is one sequence of values per slot:
    start's values in the first slots, a run of values in one slot, and
    every value in the slots after it.  The blocks come in index order, and
    no vector before `start` is generated.
    """
    values = range(lo, hi + 1)
    width = len(values)
    while start < stop:
        free = 0  # trailing slots that take every value in this block
        while free < n and start % width ** (free + 1) == 0 and start + width ** (free + 1) <= stop:
            free += 1
        if free == n:
            yield [values] * n
            return
        size = width ** free
        j, digit = divmod(start // size, width)
        prefix = []
        for _ in range(n - 1 - free):
            j, r = divmod(j, width)
            prefix.append((values[r],))
        run = min(width - digit, (stop - start) // size)
        yield prefix[::-1] + [values[digit:digit + run]] + [values] * free
        start += run * size


def _box_vectors(lo, hi, n, start, stop):
    """Vectors start..stop-1 of the box [lo, hi]^n, in index order."""
    blocks = _box_blocks(lo, hi, n, start, stop)
    return itertools.chain.from_iterable(itertools.product(*values) for values in blocks)


def _shard_vectors(cfg, n, start, stop):
    if cfg.mode == "random":
        return _random_vectors(cfg.seed, start, stop, n, cfg.lo, cfg.hi)
    return _box_vectors(cfg.lo, cfg.hi, n, start, stop)


def _scan_shard(payload):
    """The report of vectors start..stop-1.

    The loop over vectors only evaluates and counts; every other statistic
    is a function of the value, so each distinct value is classified once.
    An exhaustive shard is counted by the kind's box walker, block by block
    (`_box_blocks`), and the other shards by the kernel.  Only when some
    value is rejected are the vectors walked again in index order, by the
    kernel, to list the violations.
    """
    cfg, start, stop = payload
    g = build_group(cfg.group)
    rule = classify.parse_rule(cfg.group)
    evaluate = detcalc.kernel_for(g)
    report = ScanReport(config=cfg.as_dict())
    counts = report.value_counts
    if cfg.full:
        records = report.records
        for coeffs in _shard_vectors(cfg, g.order, start, stop):
            value = evaluate(coeffs)
            records.append({"coeffs": list(coeffs), "det": value})
            counts[value] += 1
    elif cfg.mode == "random":
        counts.update(map(evaluate, _shard_vectors(cfg, g.order, start, stop)))
    else:
        from . import kernels  # imported on first use, as by `detcalc.kernel_for`

        walk = kernels.walker(g.kind)
        zeros = sum(walk(values, counts) for values in _box_blocks(cfg.lo, cfg.hi, g.order, start, stop))
        if zeros:
            counts[0] += zeros
    rejected = set()
    for value, n in counts.items():
        if value == 0:
            continue
        report.residue_mod24[value % 24] += n
        # every decider reports the 2- and 3-adic valuations it used
        verdict = classify.member(rule, value)
        report.v2_hist[verdict.reason["v2"]] += n
        report.v3_hist[verdict.reason["v3"]] += n
        if not verdict.member:
            rejected.add(value)
    if rejected:
        for coeffs in _shard_vectors(cfg, g.order, start, stop):
            value = evaluate(coeffs)
            if value in rejected:
                report.violations.append({"coeffs": list(coeffs), "value": value})
    report.total = stop - start
    report.zeros = counts[0]
    return report


def _space_size(cfg: ScanConfig, order: int) -> int:
    if cfg.mode == "random":
        return cfg.count
    size = (cfg.hi - cfg.lo + 1) ** order
    if size > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive scan of {size} vectors exceeds limit {EXHAUSTIVE_LIMIT}")
    return size


def is_decimal(text: str) -> bool:
    """Whether `text` is an integer written as an optional "-" and ASCII digits.

    int() alone would also take "+5", " 5", "1_0" and the digits of other
    scripts, such as "٣".
    """
    digits = text[1:] if text.startswith("-") else text
    return digits.isascii() and digits.isdigit()


def _worker_count() -> int:
    """GDET_THREADS, a positive decimal integer (1 when unset or empty), capped at the CPU count."""
    text = os.environ.get("GDET_THREADS", "")
    if not text:
        return 1
    digits = text.lstrip("0")
    if text.startswith("-") or not is_decimal(text) or not digits:
        raise ValueError(f"GDET_THREADS must be a positive integer, got {text!r}")
    cpus = os.cpu_count() or 1
    # more digits than the CPU count means larger; int() refuses past 4300 digits
    return cpus if len(digits) > len(str(cpus)) else min(int(digits), cpus)


def scan(cfg: ScanConfig) -> ScanReport:
    """Run a scan, optionally in parallel, and persist it if an output is set."""
    workers = _worker_count()
    g = build_group(cfg.group)
    classify.parse_rule(cfg.group)  # fail early if no decider exists
    size = _space_size(cfg, g.order)
    shards = [
        (cfg, start, min(start + SHARD_SIZE, size))
        for start in range(0, size, SHARD_SIZE)
    ]
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
    """Persist a report as JSON-lines plus a CSV value summary.

    Both files are written to temporary files in the target directory and
    then renamed over the targets, so a write that fails leaves any earlier
    report whole and no temporary file behind.
    """
    base = path[: -len(".jsonl")] if path.endswith(".jsonl") else path
    targets = (base + ".jsonl", base + ".csv")
    temps = [f"{target}.{os.getpid()}.{os.urandom(4).hex()}.tmp" for target in targets]
    distinct = report.distinct()  # sorted once, for the JSON summary and the CSV
    try:
        # "x" never clobbers a file, and the umask applies as it did for the targets
        with open(temps[0], "x") as fh:
            header = {"format": "gdet-scan", "version": FORMAT_VERSION, "config": report.config}
            fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n")
            for record in report.records:
                fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
            fh.write(report.to_json(distinct) + "\n")
        with open(temps[1], "x") as fh:
            fh.write(f"# gdet-scan-summary v{FORMAT_VERSION}\n")
            fh.write("value,multiplicity\n")
            fh.writelines(f"{v},{n}\n" for v, n in distinct)
        for tmp, target in zip(temps, targets):
            os.replace(tmp, target)
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):  # not made yet, or renamed
                os.remove(tmp)
        raise


def lambda_scan(group: str, lo: int, hi: int, support=None):
    """Smallest |determinant| >= 2 over an exhaustive box, or None if absent."""
    if lo > hi:
        raise ValueError(f"empty entry range [{lo}, {hi}]")
    g = build_group(group)
    support = tuple(support) if support is not None else tuple(range(g.order))
    for slot in support:
        if not 0 <= slot < g.order:
            raise ValueError(f"support index {slot} is outside 0..{g.order - 1}")
    if len(set(support)) != len(support):
        raise ValueError(f"support repeats an index: {list(support)}")
    width = hi - lo + 1
    if width ** len(support) > EXHAUSTIVE_LIMIT:
        raise ValueError("lambda scan range too large")
    from . import kernels

    # a minimum does not depend on the order of the walk
    return kernels.walker(g.kind, "min")(
        [range(lo, hi + 1) if slot in support else (0,) for slot in range(g.order)])
