"""Randomized and exhaustive determinant scans against the closed-form deciders.

A scan evaluates the group determinant over a box of coefficient vectors and
checks every nonzero value against the membership rule for that group; any
rejection is a violation and gets dumped with its coefficient vector.  Work
is split into index shards whose partial reports merge associatively, so
shards can run in parallel (GDET_THREADS) without changing the output.  An
exhaustive shard is width^m vectors, for the largest power of the range
width within SHARD_SIZE (at least the width itself), so it is one product
block: its first slots hold one value each and its last m slots every
value.  A product block is counted by one call of the kind's count walker
(`kernels.count_walker`), reversed onto its slots (`_walker_block`), so
its one-value slots are the walker's outer loops: for D<2n>, n >= 3, the
half walker pairs the distinct profiles of the block's two halves, and
for Z<n>, n <= 16, the necklace walker counts the whole rotation orbit of
each vector that is its orbit's least member; other kinds walk every
vector.  A random shard is counted by one call of the kind's random walker
(`kernels.random_walker`), which draws, evaluates and counts each vector
in one compiled loop, by the draw `RNG_ALGO` names.  Every shard counts
only its nonzero values, and the zeros are set once, from the merged
total.  When the merged shards reject a value, the violations are each
vector, in index order, whose value the rule rejects: read from the
records with --full, else found by one more pass over every shard, drawn
by `kernels.random_vectors` or `_box_block` and evaluated by the kernel.
`lambda_scan` reads the least |value| >= 2 off the counts of the same
blocks, one block at a time.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from collections import Counter
from math import inf
from operator import itemgetter

from . import classify, detcalc
from .groups import Record, build_group, is_decimal

EXHAUSTIVE_LIMIT = 10**7
RNG_ALGO = "py-mt19937-pervec-v1"  # vector j drawn from Random((seed << 32) + j)
SHARD_SIZE = 20_000
FORMAT_VERSION = 1
PAIRS_PER_CHUNK = 4096  # distinct values put into decimal and written at a time


class ScanConfig(Record):
    __slots__ = ("group", "lo", "hi", "mode", "count", "seed", "out", "full")

    def __init__(self, group: str, lo: int, hi: int, mode: str, count: int = 0, seed: int = 0,
                 out: str | None = None, full: bool = False):
        if lo > hi:
            raise ValueError(f"empty entry range [{lo}, {hi}]")
        if mode not in ("exhaustive", "random"):
            raise ValueError(f"unknown scan mode: {mode!r}")
        if mode == "random" and count <= 0:
            raise ValueError("random mode needs a positive vector count")
        # vector j is seeded with (seed << 32) + j: the index must fit in 32 bits, and
        # Random seeds on |x|, so a negative seed would replay a non-negative one
        if mode == "random" and count >= 1 << 32:
            raise ValueError(f"random mode draws fewer than 2**32 vectors, got {count}")
        if seed < 0:
            raise ValueError(f"scan seed must be non-negative, got {seed}")
        super().__init__(group, lo, hi, mode, count, seed, out, full)

    def report_config(self):
        """The config as a scan report records it."""
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


class ScanReport:
    """The mutable tallies of a scan, or of one of its shards, under its `report_config()`."""

    def __init__(self, config: dict):
        self.config = config
        self.total = 0
        self.zeros = 0
        self.value_counts = Counter()
        self.violations = []
        self.residue_mod24 = Counter()
        self.v2_hist = Counter()
        self.v3_hist = Counter()
        self.records = []  # per-vector, only when full
        self.rejected = set()  # values the rule rejects, whose vectors `scan` lists

    def merge(self, other: "ScanReport") -> "ScanReport":
        self.total += other.total
        # Counter.update loops in Python over every value of `other`; sum only the
        # few values both shards saw and copy the rest in with dict.update, which
        # leaves the keys in the order Counter.update gives
        counts, more = self.value_counts, other.value_counts
        shared = {value: counts[value] + more[value] for value in counts.keys() & more.keys()}
        dict.update(counts, more)
        dict.update(counts, shared)
        self.violations += other.violations
        self.residue_mod24.update(other.residue_mod24)
        self.v2_hist.update(other.v2_hist)
        self.v3_hist.update(other.v3_hist)
        self.records += other.records
        self.rejected |= other.rejected
        return self

    def as_dict(self, distinct=None):
        """The report as JSON-ready data, with `distinct` in place of `self.distinct()` if given."""
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

    def to_json(self) -> str:
        return _dumps(self.as_dict())


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _box_block(lo, hi, n, start, size):
    """Vectors start..start+size-1 of the box [lo, hi]^n as one product block.

    Vector j has the base-(hi - lo + 1) digits of j as its entries, so the
    last slot runs fastest.  The range must be aligned: `size` is a power
    width^m with m <= n and `start` a multiple of it.  Then start's digits
    fill the first n - m slots, one value each, the last m slots take every
    value, and the block is one sequence of values per slot, whose product
    --full and the violation pass walk in index order.  A walker takes it
    reversed (`_walker_block`).
    """
    values = range(lo, hi + 1)
    width = len(values)
    free, power = 0, 1  # the trailing slots that take every value
    while power < size and free < n:
        free, power = free + 1, power * width
    if power != size or start % size or not 0 <= start <= width ** n - size:
        raise ValueError(
            f"vectors {start}..{start + size - 1} do not form an aligned block of [{lo}, {hi}]^{n}")
    j = start // size
    prefix = []
    for _ in range(n - free):
        j, r = divmod(j, width)
        prefix.append((values[r],))
    return prefix[::-1] + [values] * free


def _walker_block(block, free, order):
    """A block of the slots `free` (ascending) as a walker of `order` slots takes it.

    The block is reversed onto the free slots, and every other slot holds
    0.  Each walker loops over its highest slots outermost, so the block's
    one-value first slots become its outer loops, whose partial sums are
    then worked out once per block.  Reversal maps a partition of a box
    onto a partition of it, so the blocks of a box still count each
    vector, or each rotation orbit, once.
    """
    values = dict(zip(free, reversed(block)))
    return [values.get(slot, (0,)) for slot in range(order)]


def _box_step(width, n):
    """The vectors of one shard of an exhaustive box of n slots, `width` values each.

    That is width^m for the largest m, 1 <= m <= n, with width^m within
    SHARD_SIZE (m = 1 when the width alone exceeds it, and m = 0 for a box
    of no slots, which is one vector), so each shard is one aligned block
    (`_box_block`).
    """
    m = min(n, 1)
    while m < n and width ** (m + 1) <= SHARD_SIZE:
        m += 1
    return width ** m


def _lambda_blocks(lo, hi, n):
    """The blocks of [lo, hi]^n that `lambda_scan` walks, in index order, SHARD_SIZE vectors at most.

    They are the aligned blocks that an exhaustive scan counts, one per
    shard (`_box_step`), except that a block of more than SHARD_SIZE
    vectors, which has one free slot, is cut into runs of that slot.
    """
    width = hi - lo + 1
    step = _box_step(width, n)
    for start in range(0, width ** n, step):
        block = _box_block(lo, hi, n, start, step)
        if step <= SHARD_SIZE:
            yield block
        else:
            for run in range(0, width, SHARD_SIZE):
                yield block[:-1] + [block[-1][run:run + SHARD_SIZE]]


def _shard_vectors(cfg, n, start, stop):
    if cfg.mode == "random":
        from . import kernels  # imported on first use, as by `detcalc.kernel_for`

        return kernels.random_vectors(n)(cfg.seed, start, stop, cfg.lo, cfg.hi)
    return itertools.product(*_box_block(cfg.lo, cfg.hi, n, start, stop - start))


def _scan_shard(payload):
    """The report of vectors start..stop-1, without its violations and zeros.

    `value_counts` holds only the nonzero values, whatever path counts them:
    `scan` sets the zeros of the merged report from its total.  Every other
    statistic is a function of the value, so each distinct value is
    classified once, into plain dicts that fill the report's Counters at the
    end, and the values the rule rejects are kept in `rejected`.  With
    --full, the kernel (`detcalc.kernel_for`) evaluates each vector in index
    order, for its record.  Without it, a random shard is counted by one call
    of `kernels.random_walker(g.kind)`, which draws, evaluates and counts
    each vector in one compiled loop, and an exhaustive shard, one product
    block (`_box_block`), by one call of `kernels.count_walker(g.kind)` on
    the block reversed (`_walker_block`).  So its counts are not its own
    vectors', but the merged counts of all shards are the box's.
    """
    cfg, start, stop = payload
    g = build_group(cfg.group)
    rule = classify.parse_rule(cfg.group)
    report = ScanReport(cfg.report_config())
    counts = report.value_counts
    if cfg.full:
        evaluate = detcalc.kernel_for(g)
        records = report.records
        for coeffs in _shard_vectors(cfg, g.order, start, stop):
            value = evaluate(coeffs)
            records.append({"coeffs": list(coeffs), "det": value})
            if value:
                counts[value] += 1
    else:
        from . import kernels  # imported on first use, as by `detcalc.kernel_for`

        if cfg.mode == "random":
            kernels.random_walker(g.kind)(cfg.seed, start, stop, cfg.lo, cfg.hi, counts)
        else:
            block = _box_block(cfg.lo, cfg.hi, g.order, start, stop - start)
            kernels.count_walker(g.kind)(_walker_block(block, range(g.order), g.order), counts)
    decide = classify.decider(rule)
    residues, v2_hist, v3_hist = {}, {}, {}
    residue_get, v2_get, v3_get = residues.get, v2_hist.get, v3_hist.get
    rejected = report.rejected
    for value, n in counts.items():
        r = value % 24
        residues[r] = residue_get(r, 0) + n
        ok, v2, v3 = decide(value)
        v2_hist[v2] = v2_get(v2, 0) + n
        v3_hist[v3] = v3_get(v3, 0) + n
        if not ok:
            rejected.add(value)
    report.residue_mod24.update(residues)
    report.v2_hist.update(v2_hist)
    report.v3_hist.update(v3_hist)
    report.total = stop - start
    return report


def _shard_violations(payload):
    """The vectors start..stop-1 whose value is in `rejected`, as violations in index order."""
    cfg, start, stop, rejected = payload
    g = build_group(cfg.group)
    evaluate = detcalc.kernel_for(g)
    found = []
    for coeffs in _shard_vectors(cfg, g.order, start, stop):
        value = evaluate(coeffs)
        if value in rejected:
            found.append({"coeffs": list(coeffs), "value": value})
    return found


def _space_size(cfg: ScanConfig, order: int) -> int:
    if cfg.mode == "random":
        return cfg.count
    size = (cfg.hi - cfg.lo + 1) ** order
    if size > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive scan of {size} vectors exceeds limit {EXHAUSTIVE_LIMIT}")
    return size


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
    step = SHARD_SIZE if cfg.mode == "random" else _box_step(cfg.hi - cfg.lo + 1, g.order)
    shards = [(cfg, start, min(start + step, size)) for start in range(0, size, step)]
    report = ScanReport(cfg.report_config())
    with contextlib.ExitStack() as stack:
        run = map
        if workers > 1 and len(shards) > 1:
            import multiprocessing

            run = stack.enter_context(multiprocessing.Pool(min(workers, len(shards)))).map
        for partial in run(_scan_shard, shards):
            report.merge(partial)
        # a shard counts only nonzero values, of its reversed block, and a
        # necklace-walked shard whole orbits, which can reach into other shards:
        # only the merged counts give the zeros, and only the union of the
        # rejected values lists every violation of a shard
        counts = report.value_counts
        report.zeros = report.total - sum(counts.values())
        if report.zeros:
            counts[0] = report.zeros
        rejected = report.rejected
        if rejected and cfg.full:  # the records hold every value, in index order
            report.violations = [{"coeffs": r["coeffs"], "value": r["det"]}
                                 for r in report.records if r["det"] in rejected]
        elif rejected:
            jobs = [(*shard, rejected) for shard in shards]
            for found in run(_shard_violations, jobs):
                report.violations += found
    if cfg.out:
        write_report(report, cfg.out)
    return report


def _report_line_ends(report: ScanReport):
    """`report.to_json()` before and after its distinct pairs.

    The line is the text before, each pair as "[value,count]" with commas
    between, then the text after: sorted keys put "config" first,
    "distinct_values" second and every other field after them.
    """
    fields = report.as_dict(distinct=())
    config = fields.pop("config")
    del fields["distinct_values"]
    return '{"config":' + _dumps(config) + ',"distinct_values":[', "]," + _dumps(fields)[1:]


def write_report(report: ScanReport, path: str) -> None:
    """Persist a report as JSON-lines plus a CSV value summary.

    The distinct values are written to both files in one pass, a chunk of
    PAIRS_PER_CHUNK pairs at a time: each pair is put into decimal once, as
    "value,count", which is a CSV line and, in brackets, an item of the
    report line's "distinct_values" list.  Both files are written to
    temporary files in the target directory and then renamed over the
    targets, so a write that fails leaves any earlier report whole and no
    temporary file behind.
    """
    base = path[: -len(".jsonl")] if path.endswith(".jsonl") else path
    targets = (base + ".jsonl", base + ".csv")
    temps = [f"{target}.{os.getpid()}.{os.urandom(4).hex()}.tmp" for target in targets]
    try:
        # "x" never clobbers a file, and the umask applies as it did for the targets
        with open(temps[0], "x") as jsonl, open(temps[1], "x") as csv:
            header = {"format": "gdet-scan", "version": FORMAT_VERSION, "config": report.config}
            jsonl.write(_dumps(header) + "\n")
            for record in report.records:
                jsonl.write(_dumps(record) + "\n")
            head, tail = _report_line_ends(report)
            jsonl.write(head)
            csv.write(f"# gdet-scan-summary v{FORMAT_VERSION}\nvalue,multiplicity\n")
            counts = report.value_counts
            values = sorted(counts)
            sep = "["
            for i in range(0, len(values), PAIRS_PER_CHUNK):
                pairs = [f"{v},{counts[v]}" for v in values[i:i + PAIRS_PER_CHUNK]]
                jsonl.write(sep + "],[".join(pairs) + "]")
                csv.write("\n".join(pairs) + "\n")
                sep = ",["
            jsonl.write(tail + "\n")
        for tmp, target in zip(temps, targets):
            os.replace(tmp, target)
    except BaseException:
        for tmp in temps:
            with contextlib.suppress(FileNotFoundError):  # not made yet, or renamed
                os.remove(tmp)
        raise


def lambda_scan(group: str, lo: int, hi: int, support=None):
    """Smallest |determinant| >= 2 over an exhaustive box, or None if absent.

    The box gives the slots in `support` (all of them by default) every
    value of [lo, hi] and the others 0.  Its free slots are walked in the
    blocks of `_lambda_blocks`, at most SHARD_SIZE vectors each, each
    reversed onto them (`_walker_block`), and the least |value| >= 2 is read
    off each block's counts, so only the running minimum is kept.  A full
    box is counted as an exhaustive scan counts it (`kernels.count_walker`),
    and a box of fewer slots by the product walker (`kernels.walker`).  The
    walk stops after a block that holds +-2.
    """
    if lo > hi:
        raise ValueError(f"empty entry range [{lo}, {hi}]")
    g = build_group(group)
    support = tuple(support) if support is not None else tuple(range(g.order))
    for slot in support:
        if not 0 <= slot < g.order:
            raise ValueError(f"support index {slot} is outside 0..{g.order - 1}")
    if len(set(support)) != len(support):
        raise ValueError(f"support repeats an index: {list(support)}")
    if (hi - lo + 1) ** len(support) > EXHAUSTIVE_LIMIT:
        raise ValueError("lambda scan range too large")
    from . import kernels

    free = sorted(support)
    walk = kernels.count_walker(g.kind) if len(free) == g.order else kernels.walker(g.kind)
    best = inf
    for block in _lambda_blocks(lo, hi, len(free)):
        counts = Counter()
        walk(_walker_block(block, free, g.order), counts)
        best = min((abs(v) for v in counts if not -2 < v < 2 and abs(v) < best), default=best)
        if best == 2:  # no |value| >= 2 is smaller
            break
    return best if best < inf else None
