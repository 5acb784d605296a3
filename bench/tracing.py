"""Spans around the calls between gdet's layers, recorded from outside.

The traced run replaces module attributes that callers look up at call
time, so no file of the package changes.  Spans are kept in memory as
lists and written out once, when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

from inputs import IDENTITY_IDS

# span fields
NAME, START, END, PARENT, OP, CHILD, TAG = range(7)

# Which end-to-end metric each layer metric should move, and on which
# workload.  Printed with every traced run.
LAYER_MAP = (
    ("cli", "cli.self_us", "certify_p50_ms", "certify"),
    ("groups", "groups.build_group_us groups.build_group_calls",
     "small_vps scan_vps", "small-groups scan"),
    ("ring", "ring.parse_expr_us ring.parse_expr_calls ring.convolve_us ring.convolve_calls",
     "certify_p50_ms certify_p99_ms", "certify"),
    ("detcalc", "detcalc.s4_det_fast_us detcalc.s4_det_fast_calls detcalc.early_exit_l_ratio "
     "detcalc.early_exit_q_ratio detcalc.valuation_us", "scan_vps scan_vps_2proc", "scan"),
    ("detcalc", "detcalc.s4_factors_us detcalc.det_exact_us detcalc.det_exact_calls",
     "certify_p99_ms certify_rps", "certify"),
    ("detcalc", "detcalc.group_matrix_us detcalc.det_int_us detcalc.det_int_calls",
     "small_vps", "small-groups"),
    ("detcalc", "detcalc.rep_factor_check_s", "identities_s", "identities"),
    ("sympoly", "sympoly.build_symbolic_s sympoly.check_identity_s.<ID> sympoly.mul_calls "
     "sympoly.mul_term_pairs sympoly.terms_out", "identities_s peak_rss_mb", "identities"),
    ("classify", "classify.member_us classify.member_calls", "scan_vps", "scan certify"),
    ("witness", "witness.synthesize_us witness.verify_certificate_us witness.trail_len_mean",
     "certify_p99_ms", "certify"),
    ("harness", "harness.rng_us harness.self_us harness.write_report_ms harness.report_bytes "
     "harness.parallel_efficiency", "scan_vps scan_vps_2proc small_vps", "scan small-groups"),
)


# spans inside these are part of another detcalc route, not the generic path
_DETCALC_ROUTES = ("detcalc.s4_det_fast", "detcalc.s4_factors", "detcalc.det_exact")
_HARNESS = ("harness.scan", "harness.lambda_scan")


def _s4_exit(args, result):
    """Where the factored form stops on this vector: 'l' at l1*l2 = 0, 'q' at q1 = 0."""
    if result:
        return None
    c = args[0].coeffs
    u = (sum(c[0:4]), sum(c[4:8]), sum(c[8:12]))
    v = (sum(c[12:16]), sum(c[16:20]), sum(c[20:24]))
    if sum(u) + sum(v) == 0 or sum(u) - sum(v) == 0:
        return "l"

    def qf(x, y, z):
        return x * x + y * y + z * z - x * y - y * z - z * x

    return "q" if qf(*u) == qf(*v) else None


def _mul_work(args, result):
    a, b = args
    pairs = len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
    return pairs, len(result.terms)


class Tracer:
    """In-memory span recorder that patches gdet's call sites while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.op = -1

    def open(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, 0.0, tag])
        self._stack.append(idx)
        return idx

    def begin_op(self, tag: str) -> int:
        """Open the span of one workload operation; spans until end_op belong to it."""
        self.op = len(self.spans)
        return self.open("op", tag)

    def end_op(self, idx: int) -> None:
        self.close(idx)
        self.op = -1

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = perf_counter()
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]

    def _wrap(self, owner, attr, name, tag=None):
        orig = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if tag is not None:
                tracer.spans[idx][TAG] = tag(args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def install(self, gdet) -> None:
        """Patch every layer boundary: each attribute is looked up by its caller at call time."""
        cli, harness, witness = gdet.cli, gdet.harness, gdet.witness
        detcalc, classify, ring, sympoly = gdet.detcalc, gdet.classify, gdet.ring, gdet.sympoly
        for owner, attr, name, tag in (
            (harness, "build_group", "groups.build_group", None),
            (cli, "build_group", "groups.build_group", None),
            (cli, "parse_expr", "ring.parse_expr", None),
            (ring, "convolve", "ring.convolve", None),
            (witness, "convolve", "ring.convolve", None),
            (detcalc, "s4_det_fast", "detcalc.s4_det_fast", _s4_exit),
            (detcalc, "s4_factors", "detcalc.s4_factors", None),
            (detcalc, "det_exact", "detcalc.det_exact", None),
            (witness, "det_exact", "detcalc.det_exact", None),
            (detcalc, "det_int", "detcalc.det_int", None),
            (detcalc, "group_matrix", "detcalc.group_matrix", None),
            (detcalc, "valuation", "detcalc.valuation", None),
            (classify, "member", "classify.member", None),
            (witness, "member", "classify.member", None),
            (witness, "synthesize", "witness.synthesize", lambda a, r: len(r.trail)),
            (witness, "verify_certificate", "witness.verify_certificate", None),
            (sympoly, "build_symbolic", "sympoly.build_symbolic", None),
            (sympoly, "check_identity", "sympoly.check_identity", lambda a, r: a[0].name),
            (sympoly.SparsePoly, "__mul__", "sympoly.mul", _mul_work),
            (sympoly.SparsePoly, "__rmul__", "sympoly.mul", _mul_work),
            (harness, "scan", "harness.scan", None),
            (harness, "lambda_scan", "harness.lambda_scan", None),
            (harness, "write_report", "harness.write_report", None),
        ):
            self._wrap(owner, attr, name, tag)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(spans: list[list], extra: dict, names) -> dict:
    """The per-layer metrics `names`, from the spans recorded inside workload operations.

    Operations tagged "2proc" are left out: their work ran in scan worker
    processes whose spans do not come back.  `_us` figures are the mean
    inclusive time per call, `_calls` figures are calls per operation.
    """
    skip = {s[OP] for s in spans if s[NAME] == "op" and s[TAG] == "2proc"}
    skip.add(-1)
    n_ops = max(sum(1 for s in spans if s[NAME] == "op" and s[OP] not in skip), 1)
    by_name: dict[str, list] = {}
    for s in spans:
        if s[OP] in skip or s[NAME] == "op":
            continue
        by_name.setdefault(s[NAME], []).append(s)

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None

    def pick(name, generic_only=False):
        got = by_name.get(name, [])
        if generic_only:
            got = [s for s in got if parent_name(s) not in _DETCALC_ROUTES]
        return got

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    def mean_us(got):
        return mean([(s[END] - s[START]) * 1e6 for s in got])

    def total_s(got):
        return sum(s[END] - s[START] for s in got)

    m = {}
    requests = by_name.get("cli.request", [])
    m["cli.self_us"] = mean([(s[END] - s[START] - s[CHILD]) * 1e6 for s in requests])
    for name, generic_only in (
        ("groups.build_group", False),
        ("ring.parse_expr", False),
        ("ring.convolve", False),
        ("detcalc.s4_det_fast", False),
        ("detcalc.det_exact", False),
        ("detcalc.det_int", True),
        ("classify.member", False),
    ):
        got = pick(name, generic_only)
        m[f"{name}_us"] = mean_us(got)
        m[f"{name}_calls"] = len(got) / n_ops
    fast = pick("detcalc.s4_det_fast")
    m["detcalc.early_exit_l_ratio"] = sum(s[TAG] == "l" for s in fast) / max(len(fast), 1)
    m["detcalc.early_exit_q_ratio"] = sum(s[TAG] == "q" for s in fast) / max(len(fast), 1)
    m["detcalc.valuation_us"] = mean_us(pick("detcalc.valuation"))
    m["detcalc.s4_factors_us"] = mean_us(pick("detcalc.s4_factors"))
    m["detcalc.group_matrix_us"] = mean_us(pick("detcalc.group_matrix", True))
    m["detcalc.rep_factor_check_s"] = total_s(pick("detcalc.rep_factor_check")) / n_ops
    m["sympoly.build_symbolic_s"] = total_s(pick("sympoly.build_symbolic")) / n_ops
    checks = pick("sympoly.check_identity")
    for ident in IDENTITY_IDS:
        m[f"sympoly.check_identity_s.{ident}"] = (
            total_s([s for s in checks if s[TAG] == ident]) / n_ops)
    muls = pick("sympoly.mul")
    m["sympoly.mul_calls"] = len(muls) / n_ops
    m["sympoly.mul_term_pairs"] = sum(s[TAG][0] for s in muls) / n_ops
    m["sympoly.terms_out"] = sum(s[TAG][1] for s in muls) / n_ops
    # per certificate built; a target that is not a member raises and carries no trail
    synth = [s for s in pick("witness.synthesize") if s[TAG] is not None]
    m["witness.synthesize_us"] = mean_us(synth)
    m["witness.verify_certificate_us"] = mean_us(pick("witness.verify_certificate"))
    m["witness.trail_len_mean"] = mean([s[TAG] for s in synth])
    harness = [s for name in _HARNESS for s in pick(name)]
    evaluations = sum(
        1 for name in ("detcalc.s4_det_fast", "detcalc.det_int") for s in pick(name)
        if parent_name(s) in _HARNESS)
    harness_self = sum(s[END] - s[START] - s[CHILD] for s in harness)
    m["harness.self_us"] = harness_self * 1e6 / evaluations if evaluations else 0.0
    reports = pick("harness.write_report")
    m["harness.write_report_ms"] = mean_us(reports) / 1000
    m.update(extra)
    missing = set(names) - set(m)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: m[name] for name in names}
