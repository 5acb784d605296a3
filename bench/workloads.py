"""The four workloads: closed loops of gdet requests, each answer checked.

Every workload is one client in one process: the next request starts when
the previous one returns.  Requests go through ``gdet.cli.run(argv)``
in-process with stdout captured, as a user's command would, plus the
library's ``rep_factor_check()``, which has no subcommand.  A workload runs
in rounds; ``round(k)`` times its requests and then checks their answers
outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import statistics
import traceback
from dataclasses import dataclass
from time import perf_counter

import inputs
import reference


@dataclass
class Op:
    """One timed request and the verdict on its answer."""

    mode: str
    seconds: float
    work: int            # vectors evaluated, or 1 for a single request
    answer: object       # compared between repeats and between traced and untraced runs
    error: str | None = None
    wrong: bool = False  # an answer that was checked and is wrong, not a refusal
    round: int = 0       # set by the loop that runs the rounds


def rate(ops) -> float:
    """Work done per second of request time, over the whole run.

    On a shared machine whose speed drifts by 10-15% within seconds, the
    total over the run varied less from run to run than a median of
    per-round rates or a best round did.
    """
    return sum(op.work for op in ops) / sum(op.seconds for op in ops)


@dataclass
class Reply:
    rc: int | None
    out: str
    err: str
    seconds: float


class Client:
    """Runs gdet CLI commands in this process, optionally inside a tracer's spans."""

    def __init__(self, gdet, tracer=None):
        self.cli = gdet.cli
        self.tracer = tracer

    def call(self, argv, threads: int | None = None) -> Reply:
        out, err = io.StringIO(), io.StringIO()
        saved = os.environ.get("GDET_THREADS")
        if threads is not None:
            os.environ["GDET_THREADS"] = str(threads)
        tracer = self.tracer
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = perf_counter()
                span = tracer.open("cli.request") if tracer else None
                try:
                    rc = self.cli.run(argv)
                except SystemExit as exc:  # argparse rejects the command line
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # a crash is a failed request, not the end of the run
                    rc = None
                    err.write(traceback.format_exc())
                finally:
                    if tracer:
                        tracer.close(span)
                seconds = perf_counter() - t0
        finally:
            if saved is None:
                os.environ.pop("GDET_THREADS", None)
            else:
                os.environ["GDET_THREADS"] = saved
        return Reply(rc, out.getvalue(), err.getvalue(), seconds)


def _begin(tracer, tag):
    return tracer.begin_op(tag) if tracer else None


def _end(tracer, idx):
    if tracer:
        tracer.end_op(idx)


def _answered(reply: Reply) -> bool:
    """Exit 0 or 1 is an answer; exit 2 or a crash is a refusal, counted as failed but not wrong."""
    return reply.rc in (0, 1)


def _refused(reply: Reply, expected_rc: int) -> str | None:
    """An error message when the request did not give an answer at all."""
    if reply.rc == expected_rc:
        return None
    first = reply.err.strip().splitlines()[-1:] or [""]
    return f"exit {reply.rc}, expected {expected_rc}: {first[0][:160]}"


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(-(-p * len(ordered) // 100)) - 1))
    return ordered[rank]


def tail_percentile(n: int) -> float | None:
    """The highest of p99.9, p99, p90, p50 with at least 10 samples beyond it."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


class Identities:
    """verify-identities --json (all 8), then rep_factor_check(), from cold caches."""

    name = "identities"

    def __init__(self, gdet, client, seed, workdir, threads):
        self.gdet = gdet
        self.client = client
        self.argv = inputs.identities(seed)[0]
        # A CLI invocation builds these from scratch; the loop must pay for it too.
        self.caches = [gdet.sympoly.build_symbolic, gdet.detcalc.default_rep_table,
                       gdet.groups.symmetric_group4, gdet.groups.alternating_group4]

    def round(self, k):
        tracer = self.client.tracer
        for fn in self.caches:
            fn.cache_clear()
        op = _begin(tracer, "suite")
        t0 = perf_counter()
        reply = self.client.call(self.argv)
        span = tracer.open("detcalc.rep_factor_check") if tracer else None
        try:
            rep_ok = self.gdet.detcalc.rep_factor_check()
        except Exception as exc:  # a crash is a failed check, not the end of the run
            rep_ok = repr(exc)
        if tracer:
            tracer.close(span)
        seconds = perf_counter() - t0
        _end(tracer, op)
        return [self._check(reply, rep_ok, seconds)]

    def _check(self, reply, rep_ok, seconds):
        result, error = {}, None
        if not _answered(reply):
            error = _refused(reply, 0)
        else:
            result = json.loads(reply.out)
            reports = result.get("reports", [])
            for r in reports:
                r.pop("elapsed_s", None)  # a timing, not part of the answer
            ids = sorted(r["id"] for r in reports)
            failing = [r["id"] for r in reports if not r["holds"] or r["residual_terms"]]
            if ids != sorted(inputs.IDENTITY_IDS):
                error = f"identities checked: {ids}"
            elif failing or not result.get("all_hold") or reply.rc != 0:
                error = f"exit {reply.rc}, identities reported failing: {failing}"
            elif rep_ok is not True:
                error = f"rep_factor_check() gave {rep_ok!r}"
        answer = (reply.rc, json.dumps(result, sort_keys=True), rep_ok)
        return Op("suite", seconds, 1, answer, error, wrong=error is not None and _answered(reply))

    def named(self, ops):
        secs = [op.seconds for op in ops]
        return {"identities_s": (statistics.median(secs), "s")}

    def headline(self, named, ops):
        """Suites per second, and the median suite in ms: one request kind, one figure.

        rep_factor_check() timed alone would be a second figure, but its
        median moved by 39% between runs of the same code (see RESULTS.md).
        """
        secs = [op.seconds for op in ops]
        return len(secs) / sum(secs), statistics.median(secs) * 1000


def draw(seed: int, j: int) -> tuple[int, ...]:
    """Vector j of a random S4 scan, by the rule gdet documents: Random((seed << 32) + j)."""
    lo, hi = (int(x) for x in inputs.SCAN_RANGE.split(":"))
    rng = random.Random((seed << 32) + j)
    return tuple(rng.randint(lo, hi) for _ in range(24))


class Scan:
    """A seeded random S4 scan at --range=-3:3, once serially, once with GDET_THREADS=2."""

    name = "scan"

    def __init__(self, gdet, client, seed, workdir, threads):
        self.client = client
        self.s4 = reference.S4(gdet.symmetric_group4().names)
        self.seeds = inputs.scan(seed)
        self.workdir = workdir
        self.threads = threads  # 2, or None when there are fewer than 2 cores
        self.report_bytes = []

    def argv(self, k, base):
        return ["scan", "--group", "S4", f"--range={inputs.SCAN_RANGE}",
                "--random", str(inputs.SCAN_COUNT), "--seed", str(self.seeds[k % len(self.seeds)]),
                "--out", base]

    def round(self, k):
        tracer = self.client.tracer
        runs = [("serial", None)] + ([("2proc", self.threads)] if self.threads else [])
        replies = []
        for mode, threads in runs:
            base = os.path.join(self.workdir, f"{mode}-{k}")
            op = _begin(tracer, mode)
            reply = self.client.call(self.argv(k, base), threads=threads)
            _end(tracer, op)
            replies.append((mode, base, reply))
        ops = self._check(replies)
        error = self._cross_check(k)
        if error and not ops[0].error:
            ops[0].error, ops[0].wrong = f"serial scan: {error}", True
        return ops

    def _cross_check(self, k):
        """The round's first SCAN_CHECK vectors with --full: replayed draws, reference dets."""
        seed = self.seeds[k % len(self.seeds)]
        base = os.path.join(self.workdir, f"check-{k}")
        argv = self.argv(k, base)
        argv[argv.index("--random") + 1] = str(inputs.SCAN_CHECK)
        reply = self.client.call(argv + ["--full"])
        error = _refused(reply, 0)
        if error:
            return f"--full check run: {error}"
        with open(base + ".jsonl") as fh:
            records = [json.loads(line) for line in fh][1:-1]  # between header and report
        os.remove(base + ".jsonl")
        os.remove(base + ".csv")
        if len(records) != inputs.SCAN_CHECK:
            return f"--full check run wrote {len(records)} records, not {inputs.SCAN_CHECK}"
        for j, record in enumerate(records):
            if tuple(record["coeffs"]) != draw(seed, j):
                return f"vector {j} is not the documented draw Random((seed << 32) + j)"
            want = self.s4.det(record["coeffs"])
            if record["det"] != want:
                return f"vector {j} {record['coeffs']}: det {record['det']}, reference {want}"
        return None

    def _check(self, replies):
        ops, digests = [], []
        for mode, base, reply in replies:
            error = _refused(reply, 0)
            digest, size = hashlib.sha256(), 0
            if error is None:
                for suffix in (".jsonl", ".csv"):
                    with open(base + suffix, "rb") as fh:
                        data = fh.read()
                    os.remove(base + suffix)
                    digest.update(data)
                    size += len(data)
                    if suffix == ".jsonl":  # the report is the last line
                        report = json.loads(data[data.rindex(b"\n", 0, -1) + 1:])
                if mode == "serial":
                    self.report_bytes.append(size)
                if report["total"] != inputs.SCAN_COUNT:
                    error = f"total {report['total']} != {inputs.SCAN_COUNT}"
                elif report["violations"]:
                    error = f"{len(report['violations'])} violations"
            digests.append(digest.hexdigest())
            ops.append(Op(mode, reply.seconds, inputs.SCAN_COUNT,
                          (reply.rc, reply.out, digests[-1]),
                          error, wrong=error is not None and _answered(reply)))
        if len(digests) == 2 and digests[0] != digests[1] and ops[1].error is None:
            ops[1].error = "GDET_THREADS=2 report differs from the serial report"
            ops[1].wrong = True
        return ops

    def named(self, ops):
        par = [op for op in ops if op.mode == "2proc"]
        return {
            "scan_vps": (rate([op for op in ops if op.mode == "serial"]), "1/s"),
            "scan_vps_2proc": (rate(par) if par else None, "1/s"),
        }

    def headline(self, named, ops):
        par = [op.seconds for op in ops if op.mode == "2proc"]
        return named["scan_vps"][0], (statistics.median(par) * 1000 if par else None)

    def rng_us(self, count=10_000):
        """Replay the documented draw rule for the first scan seed: microseconds per vector."""
        seed = self.seeds[0]
        t0 = perf_counter()
        for j in range(count):
            draw(seed, j)
        return (perf_counter() - t0) * 1e6 / count


class Certify:
    """A stream of single-shot S4 requests: det --expr, member, witness."""

    name = "certify"

    def __init__(self, gdet, client, seed, workdir, threads):
        self.gdet = gdet
        self.client = client
        self.pool = inputs.certify(seed)
        # request index -> (answer, error, wrong) of its first run
        self.first: dict[int, tuple] = {}
        self.s4 = reference.S4(gdet.symmetric_group4().names)

    def round(self, k):
        tracer = self.client.tracer
        replies = []
        for req in self.pool:
            op = _begin(tracer, req["kind"])
            replies.append(self.client.call(req["argv"]))
            _end(tracer, op)
        return [self._check(i, req, reply)
                for i, (req, reply) in enumerate(zip(self.pool, replies))]

    def _built(self, req):
        """The coefficients of a det request's expression, from its terms as generated."""
        coeffs = [0] * 24
        for coeff, word in req["terms"]:
            coeffs[self.s4.element(word)] += coeff
        return self.s4.convolve(coeffs, coeffs) if req["squared"] else coeffs

    def _check(self, i, req, reply):
        answer = hash((reply.rc, reply.out))
        if i in self.first:  # a repeat gives the answer already checked, and its verdict
            first, error, wrong = self.first[i]
            if answer != first:
                error, wrong = f"{req['kind']} {req['argv']}: answer changed on repeat", True
            return Op(req["kind"], reply.seconds, 1, answer, error, wrong)
        expected_rc = 0 if req["kind"] == "det" or req["member"] else 1
        error = _refused(reply, expected_rc)
        wrong = error is not None and _answered(reply)
        if error is None:
            out = json.loads(reply.out)
            error = self._wrong_answer(req, out)
            wrong = error is not None
        if error:
            error = f"{req['kind']} {req['label']} {req['argv'][1:]}: {error}"
        self.first[i] = (answer, error, wrong)
        return Op(req["kind"], reply.seconds, 1, answer, error, wrong)

    def _wrong_answer(self, req, out):
        if req["kind"] == "det":
            built = self._built(req)
            if out["coeffs"] != built:
                return f"coefficients {out['coeffs']}, built {built}"
            want = self.s4.det(built)
            if out["det"] != want or out["factors"]["det"] != want:
                return f"det {out['det']}, reference {want}"
            return None
        if out["member"] != req["member"]:
            return f"member={out['member']}, built as {req['label']}"
        if req["kind"] == "witness" and req["member"]:
            if not out.get("verified") or out["target"] != req["m"]:
                return f"certificate not verified for {req['m']}"
            got = self.s4.det(out["coeffs"])
            if got != req["m"]:
                return f"certificate coefficients give {got}, target {req['m']}"
        return None

    def named(self, ops):
        ms = [op.seconds * 1000 for op in ops]
        tail = tail_percentile(len(ms))
        return {
            "certify_rps": (rate(ops), "1/s"),
            "certify_p50_ms": (percentile(ms, 50), "ms"),
            "certify_p99_ms": (percentile(ms, 99) if tail and tail >= 99 else None, "ms"),
            "certify_tail_percentile": (tail, "pct"),
            "certify_tail_ms": (percentile(ms, tail) if tail else None, "ms"),
            "certify_samples": (len(ms), "count"),
        }

    def headline(self, named, ops):
        return named["certify_rps"][0], named["certify_p50_ms"][0]


LAMBDA_RANGE = {name: (lo, hi) for name, lo, hi in inputs.SMALL_GROUPS}


class SmallGroups:
    """Exhaustive scans and lambda --scan-range over the small groups, generic det path."""

    name = "small-groups"

    def __init__(self, gdet, client, seed, workdir, threads):
        self.client = client
        self.boxes = inputs.small_groups(seed)
        # every box's determinant multiset, from the benchmark's own tables and elimination
        self.expected = {box: reference.box_values(*box) for box in self.boxes}

    def round(self, k):
        tracer = self.client.tracer
        ops = []
        for box in self.boxes:
            group, lo, hi = box
            lam_lo, lam_hi = LAMBDA_RANGE[group]
            for mode, argv in (
                ("scan", ["scan", "--group", group, f"--range={lo}:{hi}", "--exhaustive",
                          "--json"]),
                ("lambda", ["lambda", "--group", group, f"--scan-range={lam_lo}:{lam_hi}",
                            "--json"]),
            ):
                op = _begin(tracer, mode)
                reply = self.client.call(argv)
                _end(tracer, op)
                ops.append((mode, box, reply))
        return [self._check(*op) for op in ops]

    def _check(self, mode, box, reply):
        want = self.expected[box]
        size = sum(want.values())
        if mode == "scan":
            error = _refused(reply, 0) or self._wrong_scan(want, json.loads(reply.out))
        else:
            # the scan's range is this one or its mirror, which negates every
            # vector and so keeps every |det|
            smallest = min((abs(v) for v in want if abs(v) >= 2), default=None)
            error = _refused(reply, 0 if smallest is not None else 1)
            if error is None and json.loads(reply.out)["lambda"] != smallest:
                error = f"lambda {json.loads(reply.out)['lambda']}, reference {smallest}"
        if error:
            error = f"{mode} {box[0]}: {error}"
        work = size if mode == "scan" and not error else 0  # a refused scan evaluated nothing
        return Op(mode, reply.seconds, work, (reply.rc, reply.out), error,
                  wrong=error is not None and _answered(reply))

    @staticmethod
    def _wrong_scan(want, report):
        got = {v: n for v, n in report["distinct_values"]}
        if report["total"] != sum(want.values()):
            return f"total {report['total']} != {sum(want.values())}"
        if got != want:
            wrong = sorted(v for v in set(got) | set(want) if got.get(v) != want.get(v))
            return f"{len(wrong)} determinant values miscounted, e.g. {wrong[:3]}"
        if report["violations"]:
            return f"{len(report['violations'])} violations"
        return None

    def named(self, ops):
        return {"small_vps": (rate([op for op in ops if op.mode == "scan"]), "1/s")}

    def headline(self, named, ops):
        """small_vps, and the median time of one sweep of all fourteen requests."""
        sweeps: dict[int, float] = {}
        for op in ops:
            sweeps[op.round] = sweeps.get(op.round, 0.0) + op.seconds
        return named["small_vps"][0], statistics.median(sweeps.values()) * 1000


WORKLOADS = {w.name: w for w in (Identities, Scan, Certify, SmallGroups)}
