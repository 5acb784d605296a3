#!/usr/bin/env python3
"""gdet benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--trace 1]
    python3 bench/run.py --self-test

Run from the root of a checkout; gdet is imported from its ``src/``.  One
run runs the workload's closed loop for ``--seconds`` of request time,
checks every answer, and between rounds times set-up in fresh interpreters
(``setup_s``).  With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run first runs the loop
untraced for half the time, then replays the same rounds with spans around
every layer boundary, checks that both give the same answers, and reports
the per-layer metrics.  ``--workload all`` runs the four workloads one after
another and prints the named metrics of each (identities_s, scan_vps,
scan_vps_2proc, certify_rps, certify_p50_ms, certify_p99_ms, small_vps, and
setup_s, peak_rss_mb and fail_ratio per workload) by name and unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import inputs
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# units of the per-layer metrics, in the order BENCHMARK.json lists them
PER_LAYER = {m["name"]: m["unit"]
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}

SETUP_REPEATS = 30
# What a workload's first request needs, built in a fresh interpreter.
SETUP = {
    "identities": "gdet.cli.build_parser(); gdet.symmetric_group4()",
    "scan": "gdet.cli.build_parser(); gdet.build_group('S4');"
            " gdet.classify.rule_for_group_kind('S4')",
    "certify": "gdet.cli.build_parser(); gdet.symmetric_group4()",
    "small-groups": "gdet.cli.build_parser(); [gdet.build_group(g) for g in "
                    + repr(tuple(g for g, _, _ in inputs.SMALL_GROUPS if g != "S3")) + "]",
}
SETUP_CODE = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, {src!r}); import gdet.cli; "
    "{setup}; print(time.perf_counter() - t0)"
)


def import_gdet():
    if not (SRC / "gdet" / "__init__.py").is_file():
        sys.exit(f"bench: no gdet package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gdet
    import gdet.cli

    if Path(gdet.__file__).resolve().parent != SRC / "gdet":
        sys.exit(f"bench: imported gdet from {gdet.__file__}, not from {SRC}")
    return gdet


class SetupTimer:
    """Times a fresh interpreter importing gdet and building the first request's needs.

    The samples are spread over the run, a share after each round, because
    this machine's speed drifts over seconds.  The figure is their first
    quartile: a start takes about 50 ms, and the slowest ones measure the
    machine's other load more than gdet.
    """

    def __init__(self, workload: str):
        self.code = SETUP_CODE.format(src=str(SRC), setup=SETUP[workload])
        self.times: list[float] = []
        self._sample()  # compiles the bytecode cache, which users pay once
        self.times.clear()

    def _sample(self) -> None:
        done = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        self.times.append(float(done.stdout.strip().splitlines()[-1]))

    def take_until(self, count: int) -> None:
        while len(self.times) < count:
            self._sample()

    def seconds(self) -> float:
        self.take_until(SETUP_REPEATS)
        return statistics.quantiles(self.times, n=4)[0]


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gdet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "gdet_commit": commit,
        "gdet_src_sha256": digest.hexdigest()[:16],
    }


def measure(workload, seconds=None, rounds=None, setup=None):
    """Run rounds until `seconds` of request time have passed, or exactly `rounds` rounds.

    With a SetupTimer, set-up samples are taken between rounds in step with
    the share of `seconds` done.
    """
    ops, busy, k = [], 0.0, 0
    if setup:
        setup.take_until(SETUP_REPEATS // 4)
    while (k < rounds) if rounds is not None else (k == 0 or busy < seconds):
        got = workload.round(k)
        for op in got:
            op.round = k
        ops += got
        busy += sum(op.seconds for op in got)
        k += 1
        if setup:
            setup.take_until(int(SETUP_REPEATS * min(busy / seconds, 1)))
    return ops, k


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def show(key, value, unit) -> None:
    print(f"{key} {'unresolved' if value is None else f'{value:.6g}'} {unit}")


def run_workload(gdet, name, seed, seconds, trace, env):
    threads = 2 if env["nproc"] >= 2 else None  # never more scan workers than cores
    setup = SetupTimer(name)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir()
    client = workloads.Client(gdet)
    traced, mismatches = [], []
    try:
        load = workloads.WORKLOADS[name](gdet, client, seed, str(workdir), threads)
        if not trace:
            ops, _ = measure(load, seconds, setup=setup)
        else:
            # the same rounds twice: untraced, then traced, which must answer alike
            ops, rounds = measure(load, seconds / 2, setup=setup)
            tracer = tracing.Tracer()
            client.tracer = tracer
            tracer.install(gdet)
            try:
                traced, _ = measure(load, rounds=rounds)
            finally:
                tracer.uninstall()
                client.tracer = None
            mismatches = [f"traced {a.mode} answer differs from the untraced one"
                          for a, b in zip(ops, traced) if a.answer != b.answer]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup = setup.seconds()
    every = ops + traced
    failures = [op.error for op in every if op.error] + mismatches
    named = load.named(ops)
    named["setup_s"] = (setup, "s")
    named["peak_rss_mb"] = (peak_rss_mb(), "MB")
    named["fail_ratio"] = (len(failures) / len(every), "ratio")

    if not trace:
        work_per_s, op_p50_ms = load.headline(named, ops)
        metrics = {
            "setup_s": (setup, "s"),
            "peak_rss_mb": named["peak_rss_mb"],
            "work_per_s": (work_per_s, "1/s"),
            "op_p50_ms": (op_p50_ms, "ms"),
        }
    else:
        untraced_s = sum(op.seconds for op in ops)
        traced_s = sum(op.seconds for op in traced)
        extra = {
            "harness.rng_us": 0.0,
            "harness.report_bytes": 0.0,
            "harness.parallel_efficiency": 0.0,
            "trace.overhead_pct": (traced_s / untraced_s - 1) * 100,
        }
        if name == "scan":
            vps, vps2 = named["scan_vps"][0], named["scan_vps_2proc"][0]
            extra["harness.rng_us"] = load.rng_us()
            extra["harness.report_bytes"] = statistics.fmean(load.report_bytes)
            extra["harness.parallel_efficiency"] = vps2 / (2 * vps) if vps2 is not None else None
        layer = tracing.layer_metrics(tracer.spans, extra, PER_LAYER)
        metrics = {k: (v, PER_LAYER[k]) for k, v in layer.items()}
        tracer.write(OUT / f"spans-{name}-{seed}-{os.getpid()}.jsonl")
        print(f"# tracing overhead: {untraced_s:.4f} s untraced, {traced_s:.4f} s traced "
              f"for the same {len(ops)} requests")
        for layer_name, layer_metric, moves, on in tracing.LAYER_MAP:
            print(f"# map {layer_name}: {layer_metric} -> {moves} on {on}")

    print("# env " + json.dumps(env | {"workload": name, "seed": seed, "seconds": seconds,
                                        "trace": trace}))
    print("# named " + json.dumps(named))
    for key, (value, unit) in (named | metrics).items():
        show(key, value, unit)
    distinct = Counter(failures).most_common()
    for failure, count in distinct[:10]:
        print(f"# fail {count}x {failure}")
    if len(distinct) > 10:
        print(f"# fail ... and {len(distinct) - 10} more distinct failures")
    return {
        "correct": not (any(op.wrong for op in every) or mismatches),
        "attempted": len(every),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed, seconds, trace):
    """Every workload in its own process, one after another; the named metrics of each."""
    print("# env " + json.dumps(environment() | {"seed": seed, "seconds": seconds}))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in inputs.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        named = json.loads(next(ln[len("# named "):] for ln in lines if ln.startswith("# named ")))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, (value, unit) in named.items():
            if key in ("setup_s", "peak_rss_mb", "fail_ratio"):
                key = f"{key}.{name}"
            total["metrics"][key] = {"value": value, "unit": unit}
        if trace:
            for key, metric in result["metrics"].items():
                total["metrics"][f"{name}.{key}"] = metric
        for line in lines:
            if line.startswith("# fail"):
                print(f"# {name}: {line[2:]}")
    for key, metric in total["metrics"].items():
        show(key, metric["value"], metric["unit"])
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that inputs are a pure function of the seed")
    args = parser.parse_args(argv)
    if args.self_test:
        problems = inputs.self_test()
        for problem in problems:
            print(f"self-test: {problem}")
        print(f"self-test: {'FAIL' if problems else 'ok'} (held-out seed {inputs.HELD_OUT_SEED})")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        gdet = import_gdet()
        result = run_workload(gdet, args.workload, args.seed, args.seconds, args.trace,
                              environment())
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
