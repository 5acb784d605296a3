"""Command-line entry point.

Subcommands: det, member, lambda, witness, verify-identities, scan, parse.
Exit codes: 0 success / membership yes, 1 domain no (non-member, failed
identity, scan violations), 2 usage or input error.  Every subcommand takes
--json for one-line machine-readable output with a stable schema tag.
Options are accepted only under their full names, never abbreviated.
A handler imports the modules it runs when it is called, so a request loads
only its own command's code.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .groups import build_group, is_decimal
from .ring import ParseError, element_from_json, parse_expr

EXIT_OK = 0
EXIT_NO = 1
EXIT_ERROR = 2


@contextlib.contextmanager
def _exact_ints():
    """Let integers of any length print, then restore the caller's digit limit.

    CPython refuses to convert an int of more than `sys.get_int_max_str_digits()`
    digits to text.  Only output is converted under this context; input
    parsing keeps the limit.  Interpreters without the limit skip it.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _emit(obj) -> None:
    with _exact_ints():
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _unique_keys(pairs):
    """A JSON object from its (key, value) pairs, where a repeated key is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r} in element JSON")
        obj[key] = value
    return obj


def _load_element(args, group):
    if args.expr is not None:
        return parse_expr(args.expr, group)
    text = args.coeffs
    if not text.lstrip().startswith(("[", "{")):
        with open(text) as fh:
            text = fh.read()
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("element JSON is nested too deeply") from None
    return element_from_json(obj, group)


def _cmd_det(args) -> int:
    from . import detcalc

    group = build_group(args.group)
    elem = _load_element(args, group)
    profile = detcalc.s4_factors(elem) if args.factors else None
    value = detcalc.kernel_for(group)(elem.coeffs) if profile is None else profile.det
    if args.json:
        out = {"schema": "gdet-det/1", "group": group.kind,
               "coeffs": list(elem.coeffs), "det": value}
        if profile is not None:
            out["factors"] = profile.as_dict()
        _emit(out)
    else:
        with _exact_ints():
            print(value)
        if profile is not None:
            _emit(profile.as_dict())
    return EXIT_OK


def _cmd_member(args) -> int:
    from . import classify

    rule = classify.parse_rule(args.group)
    verdict = classify.member(rule, args.m)
    out = {"schema": "gdet-member/1"}
    out.update(verdict.as_dict())
    _emit(out)
    return EXIT_OK if verdict.member else EXIT_NO


def _cmd_lambda(args) -> int:
    if args.support is not None and args.scan_range is None:
        raise ValueError("--support needs --scan-range")
    if args.scan_range is not None:
        lo, hi = _parse_range(args.scan_range)
        support = None
        if args.support is not None:
            support = tuple(integer(s) for s in args.support.split(","))
        from . import harness

        value = harness.lambda_scan(args.group, lo, hi, support=support)
        source = "scan"
    else:
        from . import classify

        value = classify.lambda_of(classify.parse_rule(args.group))
        source = "rule"
    if args.json:
        _emit({"schema": "gdet-lambda/1", "group": args.group,
               "lambda": value, "source": source})
    else:
        with _exact_ints():
            print(value if value is not None else "none found")
    return EXIT_OK if value is not None else EXIT_NO


def _cmd_witness(args) -> int:
    from . import witness

    try:
        cert = witness.synthesize(args.m)
    except witness.NotInSet as exc:
        out = {"schema": "gdet-witness/1", "target": args.m, "member": False,
               "reason": exc.verdict.reason}
        _emit(out)
        return EXIT_NO
    out = {"schema": "gdet-witness/1", "member": True}
    out.update(cert.as_dict())
    out["verified"] = witness.verify_certificate(cert)
    _emit(out)
    return EXIT_OK if out["verified"] else EXIT_ERROR


def _cmd_verify_identities(args) -> int:
    from . import sympoly

    factors = sympoly.build_symbolic()
    if args.id:
        try:
            ids = [sympoly.IdentityId[args.id]]
        except KeyError:
            raise ValueError(f"unknown identity: {args.id!r} "
                             f"(choose from {[i.name for i in sympoly.IdentityId]})")
    else:
        ids = list(sympoly.IdentityId)
    reports = [sympoly.check_identity(i, factors) for i in ids]
    if args.json:
        _emit({
            "schema": "gdet-identities/1",
            "all_hold": all(r.holds for r in reports),
            "reports": [
                {"id": r.identity.name, "holds": r.holds,
                 "residual_terms": r.residual_term_count,
                 "elapsed_s": round(r.elapsed, 4)}
                for r in reports
            ],
        })
    else:
        for r in reports:
            status = "PASS" if r.holds else "FAIL"
            print(f"{status} {r.identity.name:14s} residual={r.residual_term_count} "
                  f"{r.elapsed:.2f}s")
    return EXIT_OK if all(r.holds for r in reports) else EXIT_NO


def _cmd_scan(args) -> int:
    from . import harness

    if args.full and args.out is None:
        raise ValueError("--full needs --out")  # the records are only ever written to a file
    if args.seed is not None and args.random is None:
        raise ValueError("--seed needs --random")
    lo, hi = _parse_range(args.range)
    cfg = harness.ScanConfig(group=args.group, lo=lo, hi=hi,
                             mode="exhaustive" if args.random is None else "random",
                             count=args.random or 0, seed=args.seed or 0,
                             out=args.out, full=args.full)
    with _exact_ints():  # the report files are output too
        report = harness.scan(cfg)
        if args.json:
            print(report.to_json())
        else:
            print(f"evaluated {report.total} vectors, {report.zeros} zeros, "
                  f"{len(report.value_counts)} distinct values, "
                  f"{len(report.violations)} violations")
            for violation in report.violations[:10]:
                print(f"VIOLATION det={violation['value']} coeffs={violation['coeffs']}")
    return EXIT_NO if report.violations else EXIT_OK


def _cmd_parse(args) -> int:
    group = build_group("S4")
    elem = parse_expr(args.expr, group)
    if args.json:
        _emit({"schema": "gdet-parse/1", "group": "S4", "coeffs": list(elem.coeffs)})
    else:
        with _exact_ints():
            print(json.dumps(list(elem.coeffs)))
    return EXIT_OK


def integer(text):
    """An integer written as an optional "-" and ASCII digits (`groups.is_decimal`)."""
    if not is_decimal(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_range(text):
    try:
        lo, hi = text.split(":")
        return integer(lo), integer(hi)
    except ValueError:
        raise ValueError(f"bad range {text!r}, expected LO:HI") from None


# options whose value may start with "-", such as an expression "-x" or a range
# "-1:1", which argparse would otherwise take for an option
_DASH_VALUE_OPTIONS = frozenset({"--expr", "--range", "--scan-range", "--support"})


def _join_dash_values(argv):
    """Rewrite `OPTION VALUE` as `OPTION=VALUE` for the options above.

    An option with no token after it is left alone, so argparse still reports
    the missing value.
    """
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token in _DASH_VALUE_OPTIONS:
            value = next(tokens, None)
            if value is not None:
                token = f"{token}={value}"
        out.append(token)
    return out


def _add_det(p):
    p.add_argument("--group", default="S4")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--coeffs", help="inline JSON or a path to a JSON file")
    src.add_argument("--expr", help="ring expression in x and y (S4 only)")
    p.add_argument("--factors", action="store_true", help="also print the S4 factor profile")
    p.add_argument("--json", action="store_true")


def _add_member(p):
    p.add_argument("--group", required=True, help="rule name, e.g. S4, A4, D8, Zp:7")
    p.add_argument("m", type=integer)
    p.add_argument("--json", action="store_true", help="accepted for uniformity; the output is JSON")


def _add_lambda(p):
    p.add_argument("--group", required=True)
    p.add_argument("--scan-range", help="LO:HI for an exhaustive scan instead of the rule")
    p.add_argument("--support", help="comma-separated slots for the scan")
    p.add_argument("--json", action="store_true")


def _add_witness(p):
    p.add_argument("m", type=integer)
    p.add_argument("--json", action="store_true", help="accepted for uniformity; the output is JSON")


def _add_verify_identities(p):
    p.add_argument("--id", help="check a single identity by name")
    p.add_argument("--json", action="store_true")


def _add_scan(p):
    p.add_argument("--group", required=True)
    p.add_argument("--range", required=True, help="entry range LO:HI")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--random", type=integer, metavar="COUNT")
    mode.add_argument("--exhaustive", action="store_true")
    p.add_argument("--seed", type=integer, help="seed of a --random scan (default 0)")
    p.add_argument("--out", help="persist report as JSONL + CSV at this path")
    p.add_argument("--full", action="store_true", help="persist one record per vector")
    p.add_argument("--json", action="store_true")


def _add_parse(p):
    p.add_argument("--expr", required=True)
    p.add_argument("--json", action="store_true")


# name -> (help, function that adds the command's arguments, handler), in the
# order `gdet --help` lists them
COMMANDS = {
    "det": ("evaluate a group determinant", _add_det, _cmd_det),
    "member": ("decide membership in an attainable set", _add_member, _cmd_member),
    "lambda": ("smallest non-trivial |determinant|", _add_lambda, _cmd_lambda),
    "witness": ("synthesize an S4 witness certificate", _add_witness, _cmd_witness),
    "verify-identities": ("check the factor congruence identities",
                          _add_verify_identities, _cmd_verify_identities),
    "scan": ("scan determinants against the decider", _add_scan, _cmd_scan),
    "parse": ("parse a ring expression to canonical coefficients", _add_parse, _cmd_parse),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The gdet parser: only `command`'s subparser if it names one, else every command.

    A lone subparser would shrink the usage line of the top-level errors to
    `{det}`, so it is given the full tree's list of commands as its metavar.
    The full tree keeps argparse's own, which its "invalid choice" error reads.
    """
    parser = argparse.ArgumentParser(
        prog="gdet",
        description="Integer group determinants for small finite groups.",
        allow_abbrev=False,
    )
    if command in COMMANDS:
        names = [command]
        metavar = "{" + ",".join(COMMANDS) + "}"
    else:
        names, metavar = list(COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def run(argv=None) -> int:
    argv = _join_dash_values(sys.argv[1:] if argv is None else argv)
    # a request builds only the parser of the command it names; a first token
    # that names none (-h, nothing, an unknown word) gets the full tree
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ParseError, OSError, json.JSONDecodeError) as exc:
        print(f"gdet: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(run())
