"""CLI dispatch, exit codes, and JSON output schemas."""

import argparse
import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gdet import build_group, classify, cli, det_exact, parse_expr, symmetric_group4
from gdet.cli import run
from gdet.ring import MAX_NESTING


def capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def test_det_expr_one(capsys):
    assert run(["det", "--group", "S4", "--expr", "1"]) == 0
    out, _ = capture(capsys)
    assert out.strip() == "1"


def test_det_expr_json(capsys):
    assert run(["det", "--group", "S4", "--expr", "1 + x", "--json"]) == 0
    out, _ = capture(capsys)
    payload = json.loads(out)
    assert payload["schema"] == "gdet-det/1"
    assert payload["coeffs"][0] == 1 and payload["coeffs"][12] == 1
    assert payload["det"] == 0  # l2 vanishes for 1 + x


def test_det_inline_coeffs_with_factors(capsys):
    coeffs = [1] + [0] * 3 + [1] + [0] * 19  # a1 = a5 = 1
    code = run(["det", "--group", "S4", "--coeffs", json.dumps(coeffs), "--factors", "--json"])
    assert code == 0
    payload = json.loads(capture(capsys)[0])
    assert payload["det"] == 256
    assert payload["factors"]["l1"] == 2 and payload["factors"]["val2"] == 8


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_det_factors_evaluates_the_kernel_once(capsys, monkeypatch, extra):
    """The printed determinant is the profile's own, not a second evaluation."""
    from gdet import detcalc

    calls = []
    kernel_for = detcalc.kernel_for

    def counted(g):
        calls.append(g.kind)
        return kernel_for(g)

    monkeypatch.setattr(detcalc, "kernel_for", counted)
    assert run(["det", "--group", "S4", "--expr", "1 + x + x*y + 2*y^2*x", "--factors", *extra]) == 0
    assert calls == ["S4"]
    out = capture(capsys)[0]
    det = json.loads(out)["det"] if extra else int(out.splitlines()[0])
    assert det == 59887759360


def test_det_coeffs_from_file(capsys, tmp_path):
    path = tmp_path / "elem.json"
    path.write_text(json.dumps({"group": "S4", "a": [1] + [0] * 11, "b": [0] * 12}))
    assert run(["det", "--group", "S4", "--coeffs", str(path)]) == 0
    assert capture(capsys)[0].strip() == "1"


def test_det_non_s4_group(capsys):
    assert run(["det", "--group", "Z4", "--coeffs", "[1, 1, 0, 0]"]) == 0
    out, _ = capture(capsys)
    assert out.strip() == "0"  # (1 + g) has determinant 0 over Z4


def test_det_factors_on_non_s4_group_is_error(capsys):
    assert run(["det", "--group", "Z4", "--coeffs", "[1,2,0,0]", "--factors"]) == 2
    out, err = capture(capsys)
    assert out == "" and "S4 elements only" in err


def test_det_requires_one_source():
    with pytest.raises(SystemExit):
        run(["det", "--group", "S4"])


def test_member_exit_codes(capsys):
    assert run(["member", "--group", "S4", "512"]) == 1
    payload = json.loads(capture(capsys)[0])
    assert payload["member"] is False and payload["schema"] == "gdet-member/1"
    assert run(["member", "--group", "S4", "-1024"]) == 0
    payload = json.loads(capture(capsys)[0])
    assert payload["member"] is True


def test_member_bad_rule_is_error(capsys):
    assert run(["member", "--group", "Q8", "5"]) == 2
    _, err = capture(capsys)
    assert "error" in err


# sha256 over the exit code and output of `member --group R m --json` for each rule
# kind R and each m below, so that a changed verdict or reason field shows
MEMBER_RULES = ("Zp:7", "Z2p:5", "Z9", "Z4", "Klein4", "D8", "S3", "A4", "S4")
MEMBER_VALUES = (0, 1, -1, 2, -2, 3, 5, 16, 27, 48, 49, 64, 256, -256, 768, 1024, -1024,
                 3072, 4096, 2**64 + 1)
MEMBER_JSON_SHA256 = "7bb5bac0a61a64c937b394b84e6a7a3be2498095087d6f90efd8b196b09df02b"


def test_member_json_bytes_are_pinned(capsys):
    digest = hashlib.sha256()
    for rule in MEMBER_RULES:
        for m in MEMBER_VALUES:
            code = run(["member", "--group", rule, str(m), "--json"])
            assert code in (0, 1), (rule, m)
            digest.update(f"{code}\n{capture(capsys)[0]}".encode())
    assert digest.hexdigest() == MEMBER_JSON_SHA256


def test_lambda_rule(capsys):
    assert run(["lambda", "--group", "S4"]) == 0
    assert capture(capsys)[0].strip() == "5"


def test_lambda_scan_mode(capsys):
    assert run(["lambda", "--group", "K4", "--scan-range=-2:2", "--json"]) == 0
    payload = json.loads(capture(capsys)[0])
    assert payload["lambda"] == 3 and payload["source"] == "scan"


@pytest.mark.parametrize("args, message", [
    (["--scan-range=0:2", "--support", "0,9"], "support index 9 is outside 0..3"),
    (["--scan-range=0:2", "--support=-1"], "support index -1 is outside 0..3"),
    (["--scan-range=0:2", "--support", "0,0"], "support repeats an index"),
    (["--scan-range=2:0"], "empty entry range"),
    (["--scan-range=1:0"], "empty entry range"),
])
def test_lambda_scan_rejects_bad_input(capsys, args, message):
    assert run(["lambda", "--group", "Z4"] + args) == 2
    out, err = capture(capsys)
    assert out == "" and message in err


def test_witness_member(capsys):
    assert run(["witness", "1280"]) == 0
    payload = json.loads(capture(capsys)[0])
    assert payload["member"] is True and payload["verified"] is True
    assert payload["trail"] == [["pow2_8", 0], ["res5", 0]]
    assert len(payload["coeffs"]) == 24


def test_witness_non_member(capsys):
    assert run(["witness", "512"]) == 1
    payload = json.loads(capture(capsys)[0])
    assert payload["member"] is False


@pytest.mark.parametrize("argv", [
    ["member", "--group", "S4", "5"],
    ["member", "--group", "S4", "512"],
    ["witness", "5"],
    ["witness", "512"],
])
def test_json_flag_leaves_json_only_output_unchanged(capsys, argv):
    code = run(argv)
    plain = capture(capsys)
    json.loads(plain[0])
    assert run(argv + ["--json"]) == code
    assert capture(capsys) == plain


def test_verify_identities_all(capsys):
    assert run(["verify-identities"]) == 0
    out, _ = capture(capsys)
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 8
    assert all(line.startswith("PASS") for line in lines)


def test_verify_identities_single_json(capsys):
    assert run(["verify-identities", "--id", "Q_MOD3", "--json"]) == 0
    payload = json.loads(capture(capsys)[0])
    assert payload["all_hold"] is True
    assert payload["reports"][0]["id"] == "Q_MOD3"


def test_verify_identities_unknown_id(capsys):
    assert run(["verify-identities", "--id", "NOPE"]) == 2


def test_scan_exhaustive(capsys):
    assert run(["scan", "--group", "Z4", "--range=-2:2", "--exhaustive"]) == 0
    out, _ = capture(capsys)
    assert "625 vectors" in out and "0 violations" in out


def test_scan_random_json(capsys):
    assert run([
        "scan", "--group", "S4", "--range=-3:3", "--random", "200", "--seed", "42",
        "--json",
    ]) == 0
    payload = json.loads(capture(capsys)[0])
    assert payload["total"] == 200 and payload["violations"] == []


def test_scan_writes_output(capsys, tmp_path):
    out = tmp_path / "report.jsonl"
    assert run([
        "scan", "--group", "Z4", "--range=-1:1", "--exhaustive", "--out", str(out),
    ]) == 0
    assert out.exists() and (tmp_path / "report.csv").exists()


def test_scan_bad_range(capsys):
    assert run(["scan", "--group", "Z4", "--range", "oops", "--exhaustive"]) == 2


@pytest.mark.parametrize("joined", [False, True], ids=["separate", "equals"])
@pytest.mark.parametrize("head, option, value, expected", [
    (["parse"], "--expr", "-x", json.dumps([-int(i == 12) for i in range(24)])),
    (["det", "--group", "S4"], "--expr", "-(x)", "1"),
    (["scan", "--group", "Z4", "--exhaustive"], "--range", "-1:1",
     "evaluated 81 vectors, 33 zeros, 9 distinct values, 0 violations"),
    (["lambda", "--group", "Z4"], "--scan-range", "-1:1", "3"),
    (["lambda", "--group", "Z4", "--scan-range=-1:1"], "--support", "0,1,2", "3"),
], ids=["parse-expr", "det-expr", "scan-range", "lambda-scan-range", "lambda-support"])
def test_option_values_may_start_with_a_dash(capsys, head, option, value, expected, joined):
    argv = head + ([f"{option}={value}"] if joined else [option, value])
    assert run(argv) == 0
    assert capture(capsys)[0].strip() == expected


def test_dash_support_reaches_the_range_check(capsys):
    # "-1,0" is read as the value of --support, not as an unknown option
    assert run(["lambda", "--group", "Z4", "--scan-range", "0:2", "--support", "-1,0"]) == 2
    assert "support index -1 is outside 0..3" in capture(capsys)[1]


@pytest.mark.parametrize("argv", [
    ["parse", "--expr"],
    ["det", "--group", "S4", "--expr"],
    ["scan", "--group", "Z4", "--exhaustive", "--range"],
    ["lambda", "--group", "Z4", "--scan-range"],
    ["lambda", "--group", "Z4", "--scan-range", "0:1", "--support"],
])
def test_option_without_value_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "expected one argument" in capture(capsys)[1]


@pytest.mark.parametrize("argv", [
    ["parse", "--ex", "-x"],
    ["parse", "--ex=-x"],
    ["parse", "--ex", "x"],
    ["det", "--group", "S4", "--coef", "[" + ",".join(["0"] * 24) + "]"],
    ["scan", "--group", "Z4", "--rang=0:1", "--exhaustive"],
    ["lambda", "--group", "Z4", "--scan=0:1"],
    ["verify-identities", "--i", "L_MOD2"],
])
def test_abbreviated_option_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    out, err = capture(capsys)
    assert out == "" and "error:" in err


@pytest.mark.parametrize("argv", [
    ["lambda", "--group", "Z12", "--scan-range=\u0660:\u0661"],  # Arabic-Indic 0:1
    ["lambda", "--group", "Z4", "--scan-range=0:1_0"],
    ["lambda", "--group", "Z4", "--scan-range=+0:1"],
    ["lambda", "--group", "Z12", "--scan-range=0:1", "--support=0,1_0"],  # not slot 10
    ["lambda", "--group", "Z4", "--scan-range=0:1", "--support=0, 1"],
    ["member", "--group", "S4", "1_3"],
    ["member", "--group", "S4", " 13"],
    ["member", "--group", "S4", "+13"],
    ["member", "--group", "S4", "\u0661\u0663"],
    ["witness", "1_3"],
    ["scan", "--group", "Z4", "--range=0: 1", "--exhaustive"],
    ["scan", "--group", "Z4", "--range=0:1", "--random", "1_0"],
    ["scan", "--group", "Z4", "--range=0:1", "--random", "10", "--seed", "\u0663"],
    # group parameters: Arabic-Indic 7, 4 and 8
    ["member", "--group", "Zp:\u0667", "49"],
    ["det", "--group", "Z\u0664", "--coeffs", "[1,2,0,0]"],
    ["member", "--group", "D:\u0668", "5"],
    # expression numbers: an Arabic-Indic 3 as a coefficient, 2 as an exponent
    ["parse", "--expr", "\u0663 + x"],
    ["det", "--group", "S4", "--expr", "x^\u0662"],
])
def test_integers_are_ascii_decimals(capsys, argv):
    """An integer is an optional "-" and ASCII digits; anything else int() takes exits 2."""
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects a typed argument
        code = exc.code
    assert code == 2
    out, err = capture(capsys)
    assert out == "" and "error" in err


@pytest.mark.parametrize("argv, code, message", [
    (["det", "--group", "Z1000000000000000003", "--coeffs", "[1]"], 2, "order must be in 1..64"),
    (["lambda", "--group", "Z1000000000000000003", "--scan-range=0:1"], 2, "order must be in 1..64"),
    (["scan", "--group", "Z1000000000000000003", "--range=0:1", "--exhaustive"], 2,
     "order must be in 1..64"),
    (["member", "--group", "Zp:1000000000000000003", "5"], 0, ""),
    (["member", "--group", "Z1000000000000000003", "5"], 0, ""),
    (["member", "--group", f"Zp:{2 ** 64 + 13}", "5"], 2, "below 2^64"),  # a prime
])
def test_large_group_parameters_do_not_hang(capsys, argv, code, message):
    # 10^18 + 3 is prime, and trial division takes minutes on it; run on a
    # daemon thread so a regression fails here instead of hanging the suite
    outcome = []
    worker = threading.Thread(target=lambda: outcome.append(run(argv)), daemon=True)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive(), f"{argv} did not return"
    assert outcome == [code]
    assert message in capture(capsys)[1]


def test_support_without_scan_range_is_error(capsys):
    assert run(["lambda", "--group", "S4", "--support", "0,1"]) == 2
    out, err = capture(capsys)
    assert out == "" and "--support needs --scan-range" in err


@pytest.mark.parametrize("seed", ["7", "-7", "0"])
def test_seed_without_random_is_error(capsys, seed):
    assert run(["scan", "--group", "Z4", "--range=0:1", "--exhaustive", "--seed", seed]) == 2
    out, err = capture(capsys)
    assert out == "" and "--seed needs --random" in err


def test_random_scan_seed_defaults_to_zero(capsys):
    argv = ["scan", "--group", "Z4", "--range=-1:1", "--random", "50", "--json"]
    assert run(argv) == 0
    default = capture(capsys)[0]
    assert run(argv + ["--seed", "0"]) == 0
    assert capture(capsys)[0] == default


def test_scan_full_without_out_is_error(capsys):
    argv = ["scan", "--group", "S4", "--range=-1:1", "--random", "5", "--full"]
    assert run(argv) == 2
    out, err = capture(capsys)
    assert out == "" and "--full needs --out" in err


def test_parse_roundtrip(capsys):
    assert run(["parse", "--expr", "x*y - y*x"]) == 0
    coeffs = json.loads(capture(capsys)[0])
    assert coeffs[4] == 1 and coeffs[11] == -1


def test_parse_json(capsys):
    assert run(["parse", "--expr", "2*y", "--json"]) == 0
    payload = json.loads(capture(capsys)[0])
    assert payload["schema"] == "gdet-parse/1" and payload["coeffs"][20] == 2


def test_parse_rejects_nested_power_fast(capsys):
    # the outer power would give coefficients of about 2.6e7 bits: run it on a
    # daemon thread so that a regression fails here instead of hanging the suite
    outcome = []
    worker = threading.Thread(
        target=lambda: outcome.append(run(["parse", "--expr", "((1+x+y)^4096)^4096"])),
        daemon=True,
    )
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "parse did not return"
    assert outcome == [2]
    assert "power too large" in capture(capsys)[1]


def test_parse_syntax_error(capsys):
    assert run(["parse", "--expr", "x y"]) == 2
    _, err = capture(capsys)
    assert "position" in err


@pytest.mark.parametrize("expr", [
    "(" * 2000 + "x" + ")" * 2000,
    "-" * 2000 + "x",
    "(-" * 300 + "x" + ")" * 300,
    "-" * (MAX_NESTING + 1) + "x",
])
def test_parse_rejects_deep_nesting(capsys, expr):
    assert run(["parse", f"--expr={expr}"]) == 2
    assert f"nested deeper than {MAX_NESTING} levels" in capture(capsys)[1]


def test_parse_accepts_nesting_up_to_the_bound(capsys):
    for expr in ["(" * MAX_NESTING + "x" + ")" * MAX_NESTING, "-" * MAX_NESTING + "x",
                 "(-" * (MAX_NESTING // 2) + "x" + ")" * (MAX_NESTING // 2)]:
        assert run(["parse", f"--expr={expr}"]) == 0
        assert json.loads(capture(capsys)[0]) == [int(i == 12) for i in range(24)]  # x is slot 12


@pytest.mark.parametrize("group, coeffs", [
    ("S4", '{"a": 5, "b": 6}'),
    ("S4", '{"a": null, "b": null}'),
    ("Z4", '{"coeffs": 5}'),
])
def test_det_rejects_json_without_arrays(capsys, group, coeffs):
    assert run(["det", "--group", group, "--coeffs", coeffs]) == 2
    assert "must be an array of integers" in capture(capsys)[1]


def test_det_malformed_json_is_error(capsys):
    assert run(["det", "--group", "S4", "--coeffs", "[1, 2"]) == 2


def test_det_missing_file_is_error(capsys):
    assert run(["det", "--group", "S4", "--coeffs", "no/such/file.json"]) == 2


@pytest.mark.parametrize("inline", [True, False])
def test_det_deeply_nested_json_is_an_input_error(capsys, tmp_path, inline):
    coeffs = "[" * 100_000 + "]" * 100_000
    if not inline:
        path = tmp_path / "deep.json"
        path.write_text(coeffs)
        coeffs = str(path)
    assert run(["det", "--group", "Z4", "--coeffs", coeffs]) == 2
    assert "nested too deeply" in capture(capsys)[1]


@pytest.mark.parametrize("coeffs, key", [
    ('{"coeffs": [1,2,0,1], "coeffs": [1,0,0,0]}', "coeffs"),
    ('{"group": "Z4", "coeffs": [1,0,0,0], "group": "K4"}', "group"),
], ids=["coeffs", "group"])
def test_det_rejects_duplicate_keys(capsys, coeffs, key):
    assert run(["det", "--group", "Z4", "--coeffs", coeffs]) == 2
    assert f"duplicate key {key!r}" in capture(capsys)[1]


@pytest.mark.parametrize("coeffs", ["[1.7, 2, 0, 0]", '["3", true, 0, 0]'])
def test_det_rejects_non_integer_coeffs(capsys, coeffs):
    assert run(["det", "--group", "Z4", "--coeffs", coeffs]) == 2
    assert "integers" in capture(capsys)[1]


def test_det_accepts_big_integer_coeffs(capsys):
    assert run(["det", "--group", "Z4", "--coeffs", f"[{2**70}, 0, 0, 0]"]) == 0
    assert capture(capsys)[0].strip() == str(2**280)


@pytest.mark.parametrize("group, name", [
    ("D:8", "D:8"), ("D:8", "D8"), ("D8", "D:8"), ("K4", "Klein4"), ("Klein4", "K4"),
    ("Z7", "Zn:7"), ("S3", "S3"), ("S3", "D:6"), ("D:6", "S3"),
])
def test_det_element_group_may_be_any_name_of_the_table(capsys, group, name):
    order = build_group(group).order
    coeffs = json.dumps({"group": name, "coeffs": [1, 1] + [0] * (order - 2)})
    assert run(["det", "--group", group, "--coeffs", coeffs]) == 0


# Every README group name and alias: (name, order, has a table, rule it decides with).
REGISTRY = [
    ("S4", 24, True, "S4"),
    ("A4", 12, True, "A4"),
    ("K4", 4, True, "Klein4"),
    ("Klein4", 4, True, "Klein4"),
    ("D8", 8, True, "D8"),
    ("D:8", 8, True, "D8"),
    ("D:6", 6, True, "S3"),
    ("D:10", 10, True, None),
    ("Z4", 4, True, "Z4"),
    ("Zn:4", 4, True, "Z4"),
    ("Z9", 9, True, "Z9"),
    ("Z7", 7, True, "Zp:7"),
    ("Zn:7", 7, True, "Zp:7"),
    ("Z14", 14, True, "Z2p:7"),
    ("Z15", 15, True, None),
    ("Zp:7", 7, False, "Zp:7"),
    ("Z2p:7", 14, False, "Z2p:7"),
    ("S3", 6, True, "S3"),
]


@pytest.mark.parametrize("name,order,has_table,rule", REGISTRY)
def test_group_name_registry(capsys, monkeypatch, name, order, has_table, rule):
    table_code = 0 if has_table else 2
    identity = json.dumps([1] + [0] * (order - 1))
    assert run(["det", "--group", name, "--coeffs", identity]) == table_code
    assert run(["lambda", "--group", name, "--scan-range=0:2", "--support", "0,1"]) == table_code
    if not has_table:
        assert "without a group table; use " in capture(capsys)[1]

    rule_code = 0 if rule is not None else 2
    assert run(["lambda", "--group", name]) == rule_code
    capture(capsys)
    assert run(["member", "--group", name, "1"]) == rule_code
    if rule is not None:
        assert json.loads(capture(capsys)[0])["rule"] == rule

    # scan needs both, and decides with the rule member reports
    decided = set()
    real_decider = classify.decider

    def recording_decider(r):
        decided.add(r.name)
        return real_decider(r)

    monkeypatch.setattr(classify, "decider", recording_decider)
    monkeypatch.delenv("GDET_THREADS", raising=False)
    code = run(["scan", "--group", name, "--range=-3:3", "--random", "20", "--json"])
    assert code == (0 if has_table and rule is not None else 2)
    if code == 0:
        assert decided == {rule}



@contextlib.contextmanager
def any_int_length():
    """Lift CPython's int/str digit limit inside the test, to read and build the answers."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_prints_integers_beyond_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    assert run(["parse", "--expr", "(15+x)^4096"]) == 0
    assert sys.get_int_max_str_digits() == limit  # restored for in-process callers
    # x = (1234) has order 4, so the binomial terms of x^k land in the slot of x^(k mod 4)
    g = symmetric_group4()
    slot = [parse_expr(f"x^{k}", g).coeffs.index(1) for k in range(4)]
    want = [0] * 24
    term = 15 ** 4096
    for k in range(4097):
        want[slot[k % 4]] += term
        term = term * (4096 - k) // ((k + 1) * 15)
    with any_int_length():
        assert len(str(want[0])) > 4300
        assert capture(capsys)[0].strip() == json.dumps(want)


def test_det_prints_integers_beyond_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    assert run(["det", "--group", "S4", "--expr", "(3+x+y)^400"]) == 0
    assert sys.get_int_max_str_digits() == limit
    want = det_exact(symmetric_group4(), parse_expr("(3+x+y)^400", symmetric_group4()))
    with any_int_length():
        assert len(str(want)) > 4300
        assert capture(capsys)[0].strip() == str(want)


def test_scan_writes_integers_beyond_the_digit_limit(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    argv = ["scan", "--group", "Z4", f"--range=0:{10**2000}", "--random", "3", "--seed", "1"]
    assert run([*argv, "--json", "--out", str(tmp_path / "big")]) == 0
    assert sys.get_int_max_str_digits() == limit
    with any_int_length():
        report = json.loads(capture(capsys)[0])
        assert max(len(str(v)) for v, _ in report["distinct_values"]) > 4300
        last = (tmp_path / "big.jsonl").read_text().splitlines()[-1]
        assert json.loads(last) == report


# every --json command prints one JSON object that carries its schema tag, in
# canonical form, so re-serializing it reproduces the line; scan prints its
# report, whose tag is the `format` field it shares with the report files
_TABLE_ORDERS = {"S4": 24, "A4": 12, "Z4": 4, "K4": 4, "D:6": 6, "Z7": 7}
_RULES = ["S4", "A4", "D8", "K4", "Zp:7", "Z2p:5", "Z4", "Z9", "S3"]
_WORDS = ["1", "x", "y", "x^2", "x*y", "y*x^3"]


def _det_command(group):
    n = _TABLE_ORDERS[group]
    return st.lists(st.integers(-5, 5), min_size=n, max_size=n).map(
        lambda c: ("gdet-det/1", ["det", "--group", group, "--coeffs", json.dumps(c), "--json"]))


_JSON_COMMANDS = st.one_of(
    st.sampled_from(sorted(_TABLE_ORDERS)).flatmap(_det_command),
    st.builds(lambda group, m: ("gdet-member/1", ["member", "--group", group, str(m)]),
              st.sampled_from(_RULES), st.integers(-10**6, 10**6)),
    st.builds(lambda group: ("gdet-lambda/1", ["lambda", "--group", group, "--json"]),
              st.sampled_from(_RULES)),
    st.builds(lambda m: ("gdet-witness/1", ["witness", str(m)]), st.integers(-3000, 3000)),
    st.builds(lambda group, lo, width, count, seed: (
        "gdet-scan-report", ["scan", "--group", group, f"--range={lo}:{lo + width}",
                             "--random", str(count), "--seed", str(seed), "--json"]),
              st.sampled_from(sorted(_TABLE_ORDERS)), st.integers(-3, 1), st.integers(0, 3),
              st.integers(1, 20), st.integers(0, 1000)),
    st.lists(st.tuples(st.integers(-5, 5), st.sampled_from(_WORDS)), min_size=1, max_size=4).map(
        lambda terms: ("gdet-parse/1", ["parse", "--expr",
                                        " + ".join(f"({c})*{w}" for c, w in terms), "--json"])),
)


@settings(max_examples=80, deadline=None)
@given(_JSON_COMMANDS)
def test_json_output_is_one_tagged_canonical_object(command):
    tag, argv = command
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1) and err.getvalue() == ""
    line = out.getvalue()
    assert line.endswith("\n") and line.count("\n") == 1
    obj = json.loads(line)
    assert obj.get("schema", obj.get("format")) == tag
    assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == line[:-1]


# the argv lists the one-command parser must treat exactly as the full tree does
_PARSER_ARGVS = [
    *([name, "-h"] for name in cli.COMMANDS),
    ["det", "--group", "Z4", "--coeffs", "[1,2,0,0]", "--json"],
    ["member", "--group", "S4", "5"],
    ["lambda", "--group", "Z4", "--scan-range=0:1", "--support", "0,1", "--json"],
    ["witness", "5", "--json"],
    ["verify-identities", "--id", "L_MOD2"],
    ["scan", "--group", "S4", "--range=-1:1", "--random", "10", "--seed", "3", "--full"],
    ["parse", "--expr=-x"],
    ["member", "5"],                                        # a missing required option
    ["scan", "--group", "Z4", "--exhaustive"],
    ["det", "--expr", "x", "--bogus"],                      # an unknown trailing option
    ["witness", "5", "7"],
    ["parse", "--ex", "x"],                                 # an abbreviated option
    ["scan", "--group", "Z4", "--rang=0:1", "--exhaustive"],
    ["member", "--group", "S4", "\u0661\u0663"],            # a non-ASCII integer
    ["scan", "--group", "Z4", "--range=0:1", "--random", "\u0663"],
    ["det", "--coeffs", "[1]", "--expr", "x"],              # options that exclude each other
    ["det", "member"],
    *([name, "--json", "-h"] for name in cli.COMMANDS),     # -h after an option
    ["member", "--group", "S4", "5", "--bogus"],            # unknown options
    ["witness", "5", "--bogus"],
    ["witness", "--bogus", "5"],
    ["member", "--group", "S4", "--", "5"],                 # -- before a positional
    ["witness", "--", "-5"],
    ["witness", "5", "--json", "--json"],                   # a repeated flag
    ["parse", "--expr", "-x"],                              # a value that starts with -
]

_EVERY_COMMAND = "{det,member,lambda,witness,verify-identities,scan,parse}"


def _outcome(call):
    """(call's result, or argparse's exit code), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call()
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _full_tree_parse(argv):
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", _PARSER_ARGVS)
def test_one_command_parser_reads_argv_as_the_full_tree_does(monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its text to the terminal width
    argv = cli._join_dash_values(argv)  # as `run` reads it
    full = _outcome(lambda: vars(_full_tree_parse(argv)))
    assert _outcome(lambda: vars(cli.parse_args(argv))) == full


# the time each identity took, which `verify-identities` prints
_ELAPSED = re.compile(r" \d+\.\d+s$", re.MULTILINE)


@pytest.mark.parametrize("argv", _PARSER_ARGVS)
def test_run_answers_as_the_full_tree_does(monkeypatch, argv):
    """The exit code, stdout and stderr of `run`, help and usage errors included."""
    monkeypatch.setenv("COLUMNS", "80")
    ours = _outcome(lambda: run(argv))
    monkeypatch.setattr(cli, "parse_args", _full_tree_parse)
    full = _outcome(lambda: run(argv))
    assert [_ELAPSED.sub(" ELAPSED", text) for text in ours[1:]] == \
        [_ELAPSED.sub(" ELAPSED", text) for text in full[1:]]
    assert ours[0] == full[0]


@pytest.mark.parametrize("argv, message", [
    (["det", "--expr", "x", "--bogus"], "gdet: error: unrecognized arguments: --bogus"),
    (["member", "--group", "S4", "5", "--bogus"], "gdet: error: unrecognized arguments: --bogus"),
    (["witness", "5", "--bogus"], "gdet: error: unrecognized arguments: --bogus"),
    (["bogus"], "gdet: error: argument command: invalid choice: 'bogus'"),
    ([], "gdet: error: the following arguments are required: command"),
], ids=["unknown-option", "unknown-member-option", "unknown-witness-option", "unknown-command",
        "no-command"])
def test_top_level_errors_list_every_command(capsys, monkeypatch, argv, message):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    out, err = capture(capsys)
    assert out == "" and err.startswith(f"usage: gdet [-h] {_EVERY_COMMAND} ...\n{message}")


def _subparsers(parser):
    return [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]


def _arguments(parser):
    """Each argument of a parser as (option strings, dest, required, nargs, type, default)."""
    return [(a.option_strings, a.dest, a.required, a.nargs, a.type, a.default)
            for a in parser._actions]


def test_command_parser_adds_only_the_named_command():
    every = list(cli.COMMANDS)
    assert every == ["det", "member", "lambda", "witness", "verify-identities", "scan", "parse"]
    (sub,) = _subparsers(cli.build_parser())
    assert list(sub.choices) == every
    for name in every:
        one = cli.command_parser(name)
        assert one.prog == f"gdet {name}" and not one.allow_abbrev and not _subparsers(one)
        assert _arguments(one) == _arguments(sub.choices[name])
        for parser in (one, sub.choices[name]):
            assert parser.get_default("func") is cli.COMMANDS[name][2]
            assert parser.get_default("command") == name
    with pytest.raises(TypeError):
        cli.build_parser("member")  # the full tree has no one-command mode


def test_run_builds_the_parser_of_the_named_command(capsys, monkeypatch):
    built = []
    for name in ("build_parser", "command_parser"):
        real = getattr(cli, name)

        def recording(*args, _name=name, _real=real):
            built.append((_name, *args))
            return _real(*args)

        monkeypatch.setattr(cli, name, recording)
    assert run(["member", "--group", "S4", "5"]) == 0
    assert built == [("command_parser", "member")]
    built.clear()
    with pytest.raises(SystemExit):
        run([])
    assert built == [("build_parser",)]
    built.clear()
    with pytest.raises(SystemExit):
        run(["member", "--group", "S4", "5", "--bogus"])  # the full tree reports the extra
    assert built == [("command_parser", "member"), ("build_parser",)]


def test_witness_classifies_a_non_member_once(capsys, monkeypatch):
    from gdet import witness

    calls = []
    real_member = classify.member

    def counting(rule, m):
        calls.append(m)
        return real_member(rule, m)

    monkeypatch.setattr(classify, "member", counting)
    monkeypatch.setattr(witness, "member", counting)
    assert run(["witness", "6"]) == 1
    assert calls == [6]
    assert capture(capsys)[0] == (
        '{"member":false,"reason":{"class":null,"mod4":2,"three_condition":false,'
        '"v2":1,"v3":1},"schema":"gdet-witness/1","target":6}\n')


def test_handlers_look_up_the_patch_points_at_call_time(capsys, monkeypatch):
    """A tracer wraps `cli.build_group` and `cli.parse_expr`; a request must call the wrappers."""
    calls = []
    for name in ("build_group", "parse_expr"):
        real = getattr(cli, name)

        def counting(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(cli, name, counting)
    assert run(["det", "--expr", "1 + x", "--json"]) == 0
    assert json.loads(capture(capsys)[0])["det"] == 0
    assert calls == ["build_group", "parse_expr"]


_BASE_MODULES = {"gdet", "gdet.cli", "gdet.groups", "gdet.ring", "gdet.s4data"}


def _modules_after(code):
    """The modules a fresh interpreter has imported after running `code`.

    A fresh process, since this one imported most of gdet already.
    """
    src = str(Path(cli.__file__).resolve().parent.parent)
    script = f"import sys; sys.path.insert(0, {src!r}); {code}; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, check=True)
    return set(done.stdout.splitlines()[-1].split())


def _gdet_modules_after(code):
    """The gdet modules a fresh interpreter has imported after running `code`."""
    return {m for m in _modules_after(code) if m.split(".")[0] == "gdet"}


def test_start_up_imports_no_dataclasses():
    """Every value class is a `groups.Record`, so no command imports `dataclasses` or,
    through it, `inspect`: both cost start-up time."""
    run = "import gdet.cli; gdet.cli.run({!r})".format
    for code, module in [
        ("import gdet.cli; gdet.cli.build_parser(); gdet.build_group('D8')", "gdet.groups"),
        (run(["member", "--group", "S4", "5"]), "gdet.classify"),
        ("import gdet.classify; gdet.classify.parse_rule('S4')", "gdet.classify"),
        (run(["det", "--group", "S4", "--expr", "1 + x", "--factors"]), "gdet.detcalc"),
        (run(["witness", "1280"]), "gdet.witness"),
        (run(["verify-identities"]), "gdet.sympoly"),
        (run(["scan", "--group", "S4", "--range=-1:1", "--random", "50", "--seed", "1"]),
         "gdet.harness"),
        (run(["scan", "--group", "Z4", "--range=0:1", "--exhaustive"]), "gdet.harness"),
        (run(["lambda", "--group", "S3", "--scan-range=-1:1"]), "gdet.harness"),
    ]:
        loaded = _modules_after(code)
        assert module in loaded and not loaded & {"dataclasses", "inspect"}, code


@pytest.mark.parametrize("code, expected", [
    ("import gdet", {"gdet"}),
    ("import gdet.cli; gdet.cli.build_parser()", _BASE_MODULES),
    ("import gdet.cli; gdet.cli.run(['member', '--group', 'S4', '5'])",
     _BASE_MODULES | {"gdet.classify"}),
], ids=["package", "parser", "member"])
def test_import_budget_exact(code, expected):
    assert _gdet_modules_after(code) == expected


@pytest.mark.parametrize("argv, absent", [
    (["det", "--expr", "1 + x"], {"gdet.sympoly", "gdet.witness", "gdet.harness"}),
    (["witness", "1280"], {"gdet.sympoly", "gdet.harness"}),
    (["verify-identities"], {"gdet.harness", "gdet.witness"}),
], ids=["det", "witness", "verify-identities"])
def test_import_budget_of_a_command(argv, absent):
    loaded = _gdet_modules_after(f"import gdet.cli; gdet.cli.run({argv!r})")
    assert _BASE_MODULES <= loaded and not loaded & absent
