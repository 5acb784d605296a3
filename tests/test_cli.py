"""CLI dispatch, exit codes, and JSON output schemas."""

import contextlib
import json
import sys
import threading

import pytest

from gdet import classify, det_exact, parse_expr, symmetric_group4, word_to_element
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


@pytest.mark.parametrize("coeffs", ["[1.7, 2, 0, 0]", '["3", true, 0, 0]'])
def test_det_rejects_non_integer_coeffs(capsys, coeffs):
    assert run(["det", "--group", "Z4", "--coeffs", coeffs]) == 2
    assert "integers" in capture(capsys)[1]


def test_det_accepts_big_integer_coeffs(capsys):
    assert run(["det", "--group", "Z4", "--coeffs", f"[{2**70}, 0, 0, 0]"]) == 0
    assert capture(capsys)[0].strip() == str(2**280)


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
    real_member = classify.member

    def recording_member(r, m):
        decided.add(r.name)
        return real_member(r, m)

    monkeypatch.setattr(classify, "member", recording_member)
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
    want = [0] * 24
    term = 15 ** 4096
    for k in range(4097):
        want[word_to_element(g, f"x^{k % 4}")] += term
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
