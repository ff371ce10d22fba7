import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fibtree
from fibtree import expansion, iter_chain, scans, sternbrocot, threehat
from fibtree import cli
from fibtree.cli import _build_parser, _dumps, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines()]


# ------------------------------------------------------------- basics

def test_eval_json_is_byte_stable(capsys):
    rc, out, _ = run(capsys, "eval", "1011", "--format", "json")
    assert rc == 0
    assert out == '{"state":[7,12,19],"value":19}\n'


def test_eval_text(capsys):
    rc, out, _ = run(capsys, "eval", "1011")
    assert rc == 0
    assert out == "state: 7 12 19\nvalue: 19\n"


def test_eval_csv(capsys):
    rc, out, _ = run(capsys, "eval", "1011", "--format", "csv")
    assert rc == 0
    assert out == "a,b,c,value\n7,12,19,19\n"


def test_eval_alternate_root(capsys):
    rc, out, _ = run(capsys, "eval", "01", "--root", "2,1", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"state": [3, 5, 8], "value": 8}


def test_bad_code_is_a_domain_error(capsys):
    rc, out, err = run(capsys, "eval", "102")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_unknown_subcommand_is_a_usage_error(capsys):
    rc, _, _ = run(capsys, "frobnicate")
    assert rc == 1


def test_missing_argument_is_a_usage_error(capsys):
    rc, _, _ = run(capsys, "eval")
    assert rc == 1


def test_trace_csv(capsys):
    rc, out, _ = run(capsys, "trace", "01", "--format", "csv")
    assert rc == 0
    assert out == "step,a,b,c\n0,1,2,3\n1,1,3,4\n2,3,4,7\n"


def test_reflect(capsys):
    rc, out, _ = run(capsys, "reflect", "10011", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "code": "10011", "reflected": "11001",
        "value": 25, "reflected_value": 25,
    }


def test_metrics_json(capsys):
    rc, out, _ = run(capsys, "metrics", "1100", "--format", "json")
    assert rc == 0
    assert out == '{"weight":2,"avg":"2/1","var":"4/1","clusters":[2,2,2,2]}\n'


# ------------------------------------------------------------ expansion

def test_expand(capsys):
    rc, out, _ = run(capsys, "expand", "10011", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"code": "10011", "a": 5, "b": 3, "k": 3,
                               "value": 25}


def test_expand_pure_fibonacci(capsys):
    rc, out, _ = run(capsys, "expand", "1111", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"code": "1111", "fibonacci_index": 8,
                               "value": 21}


def test_expand_recursive_tree(capsys):
    rc, out, _ = run(capsys, "expand", "10011", "--recursive",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["tree"] == {"k": 3, "a": {"fib": 5}, "b": {"fib": 4}}
    assert doc["products"] == [[3, 5], [4, 5]]
    assert doc["tree_value"] == 25


def test_expand_inverse(capsys):
    rc, out, _ = run(capsys, "expand", "--inverse", "2", "3", "3",
                     "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"a": 2, "b": 3, "k": 3, "code": "1011",
                               "value": 19}


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_expand_recursive_refuses_a_deep_code(capsys, fmt):
    rc, out, err = run(capsys, "expand", "0" * 3000, "--recursive", "--format", fmt)
    assert (rc, out) == (2, "")
    assert err.startswith("error: a code with 3000 bits past") and "Traceback" not in err
    deepest = "0" * expansion._MAX_BITS_PAST_ONES
    rc, out, _ = run(capsys, "expand", deepest, "--recursive", "--format", fmt)
    assert rc == 0 and out


def test_expand_requires_exactly_one_mode(capsys):
    assert run(capsys, "expand")[0] == 1
    assert run(capsys, "expand", "1011", "--inverse", "2", "3", "3")[0] == 1


# ------------------------------------------------------------ fractions

def test_sb_frac(capsys):
    rc, out, _ = run(capsys, "sb", "frac", "0", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {"code": "0", "u": "1/3", "v": "3/1"}


def test_sb_check(capsys):
    rc, out, _ = run(capsys, "sb", "check", "--depth", "4",
                     "--format", "json")
    assert rc == 0
    docs = json_lines(out)
    items, summary = docs[:-1], docs[-1]
    assert [d["length"] for d in items] == [1, 2, 3, 4]
    assert all(d["equal"] for d in items)
    assert [d["state_side"] for d in items] == [4, 8, 16, 32]
    assert summary["violation_count"] == 0


def _verdict_every_other(calls):
    """A check_generation that fails the even depths, recording each call."""
    def check(c):
        calls.append(c)
        return (sternbrocot.GenerationVerdict(c, True, 2, 2) if c % 2
                else sternbrocot.GenerationVerdict(c, False, None, None))
    return check


def test_sb_check_streams_and_counts_failures_as_written(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(sternbrocot, "check_generation", _verdict_every_other(calls))
    args = _build_parser().parse_args(["sb", "check", "--depth", "5"])
    stream = args.func(args)
    assert calls == []
    assert next(iter(stream.records))["length"] == 1 and calls == [1]
    rc, out, _ = run(capsys, "sb", "check", "--depth", "5", "--format", "json")
    docs = json_lines(out)
    assert rc == 3
    assert [d["equal"] for d in docs[:-1]] == [True, False, True, False, True]
    assert docs[-1]["violation_count"] == 2


# The counts 2**(c + 1) pass 4,300 decimal digits from c = 14,284: the
# whole depth is refused before the first verdict, not partway through
# the stream.
@pytest.mark.parametrize("depth", ["14284", "14290"])
def test_sb_check_past_the_digit_limit_is_refused_up_front(capsys, monkeypatch, depth):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    monkeypatch.setattr(sternbrocot, "check_generation", _refuse_work)
    for fmt in ("text", "json", "csv"):
        rc, out, err = run(capsys, "sb", "check", "--depth", depth,
                           "--unsafe-no-cap", "--format", fmt)
        assert (rc, out) == (2, "")
        assert err == (f"error: --depth {depth} gives counts of more than 4300 "
                       "decimal digits, the interpreter's limit for integer output\n")


# the last depth under the default limit, a limit of 0, and a 3.10 build
# without get_int_max_str_digits are all run in full
@pytest.mark.parametrize("limit, depth", [(4300, 14283), (0, 20000), (None, 20000)])
def test_sb_check_within_the_digit_limit_runs(capsys, monkeypatch, limit, depth):
    calls = []
    if limit is None:
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    else:
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit, raising=False)
    monkeypatch.setattr(sternbrocot, "check_generation", _verdict_every_other(calls))
    rc, out, _ = run(capsys, "sb", "check", "--depth", str(depth), "--unsafe-no-cap",
                     "--format", "json")
    assert rc == 3 and calls == list(range(1, depth + 1))
    assert out.count("\n") == depth + 1


# The excluded counts of hat solve reach about 2**hi, hi = bounds(solver,
# rounds)[1], and pass 4,300 decimal digits from hi = 14,284: the first
# refused --rounds is the first whose output would fail.
@pytest.mark.parametrize("solver, last", [("A", 4762), ("B", 4761), ("C", 4761)])
def test_hat_solve_rounds_past_the_digit_limit_are_refused_up_front(
        capsys, monkeypatch, solver, last):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
    argv = ["hat", "solve", "--solver", solver, "--value", "6", "--unsafe-no-cap",
            "--format", "json", "--rounds"]
    rc, out, _ = run(capsys, *argv, str(last))
    assert rc == 0 and len(str(max(json.loads(out)["excluded"].values()))) == 4300
    monkeypatch.setattr(threehat, "solve_puzzle", _refuse_work)
    rc, out, err = run(capsys, *argv, str(last + 1))
    assert (rc, out) == (2, "")
    assert err == (f"error: --rounds {last + 1} gives counts of more than 4300 "
                   "decimal digits, the interpreter's limit for integer output\n")


# With the digit limit off (0) nothing above refuses --rounds, and the
# counts of about 3 * rounds bits grew past a gigabyte at 10**9: the
# --rounds cap of 10**4 refuses it, after the digit check, so a refusal
# that check makes keeps its message.
def test_hat_solve_rounds_cap_holds_with_the_digit_limit_off(capsys, monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
    calls = []
    monkeypatch.setattr(threehat, "solve_puzzle", lambda q: (
        calls.append(q.rounds) or threehat.SolveResult(
            q, threehat.CriteriaReport(q, [], {}, 0), [])))
    argv = ["hat", "solve", "--solver", "A", "--value", "6", "--format", "json"]
    for rounds in ("10001", "1000000000"):
        rc, out, err = run(capsys, *argv, "--rounds", rounds)
        assert (rc, out) == (2, "")
        assert err == (f"error: --rounds {rounds} exceeds the hard cap 10000 "
                       "(pass --unsafe-no-cap to override)\n")
    assert run(capsys, *argv, "--rounds", "10000")[0] == 0
    assert run(capsys, *argv, "--rounds", "10001", "--unsafe-no-cap")[0] == 0
    assert calls == [10000, 10001]


# ---------------------------------------------------------------- scans

def test_scan_conjecture_streams_and_counts(capsys):
    rc, out, err = run(capsys, "scan", "conjecture", "--len", "5",
                       "--format", "json")
    assert rc == 3  # findings
    docs = json_lines(out)
    items, summary = docs[:-1], docs[-1]
    assert len(items) == 6
    assert items[0] == {
        "length": 5, "weight": 2,
        "low_var_code": "00110", "high_var_code": "10001",
        "low_var": "17/5", "high_var": "29/5",
        "low_var_value": 19, "high_var_value": 20,
    }
    assert summary == {"scope": "conjecture:len=5", "checked": 32,
                       "violations": [], "violation_count": 6,
                       "elapsed_ms": None}
    assert "ms" in err  # timing goes to stderr only


def test_scan_conjecture_weight_filter(capsys):
    rc, out, _ = run(capsys, "scan", "conjecture", "--len", "5",
                     "--weight", "3", "--format", "json")
    assert rc == 3
    summary = json_lines(out)[-1]
    assert summary["scope"] == "conjecture:len=5:weight=3"
    assert summary["checked"] == 10
    assert summary["violation_count"] == 2


def test_scan_reflection_clean(capsys):
    rc, out, _ = run(capsys, "scan", "reflection", "--max-len", "8",
                     "--format", "json")
    assert rc == 0
    summary = json_lines(out)[-1]
    assert summary["checked"] == 510
    assert summary["violation_count"] == 0


def test_scan_converse_flags_classes(capsys):
    rc, out, _ = run(capsys, "scan", "converse", "--len", "5",
                     "--format", "json")
    assert rc == 3
    docs = json_lines(out)
    flagged = [d for d in docs[:-1] if d.get("beyond_reflection")]
    assert {d["value"] for d in flagged} == {17, 23, 25, 29}
    assert docs[-1]["classes"] == 11


# the two scans with the most records write each JSON line from a
# template; the library's own form through the encoder is the reference
def _stream(*argv):
    args = _build_parser().parse_args(list(argv))
    return args.func(args)


def test_converse_json_lines_match_the_encoder():
    classes = 0
    for length in range(1, 15):
        stream = _stream("scan", "converse", "--len", str(length))
        for cls in stream.records:
            assert stream.json(cls) == _dumps(cls.to_jsonable())
            classes += 1
    assert classes > 1726  # length 14 alone has 1,726


@pytest.mark.parametrize("length", range(1, 10))
def test_conjecture_json_lines_match_the_encoder(length):
    pairs = 0
    for weight in [[], *(["--weight", str(w)] for w in range(1, length + 1))]:
        stream = _stream("scan", "conjecture", "--len", str(length), *weight)
        for record in stream.records:
            assert stream.json(record) == _dumps(record)
            pairs += 1
    assert pairs > 0 or length < 5  # length 5 has the first pairs


# the text line's formatter before it filled a %-template
CONJECTURE_TEXT = ("len {length} weight {weight}: var {low_var} value {low_var_value} "
                   "vs var {high_var} value {high_var_value} "
                   "(codes {low_var_code}, {high_var_code})").format_map


@pytest.mark.parametrize("length", range(1, 10))
def test_conjecture_text_and_csv_lines_match_the_formatters(length):
    pairs = 0
    for weight in [[], *(["--weight", str(w)] for w in range(1, length + 1))]:
        stream = _stream("scan", "conjecture", "--len", str(length), *weight)
        records = list(stream.records)
        for record in records:
            assert stream.text(record) == CONJECTURE_TEXT(record)
        got, want = io.StringIO(), io.StringIO()
        csv.writer(got, lineterminator="\n").writerows(map(stream.row, records))
        csv.writer(want, lineterminator="\n").writerows(
            [record[field] for field in stream.header] for record in records)
        assert got.getvalue() == want.getvalue()
        pairs += len(records)
    assert pairs > 0 or length < 5  # length 5 has the first pairs


def test_scan_roots(capsys):
    rc, out, _ = run(capsys, "scan", "roots", "--max-entry", "10",
                     "--depth", "6", "--format", "json")
    assert rc == 0
    docs = json_lines(out)
    assert docs[:-1] == [{"root": [1, 2, 3]}, {"root": [2, 1, 3]}]
    assert docs[-1]["survivors"] == [[1, 2, 3], [2, 1, 3]]
    assert docs[-1]["checked"] == 63


def test_scan_blocks(capsys):
    rc, out, _ = run(capsys, "scan", "blocks", "--max-j", "6",
                     "--format", "json")
    assert rc == 0
    docs = json_lines(out)
    assert [d["j"] for d in docs[:-1]] == [2, 3, 4, 5, 6]
    assert all(d["ok"] for d in docs[:-1])
    assert docs[:-1][0]["block"] == 14 and docs[:-1][0]["alternating"] == 17


def test_scan_cap_guards_runtime(capsys):
    rc, _, err = run(capsys, "scan", "reflection", "--max-len", "31")
    assert rc == 2
    assert "error:" in err


def test_unsafe_no_cap_lifts_the_guard(capsys):
    rc, out, _ = run(capsys, "scan", "blocks", "--max-j", "31",
                     "--unsafe-no-cap", "--format", "json")
    assert rc == 0
    assert json_lines(out)[-1]["checked"] == 30


def _refuse_work(*args):
    raise AssertionError("the command ran before its cap check")


@pytest.mark.parametrize("argv, name", [
    (["scan", "roots", "--max-entry", "1000000001", "--depth", "4"], "--max-entry"),
    (["hat", "solve", "--solver", "B", "--rounds", "2", "--value", "1000001"],
     "--value"),
    (["hat", "solve", "--solver", "B", "--rounds", "2", "--value", "3",
      "--oracle-cap", "1000001"], "--oracle-cap"),
    (["expand", "--inverse", "1", "1", "1000000"], "--inverse K"),
    # K = 2 and the Euclid quotients 0 and 1000001 of (1, 1000001)
    (["expand", "--inverse", "1", "1000001", "2"], "decoded code length"),
])
def test_size_caps_refuse_before_any_work(capsys, monkeypatch, argv, name):
    for module, attr in ((scans, "scan_roots"), (threehat, "solve_puzzle"),
                         (threehat, "brute_solve"), (expansion, "fib"),
                         (expansion, "decode_state")):
        monkeypatch.setattr(module, attr, _refuse_work)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert f"error: {name} 100000" in err and "--unsafe-no-cap" in err


def test_unsafe_no_cap_lifts_the_size_caps(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(scans, "scan_roots", lambda n, depth: (
        calls.append(n) or scans.RootScanReport("s", 0, [])))
    monkeypatch.setattr(threehat, "solve_puzzle", lambda q: (
        calls.append(q.value) or threehat.SolveResult(
            q, threehat.CriteriaReport(q, [], {}, 0), [])))
    monkeypatch.setattr(threehat, "brute_solve",
                        lambda q, cap: calls.append(cap) or [])
    rc, _, _ = run(capsys, "scan", "roots", "--max-entry", "1000000001",
                   "--depth", "4", "--unsafe-no-cap", "--format", "json")
    assert rc == 0
    rc, _, _ = run(capsys, "hat", "solve", "--solver", "B", "--rounds", "2",
                   "--value", "1000001", "--oracle-cap", "1000002",
                   "--unsafe-no-cap", "--format", "json")
    assert rc == 0
    assert calls == [1000000001, 1000001, 1000002]
    rc, out, _ = run(capsys, "expand", "--inverse", "1", "1000001", "2",
                     "--unsafe-no-cap", "--format", "csv")
    code = "01" + "0" * 999999
    assert (rc, out) == (0, f"code,a,b,k,value\n{code},1,1000001,2,3000004\n")


def test_scan_timing_line_is_its_argv(capsys):
    argv = ["scan", "reflection", "--max-len", "6", "--format", "json"]
    rc, _, err = run(capsys, *argv)
    assert rc == 0
    assert re.fullmatch(re.escape(" ".join(argv)) + r": \d+\.\d ms\n", err)


def test_scan_output_is_identical_across_jobs(capsys):
    outs = []
    for jobs in ("1", "2"):
        rc, out, _ = run(capsys, "scan", "conjecture", "--len", "8",
                         "--jobs", jobs, "--format", "json")
        assert rc == 3
        outs.append(out)
    assert outs[0] == outs[1]


def test_out_redirects_payload_to_file(capsys, tmp_path):
    target = tmp_path / "scan.jsonl"
    rc, out, _ = run(capsys, "scan", "conjecture", "--len", "5",
                     "--format", "json", "--out", str(target))
    assert rc == 3
    assert out == ""
    rc, direct, _ = run(capsys, "scan", "conjecture", "--len", "5",
                        "--format", "json")
    assert target.read_text() == direct


@pytest.mark.parametrize("target", ["missing/x", "."])
def test_out_that_cannot_be_opened_is_one_error_line(capsys, tmp_path, target):
    rc, out, err = run(capsys, "eval", "0101", "--out", str(tmp_path / target))
    assert rc == 1
    assert out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("eval", "012"),
    ("scan", "reflection", "--max-len", "31", "--format", "json"),
])
def test_failed_command_leaves_out_file_alone(capsys, tmp_path, argv):
    target = tmp_path / "results.json"
    target.write_bytes(b'{"kept":true}\n')
    rc, _, err = run(capsys, *argv, "--out", str(target))
    assert rc == 2
    assert err.startswith("error:")
    assert target.read_bytes() == b'{"kept":true}\n'


# eval of 21,000 one bits reaches F(21004), and expand --inverse 1 1 30000
# a*F(k) + b*F(k+2) with k = 30000: both past Python's default limit of
# 4300 decimal digits for str() of an int.  K = 30000 passes the cap on K,
# which refuses it first unless lifted.
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [("eval", "1" * 21000),
                                  ("expand", "--inverse", "1", "1", "30000",
                                   "--unsafe-no-cap")],
                         ids=["eval", "expand-inverse"])
def test_result_past_the_digit_limit_is_a_domain_error(capsys, tmp_path, argv, fmt):
    rc, out, err = run(capsys, *argv, "--format", fmt)
    assert (rc, out) == (2, "")
    assert err == (f"error: a result has more than {sys.get_int_max_str_digits()} "
                   "decimal digits, the interpreter's limit for integer output\n")
    target = tmp_path / "results.json"
    target.write_bytes(b'{"kept":true}\n')
    rc, _, _ = run(capsys, *argv, "--format", fmt, "--out", str(target))
    assert rc == 2
    assert target.read_bytes() == b'{"kept":true}\n'


# ------------------------------------------------------------------ hats

def test_hat_simulate_json(capsys):
    rc, out, _ = run(capsys, "hat", "simulate", "3", "1", "2",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["announcer"] == "A" and doc["turn"] == 4 and doc["round"] == 2
    assert doc["turns"][-1] == {"turn": 4, "player": "A",
                                "action": "announce", "value": 3}


def test_hat_simulate_rejects_invalid_world(capsys):
    rc, _, err = run(capsys, "hat", "simulate", "1", "2", "4")
    assert rc == 2
    assert "error:" in err


def test_hat_chain_json(capsys):
    rc, out, _ = run(capsys, "hat", "chain", "3", "11", "14",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["chain"] == [[3, 11, 14], [3, 8, 11], [3, 5, 8],
                            [2, 3, 5], [1, 2, 3]]
    assert doc["length"] == 5


def test_hat_chain_full(capsys):
    rc, out, _ = run(capsys, "hat", "chain", "3", "11", "14", "--full",
                     "--format", "json")
    assert rc == 0
    assert json.loads(out)["chain"][-1] == [1, 1, 2]


@pytest.mark.parametrize("flags", [(), ("--full",)])
def test_hat_chain_walks_the_chain_once(capsys, monkeypatch, flags):
    calls = []

    def counting_walk(*args, **kwargs):
        calls.append(args)
        return iter_chain(*args, **kwargs)

    # the command imports iter_chain from fibtree.threehat when it runs
    monkeypatch.setattr(threehat, "iter_chain", counting_walk)
    rc, _, _ = run(capsys, "hat", "chain", "3", "11", "14", *flags)
    assert rc == 0
    assert len(calls) == 1


def test_hat_solve_json(capsys):
    rc, out, _ = run(capsys, "hat", "solve", "--solver", "C",
                     "--rounds", "1", "--value", "3", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["survivors"] == [[1, 2, 3]]
    assert [s["config"] for s in doc["solutions"]] == [[1, 2, 3], [2, 1, 3]]
    assert doc["excluded"] == {"chain_length": 0, "value_lower_bound": 6,
                               "prime_upper_bound": 0, "divisibility": 0}


def test_hat_solve_with_oracle(capsys):
    rc, out, _ = run(capsys, "hat", "solve", "--solver", "C",
                     "--rounds", "1", "--value", "2", "--oracle-cap", "10",
                     "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["solutions"] == []
    assert [s["config"] for s in doc["oracle"]] == [[1, 1, 2]]


# --------------------------------------------------------------- parser

# One argv for each of the 15 commands and the namespace it parses to,
# captured before the parser's shared arguments were written once: the
# shapes, defaults and types must not move.  Help text is not pinned
# here: argparse formats it differently across Python versions.
COMMON_DEFAULTS = {"format": "text", "jobs": 1, "out": None, "unsafe_no_cap": False}
PARSED = [
    ("eval 0101 --root 2,1", "_cmd_eval",
     {"command": "eval", "code": "0101", "root": "2,1"}),
    ("trace 0110", "_cmd_trace", {"command": "trace", "code": "0110", "root": None}),
    ("reflect 10011", "_cmd_reflect", {"command": "reflect", "code": "10011"}),
    ("metrics 0110 --format json", "_cmd_metrics",
     {"command": "metrics", "code": "0110", "format": "json"}),
    ("expand --inverse 2 3 4", "_cmd_expand",
     {"command": "expand", "code": None, "inverse": [2, 3, 4], "recursive": False}),
    ("scan reflection --max-len 18 --jobs 2", "_cmd_scan_reflection",
     {"command": "scan", "scan_command": "reflection", "max_len": 18, "jobs": 2}),
    ("scan conjecture --len 8 --weight 4", "_cmd_scan_conjecture",
     {"command": "scan", "scan_command": "conjecture", "length": 8, "weight": 4}),
    ("scan converse --len 16 --out x.json", "_cmd_scan_converse",
     {"command": "scan", "scan_command": "converse", "length": 16, "out": "x.json"}),
    ("scan roots --max-entry 400", "_cmd_scan_roots",
     {"command": "scan", "scan_command": "roots", "max_entry": 400, "depth": 10}),
    ("scan blocks", "_cmd_scan_blocks",
     {"command": "scan", "scan_command": "blocks", "max_j": 12}),
    ("sb frac 0110", "_cmd_sb_frac", {"command": "sb", "sb_command": "frac", "code": "0110"}),
    ("sb check --depth 12 --unsafe-no-cap", "_cmd_sb_check",
     {"command": "sb", "sb_command": "check", "depth": 12, "unsafe_no_cap": True}),
    ("hat simulate 3 11 14 --format csv", "_cmd_hat_simulate",
     {"command": "hat", "hat_command": "simulate", "a": 3, "b": 11, "c": 14,
      "format": "csv"}),
    ("hat chain 3 11 14 --full", "_cmd_hat_chain",
     {"command": "hat", "hat_command": "chain", "a": 3, "b": 11, "c": 14, "full": True}),
    ("hat solve --solver B --rounds 4 --value 720 --oracle-cap 10", "_cmd_hat_solve",
     {"command": "hat", "hat_command": "solve", "solver": "B", "rounds": 4,
      "value": 720, "oracle_cap": 10}),
]


@pytest.mark.parametrize("argv, func, parsed", PARSED, ids=[case[0] for case in PARSED])
def test_each_command_parses_as_before(argv, func, parsed):
    args = vars(_build_parser().parse_args(argv.split()))
    assert args.pop("func") is getattr(cli, func)
    assert args == {**COMMON_DEFAULTS, **parsed}


# ------------------------------------------------------ golden outputs

# Every command in every format: the exit code, the SHA-256 of stdout and
# the SHA-256 of stderr less its stopwatch lines.  A change to how a
# command computes or renders its result must leave these bytes alone.
# The table is a plain literal: CI reads it with ast.literal_eval to run
# each case on every supported Python version.
GOLDEN_DIGESTS = [
    ("eval 0101", "text", 0,
     "a4a7390b7115297d10f6e93c5fa04197610f401f805ce70a2535f7a49815cde9",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eval 0101", "json", 0,
     "575fd0a1408c6f470a57732c6f635df579a386ca33bf6784359d21ef5420d098",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eval 0101", "csv", 0,
     "68089ddc04fcb3e297d2333b898b3cbfc4cb0e2a7881f1fd61c6a34ede229ea7",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eval 01 --root 2,1", "text", 0,
     "6b9815c4baf7f35ba7fd3d56627212c83da5deb31d99a830421d65ccae751078",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eval 01 --root 2,1", "json", 0,
     "ca80359e86f3f11d197daaa484ad5680ea02b062a0fcfd64b88b19b6bd80fdcf",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eval 01 --root 2,1", "csv", 0,
     "517189c9b4c33fa03d263e9580912b97bb644a9424689f533c295bb709124ee6",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("eval 102", "text", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "6828a6961ddf646e3410b546c38d5a27d60cbfb682792c8bee715cefdca0f52d"),
    ("eval 102", "json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "6828a6961ddf646e3410b546c38d5a27d60cbfb682792c8bee715cefdca0f52d"),
    ("eval 102", "csv", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "6828a6961ddf646e3410b546c38d5a27d60cbfb682792c8bee715cefdca0f52d"),
    ("trace 0110", "text", 0,
     "d310cb0fd6518c0d1215d86c7a115f5adaf11f22042171ab0975c5ea151a2d9b",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("trace 0110", "json", 0,
     "ddefbd2d76a0cd2f9500583b92462c8942da3e2d0a0ebcd0156e56320968f4ee",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("trace 0110", "csv", 0,
     "4e997925aa7e1c4b86e478ec596a61a63a49264587f3d6766899a3fdf32f8e8c",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("reflect 10011", "text", 0,
     "9c62008093b770a610330f3735a491647be8fbba6128d481d1af52285b8d190b",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("reflect 10011", "json", 0,
     "04c4527e236c2a4487e581d6156530ac984b1bbed1103bbf9540d3cb19ecab02",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("reflect 10011", "csv", 0,
     "3d9b9a4efe4d93f20fc629b43eaa4fbc5be13d661298a1f7eac1b84b44b302f8",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("metrics 0110", "text", 0,
     "8745effdaa1eb13f6bf9a9e35130de59bd1b7727ec89136b6e1aea79ab946ff7",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("metrics 0110", "json", 0,
     "77334d14b2faceaa0009ac4b4b4828e88fb70229c688867219384d3735e7f96a",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("metrics 0110", "csv", 0,
     "698c84f36cacb3f6b07d008f4b27d302628574d6b8f26b97e97b5a9ed4515850",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand 10011", "text", 0,
     "6e55cb1ec2f917667855ccfb8448226855d0246d0d89da60b8da5542e353e36b",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand 10011", "json", 0,
     "996f4f15f6549e33fb72dcb850cce0786d116c4e1e48a4571a8334003e53f03f",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand 10011", "csv", 0,
     "b774f8f9ca459a2a83847fea7a011adecfe621fae43231ee1ebdc3886d8ba36a",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand 1111", "text", 0,
     "c728081134421798cd4fea5791f3310cbbf8a50277de90f684b3e51254a4cde0",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand 1111", "json", 0,
     "ddb2518db6d871e321944e005ded6a931de10479bcd5b66141bc7eaaf51ca850",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand 1111", "csv", 0,
     "c0f900abc0c5e393fb68674a2e2dab64a3fc9080a89429f4a557596796aa5abf",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand 10011 --recursive", "text", 0,
     "051d3cc2d97ecd1f30d4bb85b14efc28fad27746e24cb511170f79e6bd10dc7a",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand 10011 --recursive", "json", 0,
     "2af9d8a39ca1e2a30ce4c537f6d933796799e7d441b2bf464a12fb6ef442084e",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand 10011 --recursive", "csv", 0,
     "b774f8f9ca459a2a83847fea7a011adecfe621fae43231ee1ebdc3886d8ba36a",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand --inverse 2 3 4", "text", 0,
     "29cc46e930eff6990a8d1a20835375715184631b001f9eb11c0d9fb94e49baa6",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand --inverse 2 3 4", "json", 0,
     "89d60b1c93abcc22bb4055ed582df2c7e60cc0b93de3f48f4a75223131b966b5",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand --inverse 2 3 4", "csv", 0,
     "7a19faefde3507dd079e1c90b1aab192169127162faa4ad010f036cf431f2fa1",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("expand 1011 --inverse 2 3 3", "text", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "512a8851e8c5c69608fa43d28356449f379ae38217765857464ee437cb046bee"),
    ("expand 1011 --inverse 2 3 3", "json", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "512a8851e8c5c69608fa43d28356449f379ae38217765857464ee437cb046bee"),
    ("expand 1011 --inverse 2 3 3", "csv", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "512a8851e8c5c69608fa43d28356449f379ae38217765857464ee437cb046bee"),
    ("expand", "text", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "512a8851e8c5c69608fa43d28356449f379ae38217765857464ee437cb046bee"),
    ("expand", "json", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "512a8851e8c5c69608fa43d28356449f379ae38217765857464ee437cb046bee"),
    ("expand", "csv", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "512a8851e8c5c69608fa43d28356449f379ae38217765857464ee437cb046bee"),
    ("sb frac 0110", "text", 0,
     "2e003ed572b94bea09226a9705db8db4f8ff397410a4de46e35b524d5cbcf58a",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sb frac 0110", "json", 0,
     "cba38f2efd13ae09e76676cf0eeed5f2ff97e9694350ce8a75ccfdfba4dfaba3",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sb frac 0110", "csv", 0,
     "c295a358db9b2d245983088b5fc61ede2ec1e84b567312b76ee764074d57fa79",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("sb check --depth 12", "text", 0,
     "d0e2473c1e65b5cb7d7baa3fa2f75f59e6d32101d4ea8b51cfb52067771909e5",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("sb check --depth 12", "json", 0,
     "fa6ee947e38fef9a049dcacef6376c84e832744c4cf34cc41896c70db046392f",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("sb check --depth 12", "csv", 0,
     "c86b7995487162ceaf57eda8d72a80c1741629c74938d30efe8c6d6ffbd7407b",
     "a0beb3162259ca0df3827e214086bc6c4f425b8faeffb22c94127984b3e3c5a3"),
    ("scan reflection --max-len 18", "text", 0,
     "9c9082a0ba64f4ac04772050d65b59b2c0bccc1cc2cba3f3e0c0327e5fc3f4ca",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("scan reflection --max-len 18", "json", 0,
     "6ef262e5f61d44c134f0dd805f7eae1d66d86fff37099a4fe98ca81c5c754926",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("scan reflection --max-len 18", "csv", 0,
     "96cadf998d21130af25114a3cfd0687a8bffc19562de7310e3b91adecbe343f7",
     "eb9dde4c1f713266ccac307b77465421a054c20ac7c9639cfbb2a91acde1b69a"),
    ("scan conjecture --len 8", "text", 3,
     "2ab0089648802d168582da314b5f0a2077649976d6f120f99fc14b9fe5177f1f",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("scan conjecture --len 8", "json", 3,
     "2d715f8b068391959b5ac390b841d3ebe5c8609ba3a6455b4ddf52636fa025bc",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("scan conjecture --len 8", "csv", 3,
     "114bbc29b39297ab7bad9b340db9c211463845ddab534e7ab71352fe5d0d2a17",
     "aa56d59d5b331de8f113cbe9473b9cb2660674e70e83d928725e8b0c517e8684"),
    ("scan conjecture --len 8 --weight 4", "text", 3,
     "91b1b6a34e524acb5311613c3f2866f58b3194c69a56cd48fbca6f2793cb1bb2",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("scan conjecture --len 8 --weight 4", "json", 3,
     "5fd88b8f929cc8ecaac2d73d7f83326df2ce48c873af0e9f38c1307702fcf5e2",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("scan conjecture --len 8 --weight 4", "csv", 3,
     "1540a7c3ac456bd63dc7d5103095b421322b599b3f9f323b603c38599d2f678e",
     "747aa38750ee0cc84a7a041110586483a670642b5d9e13fd44443f18ce4bde3a"),
    ("scan converse --len 16", "text", 3,
     "69fd46416dd59108c6713b574c374b71922fbe37c4d188045f419fa6301ec2f3",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("scan converse --len 16", "json", 3,
     "6045a11c4289aea4cff8f0adcb21476c50c69f1eb1a1c1ee50ad7fb1a4d5c802",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("scan converse --len 16", "csv", 3,
     "60a00ffe88a3a19dae9c8ce8b220ed6558680eff48cdcbfd1ab292d35e16dd36",
     "9b25db15adf7fc00b8983e6f31d8a85e1974f759107ccef05fa79349742f940d"),
    ("scan converse --len 12", "json", 3,
     "f53950b2047bebfd5da8adb67cca8d45c7f5a61766773c47204281854a48e9f0",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("scan conjecture --len 9", "json", 3,
     "7e748085dceb35b30c006b8bcd4cbdeb7ca57a2c3b4020d12f0a271b705fe9c8",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("scan roots --max-entry 400 --depth 12", "text", 0,
     "72c70cc4774c41be4e1e8f73b52b0766b83852e6eed048d19351dcec7f03fc77",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("scan roots --max-entry 400 --depth 12", "json", 0,
     "f0e169448143ccd6657cae3270a03bcfb440ad21937b0c94373a8a816335bd6f",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("scan roots --max-entry 400 --depth 12", "csv", 0,
     "0d331f1c73876efb2b3b266e8bf7d4b3c84cf943e7404877df5fdb06b0b8813a",
     "e6873b35402f46114f679481eedb5314233fbc4933bf056b9c3269c3fac027f9"),
    ("scan blocks --max-j 8", "text", 0,
     "91150722ba36d437d0fe718cb41c1e77611446e8fafc02918bdc80d4be997022",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("scan blocks --max-j 8", "json", 0,
     "b6a83d2ec974c703ffc6199ce05b9c97553f5144ec24fa823b2a591ceaeb7b83",
     "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b"),
    ("scan blocks --max-j 8", "csv", 0,
     "66c3698eabba86de1862e13c6ae61c61be53e262affbc11e441504b904b0d9f6",
     "fb88f8e88816379cd3218dfa96e3a6805cbbef9f2d331e52a021d626ec59f7a4"),
    ("scan blocks --max-j 1", "text", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "ca6d6bfe99cad626da68031036f6356bbe83046a82af3191c0eed8a297af5192"),
    ("scan blocks --max-j 1", "json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "ca6d6bfe99cad626da68031036f6356bbe83046a82af3191c0eed8a297af5192"),
    ("scan blocks --max-j 1", "csv", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "ca6d6bfe99cad626da68031036f6356bbe83046a82af3191c0eed8a297af5192"),
    ("scan reflection --max-len 31", "text", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "dbf9095f6fea4bfbc68950e878d034ec6aca9d3a18db9bc8348fa5282c2dc15f"),
    ("scan reflection --max-len 31", "json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "dbf9095f6fea4bfbc68950e878d034ec6aca9d3a18db9bc8348fa5282c2dc15f"),
    ("scan reflection --max-len 31", "csv", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "dbf9095f6fea4bfbc68950e878d034ec6aca9d3a18db9bc8348fa5282c2dc15f"),
    ("scan conjecture --len 31", "text", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "34e196c0bb3e7152a9808329a7d7444edf056b5cade2ead995ece42de29fd50d"),
    ("scan conjecture --len 31", "json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "34e196c0bb3e7152a9808329a7d7444edf056b5cade2ead995ece42de29fd50d"),
    ("scan conjecture --len 31", "csv", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "34e196c0bb3e7152a9808329a7d7444edf056b5cade2ead995ece42de29fd50d"),
    ("scan converse --len 31", "text", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "34e196c0bb3e7152a9808329a7d7444edf056b5cade2ead995ece42de29fd50d"),
    ("scan converse --len 31", "json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "34e196c0bb3e7152a9808329a7d7444edf056b5cade2ead995ece42de29fd50d"),
    ("scan converse --len 31", "csv", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "34e196c0bb3e7152a9808329a7d7444edf056b5cade2ead995ece42de29fd50d"),
    ("scan roots --max-entry 10 --depth 31", "text", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "6ce24238ba915b17d761e1ff716aaf9daf5b235b4c5e5a874b4f9d082ddd5367"),
    ("scan roots --max-entry 10 --depth 31", "json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "6ce24238ba915b17d761e1ff716aaf9daf5b235b4c5e5a874b4f9d082ddd5367"),
    ("scan roots --max-entry 10 --depth 31", "csv", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "6ce24238ba915b17d761e1ff716aaf9daf5b235b4c5e5a874b4f9d082ddd5367"),
    ("scan blocks --max-j 31", "text", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "1877e2ec1031daeaaef8106dcb609926a875f71ee160a294929bb74acdfa163d"),
    ("scan blocks --max-j 31", "json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "1877e2ec1031daeaaef8106dcb609926a875f71ee160a294929bb74acdfa163d"),
    ("scan blocks --max-j 31", "csv", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "1877e2ec1031daeaaef8106dcb609926a875f71ee160a294929bb74acdfa163d"),
    ("sb check --depth 31", "text", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "6ce24238ba915b17d761e1ff716aaf9daf5b235b4c5e5a874b4f9d082ddd5367"),
    ("sb check --depth 31", "json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "6ce24238ba915b17d761e1ff716aaf9daf5b235b4c5e5a874b4f9d082ddd5367"),
    ("sb check --depth 31", "csv", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "6ce24238ba915b17d761e1ff716aaf9daf5b235b4c5e5a874b4f9d082ddd5367"),
    ("hat simulate 3 11 14", "text", 0,
     "7121d3a0b4b8af8fe5b6821a5ad6f4e97dd3eec2f1fe3bef711735e03a0c9d8d",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat simulate 3 11 14", "json", 0,
     "4c8d46cd79d4bd7cfd60480cdadef50cb13fc2aad3638d3a758fcef269ddd021",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat simulate 3 11 14", "csv", 0,
     "4ac75f591d2aeab588583f7b88d332cfc8e62927887191647f1600c32f6ea67b",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat simulate 1 2 4", "text", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "644a76ad91601baa79130a15554cdea78c122428832c042b64783e7160bdd3a1"),
    ("hat simulate 1 2 4", "json", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "644a76ad91601baa79130a15554cdea78c122428832c042b64783e7160bdd3a1"),
    ("hat simulate 1 2 4", "csv", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "644a76ad91601baa79130a15554cdea78c122428832c042b64783e7160bdd3a1"),
    ("hat chain 3 11 14", "text", 0,
     "f4fa352289f4be2e2e5c51791f88b9845114bd6096bdc8329ada93513e6d23bf",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat chain 3 11 14", "json", 0,
     "4447c2f1ae3bea49f6812147e77683ff2051705f08a6aca2e2c9f6a1e73f20d3",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat chain 3 11 14", "csv", 0,
     "6f73ff3584c832802c80a86ac9f96ed0fb93c9bcd9510de7e1efc711451b2b8a",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat chain 3 11 14 --full", "text", 0,
     "b043ea0ab9ea9c1204a53cc983baaa08c15e643b2c27f31a458ab6d3d7b78298",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat chain 3 11 14 --full", "json", 0,
     "a3074f80e99657a7002a31264fa6d1b71638d8caff13204b6ee88c643d33472f",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat chain 3 11 14 --full", "csv", 0,
     "356ed11fa3e62c0c1931b3bd751dc988e340ecebfeb43c79eda3b254ec34e316",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver C --rounds 1 --value 3", "text", 0,
     "6e3856eb1acfad2c5877fccae8f31e3afacea9cd940205f1503335b214794a2e",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver C --rounds 1 --value 3", "json", 0,
     "eb51127bdfb340ccc12f52cb660c4b511db7b4393e292dfc8722cd050a615a5c",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver C --rounds 1 --value 3", "csv", 0,
     "ae9c290af6252d1ee7b2adcb6d03c59911e5efb21587a45eb655a0ab03ad6a8e",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver C --rounds 1 --value 2 --oracle-cap 10", "text", 0,
     "d5a9d36ef9a0ad8d17f7f543612d99e288152c31d2443549b2805f3a7057de56",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver C --rounds 1 --value 2 --oracle-cap 10", "json", 0,
     "e85ea489659a1f929a1318ef48b59a164628b891b5f9ef9800ad1d96710e8419",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver C --rounds 1 --value 2 --oracle-cap 10", "csv", 0,
     "5d081ec1e3e727aadab96e4e26232726469642b776c31dc6fedf07ddeab70396",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver B --rounds 4 --value 720", "text", 0,
     "6ba3a52162f86c3e4f51daaeb925d0d7043ebc11800ba9b7f410f289f8a9054e",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver B --rounds 4 --value 720", "json", 0,
     "896a2c0859acd5f2a8c37c5facceac3737600df769c4efa5699249c1e0f7285a",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver B --rounds 4 --value 720", "csv", 0,
     "d0ef1cf34b7e8813f2bf2c666c49cef59965d4f66fbcb12fe7a382e44721bfa9",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver A --rounds 3 --value 60 --oracle-cap 120", "text", 0,
     "7a461911ec302a4ac7899b5b3df78c036bf2f254a0136f8a88737e3eb848cefc",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver A --rounds 3 --value 60 --oracle-cap 120", "json", 0,
     "2c343d4de76e032c29c7c196355969be863f69c8312515ff04b1785336141260",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver A --rounds 3 --value 60 --oracle-cap 120", "csv", 0,
     "7ad964c4a60b5483b11022bfe9c4736e9445ef10a5573c1eb04b71a87c2348eb",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver C --rounds 6 --value 997", "text", 0,
     "071f96fbc3262640b7a013cae65d86cc40ebf658623781a64c320c7b378536e7",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver C --rounds 6 --value 997", "json", 0,
     "578687ca3afd0aa9f17c48c120d6994161b7f5d21699c0b0e2b22275ee87ba01",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver C --rounds 6 --value 997", "csv", 0,
     "0931badcbdf8537b8c11db2aff461278c6096c511dff56c9564ef50dcd16f5e9",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver C --rounds 5 --value 961", "text", 0,
     "230e6f9aaba48ab91803a9cae2226fbb20906ece23f046810d0bc7996081a024",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver C --rounds 5 --value 961", "json", 0,
     "367c498f3f13d83822a0aa3363cf03c4958d5c4b6ee2402a1b80a4d478f256db",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver C --rounds 5 --value 961", "csv", 0,
     "3ba975cc6965af8e2a3a01e468aa2a0c9a8674593bea31e07c0677e538cfa363",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver B --rounds 3 --value 5040", "text", 0,
     "57b9fb9950cee82ab27acdd2d8cd43a8a0eb0715b7b90c59781d40566af7b9a9",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver B --rounds 3 --value 5040", "json", 0,
     "dc6916a4497162da90d15a8b0cb055644474d18ae312ebde9ca436486ef23298",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver B --rounds 3 --value 5040", "csv", 0,
     "fcf85241e478a4296bd6a9bb6ad636e62dc0f5154a195b227a41a72264835d7b",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver A --rounds 3 --value 100000", "text", 0,
     "93a5e4589fc89964a6f1171b433e9a2e7159c0e7c0116987aa232daaa2a39837",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver A --rounds 3 --value 100000", "json", 0,
     "7716a386e625350eecdfddec5a236a25ab5bfc1f7b1b445ab2eba9838e8bf8f7",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hat solve --solver A --rounds 3 --value 100000", "csv", 0,
     "4eb8d4d90684ba94b1af5d75242762ab18a9baf6f8a66245545d95ab0312b484",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("frobnicate", "text", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "567a1073354574fa9f544a380dc888ef42f8b5f67f4bb35b34105d74c2c906e7"),
    ("frobnicate", "json", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "567a1073354574fa9f544a380dc888ef42f8b5f67f4bb35b34105d74c2c906e7"),
    ("frobnicate", "csv", 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "567a1073354574fa9f544a380dc888ef42f8b5f67f4bb35b34105d74c2c906e7"),
]

# the stopwatch line "scope: 12.3 ms", matched as bench/checks.py matches it
STOPWATCH = re.compile(r"^.*: \d+(\.\d+)? ms$", re.M)


@pytest.mark.parametrize("command, fmt, code, digest, err_digest", GOLDEN_DIGESTS,
                         ids=["-".join(map(str, case[:4])) for case in GOLDEN_DIGESTS])
def test_scan_output_matches_golden_digest(capsys, command, fmt, code, digest,
                                           err_digest):
    argv = command.split() + ([] if fmt == "text" else ["--format", fmt])
    rc, out, err = run(capsys, *argv)
    assert rc == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert hashlib.sha256(STOPWATCH.sub("", err).encode()).hexdigest() == err_digest


# ------------------------------------------------- fresh interpreters

# In-process tests run after other tests have imported every module, so
# what a command loads, and whether the lazy package resolves a name on
# its own, shows only in a new interpreter.

def _child_env():
    src = str(Path(fibtree.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def _child(*args, env=()):
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(_child_env(), **dict(env)), timeout=120)


# Prints the modules that a bare `import fibtree`, or one command given
# as arguments, adds to sys.modules.
NEW_MODULES = """
import os, sys
before = set(sys.modules)
if sys.argv[1:]:
    from fibtree.cli import main
    main(sys.argv[1:] + ["--out", os.devnull])
else:
    import fibtree
print(" ".join(sorted(set(sys.modules) - before)))
"""

SCAN_UNUSED = {"dataclasses", "fractions", "csv", "fibtree.threehat",
               "fibtree.expansion", "fibtree.metrics", "fibtree.sternbrocot"}


@pytest.mark.parametrize("command, unused", [
    ("scan reflection --max-len 8", SCAN_UNUSED),
    ("scan converse --len 8", SCAN_UNUSED),
    ("scan roots --max-entry 20 --depth 4", SCAN_UNUSED),
    ("sb check --depth 4",
     {"dataclasses", "fibtree.threehat", "fibtree.expansion", "fibtree.scans"}),
])
def test_command_imports_only_its_modules(command, unused):
    proc = _child("-c", NEW_MODULES, *command.split())
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "fibtree.cli" in added
    assert not added & unused


def test_bare_import_loads_no_submodule():
    proc = _child("-c", NEW_MODULES)
    assert proc.returncode == 0, proc.stderr
    added = proc.stdout.split()
    assert "fibtree" in added
    assert [m for m in added if m.startswith("fibtree.")] == []


FRESH_COMMANDS = [
    "eval 0101",
    "trace 0110",
    "reflect 10011",
    "metrics 0110",
    "expand 10011",
    "expand 10011 --recursive",
    "expand --inverse 2 3 4",
    "sb frac 0110",
    "sb check --depth 4",
    "scan reflection --max-len 6",
    "scan conjecture --len 6",
    "scan converse --len 6",
    "scan roots --max-entry 20 --depth 4",
    "scan blocks --max-j 4",
    "hat simulate 3 11 14",
    "hat chain 3 11 14",
    "hat solve --solver C --rounds 1 --value 3",
]


@pytest.mark.parametrize("command", FRESH_COMMANDS)
def test_every_command_runs_in_a_fresh_process(capsys, command):
    rc, out, _ = run(capsys, *command.split())
    proc = _child("-m", "fibtree", *command.split())
    assert (proc.returncode, proc.stdout) == (rc, out), proc.stderr


# Runs one command with its payload sent to devnull and prints its exit
# code and its peak RSS in KB, as ru_maxrss reads on Linux.
PEAK_RSS = """
import os, resource, subprocess, sys
argv = [sys.executable, "-m", "fibtree", *sys.argv[1:], "--out", os.devnull]
code = subprocess.run(argv).returncode
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""

# A command (after any NAME=value settings of its environment), its exit
# code and its peak-RSS bound in MB; the interpreter alone takes about
# 16 MB.  Exit 3 means the scan found classes or counterexample pairs, as
# it does at these sizes.
PEAK_RSS_BOUNDS = [
    # every format builds each turn record and chain link as it is
    # written, JSON as one piece of the object; over 150,000 turns the
    # whole JSON object took 64 MB, a list of turn records and its JSON
    # object 67 MB, and a list of links 36 MB
    ("hat simulate 1 100000 100001 --format json", 0, 32),
    ("hat simulate 1 100000 100001 --format text", 0, 32),
    ("hat simulate 1 100000 100001 --format csv", 0, 32),
    ("hat chain 1 100000 100001 --full --format json", 0, 32),
    ("hat chain 1 100000 100001 --full --format csv", 0, 32),
    ("hat simulate 1 1000000 1000001 --format text", 0, 32),
    ("hat simulate 1 1000000 1000001 --format json", 0, 32),
    ("hat chain 1 1000000 1000001 --full --format csv", 0, 32),
    ("hat chain 1 1000000 1000001 --full --format json", 0, 32),
    # groups only the codes t <= refl(t), about 7 bytes a code
    ("scan converse --len 20 --format json", 3, 32),
    # an induction certificate on 2x2 matrices, O(1) a depth
    ("sb check --depth 16 --format json", 0, 32),
    ("sb check --depth 30 --format json", 0, 32),
    # one span recursion, O(1) a length
    ("scan roots --max-entry 400 --depth 30 --format json", 0, 32),
    ("scan reflection --max-len 30 --format json", 0, 32),
    # two unchecked turns a sum split of the value, holding only the solutions
    ("hat solve --solver B --rounds 2 --value 100000 --format json", 0, 32),
    # brute_solve streams its candidates
    ("hat solve --solver A --rounds 1 --value 3 --oracle-cap 1000000 --format json",
     0, 32),
    # one value sort per weight class, one int a code
    ("scan conjecture --len 14 --weight 7 --format csv", 3, 32),
    # a totient sum over O(sqrt(N)) quotients
    ("scan roots --max-entry 100000000 --depth 12 --format json", 0, 32),
    # refused before any work, past a cap
    ("scan roots --max-entry 1000000001 --depth 12 --format json", 2, 32),
    ("hat solve --solver B --rounds 2 --value 1000001 --format json", 2, 32),
    ("expand --inverse 1 1 40000 --format json", 2, 32),
    ("expand --inverse 1 10000000 2 --format json", 2, 32),
    (f"expand {'0' * 3000} --recursive --format json", 2, 32),
    # past the 4,300-digit output limit, and with the limit off past the
    # --rounds cap
    ("hat solve --solver A --rounds 1000000000 --value 6 --format json", 2, 32),
    ("PYTHONINTMAXSTRDIGITS=0 hat solve --solver A --rounds 1000000000 --value 6"
     " --format json", 2, 32),
    # the tree's spelled-out JSON and products are built for JSON and text only
    (f"expand {'01' * 40} --recursive --format csv", 0, 32),
]


def _rss_id(command: str, bound_mb: int) -> str:
    # a long code is named by its length
    words = (w if len(w) < 40 else f"<{len(w)} bits>" for w in command.split())
    return f"{' '.join(words)}-{bound_mb}"


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
@pytest.mark.parametrize("command, want, bound_mb", [
    pytest.param(*row, id=_rss_id(row[0], row[2])) for row in PEAK_RSS_BOUNDS])
def test_hat_peak_rss(command, want, bound_mb):
    words = command.split()
    env = [w.split("=", 1) for w in words if "=" in w]
    proc = _child("-c", PEAK_RSS, *words[len(env):], env=env)
    code, peak_kb = map(int, proc.stdout.split())
    assert code == want, proc.stderr
    assert peak_kb < bound_mb * 1024


def test_closed_pipe_ends_quietly():
    # the reader takes one line of a long scan and closes the pipe
    proc = subprocess.Popen([sys.executable, "-m", "fibtree", "scan", "conjecture",
                             "--len", "12"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_child_env())
    assert proc.stdout.readline().startswith(b"len 12 weight 2:")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err


PUBLIC_NAMES = """
import importlib
import fibtree
assert fibtree.scans is importlib.import_module("fibtree.scans")
assert fibtree.cli.main is importlib.import_module("fibtree.cli").main
star = {}
exec("from fibtree import *", star)
for name in fibtree.__all__:
    module = importlib.import_module("fibtree." + fibtree._OWNER[name])
    assert star[name] is getattr(fibtree, name) is getattr(module, name), name
assert not hasattr(fibtree, "no_such_name")
try:
    fibtree.no_such_name
except AttributeError:
    print("ok")
"""


def test_public_names_resolve_lazily():
    proc = _child("-c", PUBLIC_NAMES)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr
