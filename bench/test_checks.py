"""Tests of the benchmark's own checks.

    python3 -m pytest bench

The oracle must agree with the library on small inputs, and every check
must accept the program's real output and reject a corrupted copy: one
changed value, one dropped or one duplicated record.  The traced pass must
count a call that raises as failed and keep its span.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from fractions import Fraction

import pytest

import checks
import oracle
from inputs import HatQuery, point_calls

fibtree = pytest.importorskip("fibtree")
from fibtree import cli  # noqa: E402


def codes_upto(n):
    return [oracle.code_str(x, L) for L in range(n + 1) for x in range(1 << L)]


def configs_upto(total):
    for s in range(2, total + 1):
        for x in range(1, s):
            yield from ((s, x, s - x), (x, s, s - x), (x, s - x, s))


# ------------------------------------------------- the oracle vs the library

def test_values_traces_and_variances_agree():
    for code in codes_upto(9):
        assert oracle.state(code) == fibtree.evaluate(code)
        assert oracle.trace(code) == fibtree.trace(code)
        if code:
            assert Fraction(*oracle.variance(code)) == fibtree.cluster_variance(code)
            assert oracle.frac_text(*oracle.variance(code)) == str(fibtree.cluster_variance(code))
    for length in range(12):
        assert oracle.level_values(length) == fibtree.build_value_tables(length)[length]
    assert oracle.level_values(6, (2, 5)) == [fibtree.value(oracle.code_str(x, 6), (2, 5, 7))
                                              for x in range(64)]


def test_scan_recomputations_agree():
    for length in range(1, 11):
        assert oracle.converse_classes(length) == [c.to_jsonable()
                                                   for c in fibtree.scan_converse(length)]
    for length in range(1, 10):
        counts = Counter(p["weight"] for p in fibtree.iter_conjecture_violations(length))
        assert {w: n for w, n in oracle.conjecture_counts(length).items() if n} == dict(counts)
    for c in range(1, 8):
        state_side, path_side = oracle.generation_sides(c)
        verdict = fibtree.check_generation(c)
        assert state_side == path_side and len(state_side) == verdict.state_side
    for n in range(1, 30):
        from math import gcd
        assert oracle.coprime_pairs(n) == sum(gcd(a, b) == 1 for a in range(1, n + 1)
                                              for b in range(1, n + 1))
    assert oracle.coprime_pairs(400) == 97355
    assert oracle.reflection_holds((1, 2), 8) and not oracle.reflection_holds((1, 3), 8)


def test_hat_recomputations_agree():
    for w in configs_upto(90):
        assert oracle.chain_lengths(w) == (len(fibtree.chain(w, abbreviated=False)),
                                           len(fibtree.chain(w)))
        assert oracle.announcement(w) == fibtree.first_announcement(w)
        assert oracle.chain_lengths(w)[1] == fibtree.chain_length(w)
    for w in configs_upto(12):
        turn, _ = fibtree.first_announcement(w)
        assert oracle.literal_announcement(w, turn) == turn
        assert oracle.literal_announcement(w, turn - 1) is None
    big = (7, 7 * 300_000 + 3, 7 * 300_001 + 3)
    assert oracle.announcement(big) == fibtree.first_announcement(big)
    for link, nxt in zip(fibtree.chain((5, 13, 18)), fibtree.chain((5, 13, 18))[1:]):
        assert oracle.sigma(link) == nxt


# ------------------------------------------------ CLI checks, real and corrupt

def run_cli(tmp_path, argv, name="out"):
    out, err = tmp_path / f"{name}.out", tmp_path / f"{name}.err"
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf):
        cli.main([*argv, "--out", str(out)])
    err.write_text(buf.getvalue())
    return out, err


def lines(path):
    return path.read_text().splitlines()


def rewrite(path, new_lines):
    path.write_text("".join(line + "\n" for line in new_lines))


def edit_json_line(path, index, **changes):
    rows = lines(path)
    doc = json.loads(rows[index])
    doc.update(changes)
    rows[index] = json.dumps(doc, separators=(",", ":"))
    rewrite(path, rows)


def rejects(check, *args):
    with pytest.raises(checks.CheckError):
        check(*args)


def test_reflection_check(tmp_path):
    out, _ = run_cli(tmp_path, ["scan", "reflection", "--max-len", "8", "--format", "json"])
    assert checks.check_reflection(out, 8) == 2**9 - 2
    summary = lines(out)[-1]
    edit_json_line(out, -1, checked=2**9 - 3)
    rejects(checks.check_reflection, out, 8)
    record = {"length": 2, "code": "01", "reflected": "10", "value": 7, "reflected_value": 8}
    rewrite(out, [json.dumps(record), summary])
    rejects(checks.check_reflection, out, 8)


def test_converse_check(tmp_path):
    argv = ["scan", "converse", "--len", "9", "--format", "json"]
    out, _ = run_cli(tmp_path, argv)
    assert checks.check_converse(out, 9) == 512
    good = lines(out)
    edit_json_line(out, 3, value=json.loads(good[3])["value"] + 1)
    rejects(checks.check_converse, out, 9)
    rewrite(out, good[:2] + good[3:])
    rejects(checks.check_converse, out, 9)
    rewrite(out, good)
    flag = json.loads(good[0])["beyond_reflection"]
    edit_json_line(out, 0, beyond_reflection=not flag)
    rejects(checks.check_converse, out, 9)


def test_roots_check(tmp_path):
    out, _ = run_cli(tmp_path, ["scan", "roots", "--max-entry", "20", "--depth", "6",
                                "--format", "json"])
    assert checks.check_roots(out, 20, 6) == oracle.coprime_pairs(20)
    good = lines(out)
    edit_json_line(out, -1, checked=oracle.coprime_pairs(20) - 1)
    rejects(checks.check_roots, out, 20, 6)
    summary = json.loads(good[-1])
    summary["survivors"].append([1, 3, 4])
    rewrite(out, good[:-1] + [json.dumps({"root": [1, 3, 4]}), json.dumps(summary)])
    rejects(checks.check_roots, out, 20, 6)


def test_sb_check(tmp_path):
    out, _ = run_cli(tmp_path, ["sb", "check", "--depth", "6", "--format", "json"])
    assert checks.check_sb(out, 6) == 2**7 - 2
    good = lines(out)
    edit_json_line(out, 2, state_side=15)
    rejects(checks.check_sb, out, 6)
    rewrite(out, good[:2] + good[3:])
    rejects(checks.check_sb, out, 6)


def test_conjecture_json_check(tmp_path):
    out, _ = run_cli(tmp_path, ["scan", "conjecture", "--len", "8", "--format", "json"])
    total = checks.check_conjecture_json(out, 8)
    assert total == sum(oracle.conjecture_counts(8).values()) > 0
    good = lines(out)
    rewrite(out, good[:5] + good[6:])                          # one pair dropped
    rejects(checks.check_conjecture_json, out, 8)
    rewrite(out, good[:5] + [good[4]] + good[6:])              # one pair twice, count kept
    rejects(checks.check_conjecture_json, out, 8)
    rewrite(out, good)
    edit_json_line(out, 7, high_var_value=json.loads(good[7])["high_var_value"] + 1)
    rejects(checks.check_conjecture_json, out, 8)


def test_chain_and_simulate_checks(tmp_path):
    cfg = (7, 8 * 7 + 3, 9 * 7 + 3)
    out, _ = run_cli(tmp_path, ["hat", "chain", *map(str, cfg), "--full", "--format", "json"])
    assert checks.check_chain(out, cfg) == 1
    doc = json.loads(lines(out)[0])
    doc["chain"].pop(3)
    rewrite(out, [json.dumps(doc)])
    rejects(checks.check_chain, out, cfg)

    out, _ = run_cli(tmp_path, ["hat", "simulate", *map(str, cfg), "--format", "json"])
    assert checks.check_simulate(out, cfg) == 1
    doc = json.loads(lines(out)[0])
    doc["turns"][1]["action"] = "announce"
    rewrite(out, [json.dumps(doc)])
    rejects(checks.check_simulate, out, cfg)


def test_solve_check(tmp_path):
    query = HatQuery("A", 2, 12, (12, 3, 9))
    argv = ["hat", "solve", "--solver", "A", "--rounds", "2", "--value", "12",
            "--oracle-cap", "20", "--format", "json"]
    out, _ = run_cli(tmp_path, argv)
    assert checks.check_solve(out, query, True) == 1
    good = json.loads(lines(out)[0])
    bad = json.loads(lines(out)[0])
    bad["solutions"][0]["turn"] = 5
    rewrite(out, [json.dumps(bad)])
    rejects(checks.check_solve, out, query, True)
    bad = json.loads(json.dumps(good))
    bad["solutions"] = [s for s in bad["solutions"] if s["config"] != [12, 3, 9]]
    rewrite(out, [json.dumps(bad)])
    rejects(checks.check_solve, out, query, False)


# ------------------------------------------------------- point-query checks

def test_point_checks_accept_library_results_and_reject_corrupt_ones():
    import points

    calls = point_calls(7, 0, groups=40)
    results, _, errors = points.run_calls(calls)
    assert errors == 0
    for (kind, args), out in zip(calls, results):
        checks.check_call(kind, args, out)
    corrupt = {
        "value": lambda r: r + 1,
        "trace": lambda r: r[:-1],
        "reflect": lambda r: r[1:] + r[:1] if len(set(r)) > 1 else r + "0",
        "cluster_variance": lambda r: r + Fraction(1, 7),
        "u": lambda r: 1 / r,
        "v": lambda r: r + 1,
        "encode_expansion": lambda r: fibtree.Expansion(r.b, r.a, r.k) if r.a != r.b
        else fibtree.Expansion(1, 2, r.k),
        "decode_state": lambda r: r + "0",
        "decode_expansion": lambda r: r + "1",
        "chain_length": lambda r: r + 1,
        "first_announcement": lambda r: (r[0] + 3, r[1]),
        "expand_recursive": lambda r: (r[0], r[1] + 1),
    }
    seen = set()
    for (kind, args), out in zip(calls, results):
        bad = corrupt[kind](out)
        if bad == out:
            continue
        with pytest.raises(checks.CheckError):
            checks.check_call(kind, args, bad)
        seen.add(kind)
    assert seen == set(corrupt)


# ------------------------------------------------------------- the tracer

def test_traced_call_that_raises_keeps_its_span_and_counts_as_failed(tmp_path):
    import tracepass

    p = tracepass._Pass(7, tmp_path)
    with p.tr.span("phase.engine"):
        assert p.call("engine.value", fibtree.value, "01") == oracle.value("01")
        with pytest.raises(tracepass._CallFailed):
            p.call("engine.value", fibtree.value, "2")
    assert (p.attempted, p.failed, p.wrong) == (2, 1, [])
    assert len(p.tr.durations("engine.value")) == 2
    phase, = p.tr.durations("phase.engine")
    assert p.tr.self_times()["phase.engine"] == phase - sum(p.tr.durations("engine.value"))
