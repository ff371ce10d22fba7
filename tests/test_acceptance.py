"""Acceptance battery: one test per release criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict line;
without -s the lines still appear in the captured output of failing tests.

Two of the four variance spot values in criterion 3 are printed wrongly in
the source, as 55/7 for 1110110 and 65/8 for 11101101; the battery checks
the corrected 37/7 and 19/4 against both the library and the positional
oracle (see tests/fixtures.py).  The ordering conjecture of criterion 7
turns out to have genuine counterexamples from length 5 on; its scan
reports them and every reported pair is replay verified, which the
criterion admits as a valid outcome.
"""

import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

import pytest

from fibtree import (
    Expansion,
    PuzzleQuery,
    brute_solve,
    chains_equal_tree,
    check_block_alternating,
    check_generation,
    cluster_variance,
    decode_expansion,
    dialogue_simulate,
    divergence_sweep,
    encode_expansion,
    enumerate_codes,
    evaluate,
    expand_recursive,
    f_L,
    f_R,
    first_announcement,
    is_base,
    iter_conjecture_violations,
    lemma_report,
    scan_reflection,
    scan_roots,
    solve_puzzle,
    tree_value,
    u,
    v,
    value,
    weight,
)

from fixtures import LENGTH4_TABLE, VARIANCE_SPOT_VALUES
from oracle import configs_by_slots, fib_by_addition, variance_by_positions


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:02d}: {label}"
    if detail:
        line += f" [{detail}]"
    print(line)


def test_criterion_01_named_values():
    t0 = time.perf_counter()
    checks = [
        (value("1011"), 19),
        (value("1101"), 19),
        (value("1010000"), 32),
        (value("0000101"), 32),
        (value("10011"), 25),
        (value("01110"), 25),
        (evaluate("1100"), (3, 11, 14)),
        (evaluate("0101"), (7, 10, 17)),
    ]
    elapsed = time.perf_counter() - t0
    ok = all(got == want for got, want in checks) and elapsed < 1.0
    _report(1, "named values and states, under one second", ok,
            f"{elapsed * 1000:.1f} ms")
    assert ok, checks


def test_criterion_02_length_four_table():
    got = [(code, evaluate(code), cluster_variance(code))
           for code, _, _ in LENGTH4_TABLE]
    ok = got == LENGTH4_TABLE
    _report(2, "length-4 table, states and variances bit-exact", ok,
            f"{len(LENGTH4_TABLE)} rows")
    assert ok


@pytest.mark.parametrize("code,recorded", VARIANCE_SPOT_VALUES)
def test_criterion_03_variance_spot_values(code, recorded):
    got = cluster_variance(code)
    oracle = variance_by_positions(code)
    ok = got == recorded == oracle
    _report(3, f"recorded variance of {code} equals {recorded}", ok,
            f"computed {got}, oracle {oracle}")
    assert ok, (f"cluster_variance({code!r}) = {got}, "
                f"oracle {oracle}, recorded {recorded}")


def test_criterion_04_reflection_scan_to_length_18():
    t0 = time.perf_counter()
    report = scan_reflection(18)
    elapsed = time.perf_counter() - t0
    ok = (report.violations == []
          and report.checked == 2 ** 19 - 2
          and elapsed < 60.0)
    _report(4, "zero reflection violations through length 18", ok,
            f"{report.checked} codes, {elapsed:.1f} s")
    assert ok


def test_criterion_05_closed_forms_and_block_comparisons():
    ok = all(value("1" * k) == fib_by_addition(k + 4) for k in range(1, 31))
    ok &= all(value("0" * k) == k + 3 for k in range(1, 31))
    verdicts = [check_block_alternating(j) for j in range(2, 13)]
    ok &= all(vd.ok for vd in verdicts)
    _report(5, "run closed forms to k=30; block/alternating verdicts to j=12",
            ok)
    assert ok


def test_criterion_06_root_scan():
    report = scan_roots(50, 10)
    ok = report.survivors == [(1, 2, 3), (2, 1, 3)]
    _report(6, "depth-10 root scan leaves exactly the two orderings of (1,2)",
            ok, f"{report.checked} roots")
    assert ok


def test_criterion_07_ordering_conjecture_scan_replays():
    t0 = time.perf_counter()
    val_cache: dict[str, int] = {}
    var_cache: dict[str, Fraction] = {}

    def val(code):
        if code not in val_cache:
            val_cache[code] = value(code)
        return val_cache[code]

    def var(code):
        if code not in var_cache:
            var_cache[code] = cluster_variance(code)
        return var_cache[code]

    counts = {}
    for length in range(1, 15):
        n = 0
        for pair in iter_conjecture_violations(length):
            lo, hi = pair["low_var_code"], pair["high_var_code"]
            assert len(lo) == len(hi) == pair["length"] == length
            assert weight(lo) == weight(hi) == pair["weight"]
            assert var(lo) == Fraction(pair["low_var"])
            assert var(hi) == Fraction(pair["high_var"])
            assert var(lo) < var(hi)
            assert val(lo) == pair["low_var_value"]
            assert val(hi) == pair["high_var_value"]
            assert val(lo) <= val(hi)  # lower variance fails to win
            n += 1
        counts[length] = n
    elapsed = time.perf_counter() - t0
    total = sum(counts.values())
    first = min((k for k, n in counts.items() if n), default=None)
    ok = elapsed < 300.0
    _report(7, "ordering conjecture scan to length 14, all pairs replay",
            ok, f"{total} counterexample pairs, first at length {first}, "
                f"{elapsed:.1f} s")
    assert ok


def test_criterion_08_expansion_bijection():
    for length in range(1, 15):
        for code in enumerate_codes(length):
            if "0" not in code:
                continue
            e = encode_expansion(code)
            assert decode_expansion(e) == code, code
            assert e.value() == value(code), code
    for k in range(2, 11):
        for total in range(2, 501):
            for a in range(1, total):
                b = total - a
                if gcd(a, b) != 1:
                    continue
                e = Expansion(a, b, k)
                assert encode_expansion(decode_expansion(e)) == e, e
    for length in range(1, 13):
        for code in enumerate_codes(length):
            assert tree_value(expand_recursive(code)) == value(code), code
    _report(8, "expansion round trips, value identity, tree evaluation", True)


def test_criterion_09_fraction_generations_and_recurrences():
    ok = True
    for c in range(1, 13):
        verdict = check_generation(c)
        ok &= verdict.equal and verdict.state_side == 2 ** (c + 1)
    for length in range(0, 13):
        for code in enumerate_codes(length):
            uu = u(code)
            assert u(code + "0") == f_L(uu)
            assert u(code + "1") == 1 / f_R(uu)
            assert v(code + "0") == 1 / f_L(uu)
            assert v(code + "1") == f_R(uu)
    _report(9, "fraction generations to c=12; local recurrences to length 12",
            ok)
    assert ok


def test_criterion_10_hat_battery():
    ok = chains_equal_tree(200).equal

    for w, (announcer, turn) in {
        (1, 1, 2): ("C", 3),
        (1, 2, 3): ("C", 3),
        (3, 1, 2): ("A", 4),
    }.items():
        t = dialogue_simulate(w)
        ok &= (t.announcer, t.turn) == (announcer, turn)

    for w in configs_by_slots(50):
        base_turn = first_announcement(w)
        for lam in range(2, 6):
            ok &= first_announcement(tuple(lam * e for e in w)) == base_turn

    base_only = []
    discrepancies = []
    for m in range(1, 61):
        for n in (1, 2, 3):
            for solver in "ABC":
                q = PuzzleQuery(solver, n, m)
                solved = {s.config for s in solve_puzzle(q).solutions}
                brute = {s.config for s in brute_solve(q, 2 * m)}
                for w in sorted(brute - solved):
                    (base_only if is_base(w) else discrepancies).append((q, w))
                discrepancies.extend((q, w) for w in sorted(solved - brute))
    for q, w in base_only:
        print(f"criterion 10: base configuration, exhaustive oracle only: "
              f"solver {q.solver}, rounds {q.rounds}, value {q.value} -> {w}")
    for q, w in discrepancies:
        print(f"criterion 10: solver discrepancy: solver {q.solver}, "
              f"rounds {q.rounds}, value {q.value} -> {w}")
    ok &= discrepancies == []

    ok &= divergence_sweep(144).divergences == []
    rep = lemma_report(144)
    print(f"criterion 10: bound-consistency violations: {rep.violation_count} "
          f"(abbreviated-convention deviations: {rep.abbreviated_deviations})")
    ok &= rep.violation_count == 0

    _report(10, "hat dialogue battery", ok,
            f"{len(base_only)} base-only oracle cases printed, "
            f"{len(discrepancies)} discrepancies")
    assert ok


def test_criterion_11_scan_output_is_byte_identical_across_jobs():
    cases = [
        ["scan", "reflection", "--max-len", "12"],
        ["scan", "conjecture", "--len", "10"],
        ["scan", "converse", "--len", "8"],
    ]
    ok = True
    for case in cases:
        outputs = set()
        codes = set()
        for jobs in ("1", "2", "4"):
            proc = subprocess.run(
                [sys.executable, "-m", "fibtree", *case,
                 "--format", "json", "--jobs", jobs],
                capture_output=True)
            outputs.add(proc.stdout)
            codes.add(proc.returncode)
        ok &= len(outputs) == 1 and len(codes) == 1 and codes <= {0, 3}
    _report(11, "scan output byte-identical across worker counts", ok)
    assert ok
