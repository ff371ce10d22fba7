import time
import tracemalloc
from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibtree import (
    DomainError,
    level_rows,
    build_value_tables,
    check_block_alternating,
    cluster_variance,
    enumerate_codes,
    iter_conjecture_violations,
    iter_converse_classes,
    scan_conjecture,
    scan_converse,
    scan_reflection,
    scan_roots,
    value,
    weight,
)
from fibtree import scans
from fibtree.engine import _code_str, _rows
from oracle import conjecture_pairs_by_enumeration, totients_by_sieve, value_by_matrices


def test_value_tables_match_direct_evaluation():
    tables = build_value_tables(8)
    for length in range(9):
        for i, code in enumerate(enumerate_codes(length)):
            assert tables[length][i] == value(code)


def test_value_tables_ignore_parallelism():
    assert build_value_tables(9, jobs=1) == build_value_tables(9, jobs=2)
    assert build_value_tables(9, jobs=16) == build_value_tables(9, jobs=1)


def test_reflection_scan_is_clean():
    report = scan_reflection(10)
    assert report.checked == 2 ** 11 - 2
    assert report.violations == []


def test_reflection_scan_reports_each_violation(monkeypatch):
    root = (1, 3, 4)  # F[01] = 11 but F[10] = 10: reflection fails from length 2
    monkeypatch.setattr(scans, "ROOT", root)
    expected = []
    for length in range(1, 7):
        for code in enumerate_codes(length):
            mirrored = code[::-1]
            val, mval = value_by_matrices(code, root), value_by_matrices(mirrored, root)
            if code < mirrored and val != mval:
                expected.append({"length": length, "code": code, "reflected": mirrored,
                                 "value": val, "reflected_value": mval})
    report = scans.scan_reflection(6)
    assert report.checked == 2 ** 7 - 2
    assert expected and report.violations == expected


# Roots where reflection holds at every length, or fails from some length on.
CERTIFICATE_ROOTS = [(1, 2, 3), (1, 3, 4), (2, 5, 7), (3, 1, 4), (2, 1, 3)]


@pytest.mark.parametrize("root", CERTIFICATE_ROOTS)
def test_reflection_certificate_matches_row_comparison(root):
    a0, b0, _ = root
    levels = zip(level_rows(20, root), scans._reversals(20))
    next(levels)  # the empty code
    verdicts = []
    for L, (span, ((_, _, values), rev)) in enumerate(
            zip(scans._difference_spans(20), levels), 1):
        certified = all(x * a0 + y * b0 == 0 for x, y in span)
        assert certified == (scans._permuted(values, rev) == values), L
        verdicts.append(certified)
    assert len(verdicts) == 20
    assert all(verdicts) == (root == (1, 2, 3))


def test_span_verdict_matches_value_comparison(monkeypatch):
    spans = list(scans._difference_spans(10))
    for a0 in range(1, 8):
        for b0 in range(1, 8):
            root = (a0, b0, a0 + b0)
            failing = [L for L in range(1, 11)
                       if any(value(code, root) != value(code[::-1], root)
                              for code in enumerate_codes(L))]
            assert failing == [L for L, span in enumerate(spans, 1)
                               if any(x * a0 + y * b0 for x, y in span)], root
            # the scan reads the same root through its ROOT seam
            monkeypatch.setattr(scans, "ROOT", root)
            report = scans.scan_reflection(10)
            assert sorted({v["length"] for v in report.violations}) == failing, root


def test_span_recursion_reaches_its_fixed_point():
    spans = list(scans._difference_spans(40))
    assert spans[0] == ()  # the codes of length 1 are palindromes
    assert set(spans[1:]) == {((2, -1),)}  # only multiples of (1, 2) reflect


spanning_sets = st.lists(st.integers(-9, 9), min_size=1, max_size=6).flatmap(
    lambda first: st.lists(st.lists(st.integers(-9, 9), min_size=len(first),
                                    max_size=len(first)), max_size=5)
    .map(lambda rest: [first, *rest]))


@given(spanning_sets, st.randoms(use_true_random=False), st.integers(-5, 5).filter(bool))
def test_echelon_is_canonical(rows, rng, scale):
    basis = scans._echelon(rows)
    for row in basis:
        pivot = next(i for i, x in enumerate(row) if x)
        assert row[pivot] > 0 and gcd(*row) == 1
        assert all(other[pivot] == 0 for other in basis if other is not row)
    # a shuffled, scaled and duplicated spanning set has the same basis,
    # and so does the set with the basis rows added
    variant = [[scale * x for x in row] for row in rows] + rng.sample(rows, len(rows) // 2)
    rng.shuffle(variant)
    assert scans._echelon(variant) == basis
    assert scans._echelon([*rows, *basis]) == basis
    assert scans._echelon(basis) == basis


def test_span_scans_stay_small():
    # a few vectors of six integers per length up to the fixed point and
    # a shared span after it; the Gram certificates held O(2**(L/2)) and
    # O(2**depth) entries, past RAM at these sizes
    tracemalloc.start()
    try:
        start = time.perf_counter()
        roots = scan_roots(400, 30)
        reflection = scan_reflection(10 ** 4)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert roots.survivors == [(1, 2, 3), (2, 1, 3)]
    assert reflection.violations == [] and reflection.checked == 2 ** 10001 - 2
    assert peak < 2 ** 20
    assert elapsed < 2


def test_reflection_scan_memory_grows_with_half_the_length():
    # The span check holds a few vectors of six integers; the Gram
    # certificate before it held O(2**(L/2)) entries, and the row path
    # about 8 rows of 8 * 2**26 bytes here.
    tracemalloc.start()
    try:
        report = scan_reflection(26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.violations == []
    assert report.checked == 2 ** 27 - 2
    assert peak < 2 ** 20


# ----------------------------------------------------------- converse

def test_converse_classes_at_length_five():
    classes = {c.value: c for c in scan_converse(5)}
    c25 = classes[25]
    assert c25.codes == ("01110", "10011", "11001")
    # a palindrome plus a reflection pair: three codes, so past reflection
    assert c25.beyond_reflection


def test_converse_reflection_pairs_stay_unflagged():
    classes = {c.value: c for c in scan_converse(4)}
    c19 = classes[19]
    assert c19.codes == ("1011", "1101")
    assert not c19.beyond_reflection
    assert all(not c.beyond_reflection for c in scan_converse(2))


def test_converse_classes_replay():
    for cls in scan_converse(7):
        values = {value(code) for code in cls.codes}
        assert values == {cls.value}
        assert len(cls.codes) >= 2


def test_code_names_match_format():
    for length in range(1, 13):
        names = [_code_str(i, length) for i in range(1 << length)]
        assert list(enumerate_codes(length)) == names == [format(i, f"0{length}b")
                                                          for i in range(1 << length)]


def _converse_by_matrices(length):
    """Classes of two or more codes sharing a matrix-oracle value, by value,
    each flagged when two of its codes are neither equal nor reflections."""
    by_value = {}
    for bits in product("01", repeat=length):
        code = "".join(bits)
        by_value.setdefault(value_by_matrices(code), []).append(code)
    return [(val, tuple(codes),
             any(s != t and s[::-1] != t for s in codes for t in codes))
            for val, codes in sorted(by_value.items()) if len(codes) > 1]


def test_converse_classes_match_matrix_oracle():
    # odd lengths split into a head one bit longer than the tail
    for length in range(1, 13):
        classes = list(iter_converse_classes(length))
        assert classes == scan_converse(length)
        assert [(c.value, c.codes, c.beyond_reflection)
                for c in classes] == _converse_by_matrices(length)


def test_converse_stream_checks_length_at_the_call():
    with pytest.raises(DomainError):
        iter_converse_classes(0)


def test_converse_stream_memory_per_code():
    # only the representatives t <= refl(t), about half the codes, are
    # grouped, at 4 bytes an index; grouping every code in 8-byte slots
    # took about 21 bytes a code, and lists of ints and a name for every
    # code about 135
    tracemalloc.start()
    try:
        for _ in iter_converse_classes(16):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 16


# ---------------------------------------------------- conjecture scans

LENGTH5_PAIRS = [
    ("00110", "10001", 19, 20),
    ("01100", "10001", 19, 20),
    ("10011", "01110", 25, 25),
    ("11001", "01110", 25, 25),
    ("11011", "10111", 30, 31),
    ("11011", "11101", 30, 31),
]


def test_conjecture_holds_through_length_four():
    for length in range(1, 5):
        assert scan_conjecture(length).violations == []
    assert scan_conjecture(4).checked == 16


def test_conjecture_first_fails_at_length_five():
    got = list(iter_conjecture_violations(5))
    assert [(p["low_var_code"], p["high_var_code"],
             p["low_var_value"], p["high_var_value"]) for p in got] == LENGTH5_PAIRS
    for p in got:
        assert p["low_var"] == "17/5" and p["high_var"] == "29/5"


def test_conjecture_pairs_replay_from_scratch():
    for pair in iter_conjecture_violations(7):
        lo, hi = pair["low_var_code"], pair["high_var_code"]
        assert len(lo) == len(hi) == pair["length"]
        assert weight(lo) == weight(hi) == pair["weight"]
        assert cluster_variance(lo) == Fraction(pair["low_var"])
        assert cluster_variance(hi) == Fraction(pair["high_var"])
        assert cluster_variance(lo) < cluster_variance(hi)
        assert value(lo) == pair["low_var_value"]
        assert value(hi) == pair["high_var_value"]
        assert value(lo) <= value(hi)  # the violation itself


def test_conjecture_weight_filter():
    report = scan_conjecture(5, weight_filter=2)
    assert report.checked == 10
    assert len(report.violations) == 2
    assert scan_conjecture(5, weight_filter=1).violations == []


def test_conjecture_rejects_bad_length():
    with pytest.raises(DomainError):
        scan_conjecture(0)


def test_conjecture_stream_matches_literal_enumeration():
    # every pair of the product enumeration, in the documented order
    for length in range(1, 10):
        for w in (None, *range(-1, length + 2)):
            assert (list(iter_conjecture_violations(length, w))
                    == conjecture_pairs_by_enumeration(length, w)), (length, w)


def test_conjecture_stream_memory():
    # one int per code in the class lists and one class's names and
    # variances: about 0.3 MB here, where the per-code (Fraction, value,
    # code) tuples and the insort lists took about 0.8 MB
    tracemalloc.start()
    try:
        for _ in iter_conjecture_violations(12):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * 2 ** 20


# ------------------------------------------------------- roots and blocks

def test_root_scan_keeps_the_value_ordered_pair():
    report = scan_roots(20, 8)
    assert report.survivors == [(1, 2, 3), (2, 1, 3)]
    assert report.checked > 0


def test_root_scan_matches_matrix_oracle():
    survivors = []
    for a in range(1, 13):
        for b in range(1, 13):
            if gcd(a, b) != 1:
                continue
            root = (min(a, b), max(a, b), a + b)
            if all(value_by_matrices(code, root) == value_by_matrices(code[::-1], root)
                   for length in range(7) for code in enumerate_codes(length)):
                survivors.append((a, b, a + b))
    assert survivors == [(1, 2, 3), (2, 1, 3)]
    assert scan_roots(12, 6).survivors == survivors


def test_coprime_pair_count_matches_the_pair_loop():
    count = 0
    for n in range(1, 301):
        # the pairs with max(a, b) == n
        count += 1 if n == 1 else 2 * sum(1 for a in range(1, n) if gcd(a, n) == 1)
        assert scans._coprime_pairs(n) == count, n


def test_coprime_pair_count_matches_the_totient_sieve():
    phi_sum = 0
    for n, phi in enumerate(totients_by_sieve(10 ** 4)[1:], 1):
        phi_sum += phi
        assert scans._coprime_pairs(n) == 2 * phi_sum - 1, n


def test_root_scan_cost_at_large_entries():
    # the totient sum meets O(sqrt(N)) quotients; the sieve before it held
    # N + 1 ints, about 40 MB at 10**6 and 4 GB at 10**8.  Phi(10**8) is
    # 3039635516365908 (OEIS A064018).
    start = time.perf_counter()
    report = scan_roots(10 ** 8, 10 ** 3)
    elapsed = time.perf_counter() - start
    assert report.survivors == [(1, 2, 3), (2, 1, 3)]
    assert report.checked == 6079271032731815
    assert elapsed < 10
    tracemalloc.start()
    try:
        scan_roots(10 ** 6, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def _root_sweep(g, max_entry):
    """Every coprime (a, b) tested against g one by one, as scan_roots once did."""
    (g00, g01), (g10, g11) = g
    checked, survivors = 0, []
    for a in range(1, max_entry + 1):
        for b in range(1, max_entry + 1):
            if gcd(a, b) != 1:
                continue
            checked += 1
            lo, hi = min(a, b), max(a, b)
            if g00 * lo + g01 * hi == 0 and g10 * lo + g11 * hi == 0:
                survivors.append((a, b, a + b))
    return checked, sorted(survivors)


SYNTHETIC_GRAMS = {
    "zero": [[0, 0], [0, 0]],
    "kernel (2, 5)": [[25, -10], [-10, 4]],
    "kernel (2, 5), negated": [[-25, 10], [10, -4]],
    "kernel (1, 1)": [[1, -1], [-1, 1]],
    "kernel (5, 2)": [[4, -10], [-10, 25]],
    "mixed-sign kernel": [[1, 1], [1, 1]],
    "kernel (3, 40), past 30": [[1600, -120], [-120, 9]],
    "zero first row, kernel (2, 3)": [[0, 0], [3, -2]],
    "zero first row, kernel (1, 0)": [[0, 0], [0, 7]],
    "rank 2": [[2, 1], [1, 3]],
}


@pytest.mark.parametrize("name", SYNTHETIC_GRAMS)
def test_kernel_roots_match_the_pair_sweep(name):
    g = SYNTHETIC_GRAMS[name]
    for max_entry in (2, 30, 40):
        assert scans._kernel_roots(g, max_entry) == _root_sweep(g, max_entry)[1]


def _root_gram(depth):
    """The Gram matrix of (P_t - P_rev(t), Q_t - Q_rev(t)) over every code t
    of length <= depth, from the unit pairs' value rows."""
    dp, dq = [], []
    for (_, _, p), (_, _, q), rev in zip(_rows(depth, 1, 0), _rows(depth, 0, 1),
                                         scans._reversals(depth)):
        dp += [p[t] - p[r] for t, r in enumerate(rev)]
        dq += [q[t] - q[r] for t, r in enumerate(rev)]
    return [[sum(map(mul, u, v)) for v in (dp, dq)] for u in (dp, dq)]


@pytest.mark.parametrize("depth", range(2, 13))
def test_root_scan_matches_the_pair_sweep(depth):
    g = _root_gram(depth)
    for max_entry in (2, 3, 7, 60):
        report = scan_roots(max_entry, depth)
        assert (report.checked, report.survivors) == _root_sweep(g, max_entry)


def test_block_beats_alternating_is_false_with_reflections_equal():
    verdict = check_block_alternating(2)
    assert verdict.block == 14 and verdict.alternating == 17
    assert verdict.block_reflected == 14
    assert verdict.alternating_reflected == 17
    assert verdict.ok
    for j in range(2, 7):
        v = check_block_alternating(j)
        assert v.ok
        assert v.block == value("1" * j + "0" * j)
        assert v.alternating == value("01" * j)


# -------------------------------------------------------- wrong-typed sizes

not_ints = st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.fractions())

SIZED_CALLS = {
    "scan_reflection": scan_reflection,
    "scan_roots max_entry": lambda n: scan_roots(n, 4),
    "scan_roots depth": lambda n: scan_roots(30, n),
    "iter_converse_classes": iter_converse_classes,
    "iter_conjecture_violations length": lambda n: list(iter_conjecture_violations(n)),
    "iter_conjecture_violations weight_filter":
        lambda n: list(iter_conjecture_violations(5, n)),
    "check_block_alternating": check_block_alternating,
}


@pytest.mark.parametrize("name", SIZED_CALLS)
@given(size=not_ints)
def test_sizes_must_be_ints(name, size):
    with pytest.raises(DomainError, match="must be an integer"):
        SIZED_CALLS[name](size)
