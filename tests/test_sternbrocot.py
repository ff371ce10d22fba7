import operator
import tracemalloc
from array import array
from fractions import Fraction
from functools import cache, partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fibtree import (
    DomainError,
    apply_path,
    check_generation,
    enumerate_codes,
    evaluate,
    f_L,
    f_R,
    u,
    v,
)
from fibtree import sternbrocot
from fibtree.engine import _last, _rows
import oracle

codes = st.text(alphabet="01", max_size=25)

F = Fraction


@pytest.mark.parametrize("seed", [True, False, 2.5, 1.0, "1/2", "1", None])
def test_maps_refuse_seeds_that_are_not_fractions_or_ints(seed):
    for call in (f_L, f_R, partial(apply_path, "L"), partial(apply_path, "")):
        with pytest.raises(DomainError):
            call(seed)


def test_maps_take_int_seeds():
    assert f_L(3) == F(3, 4) and f_R(3) == F(4, 1)
    assert apply_path("LR", 1) == F(3, 2)


def test_seed_and_single_step_labels():
    assert u("") == F(1, 2) and v("") == F(2, 1)
    assert u("0") == F(1, 3) and u("1") == F(2, 3)
    assert v("0") == F(3, 1) and v("1") == F(3, 2)


def test_mediant_moves():
    assert f_L(F(1, 2)) == F(1, 3)
    assert f_R(F(1, 2)) == F(3, 2)
    assert f_L(F(3, 5)) == F(3, 8)
    assert f_R(F(3, 5)) == F(8, 5)


def test_apply_path():
    assert apply_path("", F(1, 2)) == F(1, 2)
    assert apply_path("LR", F(1, 2)) == f_R(f_L(F(1, 2)))
    with pytest.raises(DomainError):
        apply_path("LX", F(1, 2))


def test_first_generation_set():
    verdict = check_generation(1)
    assert verdict.equal
    state_fracs = set()
    for code in enumerate_codes(1):
        state_fracs.add(u(code))
        state_fracs.add(v(code))
    assert state_fracs == {F(1, 3), F(2, 3), F(3, 2), F(3, 1)}


def test_generation_sets_match_paths():
    for c in range(1, 9):
        verdict = check_generation(c)
        assert verdict.equal
        assert verdict.state_side == verdict.path_side == 2 ** (c + 1)


def test_integer_path_side_matches_fraction_paths():
    for c in range(1, 11):
        words = [format(n, f"0{c}b").translate(str.maketrans("01", "LR"))
                 for n in range(1 << c)]
        fractions = {apply_path(word, seed) for word in words
                     for seed in (F(1, 2), F(2, 1))}
        assert set(zip(*oracle.path_rows(c))) == {(q.numerator, q.denominator)
                                                  for q in fractions}


def _set_verdict(c):
    """check_generation's verdict from sets of pair tuples, built apart from
    the module: the state side from evaluate, the path side by mapping
    each pair to its two children."""
    state = set()
    for code in enumerate_codes(c):
        a, b, _ = evaluate(code)
        state.update(((a, b), (b, a)))
    path = [(1, 2), (2, 1)]
    for _ in range(c):
        path = [child for p, q in path for child in ((p, p + q), (p + q, q))]
    path = set(path)
    return (c, state == path, len(state), len(path))


def test_packed_keys_give_the_set_verdict():
    for c in range(1, 15):
        assert check_generation(c) == _set_verdict(c)


def test_certificate_matches_the_oracle_rows():
    for c in range(1, 19):
        assert check_generation(c) == oracle.generation_by_rows(c) == (
            c, True, 2 ** (c + 1), 2 ** (c + 1))


def _set_verdict_of_rows(c, u_rows, path):
    """The set verdict of rows that generation_by_rows reads, altered or not."""
    a, b = u_rows
    state = set(zip(a, b)) | set(zip(b, a))
    path = set(zip(*path))
    return (c, state == path, len(state), len(path))


def _altered_verdicts(side, change):
    """generation_by_rows and the set verdict at c = 6, with the rows of one
    side passed through change(p_row, q_row) first."""
    rows = {"state": oracle.state_rows(6), "path": oracle.path_rows(6)}
    change(*rows[side])
    return (oracle.generation_by_rows(6, rows["state"], rows["path"]),
            _set_verdict_of_rows(6, rows["state"], rows["path"]))


@pytest.mark.parametrize("where", [0, 37, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("side", ["state", "path"])
@pytest.mark.parametrize("new_entry", [lambda x: x + 1, lambda x: 1 << 20],
                         ids=["plus-one", "past-every-entry"])
def test_one_changed_entry_breaks_equality(side, where, new_entry):
    def change(p_row, q_row):
        p_row[where] = new_entry(p_row[where])

    verdict, by_sets = _altered_verdicts(side, change)
    assert not verdict[1]
    assert verdict == by_sets


def test_path_entries_wider_than_the_state_side_never_match():
    # packed into integer keys with three bits, these pairs once gave the
    # keys 7, 11, 13 and 14 that the state pairs (1, 3), (2, 3), (3, 1)
    # and (3, 2) gave with two; compared as pairs they never match
    path = (array("Q", [0, 1, 1, 1]), array("Q", [7, 3, 5, 6]))
    assert oracle.generation_by_rows(1, oracle.state_rows(1), path) == (1, False, 4, 4)


@pytest.mark.parametrize("side", ["state", "path"])
def test_repeated_pair_counts_once(side):
    def change(p_row, q_row):
        p_row[-1], q_row[-1] = p_row[0], q_row[0]

    verdict, by_sets = _altered_verdicts(side, change)
    assert not verdict[1]
    assert verdict == by_sets
    # each side has 2**7 distinct pairs; a state row entry stands in two
    # of them, (a, b) and (b, a)
    lost = 2 if side == "state" else 1
    assert verdict[2] + verdict[3] == 2 * 2 ** 7 - lost


def test_rows_are_built_in_increasing_order():
    for c in range(1, 13):
        a, b = oracle.state_rows(c)
        assert oracle.increasing(a + b[::-1], b + a[::-1])
        assert oracle.increasing(*oracle.path_rows(c))
        assert [F(x, y) for x, y in zip(a, b)] == sorted(u(code) for code in enumerate_codes(c))


# The matrices of the code steps on (a, b) and of the pair steps behind
# f_L and f_R; the certificate reads each off the code, and the tests
# below install mutants of these in the code's place.
STEPS = {"A0": ((1, 0), (1, 1)), "A1": ((0, 1), (1, 1)),
         "L": ((1, 0), (1, 1)), "R": ((1, 1), (0, 1))}


def _apply(m, p, q):
    return m[0][0] * p + m[0][1] * q, m[1][0] * p + m[1][1] * q


def _kernel(a0, a1):
    """engine._rows with the code steps (a, b) -> a0.(a, b) and a1.(a, b),
    in lists: the child of index i by bit x sits at 2i + x."""
    def rows(max_len, a, b):
        level = [(a, b)]
        for _ in range(max_len + 1):
            yield [p for p, _ in level], [q for _, q in level], [p + q for p, q in level]
            level = [_apply(m, p, q) for p, q in level for m in (a0, a1)]
    return rows


def _fresh_certificate(monkeypatch):
    """A new cache for the certificate, so no verdict outlives its test."""
    monkeypatch.setattr(sternbrocot, "_certified", cache(sternbrocot._certified.__wrapped__))


def _install(monkeypatch, steps):
    _fresh_certificate(monkeypatch)
    monkeypatch.setattr(sternbrocot, "_rows", _kernel(steps["A0"], steps["A1"]))
    monkeypatch.setattr(sternbrocot, "_left", partial(_apply, steps["L"]))
    monkeypatch.setattr(sternbrocot, "_right", partial(_apply, steps["R"]))


def _sides(c):
    """Both sides of length c as sets of pairs, built whole through the
    module's seams: the u pairs from its row kernel at its root, and the
    words from the pair steps that f_L and f_R are written with."""
    a, b, _ = _last(sternbrocot._rows(c, *sternbrocot.ROOT[:2]))
    state = set(zip(a, b)) | set(zip(b, a))
    path = {(1, 2), (2, 1)}
    for _ in range(c):
        path = {step(p, q) for p, q in path
                for step in (sternbrocot._left, sternbrocot._right)}
    return state, path


def test_the_step_matrices_are_the_code_steps(monkeypatch):
    for (a, b, s), (pa, pb, ps) in zip(_rows(8, 2, 5), _kernel(STEPS["A0"], STEPS["A1"])(8, 2, 5)):
        assert (list(a), list(b), list(s)) == (pa, pb, ps)
    for p, q in [(1, 2), (3, 5), (8, 3)]:
        assert sternbrocot._left(p, q) == _apply(STEPS["L"], p, q)
        assert sternbrocot._right(p, q) == _apply(STEPS["R"], p, q)
    _install(monkeypatch, STEPS)
    for c in range(1, 5):
        state, path = _sides(c)
        assert state == path and len(state) == 2 ** (c + 1)
        assert check_generation(c) == (c, True, 2 ** (c + 1), 2 ** (c + 1))


@pytest.mark.parametrize("delta", [1, -1], ids=["plus-one", "minus-one"])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)],
                         ids=["00", "01", "10", "11"])
@pytest.mark.parametrize("name", list(STEPS))
def test_a_mutated_step_fails_the_certificate(monkeypatch, name, entry, delta):
    i, j = entry
    mutant = [list(row) for row in STEPS[name]]
    mutant[i][j] += delta
    _install(monkeypatch, {**STEPS, name: tuple(map(tuple, mutant))})
    # the mutant shows on the sides built whole, by some c <= 4 ...
    assert any(operator.ne(*_sides(c)) for c in range(1, 5))
    # ... and the certificate fails, claiming no count
    for c in range(1, 5):
        assert check_generation(c) == (c, False, None, None)


# Steps changed together so that A0 = L, A1 = L.J and R = J.L.J: the
# identities hold and the sides stay equal, but only an L into (0, 1) that
# is one-to-one makes each side double at every step.
@pytest.mark.parametrize("steps, grows", [
    ({"A0": ((1, 0), (2, 1)), "A1": ((0, 1), (1, 2)),
      "L": ((1, 0), (2, 1)), "R": ((1, 2), (0, 1))}, True),
    ({"A0": ((1, 0), (0, 1)), "A1": ((0, 1), (1, 0)),
      "L": ((1, 0), (0, 1)), "R": ((1, 0), (0, 1))}, False),
    ({"A0": ((1, 0), (1, 0)), "A1": ((0, 1), (0, 1)),
      "L": ((1, 0), (1, 0)), "R": ((0, 1), (0, 1))}, False),
], ids=["doubling", "identity", "singular"])
def test_only_doubling_steps_certify_the_counts(monkeypatch, steps, grows):
    _install(monkeypatch, steps)
    for c in range(1, 5):
        state, path = _sides(c)
        assert state == path
        assert (len(state) == 2 ** (c + 1)) == grows
        n = 2 ** (c + 1) if grows else None
        assert check_generation(c) == (c, grows, n, n)


@pytest.mark.parametrize("root", [(1, 2, 3), (2, 1, 3), (1, 3, 4), (2, 3, 5)])
def test_the_base_case_reads_the_root(monkeypatch, root):
    _fresh_certificate(monkeypatch)
    monkeypatch.setattr(sternbrocot, "ROOT", root)
    equal = all(operator.eq(*_sides(c)) for c in range(0, 5))
    assert equal == (set(root[:2]) == {1, 2})
    for c in range(1, 5):
        assert check_generation(c).equal == equal


def test_the_certificate_is_derived_once_per_process(monkeypatch):
    calls = []

    def counting_rows(*args):
        calls.append(args)
        return _rows(*args)

    _fresh_certificate(monkeypatch)
    monkeypatch.setattr(sternbrocot, "_rows", counting_rows)
    for c in range(1, 201):
        assert check_generation(c) == (c, True, 2 ** (c + 1), 2 ** (c + 1))
    # A0 and A1, read off the unit pairs once, not once a depth
    assert calls == [(1, 1, 0), (1, 0, 1)]


def test_check_generation_memory():
    # sets of pair tuples peaked at 38.9 MB at c = 16, sorted packed keys
    # at 9.3 MB and both sides' rows at 32 bytes a pair, about 64 GB at
    # c = 30; the certificate holds a few 2x2 matrices at any c
    for c in (16, 30):
        tracemalloc.start()
        try:
            verdict = check_generation(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict == (c, True, 2 ** (c + 1), 2 ** (c + 1))
        assert peak < 2 ** 14, c


@given(st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.fractions()))
def test_generation_length_must_be_an_int(c):
    with pytest.raises(DomainError, match="must be an integer"):
        check_generation(c)


@given(codes)
def test_local_recurrences(code):
    uq = u(code)
    assert u(code + "0") == f_L(uq)
    assert u(code + "1") == 1 / f_R(uq)
    assert v(code + "0") == 1 / f_L(uq)
    assert v(code + "1") == f_R(uq)


@given(codes)
def test_labels_are_exact_reduced_state_ratios(code):
    a, b, _ = evaluate(code)
    uq, vq = u(code), v(code)
    assert 0 < uq < 1 < vq
    assert uq * vq == 1
    # a and b are coprime, so the fraction keeps them verbatim
    assert (uq.numerator, uq.denominator) == (a, b)
    assert (vq.numerator, vq.denominator) == (b, a)
