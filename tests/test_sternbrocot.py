import tracemalloc
from array import array
from fractions import Fraction

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

codes = st.text(alphabet="01", max_size=25)

F = Fraction


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
        assert set(zip(*sternbrocot._path_rows(c))) == {(q.numerator, q.denominator)
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


def _set_verdict_of_patched(c):
    """The set verdict of the rows as the module reads them, patched or not."""
    a, b = sternbrocot._state_rows(c)
    state = set(zip(a, b)) | set(zip(b, a))
    path = set(zip(*sternbrocot._path_rows(c)))
    return (c, state == path, len(state), len(path))


def _altered(monkeypatch, side, change):
    """Patch the rows that one side is read from, passing them through
    change(p_row, q_row) first."""
    name = "_state_rows" if side == "state" else "_path_rows"
    real = getattr(sternbrocot, name)

    def altered(c):
        rows = real(c)
        change(rows[0], rows[1])
        return rows

    monkeypatch.setattr(sternbrocot, name, altered)


@pytest.mark.parametrize("where", [0, 37, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("side", ["state", "path"])
@pytest.mark.parametrize("new_entry", [lambda x: x + 1, lambda x: 1 << 20],
                         ids=["plus-one", "past-every-entry"])
def test_one_changed_entry_breaks_equality(monkeypatch, side, where, new_entry):
    def change(p_row, q_row):
        p_row[where] = new_entry(p_row[where])

    _altered(monkeypatch, side, change)
    verdict = check_generation(6)
    assert not verdict.equal
    assert verdict == _set_verdict_of_patched(6)


def test_path_entries_wider_than_the_state_side_never_match(monkeypatch):
    # packed into integer keys with three bits, these pairs once gave the
    # keys 7, 11, 13 and 14 that the state pairs (1, 3), (2, 3), (3, 1)
    # and (3, 2) gave with two; compared as pairs they never match
    monkeypatch.setattr(sternbrocot, "_path_rows",
                        lambda c: (array("Q", [0, 1, 1, 1]), array("Q", [7, 3, 5, 6])))
    assert check_generation(1) == (1, False, 4, 4)


@pytest.mark.parametrize("side", ["state", "path"])
def test_repeated_pair_counts_once(monkeypatch, side):
    def change(p_row, q_row):
        p_row[-1], q_row[-1] = p_row[0], q_row[0]

    _altered(monkeypatch, side, change)
    verdict = check_generation(6)
    assert not verdict.equal
    assert verdict == _set_verdict_of_patched(6)
    # each side has 2**7 distinct pairs; a state row entry stands in two
    # of them, (a, b) and (b, a)
    lost = 2 if side == "state" else 1
    assert verdict.state_side + verdict.path_side == 2 * 2 ** 7 - lost


def test_rows_are_built_in_increasing_order():
    for c in range(1, 13):
        a, b = sternbrocot._state_rows(c)
        assert sternbrocot._increasing(a + b[::-1], b + a[::-1])
        assert sternbrocot._increasing(*sternbrocot._path_rows(c))
        assert [F(x, y) for x, y in zip(a, b)] == sorted(u(code) for code in enumerate_codes(c))


def test_check_generation_memory():
    # sets of pair tuples peaked at 38.9 MB here and sorted packed keys at
    # 9.3 MB; both sides' rows, 32 bytes a pair, now set the peak
    tracemalloc.start()
    try:
        assert check_generation(16).equal
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2 ** 20


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
