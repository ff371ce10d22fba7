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
        assert sternbrocot._path_pairs(c) == {(q.numerator, q.denominator)
                                              for q in fractions}


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
