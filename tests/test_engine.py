from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibtree import (
    ROOT,
    DomainError,
    apply_step,
    as_code,
    as_state,
    decode_state,
    enumerate_codes,
    enumerate_states,
    evaluate,
    iter_chain,
    iter_conjecture_violations,
    level_row,
    level_rows,
    reduce_state,
    reflect,
    trace,
    value,
)
from fixtures import LENGTH4_TABLE, NOT_INT_ENTRIES
from oracle import fib_by_addition, state_by_matrices, value_by_matrices

codes = st.text(alphabet="01", max_size=40)


# ------------------------------------------------------ oracle agreement

def test_values_match_matrix_oracle_exhaustively():
    for length in range(11):
        for code in enumerate_codes(length):
            assert evaluate(code) == state_by_matrices(code)


@given(codes, st.integers(1, 50), st.integers(1, 50))
def test_values_match_matrix_oracle_at_any_root(code, a, b):
    root = (a, b, a + b)
    assert value(code, root) == value_by_matrices(code, root)


@pytest.mark.parametrize("root", [ROOT, (2, 5, 7), (3, 1, 4)])
def test_level_rows_match_matrix_oracle(root):
    levels = list(level_rows(8, root))
    assert len(levels) == 9
    for length, rows in enumerate(levels):
        states = list(zip(*rows))
        assert states == [state_by_matrices(code, root)
                          for code in enumerate_codes(length)]


def test_level_rows_reject_bad_input():
    with pytest.raises(DomainError):
        next(level_rows(-1))
    with pytest.raises(DomainError):
        next(level_rows(3, (1, 2, 4)))


# --------------------------------------------------------- named values

@pytest.mark.parametrize("code,val", [
    ("1011", 19),
    ("1101", 19),
    ("1010000", 32),
    ("0000101", 32),
    ("10011", 25),
    ("01110", 25),
])
def test_named_values(code, val):
    assert value(code) == val


@pytest.mark.parametrize("code,state", [
    ("1100", (3, 11, 14)),
    ("0101", (7, 10, 17)),
])
def test_named_states(code, state):
    assert evaluate(code) == state


def test_length_four_table_states():
    for code, state, _ in LENGTH4_TABLE:
        assert evaluate(code) == state


def test_trace_shape_and_steps():
    states = trace("1100")
    assert states == [(1, 2, 3), (2, 3, 5), (3, 5, 8), (3, 8, 11), (3, 11, 14)]
    for code, state, _ in LENGTH4_TABLE:
        t = trace(code)
        assert len(t) == len(code) + 1
        assert t[0] == ROOT and t[-1] == state
        for prev, bit, cur in zip(t, code, t[1:]):
            assert apply_step(prev, int(bit)) == cur


@pytest.mark.parametrize("root", [(2, 5, 7), (3, 1, 4), (7, 7, 14), (5, 2, 7)])
def test_trace_matches_matrix_prefixes_at_other_roots(root):
    for length in range(9):
        for code in enumerate_codes(length):
            assert trace(code, root) == [state_by_matrices(code[:i], root)
                                         for i in range(length + 1)]


# ----------------------------------------------------------- structure

@given(codes)
def test_states_stay_ordered_and_coprime(code):
    a, b, c = evaluate(code)
    assert a < b < c and a + b == c
    assert gcd(a, b) == gcd(b, c) == gcd(a, c) == 1


@given(codes)
def test_sibling_one_exceeds_sibling_zero(code):
    assert value(code + "1") > value(code + "0") > value(code)


@given(codes)
def test_reflection_preserves_value(code):
    assert value(reflect(code)) == value(code)
    assert reflect(reflect(code)) == code


def test_closed_form_runs():
    for k in range(1, 31):
        assert value("1" * k) == fib_by_addition(k + 4)
        assert value("0" * k) == k + 3


# ------------------------------------------------------ decode / reduce

def test_decode_inverts_evaluate_exhaustively():
    for length in range(13):
        for code in enumerate_codes(length):
            assert decode_state(evaluate(code)) == code


def test_reduce_peels_the_last_bit():
    for length in range(1, 11):
        for code in enumerate_codes(length):
            parent, bit = reduce_state(evaluate(code))
            assert parent == evaluate(code[:-1])
            assert str(bit) == code[-1]


def test_reduce_rejects_root_and_unreachable():
    with pytest.raises(DomainError):
        reduce_state(ROOT)
    with pytest.raises(DomainError):
        reduce_state((2, 4, 6))
    with pytest.raises(DomainError):
        decode_state((2, 4, 6))
    with pytest.raises(DomainError):
        decode_state((3, 2, 5))


def _decode_by_reduce_state(s):
    """decode_state as a ladder of reduce_state calls, each one checked."""
    a, b, c = as_state(s)
    if not (1 <= a < b) or gcd(a, b) != 1:
        raise DomainError(f"state {s} is not reachable from the root")
    bits = []
    while (a, b, a + b) != ROOT:
        (a, b, _), bit = reduce_state((a, b, a + b))
        bits.append(str(bit))
        if a < 1 or not a < b:
            raise DomainError(f"state {s} is not reachable from the root")
    return "".join(reversed(bits))


def _outcome(fn, arg):
    try:
        return fn(arg)
    except DomainError as exc:
        return ("DomainError", str(exc))


def test_decode_matches_reduce_state_ladder():
    # Non-positive entries, a >= b, gcd > 1 and c != a + b all included.
    for a in range(-2, 45):
        for b in range(-2, 45):
            for c in (a + b - 1, a + b, a + b + 1):
                s = (a, b, c)
                assert _outcome(decode_state, s) == _outcome(_decode_by_reduce_state, s)


def test_decode_folds_runs_of_zero_steps():
    # A million 0-steps form one Euclid run: O(runs), not O(bits).
    n = 10**6
    assert decode_state((1, n, n + 1)) == "0" * (n - 2)


# --------------------------------------------------------- enumeration

def test_enumerate_codes_orders_by_integer():
    assert list(enumerate_codes(0)) == [""]
    assert list(enumerate_codes(2)) == ["00", "01", "10", "11"]
    with pytest.raises(DomainError):
        list(enumerate_codes(-1))


def test_enumerate_states_small_bound():
    got = set(enumerate_states(5))
    assert got == {
        ((1, 2, 3), ""),
        ((1, 3, 4), "0"),
        ((2, 3, 5), "1"),
        ((1, 4, 5), "00"),
    }


def test_enumerate_states_complete_and_consistent():
    seen = dict(enumerate_states(120))
    for state, code in seen.items():
        assert evaluate(code) == state
    # completeness: every code of length <= 6 whose value fits must appear
    for length in range(7):
        for code in enumerate_codes(length):
            s = evaluate(code)
            if s[2] <= 120:
                assert seen[s] == code


SIZED = {
    "level_rows": lambda n: next(level_rows(n)),
    "level_row": level_row,
    "enumerate_codes": lambda n: next(enumerate_codes(n)),
    "enumerate_states": lambda n: next(enumerate_states(n)),
}


@pytest.mark.parametrize("size", [True, 2.0, "3"])
@pytest.mark.parametrize("call", sorted(SIZED))
def test_sizes_must_be_ints(call, size):
    # True would run as 1 and 2.0 as 2; no size is coerced
    with pytest.raises(DomainError, match="must be an integer"):
        SIZED[call](size)


# ----------------------------------------------------------- validation

def test_code_validation():
    assert as_code("") == ""
    with pytest.raises(DomainError):
        as_code("102")
    with pytest.raises(DomainError):
        as_code(1011)


# Whitespace, non-ASCII digits and other symbols that are not bits.
NOT_BITS = st.one_of(
    st.sampled_from([" ", "\t", "\n", "\u00a0", "\u0660", "\uff11", "\u00b2", "2", "O", "l"]),
    st.characters(blacklist_characters="01"),
)


@settings(max_examples=300)
@given(st.text(alphabet="01", max_size=12), NOT_BITS, st.text(max_size=12),
       st.sampled_from(["start", "middle", "end"]))
def test_code_validation_names_the_first_bad_symbol(bits, bad, tail, where):
    if where == "start":
        text = bad + bits + tail
    elif where == "middle":
        text = "0" + bits + bad + tail + "1"
    else:
        text = bits + bad
    with pytest.raises(DomainError) as err:
        as_code(text)
    assert str(err.value) == f"invalid code symbol {bad!r}"


def test_state_validation():
    assert as_state((1, 2, 3)) == (1, 2, 3)
    assert as_state((2, 1, 3)) == (2, 1, 3)
    with pytest.raises(DomainError):
        as_state((0, 2, 2))
    with pytest.raises(DomainError):
        as_state((1, 2, 4))
    with pytest.raises(DomainError):
        apply_step((1, 2, 3), 2)


@pytest.mark.parametrize("bit", [True, False, 1.0, 0.0, Fraction(1), "0", "1", None])
def test_apply_step_refuses_bits_that_are_not_the_ints_0_and_1(bit):
    with pytest.raises(DomainError):
        apply_step((1, 2, 3), bit)


LAZY_STREAMS = {
    "enumerate_codes": lambda: enumerate_codes(True),
    "enumerate_states": lambda: enumerate_states(3.0),
    "iter_conjecture_violations": lambda: iter_conjecture_violations(3.0),
    "iter_conjecture_violations weight": lambda: iter_conjecture_violations(3, 1.5),
    "iter_chain": lambda: iter_chain((1, 2, 4)),
}


@pytest.mark.parametrize("name", sorted(LAZY_STREAMS))
def test_streams_check_their_input_at_the_call(name):
    # nothing is iterated: a generator would raise only at its first next()
    with pytest.raises(DomainError):
        LAZY_STREAMS[name]()


STATE_CHECKS = {
    "as_state": as_state,
    # roots are states: as_state is the one check, as_root was folded into it
    "as_root": as_state,
    "evaluate": lambda triple: evaluate("01", triple),
    "level_rows": lambda triple: level_rows(2, triple),
}


@pytest.mark.parametrize("check", sorted(STATE_CHECKS))
@pytest.mark.parametrize("kind", sorted(NOT_INT_ENTRIES))
@settings(max_examples=25)
@given(data=st.data())
def test_states_refuse_entries_that_are_not_ints(check, kind, data):
    a, b = data.draw(st.integers(1, 30)), data.draw(st.integers(1, 30))
    triple = [a, b, a + b]
    triple[data.draw(st.integers(0, 2))] = data.draw(NOT_INT_ENTRIES[kind])
    with pytest.raises(DomainError):
        STATE_CHECKS[check](tuple(triple))


@pytest.mark.parametrize("check", sorted(STATE_CHECKS))
@pytest.mark.parametrize("triple", [(1, 2), (1, 2, 3, 4), 5, None])
def test_states_refuse_what_is_not_a_triple(check, triple):
    with pytest.raises(DomainError):
        STATE_CHECKS[check](triple)


@settings(max_examples=30)
@given(codes, st.integers(1, 30), st.integers(1, 30))
def test_generalized_roots_keep_the_sum_shape(code, a, b):
    s = evaluate(code, (a, b, a + b))
    assert s[2] == s[0] + s[1]
