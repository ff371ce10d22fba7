import copy
import dataclasses
import hashlib
import json
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibtree import (
    ROOT,
    DomainError,
    Expansion,
    Leaf,
    SumNode,
    decode_expansion,
    encode_expansion,
    enumerate_codes,
    expand_recursive,
    fib,
    flatten_products,
    pure_fibonacci,
    tree_to_jsonable,
    tree_value,
    value,
)
import fibtree.expansion
from fixtures import NOT_INT_ENTRIES
from oracle import fib_by_addition, fibs_by_addition


def test_fib_indexing_anchors():
    assert [fib(n) for n in range(1, 11)] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert ROOT == (fib(2), fib(3), fib(4))
    for n in range(1, 40):
        assert fib(n) == fib_by_addition(n)
    with pytest.raises(DomainError):
        fib(0)


def test_fib_matches_addition_to_ten_thousand():
    # the table ends at F(127) and fast doubling takes over from 128
    assert [fib(n) for n in range(1, 10 ** 4 + 1)] == fibs_by_addition(10 ** 4)
    assert fib(10 ** 4) == fib_by_addition(10 ** 4)


def test_fib_keeps_nothing():
    # a process-wide list of every F(n) made held 40.8 MB after fib(30002)
    want = fib_by_addition(30002)
    tracemalloc.start()
    try:
        assert fib(30002) == want
        assert tree_value(SumNode(30000, Leaf(30002), Leaf(2))) > 0
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 0.1 * 2 ** 20


# each equals a valid index, which coercion would accept; a float as large
# as 1e300 would ask an unchecked fib for about 2 * 10**299 digits
@pytest.mark.parametrize("n", [True, 2.0, "3", Fraction(3)], ids=repr)
def test_fib_refuses_non_int_indices(n):
    with pytest.raises(DomainError, match="Fibonacci index must be an integer"):
        fib(n)


@pytest.mark.parametrize("code,a,b,k", [
    ("1011", 2, 3, 3),
    ("10", 1, 1, 3),
    ("001", 3, 2, 2),
    ("0", 1, 1, 2),
    ("10011", 5, 3, 3),
])
def test_worked_encodings(code, a, b, k):
    e = encode_expansion(code)
    assert (e.a, e.b, e.k) == (a, b, k)
    assert e.value() == value(code)
    assert decode_expansion(e) == code


def test_pure_fibonacci_codes():
    for k in range(1, 13):
        assert pure_fibonacci("1" * k) == fib(k + 4) == value("1" * k)
    with pytest.raises(DomainError):
        pure_fibonacci("101")
    with pytest.raises(DomainError):
        pure_fibonacci("")


def test_round_trip_codes_to_expansions():
    for length in range(1, 13):
        for code in enumerate_codes(length):
            if "0" not in code:
                continue
            e = encode_expansion(code)
            assert gcd(e.a, e.b) == 1
            assert e.value() == value(code)
            assert decode_expansion(e) == code
            assert e.code_length() == len(code)


def test_round_trip_expansions_to_codes():
    for k in range(2, 9):
        for a in range(1, 120):
            for b in range(1, 120 - a + 1):
                if gcd(a, b) != 1:
                    continue
                e = Expansion(a, b, k)
                code = decode_expansion(e)
                assert encode_expansion(code) == e
                assert value(code) == e.value()
                assert e.code_length() == len(code)


@settings(max_examples=150)
@given(st.integers(1, 400), st.integers(1, 400), st.integers(2, 10))
def test_round_trip_random_expansions(a, b, k):
    g = gcd(a, b)
    a, b = a // g, b // g
    e = Expansion(a, b, k)
    assert encode_expansion(decode_expansion(e)) == e


def test_expansion_validation():
    with pytest.raises(DomainError):
        Expansion(2, 4, 3)
    with pytest.raises(DomainError):
        Expansion(1, 1, 1)
    with pytest.raises(DomainError):
        Expansion(0, 1, 2)
    with pytest.raises(DomainError):
        encode_expansion("111")


@pytest.mark.parametrize("field", range(3))
@pytest.mark.parametrize("kind", sorted(NOT_INT_ENTRIES))
@settings(max_examples=25)
@given(data=st.data())
def test_expansion_refuses_entries_that_are_not_ints(field, kind, data):
    entries = [1, 2, 3]
    entries[field] = data.draw(NOT_INT_ENTRIES[kind])
    with pytest.raises(DomainError):
        Expansion(*entries)


# ------------------------------------------------------------ the trees

def test_recursive_tree_shapes():
    assert expand_recursive("1011") == SumNode(3, Leaf(3), Leaf(4))
    assert expand_recursive("10011") == SumNode(3, Leaf(5), Leaf(4))
    assert expand_recursive("111") == Leaf(7)
    assert expand_recursive("10") == SumNode(3, Leaf(2), Leaf(2))


def test_tree_jsonable_forms():
    assert tree_to_jsonable(Leaf(5)) == {"fib": 5}
    assert tree_to_jsonable(SumNode(3, Leaf(3), Leaf(4))) == {
        "k": 3, "a": {"fib": 3}, "b": {"fib": 4}}


def test_trees_evaluate_to_the_code_value():
    for length in range(1, 11):
        for code in enumerate_codes(length):
            tree = expand_recursive(code)
            assert tree_value(tree) == value(code)


def test_flatten_products():
    products = flatten_products(expand_recursive("10011"))
    assert products == [(3, 5), (4, 5)]
    for length in range(1, 11):
        for code in enumerate_codes(length):
            prods = flatten_products(expand_recursive(code))
            assert prods == sorted(prods)
            total = 0
            for t in prods:
                term = 1
                for idx in t:
                    term *= fib(idx)
                total += term
            assert total == value(code)


# A digest of every tree of 1..12 bits, recorded before subtrees were
# shared: sharing must not change a single serialised byte.
TREES_1_TO_12_SHA256 = "62fab6fdab2c569eb433b45edc70cba5765f6a4dbfe1a008411617e4d9143c8f"


def test_shared_trees_serialise_as_before():
    trees = [tree_to_jsonable(expand_recursive(code))
             for length in range(1, 13) for code in enumerate_codes(length)]
    digest = hashlib.sha256(json.dumps(trees).encode()).hexdigest()
    assert digest == TREES_1_TO_12_SHA256


def _distinct_nodes(tree) -> int:
    seen, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, SumNode):
                stack += [node.a, node.b]
    return len(seen)


@pytest.mark.parametrize("code", ["01" * 50, "0110" * 25])
def test_long_codes_share_subtrees(code):
    # Unshared, "01" * 50 spells out about 3.2 million nodes.
    tree = expand_recursive(code)
    assert tree_value(tree) == value(code)
    assert _distinct_nodes(tree) <= len(code) ** 2


def test_no_sharing_between_calls():
    first, second = expand_recursive("0110100101"), expand_recursive("0110100101")
    assert first == second and first is not second


def test_leaves_are_shared_within_a_call():
    tree = expand_recursive("10")
    assert tree == SumNode(3, Leaf(2), Leaf(2)) and tree.a is tree.b


# ------------------------------------------------------ node semantics

def test_nodes_are_frozen_slotted_dataclasses():
    tree = expand_recursive("1011")
    for node in (tree, tree.a):
        assert dataclasses.is_dataclass(node) and not hasattr(node, "__dict__")
    assert [f.name for f in dataclasses.fields(SumNode)] == ["k", "a", "b"]
    assert [f.name for f in dataclasses.fields(Leaf)] == ["index"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.k = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        tree.a.index = 5
    assert dataclasses.replace(tree, k=4) == SumNode(4, Leaf(3), Leaf(4))


def test_node_equality_hash_and_repr():
    first, second = expand_recursive("0110100101"), expand_recursive("0110100101")
    assert first == second and hash(first) == hash(second)
    tree = expand_recursive("1011")
    assert tree == SumNode(3, Leaf(3), Leaf(4)) and hash(tree) == hash(SumNode(3, Leaf(3), Leaf(4)))
    assert tree != SumNode(3, Leaf(4), Leaf(3))
    # a node is not a tuple of its fields
    assert tree != (3, Leaf(3), Leaf(4)) and Leaf(3) != (3,)
    assert repr(tree) == "SumNode(k=3, a=Leaf(index=3), b=Leaf(index=4))"


def test_nodes_pickle_and_deepcopy():
    tree = expand_recursive("0110100101")
    for twin in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
        assert twin == tree and twin is not tree
        assert tree_value(twin) == value("0110100101")
        with pytest.raises(dataclasses.FrozenInstanceError):
            twin.k = 1


def test_nodes_match_by_position_and_keyword():
    def describe(node):
        match node:
            case Leaf(index=i):
                return f"F{i}"
            case SumNode(k, a, b):
                return f"({describe(a)}*F{k} + {describe(b)}*F{k + 2})"

    assert describe(expand_recursive("10011")) == "(F5*F3 + F4*F5)"


@pytest.mark.parametrize("bad", [True, False, 2.0, "2", None])
def test_nodes_refuse_fields_of_the_wrong_type(bad):
    for build in (lambda: Leaf(bad), lambda: SumNode(bad, Leaf(2), Leaf(2)),
                  lambda: SumNode(3, bad, Leaf(2)), lambda: SumNode(3, Leaf(2), bad),
                  lambda: dataclasses.replace(expand_recursive("1011"), k=bad)):
        with pytest.raises(DomainError):
            build()


def test_tree_value_refuses_indices_below_one():
    for tree in (Leaf(0), Leaf(-1), SumNode(0, Leaf(2), Leaf(2)), SumNode(-1, Leaf(2), Leaf(2)),
                 SumNode(3, Leaf(0), Leaf(2))):
        with pytest.raises(DomainError):
            tree_value(tree)
    # a hand-built k far beyond any code's
    big = fib_by_addition(300) * fib_by_addition(3000) + fib_by_addition(3002)
    assert tree_value(SumNode(3000, Leaf(300), Leaf(2))) == big


# A digest of the JSON tree and value of 3,000 seeded random codes of
# 15..64 bits, recorded while nodes were still built by encoding and
# decoding states: building them from slices of the code must not change
# a byte.
RANDOM_TREES_SHA256 = "83d0638056a08b0b1b9c13c9b34988fc3ad430537c3c3479cb6507878efcc43f"


def test_random_long_trees_serialise_as_before():
    rng = random.Random(1564)
    digest = hashlib.sha256()
    for _ in range(3000):
        length = rng.randint(15, 64)
        tree = expand_recursive(format(rng.getrandbits(length), f"0{length}b"))
        digest.update(json.dumps([tree_to_jsonable(tree), tree_value(tree)]).encode())
    assert digest.hexdigest() == RANDOM_TREES_SHA256


def test_nodes_are_built_from_slices_alone(monkeypatch):
    def refuse(*args):
        raise AssertionError("expand_recursive evaluated or decoded a state")

    for name in ("decode_state", "evaluate", "encode_expansion"):
        monkeypatch.setattr(fibtree.expansion, name, refuse)
    for code in ("10", "1011", "10011", "0110100101", "01" * 20, "1110" + "0" * 30):
        assert tree_value(expand_recursive(code)) == value(code)


# All-zero codes are the deepest for their length: each level drops exactly
# three bits.  Past the bound a code is refused before anything is built,
# where 3,000 zeros used to end in RecursionError.
def test_deep_codes_are_refused_before_building(monkeypatch):
    deepest = fibtree.expansion._MAX_BITS_PAST_ONES
    monkeypatch.setattr(fibtree.expansion, "_expand", None)
    for code in ("0" * 3000, "0" * (deepest + 1), "1" * 50 + "0" * (deepest + 1)):
        with pytest.raises(DomainError):
            expand_recursive(code)


def test_the_longest_accepted_codes_expand():
    deepest = fibtree.expansion._MAX_BITS_PAST_ONES
    for code in ("0" * deepest, "1" * 3000 + "0" * deepest, "1" * 5000):
        tree = expand_recursive(code)
        assert tree_value(tree) == value(code)
