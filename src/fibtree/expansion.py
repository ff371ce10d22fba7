"""Fibonacci expansions of code values.

Every code containing a zero corresponds to exactly one expansion
a*F(k) + b*F(k+2) with gcd(a, b) = 1: the run of leading ones fixes k,
the bit after the first zero orients the pair, and the remaining bits,
read in reverse, rebuild the coefficient pair as a tree state.  All-ones
codes fall outside the bijection; their value is a single Fibonacci
number.  The expansion recurses, since every coefficient is itself an
initial value or the value of a shorter code, giving a nested tree whose
leaves are plain Fibonacci numbers.

expand_recursive builds every node from slices of the code alone: the
code of the coefficient state is the reversed tail, and the codes of the
two coefficients are prefixes of it, so no node evaluates or decodes a
state.  Within one call, equal subtrees, leaves included, are built once
and shared, so the tree is a DAG whose distinct nodes grow with the code
length, while the tree it spells out (and its JSON form) can grow far
faster.  tree_value evaluates each distinct sum node once.

Leaf and SumNode are frozen dataclasses with slots: a node has no
__dict__, and compares, hashes, pickles and copies by its fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Union

from .engine import _quotient_sum, as_code, decode_state, evaluate
from .errors import DomainError, _require_int


def _doubling(n: int) -> tuple[int, int]:
    """(F(n), F(n + 1)) for n >= 0 by fast doubling, one bit of n at a time
    from the top: F(2m) = F(m)(2F(m + 1) - F(m)), F(2m + 1) = F(m)^2 +
    F(m + 1)^2.  O(log n) multiplications, and nothing is kept."""
    f, g = 0, 1
    for bit in bin(n)[2:]:
        f, g = f * (2 * g - f), f * f + g * g
        if bit == "1":
            f, g = g, f + g
    return f, g


# F(0), ..., F(127): a small index is one read of a fixed table
_SMALL = tuple(_doubling(n)[0] for n in range(128))


def fib(n: int) -> int:
    """F(1) = F(2) = 1 indexing, so the root state is (F(2), F(3), F(4)).

    A table read below 128, fast doubling above; no call keeps anything."""
    _require_int("Fibonacci index", n, 1)
    return _SMALL[n] if n < 128 else _doubling(n)[0]


@dataclass(frozen=True)
class Expansion:
    a: int
    b: int
    k: int

    def __post_init__(self):
        # type(), not isinstance(): bool is an int, and no entry is coerced
        if type(self.a) is not int or type(self.b) is not int or type(self.k) is not int:
            raise DomainError(
                f"expansion entries must be integers, got {(self.a, self.b, self.k)!r}")
        if self.a < 1 or self.b < 1:
            raise DomainError("expansion coefficients must be positive")
        if self.k < 2:
            raise DomainError("expansion index k must be >= 2")
        if gcd(self.a, self.b) != 1:
            raise DomainError(f"expansion coefficients {self.a},{self.b} must be coprime")

    def value(self) -> int:
        return self.a * fib(self.k) + self.b * fib(self.k + 2)

    def code_length(self) -> int:
        """len(decode_expansion(self)) in O(log b) steps, building nothing: k - 2
        plus the sum of (a, b)'s Euclid quotients, as decode_state spells each in bits."""
        return self.k - 2 + _quotient_sum(self.a, self.b)


def pure_fibonacci(code: str) -> int:
    """Value of an all-ones code: a single Fibonacci number F(len + 4)."""
    code = as_code(code)
    if not code or "0" in code:
        raise DomainError("pure_fibonacci expects a nonempty all-ones code")
    return fib(len(code) + 4)


def encode_expansion(code: str) -> Expansion:
    # the run of leading ones fixes k; the rest is the orienting bit
    # followed by the code of the coefficient state, reversed
    leading = as_code(code).find("0")
    if leading < 0:
        raise DomainError("all-ones codes have no expansion; use pure_fibonacci")
    k, rest = leading + 2, code[leading + 1:]
    if not rest:
        return Expansion(1, 1, k)
    # The bit after the first zero orients the coefficient pair; the bits
    # after it, reversed, evaluate to the state carrying the pair.
    p, q, _ = evaluate(rest[1:][::-1])
    if rest[0] == "0":
        return Expansion(q, p, k)
    return Expansion(p, q, k)


def decode_expansion(e: Expansion) -> str:
    """Inverse of encode_expansion on its whole domain."""
    # the layout encode_expansion reads: k - 2 ones, then the first zero
    prefix = "1" * (e.k - 2) + "0"
    if e.a == 1 and e.b == 1:
        return prefix
    orient = "0" if e.a > e.b else "1"
    lo, hi = min(e.a, e.b), max(e.a, e.b)
    return prefix + orient + decode_state((lo, hi, lo + hi))[::-1]


@dataclass(frozen=True, slots=True)
class Leaf:
    """A plain Fibonacci number F(index)."""
    index: int


@dataclass(frozen=True, slots=True)
class SumNode:
    """(value of a) * F(k) + (value of b) * F(k+2)."""
    k: int
    a: "ExpansionTree"
    b: "ExpansionTree"


ExpansionTree = Union[Leaf, SumNode]


def tree_value(node: ExpansionTree) -> int:
    """Value of a tree; linear in its distinct nodes, since a shared sum
    node is evaluated once per call and a leaf, shared or not, costs one
    Fibonacci number: a table read, or past the table a fib call.
    A leaf index or k below 1 raises DomainError."""
    T = _SMALL
    memo: dict[int, int] = {}

    def walk(n: ExpansionTree) -> int:
        cls = type(n)
        # the exact classes first; isinstance only for a subclass
        if cls is Leaf or (cls is not SumNode and isinstance(n, Leaf)):
            i = n.index
            return T[i] if 0 < i < 128 else fib(i)
        v = memo.get(id(n))
        if v is None:
            k = n.k
            fk, fk2 = (T[k], T[k + 2]) if 0 < k < 126 else (fib(k), fib(k + 2))
            v = memo[id(n)] = walk(n.a) * fk + walk(n.b) * fk2
        return v

    return walk(node)


def tree_to_jsonable(node: ExpansionTree):
    if isinstance(node, Leaf):
        return {"fib": node.index}
    return {"k": node.k, "a": tree_to_jsonable(node.a), "b": tree_to_jsonable(node.b)}


def flatten_products(node: ExpansionTree) -> list[tuple[int, ...]]:
    """Distribute the tree into a sum of products of Fibonacci numbers.

    Each tuple lists the indices of one product term; the tree value is
    the sum over tuples of the product of fib(i).
    """
    if isinstance(node, Leaf):
        return [(node.index,)]
    out = [tuple(sorted(t + (node.k,))) for t in flatten_products(node.a)]
    out += [tuple(sorted(t + (node.k + 2,))) for t in flatten_products(node.b)]
    return sorted(out)


_MAX_BITS_PAST_ONES = 2400


def expand_recursive(code: str) -> ExpansionTree:
    """Nested expansion of a code's value, down to Fibonacci-number leaves.

    Equal subtrees, leaves included, are the same object within one call;
    nothing is kept between calls.  The nodes are slotted, frozen Leaf and
    SumNode dataclasses.

    Each level of the tree drops at least three of the bits past the
    code's leading ones, so n such bits give at most n/3 + 1 levels, and
    building, evaluating or serialising the tree recurses once a level.
    A code with more than 2,400 bits past its leading ones (801 levels)
    raises DomainError before anything is built, keeping inside the
    interpreter's default recursion limit of 1,000; all-ones codes are
    one leaf.
    """
    code = as_code(code)
    if not code:
        raise DomainError("the empty code has no expansion")
    n = len(code)
    if n > _MAX_BITS_PAST_ONES and -1 < code.find("0") < n - _MAX_BITS_PAST_ONES:
        raise DomainError(
            f"a code with {n - code.find('0')} bits past its leading ones "
            f"expands too deep; the limit is {_MAX_BITS_PAST_ONES}")
    return _expand(code, {})


# _expand builds nodes through their slot descriptors, skipping the
# frozen __init__ and its object.__setattr__ per field; the values are
# slices of a valid code, so there is nothing for __init__ to check.
_new = object.__new__
_set_index = Leaf.index.__set__
_set_k, _set_a, _set_b = SumNode.k.__set__, SumNode.a.__set__, SumNode.b.__set__


def _leaf(index: int, memo: dict) -> Leaf:
    """Leaf(index), shared through memo under its int index."""
    leaf = memo.get(index)
    if leaf is None:
        leaf = memo[index] = _new(Leaf)
        _set_index(leaf, index)
    return leaf


def _expand(code: str, memo: dict) -> ExpansionTree:
    """expand_recursive of a valid nonempty code, memoised by code in memo."""
    node = memo.get(code)
    if node is not None:
        return node
    # the layout encode_expansion reads: the run of leading ones fixes k, the
    # bit after the first zero orients the pair, the rest is reversed
    leading = code.find("0")
    if leading < 0:
        return _leaf(len(code) + 4, memo)
    if leading + 1 == len(code):
        a = b = _leaf(2, memo)
    else:
        # encode_expansion evaluates w (the code after the orienting bit,
        # reversed) to the state (lo, hi, lo + hi) of the coefficient
        # pair, so w is that state's code and the coefficients' codes are
        # slices of it.  The larger coefficient is the value of w less its
        # last bit; the smaller one is the value of u = w less its
        # trailing zeros, less two more bits (the leading entry rides
        # along every 0-step and was the middle entry two steps before the
        # last 1-step).  Coefficients 1, 2, 3 are initial values, not
        # prefixes: hi <= 3 iff len(w) <= 1 and lo <= 3 iff len(u) <= 2.
        w = code[:leading + 1:-1]
        u = w.rstrip("0")
        lo = _leaf(2 + len(u), memo) if len(u) <= 2 else _expand(u[:-2], memo)
        hi = _leaf(3 + len(w), memo) if len(w) <= 1 else _expand(w[:-1], memo)
        # the orienting bit: 1 puts the smaller coefficient on F(k)
        a, b = (lo, hi) if code[leading + 1] == "1" else (hi, lo)
    node = memo[code] = _new(SumNode)
    _set_k(node, leading + 2)
    _set_a(node, a)
    _set_b(node, b)
    return node
