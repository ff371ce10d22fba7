"""Stern-Brocot fractions attached to tree states.

A state (a, b, c) carries the two reciprocal fractions a/b and b/a.  The
same set of fractions arises by applying the left/right maps

    f_L(a/b) = a/(a+b)        f_R(a/b) = (a+b)/b

to the seeds 1/2 and 2/1 along all words of a fixed length, and
check_generation verifies that set equality exhaustively.  Each side is
two array('Q') rows of exact (numerator, denominator) pairs, built in
increasing order of their fractions, so neither is sorted or hashed; the
path side holds row c + 1 of the Calkin-Wilf tree (Calkin and Wilf,
"Recounting the rationals", 2000).  Tree parenthood is not preserved by
the correspondence, so nothing here relates parents to parents.
GenerationVerdict is a NamedTuple, not a dataclass, so an `sb check`
process does not import dataclasses.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import islice
from operator import add, lt, mul
from typing import NamedTuple

from .engine import ROOT, State, evaluate
from .errors import DomainError, _require_int


def u(code: str, root: State = ROOT) -> Fraction:
    a, b, _ = evaluate(code, root)
    return Fraction(a, b)


def v(code: str, root: State = ROOT) -> Fraction:
    a, b, _ = evaluate(code, root)
    return Fraction(b, a)


def f_L(q: Fraction) -> Fraction:
    return Fraction(q.numerator, q.numerator + q.denominator)


def f_R(q: Fraction) -> Fraction:
    return Fraction(q.numerator + q.denominator, q.denominator)


def apply_path(path: str, seed: Fraction) -> Fraction:
    """Apply an L/R word to a seed, leftmost letter first."""
    q = seed
    for ch in path:
        if ch == "L":
            q = f_L(q)
        elif ch == "R":
            q = f_R(q)
        else:
            raise DomainError(f"invalid path symbol {ch!r}")
    return q


class GenerationVerdict(NamedTuple):
    length: int
    equal: bool
    state_side: int
    path_side: int


def _state_rows(c: int) -> tuple[array, array]:
    """The rows a and b of u = a/b over the codes of length c, increasing.

    Step 0 maps u to a/(a+b) = u/(1+u), increasing into (0, 1/2), and step
    1 to b/(a+b) = 1/(1+u), decreasing into (1/2, 1), so the next row is
    step 0 of this one followed by step 1 of it reversed."""
    a_row, b_row = array("Q", [1]), array("Q", [2])
    for _ in range(c):
        s_row = array("Q", map(add, a_row, b_row))
        a_row, b_row = a_row + b_row[::-1], s_row + s_row[::-1]
    return a_row, b_row


def _path_rows(c: int) -> tuple[array, array]:
    """The rows p and q of the L/R words of length c on 1/2 and 2/1, increasing.

    Appending L maps (p, q) to (p, p + q), increasing into (0, 1), and R
    to (p + q, q), increasing into (1, oo), so the next row is the L block
    of this one followed by its R block.  gcd(p, q) stays 1.
    """
    p_row, q_row = array("Q", [1, 2]), array("Q", [2, 1])
    for _ in range(c):
        s_row = array("Q", map(add, p_row, q_row))
        p_row, q_row = p_row + s_row, s_row + q_row
    return p_row, q_row


def _increasing(p_row: array, q_row: array) -> bool:
    """Whether the fractions p/q increase strictly, by adjacent cross-products."""
    return all(map(lt, map(mul, p_row, islice(q_row, 1, None)),
                   map(mul, islice(p_row, 1, None), q_row)))


def check_generation(c: int) -> GenerationVerdict:
    """Set equality of {u, v over codes of length c} and {L/R words on both seeds}.

    Both sides are sets of coprime (numerator, denominator) pairs, built
    as rows increasing in the fraction; the state side is the u row, then
    that row swapped and reversed for v = 1/u.  When both increase
    strictly, their pairs are distinct and in one order, so the sides are
    equal iff the rows are, and the counts are the row lengths; a side
    that does not is compared and counted as a set.  The peak holds both
    sides, 32 bytes a pair.  The largest entry is fib(c + 3), so from
    c = 91 on one passes 2**64 - 1 and raises OverflowError.
    """
    _require_int("generation length", c, 1)
    a_row, b_row = _state_rows(c)
    state = (a_row + b_row[::-1], b_row + a_row[::-1])
    del a_row, b_row
    path = _path_rows(c)
    if _increasing(*state) and _increasing(*path):
        return GenerationVerdict(c, state == path, len(state[0]), len(path[0]))
    state, path = set(zip(*state)), set(zip(*path))
    return GenerationVerdict(c, state == path, len(state), len(path))
