"""Stern-Brocot fractions attached to tree states.

A state (a, b, c) carries the two reciprocal fractions a/b and b/a.  The
same set of fractions arises by applying the left/right maps

    f_L(a/b) = a/(a+b)        f_R(a/b) = (a+b)/b

to the seeds 1/2 and 2/1 along all words of a fixed length, and
check_generation verifies that set equality exhaustively.  It compares
exact integer (numerator, denominator) pairs: the state side reads them
off the engine's level rows, and the path side is built by the same
interleave, since f_L maps (p, q) to (p, p + q) and f_R to (p + q, q).
Every pair on either side is coprime, so equal pair sets are equal
fraction sets.  Tree parenthood is not preserved by the correspondence,
so nothing here relates parents to parents.  GenerationVerdict is a
NamedTuple, not a dataclass, so an `sb check` process does not import
dataclasses.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .engine import ROOT, State, evaluate, level_row
from .errors import DomainError


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


def _path_pairs(c: int) -> set[tuple[int, int]]:
    """The (p, q) of every L/R word of length c applied to 1/2 and to 2/1.

    Built by the level_rows interleave: appending L maps (p, q) to
    (p, p + q) and appending R to (p + q, q).  gcd(p, q) stays 1, so each
    pair stands exactly for its fraction p/q.
    """
    p_row, q_row = array("Q", [1, 2]), array("Q", [2, 1])
    for _ in range(c):
        s_row = array("Q", map(add, p_row, q_row))
        size = 2 * len(s_row)
        p_next, q_next = array("Q", bytes(8 * size)), array("Q", bytes(8 * size))
        p_next[0::2], p_next[1::2] = p_row, s_row
        q_next[0::2], q_next[1::2] = s_row, q_row
        p_row, q_row = p_next, q_next
    return set(zip(p_row, q_row))


def check_generation(c: int) -> GenerationVerdict:
    """Set equality of {u, v over codes of length c} and {L/R words on both seeds}.

    Both sides are sets of coprime (numerator, denominator) pairs, so
    they compare as the fractions they stand for.
    """
    if c < 1:
        raise DomainError("generation length must be >= 1")
    a_row, b_row, _ = level_row(c)
    state_side = set(zip(a_row, b_row))
    state_side.update(zip(b_row, a_row))
    path_side = _path_pairs(c)
    return GenerationVerdict(c, state_side == path_side, len(state_side), len(path_side))
