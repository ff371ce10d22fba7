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
fraction sets.  Each side's pairs are packed into one integer key apiece
and held as a sorted array('Q') without duplicates, and the two sides
are built one after the other.  The peak, mostly the sort's list of one
side's keys, is about 150 bytes per code of the generation: 9.8 MB at
depth 16, against 39 MB for sets of pair tuples.  Tree parenthood is not
preserved by the correspondence, so nothing here relates parents to
parents.  GenerationVerdict is a NamedTuple, not a dataclass, so an
`sb check` process does not import dataclasses.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from operator import add, lshift, ne, or_
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


def _path_rows(c: int) -> tuple[array, array]:
    """The rows p and q of every L/R word of length c applied to 1/2 and to 2/1.

    Built by the level_rows interleave: appending L maps (p, q) to
    (p, p + q) and appending R to (p + q, q).  gcd(p, q) stays 1, so each
    pair (p[i], q[i]) stands exactly for its fraction p/q.
    """
    p_row, q_row = array("Q", [1, 2]), array("Q", [2, 1])
    for _ in range(c):
        s_row = array("Q", map(add, p_row, q_row))
        size = 2 * len(s_row)
        p_next, q_next = array("Q", bytes(8 * size)), array("Q", bytes(8 * size))
        p_next[0::2], p_next[1::2] = p_row, s_row
        q_next[0::2], q_next[1::2] = s_row, q_row
        p_row, q_row = p_next, q_next
    return p_row, q_row


def _distinct_keys(shift: int, *sides: tuple[array, array]) -> array:
    """The pairs zip(p, q) of every (p, q) side, packed as p << shift | q,
    sorted and without duplicates.

    shift must be at least the bit length of every q, so that distinct
    pairs get distinct keys.  The duplicates are adjacent once sorted, and
    compress drops each key equal to the one before it.
    """
    keys = sorted(chain.from_iterable(map(or_, map(lshift, p, repeat(shift)), q)
                                      for p, q in sides))
    return array("Q", compress(keys, chain((True,), map(ne, islice(keys, 1, None), keys))))


def check_generation(c: int) -> GenerationVerdict:
    """Set equality of {u, v over codes of length c} and {L/R words on both seeds}.

    Both sides are sets of coprime (numerator, denominator) pairs, so
    they compare as the fractions they stand for.  Each side is held as
    its sorted distinct packed keys, and the state rows are dropped
    before the path side is built.  The shift is the bit length of the
    largest state entry.  A path entry past it is larger than every state
    entry, so the sides differ, and the path side is packed wider only to
    count it; otherwise equal key arrays are equal pair sets.
    state_side and path_side count distinct pairs.
    """
    if c < 1:
        raise DomainError("generation length must be >= 1")
    a_row, b_row = level_row(c)[:2]
    shift = max(max(a_row), max(b_row)).bit_length()
    state_side = _distinct_keys(shift, (a_row, b_row), (b_row, a_row))
    del a_row, b_row
    p_row, q_row = _path_rows(c)
    path_shift = max(max(p_row), max(q_row)).bit_length()
    path_side = _distinct_keys(max(shift, path_shift), (p_row, q_row))
    return GenerationVerdict(c, path_shift <= shift and state_side == path_side,
                             len(state_side), len(path_side))
