"""Stern-Brocot fractions attached to tree states.

A state (a, b, c) carries the two reciprocal fractions a/b and b/a.  The
same set of fractions arises by applying the left/right maps

    f_L(a/b) = a/(a+b)        f_R(a/b) = (a+b)/b

to the seeds 1/2 and 2/1 along all words of a fixed length, and
check_generation verifies that set equality exhaustively.  Tree
parenthood is not preserved by the correspondence, so nothing here
relates parents to parents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class GenerationVerdict:
    length: int
    equal: bool
    state_side: int
    path_side: int


def check_generation(c: int) -> GenerationVerdict:
    """Set equality of {u, v over codes of length c} and {L/R words on both seeds}."""
    if c < 1:
        raise DomainError("generation length must be >= 1")
    a_row, b_row, _ = level_row(c)
    state_side = set()
    for a, b in zip(a_row, b_row):
        state_side.add(Fraction(a, b))
        state_side.add(Fraction(b, a))
    path_side = set()
    for n in range(1 << c):
        word = format(n, f"0{c}b").translate(str.maketrans("01", "LR"))
        path_side.add(apply_path(word, Fraction(1, 2)))
        path_side.add(apply_path(word, Fraction(2, 1)))
    return GenerationVerdict(c, state_side == path_side, len(state_side), len(path_side))
