"""Stern-Brocot fractions attached to tree states.

A state (a, b, c) carries the reciprocal fractions u = a/b and v = b/a.
The same set of fractions arises by applying the left/right maps

    f_L(p/q) = p/(p+q)        f_R(p/q) = (p+q)/q

to the seeds 1/2 and 2/1 along all words of a fixed length c, giving row
c + 1 of the Calkin-Wilf tree (Calkin and Wilf, "Recounting the
rationals", 2000).  check_generation proves the set equality by induction
on c with 2x2 matrices on pairs: A0 and A1 are the code steps on (a, b),
read off the row kernel engine._rows; J is the swap; L and R are the
pair steps that f_L and f_R are written with.  With U_c the u pairs over
the codes of length c and S_c = U_c | J(U_c), the identities

    A0 = L,  J.A1 = R,  L.J = A1,  R.J = J.A0

give U_(c+1) = A0(U_c) | A1(U_c) = L(S_c) and J(U_(c+1)) = R(S_c): the
path side's recursion, from the same S_0 = {1/2, 2/1}.  L maps (0, oo)
one-to-one into (0, 1) and R = J.L.J into (1, oo), so each side has
2**(c + 1) fractions.  Tree parenthood is not preserved by the
correspondence.  GenerationVerdict is a NamedTuple, so an `sb check`
process does not import dataclasses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .engine import ROOT, State, _last, _rows, evaluate
from .errors import DomainError, _require_int


def u(code: str, root: State = ROOT) -> Fraction:
    a, b, _ = evaluate(code, root)
    return Fraction(a, b)


def v(code: str, root: State = ROOT) -> Fraction:
    a, b, _ = evaluate(code, root)
    return Fraction(b, a)


def _left(p: int, q: int) -> tuple[int, int]:
    return p, p + q


def _right(p: int, q: int) -> tuple[int, int]:
    return p + q, q


def _terms(q: Fraction) -> tuple[int, int]:
    """The numerator and denominator of a seed, a Fraction or an int."""
    # type(), not isinstance(), for the int: bool is an int, and no seed is coerced
    if type(q) is not int and not isinstance(q, Fraction):
        raise DomainError(f"a seed must be a Fraction or an integer, got {q!r}")
    return q.numerator, q.denominator


def f_L(q: Fraction) -> Fraction:
    return Fraction(*_left(*_terms(q)))


def f_R(q: Fraction) -> Fraction:
    return Fraction(*_right(*_terms(q)))


def apply_path(path: str, seed: Fraction) -> Fraction:
    """Apply an L/R word to a seed, leftmost letter first."""
    _terms(seed)  # checked here too, as an empty word applies no map
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
    state_side: int | None
    path_side: int | None


def _times(m, n):
    return tuple(tuple(m[i][0] * n[0][j] + m[i][1] * n[1][j] for j in (0, 1))
                 for i in (0, 1))


@cache
def _certified() -> bool:
    """The base case and the four identities of the module docstring, and
    that L maps (0, oo) one-to-one into (0, 1).  Independent of c, so it
    is derived once per process."""
    a, b, _ = ROOT
    (a1, b1, _), (a2, b2, _) = _last(_rows(1, 1, 0)), _last(_rows(1, 0, 1))
    # each matrix's columns are its step's images of (1, 0) and (0, 1)
    A0, A1 = (((a1[x], a2[x]), (b1[x], b2[x])) for x in (0, 1))
    L, R = (tuple(zip(step(1, 0), step(0, 1))) for step in (_left, _right))
    J = (0, 1), (1, 0)
    (l00, l01), (l10, l11) = L
    # a nonnegative numerator row that is not zero, a denominator row no
    # smaller in either entry and larger in one, and det L != 0
    into_unit = (min(l00, l01, l10 - l00, l11 - l01) >= 0 and l00 + l01 > 0
                 and l10 + l11 > l00 + l01 and l00 * l11 != l01 * l10)
    return ({(a, b), (b, a)} == {(1, 2), (2, 1)} and into_unit and A0 == L
            and _times(J, A1) == R and _times(L, J) == A1
            and _times(R, J) == _times(J, A0))


def check_generation(c: int) -> GenerationVerdict:
    """Set equality of {u, v over codes of length c} and {L/R words on both seeds}.

    Proved by the induction certificate of the module docstring, read off
    the code steps and f_L and f_R, in O(1) for any c.  When it holds, the
    verdict is (c, True, 2**(c + 1), 2**(c + 1)).  When it fails, it is
    (c, False, None, None): equal says only that nothing was proved, and
    no count is claimed.
    """
    _require_int("generation length", c, 1)
    if not _certified():
        return GenerationVerdict(c, False, None, None)
    n = 2 ** (c + 1)
    return GenerationVerdict(c, True, n, n)
