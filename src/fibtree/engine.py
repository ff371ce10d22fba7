"""Core state machine: binary codes acting on additive integer triples.

A state is a triple (a, b, c) with c = a + b.  A code is a finite string
over '0'/'1'; its leftmost bit is applied first.  The two transforms are

    step 0: (a, b, c) -> (a, c, a + c)
    step 1: (a, b, c) -> (b, c, b + c)

and the value of a code is the third entry of the state it reaches from
the root (1, 2, 3).  Every state reachable from that root has a < b < c
with pairwise coprime entries, which is what makes exact decoding back
to the code possible.
"""

from __future__ import annotations

from array import array
from collections import deque
from math import gcd
from operator import add
from typing import Iterator

State = tuple[int, int, int]

ROOT: State = (1, 2, 3)

from .errors import DomainError, _require_int


def as_code(text: str) -> str:
    """Validate a code string; empty is allowed and names the root."""
    if not isinstance(text, str):
        raise DomainError(f"code must be a string, got {type(text).__name__}")
    # strip takes the bits off both ends, so what is left starts at the
    # first symbol that is not a bit
    bad = text.strip("01")
    if bad:
        raise DomainError(f"invalid code symbol {bad[0]!r}")
    return text


def as_state(triple) -> State:
    """Validate a state; roots are states, accepted unordered, e.g. (2, 1, 3)."""
    try:
        a, b, c = triple
    except (TypeError, ValueError):
        raise DomainError(f"a state is three integers, got {triple!r}") from None
    # type(), not isinstance(): bool is an int, and no entry is coerced
    if type(a) is not int or type(b) is not int or type(c) is not int:
        raise DomainError(f"state entries must be integers, got {tuple(triple)!r}")
    if a < 1 or b < 1:
        raise DomainError(f"state entries must be positive, got {tuple(triple)}")
    if c != a + b:
        raise DomainError(f"malformed state {tuple(triple)}: third entry must be the sum")
    return (a, b, c)


def apply_step(s: State, bit: int) -> State:
    """One transform applied to a raw triple (no reordering)."""
    a, b, c = as_state(s)
    if bit == 0:
        return (a, c, a + c)
    if bit == 1:
        return (b, c, b + c)
    raise DomainError(f"bit must be 0 or 1, got {bit!r}")


def evaluate(code: str, root: State = ROOT) -> State:
    """Fold the code over the root, left to right."""
    a, b, c = as_state(root)
    for ch in as_code(code):
        if ch == "0":
            a, b = a, c
        else:
            a, b = b, c
        c = a + b
    return (a, b, c)


def value(code: str, root: State = ROOT) -> int:
    return evaluate(code, root)[2]


def trace(code: str, root: State = ROOT) -> list[State]:
    """All intermediate states, root first; length is len(code) + 1."""
    a, b, c = as_state(root)
    out = [(a, b, c)]
    for ch in as_code(code):
        if ch == "0":
            b = c
        else:
            a, b = b, c
        c = a + b
        out.append((a, b, c))
    return out


def reduce_state(s: State) -> tuple[State, int]:
    """Invert one step: return (parent, bit) with apply_step(parent, bit) == s.

    Defined for states reachable from the canonical root only.  The parent
    of (a, b, c) is (a, b-a, b) reordered; the consumed bit is read off the
    comparison of b against 2a.  b == 2a cannot occur below the root when
    gcd(a, b) == 1, so the inversion is unambiguous.
    """
    a, b, c = as_state(s)
    if (a, b, c) == ROOT:
        raise DomainError("the root has no parent")
    if not a < b or gcd(a, b) != 1:
        raise DomainError(f"state {s} is not reachable from the root")
    if b > 2 * a:
        return (a, b - a, b), 0
    if b < 2 * a:
        return (b - a, a, b), 1
    raise DomainError(f"state {s} is not reachable from the root")


def decode_state(s: State) -> str:
    """The unique code with evaluate(code) == s; inverse of evaluate.

    Terminates because the middle entry strictly decreases at each
    reduction; a reduction that leaves the ladder of valid states means
    the input was not reachable.  The reductions are reduce_state's,
    inlined: they keep gcd(a, b) == 1, so b == 2a only at the root.

    A run of 0-steps (b -= a while b > 2a) is one floor division: it
    takes k = (b - a - 1) // a steps and leaves a < b <= 2a for the
    1-step, so each pass of the loop is one Euclid step of (a, b), not
    one bit.  With a == 1, only 0-steps remain, down to the root (1, 2).
    """
    a, b, c = as_state(s)
    if not (1 <= a < b) or gcd(a, b) != 1:
        raise DomainError(f"state {s} is not reachable from the root")
    bits: list[str] = []
    while a != 1:
        k = (b - a - 1) // a
        if k:
            bits.append("0" * k)
        a, b = b - (k + 1) * a, a
        bits.append("1")
        if a < 1 or not a < b:
            raise DomainError(f"state {s} is not reachable from the root")
    bits.append("0" * (b - 2))
    return "".join(reversed(bits))


def _quotient_sum(a: int, b: int) -> int:
    """The sum of the partial quotients of a/b: the subtractions Euclid's
    algorithm makes on (a, b) before an entry reaches 0."""
    n = 0
    while b:
        q, r = divmod(a, b)
        n += q
        a, b = b, r
    return n


def reflect(code: str) -> str:
    """Reverse the bit order."""
    return as_code(code)[::-1]


def enumerate_codes(length: int) -> Iterator[str]:
    """All codes of a given length, ascending as integers with x1 most significant."""
    _require_int("length", length, 0)
    for n in range(1 << length):
        yield _code_str(n, length)


def _code_str(x: int, length: int) -> str:
    """The code spelling x in length bits, x1 most significant."""
    return format(x, f"0{length}b") if length else ""


def level_rows(max_len: int,
               root: State = ROOT) -> Iterator[tuple[array, array, array]]:
    """The states of every code, one level per length 0..max_len.

    Each level is three array('Q') rows (a, b, c) indexed like
    enumerate_codes: the state of the code spelling i in L bits sits at
    index i.  A code's children append its last bit, so level L+1 is
    level L interleaved: step 0 maps (a, b) to (a, c) and step 1 to
    (b, c).  Only the previous level is held.  Entries past 2**64 - 1
    raise OverflowError rather than wrap.
    """
    _require_int("max_len", max_len, 0)
    a, b, _ = as_state(root)
    return _rows(max_len, a, b)


def _rows(max_len: int, a: int, b: int) -> Iterator[tuple[array, array, array]]:
    """level_rows from the pair (a, b), unchecked.

    The steps act linearly on (a, b), so the unit pairs (1, 0) and (0, 1)
    give the rows P and Q with value(code) = a0*P + b0*Q at any root
    (a0, b0, a0 + b0).
    """
    a_row, b_row, c_row = array("Q", [a]), array("Q", [b]), array("Q", [a + b])
    yield a_row, b_row, c_row
    for _ in range(max_len):
        size = 2 * len(c_row)
        a_next, b_next = array("Q", bytes(8 * size)), array("Q", bytes(8 * size))
        a_next[0::2], a_next[1::2] = a_row, b_row
        b_next[0::2] = b_next[1::2] = c_row
        a_row, b_row = a_next, b_next
        c_row = array("Q", map(add, a_row, b_row))
        yield a_row, b_row, c_row


def level_row(length: int, root: State = ROOT) -> tuple[array, array, array]:
    """The (a, b, c) rows of one length: the last level of level_rows."""
    _require_int("length", length, 0)
    return _last(level_rows(length, root))


def _last(levels):
    """The last item of an iterable, holding no other."""
    return deque(levels, maxlen=1)[0]


def enumerate_states(max_third_entry: int) -> Iterator[tuple[State, str]]:
    """Every state reachable from the root with c <= bound, with its code.

    Depth-first, 0-branch first.  Children are pruned as soon as c exceeds
    the bound, which is valid because c strictly increases along every edge.
    """
    _require_int("bound", max_third_entry, 3)
    stack: list[tuple[State, str]] = [(ROOT, "")]
    while stack:
        (a, b, c), code = stack.pop()
        yield (a, b, c), code
        # push 1-branch first so the 0-branch is explored first
        for bit in (1, 0):
            child = apply_step((a, b, c), bit)
            if child[2] <= max_third_entry:
                stack.append((child, code + "01"[bit]))
