"""Three-hat dialogues over sum configurations.

A configuration gives players A, B, C positive integers with one entry
the sum of the other two.  Replacing the largest entry by the difference
of the other two (sigma) drives every configuration down to a base
{x, x, 2x}; sorted and coprime-normalized, the non-base configurations
are exactly the tree states, which chains_equal_tree verifies.

Dialogue semantics: players speak in turn t = 1, 2, 3, ... with player
(t-1) % 3 on turn t.  A player sees the other two values x and y, so
their own value is either x + y or |x - y|; the alternative to the truth
is the other member of that pair, invalid when it is 0.  A player
announces at their turn as soon as the alternative is refuted: either
invalid outright, or the alternative world would already have produced
an announcement at a strictly earlier turn under the same rules.

The announcer is the holder of the maximum.  A base world announces at
the double holder's first turn (A at 1, B at 2, C at 3).  Any other
world, its maximum in slot i, announces at i's first turn after its
sigma-reduced world, whose maximum sits in slot k and who announced at a
turn = k + 1 (mod 3): one step adds 1 + (i - k - 1) % 3 turns, 1 or 2
whatever the turn.  So the turn is the base's plus one such step per
sigma step, and first_announcement sums them going down the chain.

Why this is exact (induction on the turn): suppose turns below t are
settled.  A non-max player's alternative world puts the sum in their own
hand; it sigma-reduces back to the world under discussion, so it
announces later and never refutes in time.  The max holder's alternative
is the sigma-reduction, settled earlier, which refutes at their next
turn.  The oracle reference_announcement (tests/oracle.py) runs the turn
recursion literally, and the suite checks both agree on small worlds.

Hence L <= T <= 2L + 1, L the full chain length and T the turn: a base
has L = 1 and T in {1, 2, 3}, and each step adds 1 to L and 1 or 2 to T.
So L lies in the window bounds(announcer, round) = (T // 2, T), and
T < 3 * (L + 1) keeps within the turn cap 3 * (abbreviated L + 2).  The
slack 2L + 1 - T never falls from a world to the worlds that reduce to
it, its children in _walk, so a subtree of slack >= 2 holds no
violation, no abbreviated deviation (T >= 2L) and no divergence; the
sweeps skip it when _certified() holds.

Results are plain NamedTuples; the command line decides how they are
written.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterator, NamedTuple

from .engine import _quotient_sum, enumerate_states, trace
from .errors import DomainError, _require_int
from .expansion import fib

PLAYERS = "ABC"


def validate_config(w) -> tuple[int, int, int]:
    try:
        a, b, c = w
    except (TypeError, ValueError):
        raise DomainError(f"configuration must be three integers, got {w!r}")
    # type(), not isinstance(): bool is an int, and no entry is coerced
    if type(a) is not int or type(b) is not int or type(c) is not int:
        raise DomainError(f"configuration must be three integers, got {w!r}")
    if min(a, b, c) < 1:
        raise DomainError(f"hat values must be positive, got {(a, b, c)}")
    lo, mid, hi = sorted((a, b, c))
    if lo + mid != hi:
        raise DomainError(f"no entry of {(a, b, c)} is the sum of the other two")
    return (a, b, c)


def is_base(w) -> bool:
    lo, mid, _ = sorted(validate_config(w))
    return lo == mid


def normalize(w) -> tuple[int, int, int]:
    """Sorted, coprime form; the primitive ordered reduction."""
    a, b, c = sorted(validate_config(w))
    g = gcd(gcd(a, b), c)
    return (a // g, b // g, c // g)


def sigma_reduce(s) -> tuple[int, int, int]:
    """Replace the largest entry by the difference of the smaller two; bases are fixed."""
    a, b, c = sorted(validate_config(s))
    if a == b:
        return (a, b, c)
    lo, hi = sorted((a, b - a))
    return (lo, hi, b)


def iter_chain(s) -> Iterator[tuple[int, int, int]]:
    """The sigma iteration of a configuration, sorted entries, one link at
    a time, down to and including its base."""
    return _links(*sorted(validate_config(s)))


def _links(a: int, b: int, c: int) -> Iterator[tuple[int, int, int]]:
    """iter_chain from a sorted configuration, unchecked: each link is
    the sorted sigma_reduce of the last."""
    yield (a, b, c)
    while a != b:
        a, b, c = (a, b - a, b) if a < b - a else (b - a, a, b)
        yield (a, b, c)


def chain(s, abbreviated: bool = True) -> list[tuple[int, int, int]]:
    """The sigma iteration of a configuration as a list (see iter_chain).

    The abbreviated form omits the final base configuration (unless the
    input already is one).
    """
    out = list(iter_chain(s))
    if abbreviated and len(out) > 1:
        out.pop()
    return out


def _abbreviated_length(a: int, b: int) -> int:
    """len(chain((a, b, a + b))) for 1 <= a <= b, at any scale: sigma is
    subtractive Euclid on (a, b), so it reaches the base after (sum of the
    partial quotients of b/a) - 1 steps, and the abbreviated chain holds
    the configurations before the base, or the base alone."""
    return max(_quotient_sum(b, a) - 1, 1)


@lru_cache(maxsize=4096)
def _chain_length_normalized(w: tuple[int, int, int]) -> int:
    """len(chain(w)) for a sorted configuration."""
    return _abbreviated_length(w[0], w[1])


def chain_length(w) -> int:
    """Abbreviated chain length of the primitive ordered reduction."""
    return _chain_length_normalized(normalize(w))


def bounds(solver: str, n: int) -> tuple[int, int]:
    """Chain-length window for a solver announcing in round n."""
    if type(n) is not int or n < 1:
        raise DomainError(f"round count must be an integer >= 1, got {n!r}")
    # a substring test (or str.index) would pass "" and "AB"
    if solver not in ("A", "B", "C"):
        raise DomainError(f"solver must be one of A, B, C, got {solver!r}")
    hi = 3 * n - (2 - PLAYERS.index(solver))
    return (hi // 2, hi)


# ------------------------------------------------------------- simulator

def first_announcement(w) -> tuple[int, int]:
    """(turn, player index) of the first announcement; closed form, one
    divmod per Euclid run of the two smaller entries (see _turn)."""
    a, b, c = validate_config(w)
    if a < b:  # the sum is the unique maximum; _turn orders lo and mid
        i, lo, mid, o = (1, a, c, 1) if b > c else (2, a, b, 2)
    else:
        i, lo, mid, o = (0, c, b, 1) if a > c else (2, b, a, 1)
    turn = _turn(lo, mid, i, o)[0]
    return turn, (turn - 1) % 3


def _turn(lo: int, mid: int, i: int, o: int) -> tuple[int, int]:
    """The announcement turns of the world with its sum in slot i, mid in
    slot i + o (o is 1 or 2) and lo in the third, and of its mirror, lo
    and mid swapped; unchecked.  lo > mid reads as a run of no steps.

    With mid = q*lo + r, a run takes n = q steps to (r, lo) when r > 0
    and q - 1 to the base (lo, lo, 2lo) when r == 0.  Its maximum
    alternates between slots i and i + o, so its first step adds 3 - o
    turns (module docstring) and each pair adds 3; an odd run moves the
    sum to slot i + o, an even one flips o.  The mirror reflects the slots
    about the first sum slot x, so each run adds 3n turns to the two
    together, and its base sits in slot 2x - f when ours sits in f.
    """
    x, turn, steps = i, 0, 0
    while True:
        q, r = divmod(mid, lo)
        n = q if r else q - 1
        steps += n
        turn += 3 * (n // 2) + n % 2 * (3 - o)
        if not r:
            f = (i if q % 2 else i + o) % 3
            return turn + f + 1, 3 * steps - turn + (2 * x - f) % 3 + 1
        i, o = (i + o, o) if q % 2 else (i, 3 - o)
        lo, mid = r, lo


class TurnRecord(NamedTuple):
    turn: int
    player: str
    action: str
    value: int | None = None


class Transcript(NamedTuple):
    """A dialogue run to its first announcement; every earlier turn passes."""
    config: tuple[int, int, int]
    announcer: str
    turn: int
    round: int
    value: int

    @property
    def turns(self) -> Iterator[TurnRecord]:
        """One record per turn, each built as it is read."""
        for t in range(1, self.turn):
            yield TurnRecord(t, PLAYERS[(t - 1) % 3], "pass")
        yield TurnRecord(self.turn, self.announcer, "announce", self.value)


def dialogue_simulate(w) -> Transcript:
    """Run the dialogue to its first announcement, which every dialogue
    makes by turn 2L + 1 (see the module docstring)."""
    w = validate_config(w)
    turn, player = first_announcement(w)
    return Transcript(w, PLAYERS[player], turn, (turn + 2) // 3, w[player])


# ------------------------------------------------- chains versus the tree

class ChainTreeVerdict(NamedTuple):
    bound: int
    equal: bool
    states: int
    configs: int
    mismatches: list


def chains_equal_tree(bound: int) -> ChainTreeVerdict:
    """Primitive non-base configurations and tree states are the same set.

    Also checks, per state, that the sigma chain retraces the evaluation
    trace in reverse and that the chain length is the code length plus one.
    """
    _require_int("bound", bound, 3)
    tree = dict(enumerate_states(bound))
    # the coprime splits (a, c - a, c) with a < c - a
    configs = {(a, c - a, c) for c in range(3, bound + 1)
               for a in range(1, (c + 1) // 2) if gcd(a, c) == 1}
    mismatches = []
    for cfg in configs:
        ch = chain(cfg)
        if ch[-1] != (1, 2, 3):
            mismatches.append({"config": list(cfg), "problem": "chain misses the root"})
    if set(tree) != configs:
        for s in sorted(set(tree) ^ configs):
            mismatches.append({"config": list(s), "problem": "set difference"})
    for state, code in tree.items():
        ch = chain(state)
        rev = [tuple(s) for s in reversed(trace(code))]
        if ch != rev or len(ch) != len(code) + 1:
            mismatches.append({"config": list(state), "problem": "chain is not the reversed trace"})
    return ChainTreeVerdict(
        bound=bound,
        equal=not mismatches,
        states=len(tree),
        configs=len(configs),
        mismatches=mismatches,
    )


# ------------------------------------------------------------ the solver

# typing.NamedTuple refuses a __new__ of its own, so the checks sit on a
# subclass of the plain named tuple
class PuzzleQuery(namedtuple("PuzzleQuery", "solver rounds value")):
    __slots__ = ()

    def __new__(cls, solver: str, rounds: int, value: int):
        # a substring test would pass "" and "AB"
        if solver not in ("A", "B", "C"):
            raise DomainError(f"solver must be one of A, B, C, got {solver!r}")
        # type(), not isinstance(): bool is an int, and no entry is coerced
        if type(rounds) is not int or type(value) is not int:
            raise DomainError(f"rounds and value must be integers, got {(rounds, value)!r}")
        if rounds < 1 or value < 1:
            raise DomainError("rounds and value must be positive")
        return super().__new__(cls, solver, rounds, value)


class CriteriaReport(NamedTuple):
    query: PuzzleQuery
    survivors: list[tuple[int, int, int]]
    excluded: dict[str, int]
    considered: int


def apply_criteria(query: PuzzleQuery) -> CriteriaReport:
    """The published pruning pipeline, reported stage by stage.

    1. chain length within bounds(solver, rounds);
    2. a chain of length c realizes no value below c + 2;
    3. for prime values, no chain of length d tops fib(d + 3);
    4. the scaled maximum must be the value itself: keep states whose
       value divides the query value.

    Stage 1 presumes the bound calibration of the dialogue model; the
    solver itself does not rely on it (see solve_puzzle).

    Stages 1 to 3 test the chain length alone and each keeps a contiguous
    window of depths; the tree holds exactly 2^(L-1) states of chain
    length L, so those exclusion counts are closed-form window sums
    rather than a walk over 2^hi states.  Only the divisibility stage
    looks at the states.  Those whose value divides m are the splits
    y + (m - y) with y < m - y, each divided by g = gcd(y, m): a split is
    the state (y/g, (m - y)/g, m/g), and every such state is one split.
    Euclid's quotients do not depend on scale, so the split's chain
    length is the state's.  Cost: (m - 1)//2 quotient sums, none when the
    window [p3, q2] is empty, plus a gcd per kept split.  The reported
    numbers are identical to filtering the full depth-hi enumeration stage
    by stage.
    """
    lo, hi = bounds(query.solver, query.rounds)
    m = query.value

    def window(p: int, q: int) -> int:
        # tree states with chain length in [p, q]
        if q < p or q < 1:
            return 0
        return (1 << q) - (1 << (max(p, 1) - 1))

    q2 = min(hi, m - 2)
    p3 = lo
    if m > 1 and all(m % d for d in range(2, isqrt(m) + 1)):  # m is prime
        while fib(p3 + 3) < m:
            p3 += 1

    considered = window(1, hi)
    excluded = {
        "chain_length": considered - window(lo, hi),
        "value_lower_bound": window(lo, hi) - window(lo, q2),
        "prime_upper_bound": window(lo, q2) - window(p3, q2),
    }

    survivors = []  # uncached lengths, as each split is seen once
    for y in range(1, (m + 1) // 2 if p3 <= q2 else 1):  # an empty window keeps none
        if p3 <= _abbreviated_length(y, m - y) <= q2:
            g = gcd(y, m)
            survivors.append((y // g, (m - y) // g, m // g))
    survivors.sort()
    excluded["divisibility"] = window(p3, q2) - len(survivors)

    return CriteriaReport(
        query=query,
        survivors=survivors,
        excluded=excluded,
        considered=considered,
    )


class Solution(NamedTuple):
    config: tuple[int, int, int]
    announcer: str
    round: int
    turn: int


class SolveResult(NamedTuple):
    query: PuzzleQuery
    criteria: CriteriaReport
    solutions: list[Solution]


def solve_puzzle(query: PuzzleQuery) -> SolveResult:
    """All positioned configurations answering the query, dialogue-verified.

    The announcer always holds the sum, so the answers are the splits
    m = y + (m - y), y < m - y, of the query value m, with m in the
    solver's slot x and (y, m - y) placed both ways in the next two; a
    placing answers when its turn is 3 * rounds - 2 + x.  These are the
    states of apply_criteria's divisibility stage, scaled up to m.  The
    chain-length window of criterion 1 is reported via apply_criteria but
    deliberately not used to prune: the window is calibrated to a
    cue-based dialogue model and cuts genuine solutions under the
    announcement semantics used here (brute_solve agrees with this
    choice; base configurations remain out of reach of any state-scaling
    pipeline and only brute_solve finds them).

    Cost at value m: one unchecked fold (_turn) a split for both of its
    placings, (m - 1)//2 splits, plus apply_criteria's (m - 1)//2
    quotient sums, O(m log m) in all.  Memory: the solutions.
    """
    criteria = apply_criteria(query)
    x = PLAYERS.index(query.solver)
    m, target = query.value, 3 * query.rounds - 2 + x
    out = []
    for y in range(1, (m + 1) // 2):
        turns = _turn(y, m - y, x, 2)  # (m, y, m - y) from slot x, and its mirror
        if target in turns:
            for turn, w in zip(turns, ((m, y, m - y), (m, m - y, y))):
                if turn == target:  # rotated to put m in slot x
                    out.append(Solution(w[-x:] + w[:-x], query.solver, query.rounds, turn))
    return SolveResult(query, criteria, sorted(out))


def brute_solve(query: PuzzleQuery, cap: int) -> list[Solution]:
    """Exhaustive oracle: simulate every valid configuration with the
    solver's value fixed, entries up to cap, each with its own checked
    first_announcement.  Cost: O(cap) first announcements, holding only
    the solutions."""
    _require_int("cap", cap)
    if cap < query.value:
        raise DomainError("cap must be at least the query value")
    x = PLAYERS.index(query.solver)
    m = query.value
    out = []
    for y in range(1, cap + 1):
        for z in (m + y, m - y, y - m):  # each makes one entry the sum
            if 1 <= z <= cap:
                w = [0, 0, 0]
                w[x] = m
                w[(x + 1) % 3], w[(x + 2) % 3] = y, z
                w = tuple(w)
                turn, player = first_announcement(w)
                if PLAYERS[player] == query.solver and (turn + 2) // 3 == query.rounds:
                    out.append(Solution(w, query.solver, query.rounds, turn))
    return sorted(out)  # the configurations are distinct


# ------------------------------------------------------------ the sweeps

_BASES = ((2, 1, 1), (1, 2, 1), (1, 1, 2))  # the tree's roots, by maximum's slot


def _next_turn(turn: int, slot: int) -> int:
    """The first turn after `turn` on which the player in `slot` speaks."""
    return turn + 1 + (slot - turn) % 3


def _certified() -> bool:
    """The slack bound's premises (module docstring), read on every call:
    base turns slot + 1, steps of 1 or 2 turns, bounds() on rounds 1-2."""
    return (all(first_announcement(w)[0] == i + 1 for i, w in enumerate(_BASES))
            and all(_next_turn(t, j) - t in (1, 2)
                    for t in (1, 2, 3) for j in range(3) if j != (t - 1) % 3)
            and all(bounds(PLAYERS[(t - 1) % 3], (t + 2) // 3) == (t // 2, t)
                    for t in range(1, 7)))


def _walk(max_entry: int):
    """The positioned coprime configurations with maximum <= max_entry, as
    (config, maximum's slot, turn T, full chain length L), less the
    subtrees of slack 2L + 1 - T >= 2 when _certified() holds."""
    thin = _certified()
    stack = [(w, i, i + 1, 1) for i, w in enumerate(_BASES)]
    while stack:
        w, i, turn, length = node = stack.pop()
        yield node
        for j in ((i + 1) % 3, (i + 2) % 3):
            s, t = w[i] + w[3 - i - j], _next_turn(turn, j)  # the child's sum and turn
            if s <= max_entry and not (thin and 2 * length + 3 - t >= 2):
                stack.append((w[:j] + (s,) + w[j + 1:], j, t, length + 1))


def _scaled(found, max_entry: int, first: int | None = None) -> list[dict]:
    """Records of the multiples k * w, k * max(w) <= max_entry, of each
    walked ((w, i), fields) in found, the first `first` of them if given, by
    sum, then first entry that is not the sum (w[i == 0]), then sum's slot."""
    rows = sorted(((k * w[i], k * w[i == 0], i), k, w, fields)  # distinct keys
                  for (w, i), fields in found
                  for k in range(1, min(max_entry // w[i], first or max_entry) + 1))
    return [{"config": [k * e for e in w], **fields} for _, k, w, fields in rows[:first]]


class LemmaReport(NamedTuple):
    max_entry: int
    convention: str
    checked: int
    violations: list
    abbreviated_deviations: int
    abbreviated_samples: list

    @property
    def violation_count(self) -> int:
        return len(self.violations)


def lemma_report(max_entry: int) -> LemmaReport:
    """Bound consistency of announcement rounds against chain lengths.

    The chain-length window of bounds() is checked with L measured on the
    full chain (base included: abbreviated length plus one for non-base
    configurations).  Under the abbreviated convention the window shifts
    by one for part of the space; those deviations are counted and
    sampled rather than listed in full, since they reflect the convention
    choice, not the dialogue.  It reads _walk: 1,711 nodes at 10^12.
    """
    _require_int("max_entry", max_entry, 2)
    violations, deviations = [], []
    for w, i, turn, length in _walk(max_entry):
        announcer, rnd = PLAYERS[(turn - 1) % 3], (turn + 2) // 3
        lo, hi = bounds(announcer, rnd)
        for found, chain_len in ((violations, length), (deviations, max(length - 1, 1))):
            if not lo <= chain_len <= hi:
                found.append(((w, i), {"announcer": announcer, "round": rnd,
                                       "chain_length": chain_len, "bounds": [lo, hi]}))
    return LemmaReport(max_entry, "full-chain", 3 * max_entry * (max_entry - 1) // 2,
                       _scaled(violations, max_entry),
                       sum(max_entry // w[i] for (w, i), _ in deviations),
                       _scaled(deviations, max_entry, 5))


class DivergenceReport(NamedTuple):
    max_entry: int
    checked: int
    divergences: list


def divergence_sweep(max_entry: int) -> DivergenceReport:
    """Configurations that announce past turn 3 * (L + 2), L the abbreviated
    chain length; the module docstring proves there are none."""
    _require_int("max_entry", max_entry, 2)
    found = [((w, i), {"turn": turn, "cap": cap}) for w, i, turn, length in _walk(max_entry)
             if turn > (cap := 3 * (max(length - 1, 1) + 2))]
    return DivergenceReport(max_entry, 3 * max_entry * (max_entry - 1) // 2,
                            _scaled(found, max_entry))
