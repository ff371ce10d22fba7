"""Checks of the program's outputs against the independent computations in oracle.

Each CLI check reads one operation's payload and returns the number of
work items it verified; a failed check raises CheckError.  Point-query
checks judge one library call's result.  No check imports fibtree or
compares with a stored copy of earlier output.
"""

from __future__ import annotations

import json
import re
from math import gcd

import inputs
import oracle
from inputs import ORACLE_CAP, HatQuery

PLAYERS = oracle.PLAYERS


class CheckError(AssertionError):
    """An output disagrees with the independent computation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def _json_lines(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _summary(doc: dict, checked: int, violation_count: int) -> None:
    expect(doc.get("checked") == checked, f"summary checked {doc.get('checked')} != {checked}")
    expect(doc.get("violations") == [], "summary carries violation records")
    expect(doc.get("violation_count") == violation_count,
           f"violation_count {doc.get('violation_count')} != {violation_count}")


# ------------------------------------------------------------ table scans

def check_reflection(path, max_len: int) -> int:
    """The reflection theorem: every code of length 1..max_len, no violation."""
    docs = _json_lines(path)
    expect(len(docs) == 1, f"{len(docs) - 1} violation records")
    _summary(docs[0], (1 << (max_len + 1)) - 2, 0)
    return (1 << (max_len + 1)) - 2


def check_converse(path, length: int) -> int:
    """Classes and flags recomputed from the oracle's own value row."""
    docs = _json_lines(path)
    expected = oracle.converse_classes(length)
    expect(docs[:-1] == expected, "converse classes differ from the recomputed classes")
    flagged = sum(c["beyond_reflection"] for c in expected)
    _summary(docs[-1], 1 << length, flagged)
    expect(docs[-1].get("classes") == len(expected), "summary class count")
    return 1 << length


def check_roots(path, max_entry: int, depth: int) -> int:
    """Scope is every coprime pair; every survivor keeps reflection to depth."""
    docs = _json_lines(path)
    summary = docs[-1]
    scope = oracle.coprime_pairs(max_entry)
    expect(summary.get("checked") == scope, f"roots checked {summary.get('checked')} != {scope}")
    survivors = [d["root"] for d in docs[:-1]]
    expect(survivors == summary.get("survivors"), "survivor records differ from the summary")
    expect([1, 2, 3] in survivors, "the canonical root (1, 2, 3) is missing")
    for a, b, c in survivors:
        expect(c == a + b and gcd(a, b) == 1 and max(a, b) <= max_entry, f"bad root {a, b, c}")
        expect(oracle.reflection_holds((min(a, b), max(a, b)), depth),
               f"root {a, b, c} breaks reflection by depth {depth}")
    return scope


def check_sb(path, depth: int) -> int:
    """Each generation's two fraction sets are equal, with the oracle's sizes."""
    docs = _json_lines(path)
    expect(len(docs) == depth + 1, "one record per generation")
    for c, doc in enumerate(docs[:-1], start=1):
        state_side, path_side = oracle.generation_sides(c)
        expect(state_side == path_side, f"generation {c} sides differ in the oracle")
        expect(doc == {"length": c, "equal": True, "state_side": len(state_side),
                       "path_side": len(path_side)}, f"generation {c}: {doc}")
    _summary(docs[-1], depth, 0)
    return (1 << (depth + 1)) - 2


# ------------------------------------------------------- conjecture stream

class _PairReplay:
    """Replays streamed conjecture pairs from the definition.

    Each pair must join two codes of the stated length and weight, carry
    their true variances and values, and violate the ordering (strictly
    lower variance, value not strictly larger).  A bitmap rejects
    duplicates, so equal per-weight counts mean the stream is exactly
    the set of violating pairs.
    """

    def __init__(self, length: int):
        self.length = length
        self.values = oracle.level_values(length)
        self.cubes = [oracle.cube_sum(oracle.code_str(x, length)) for x in range(1 << length)]
        self.var_text = [oracle.frac_text(c, length) for c in self.cubes]
        self.seen = bytearray(1 << (2 * length - 3))
        self.counts: dict[int, int] = {}

    def pair(self, length, w, lo_code, hi_code, lo_var, hi_var, lo_val, hi_val) -> None:
        # a million pairs per operation: test first, format a message only on failure
        L = self.length
        lo, hi = int(lo_code, 2), int(hi_code, 2)
        key = (lo << L) | hi
        ok = (length == L and len(lo_code) == L and len(hi_code) == L
              and lo_code.count("1") == w == hi_code.count("1")
              and lo_var == self.var_text[lo] and hi_var == self.var_text[hi]
              and lo_val == self.values[lo] and hi_val == self.values[hi]
              and self.cubes[lo] < self.cubes[hi] and lo_val <= hi_val
              and not self.seen[key >> 3] & (1 << (key & 7)))
        if not ok:
            raise CheckError(f"pair {lo_code}, {hi_code} (weight {w}): wrong fields, "
                             "not a violation of the ordering, or repeated")
        self.seen[key >> 3] |= 1 << (key & 7)
        self.counts[w] = self.counts.get(w, 0) + 1

    def total(self) -> int:
        expected = {w: n for w, n in oracle.conjecture_counts(self.length).items() if n}
        expect(self.counts == expected, "per-weight pair counts differ from the independent count")
        return sum(expected.values())


def check_conjecture_json(path, length: int) -> int:
    replay = _PairReplay(length)
    with open(path, encoding="utf-8") as fh:
        last = None
        for line in fh:
            if last is not None:
                d = last
                replay.pair(d["length"], d["weight"], d["low_var_code"], d["high_var_code"],
                            d["low_var"], d["high_var"], d["low_var_value"], d["high_var_value"])
            last = json.loads(line)
    total = replay.total()
    _summary(last, 1 << length, total)
    return total


# ------------------------------------------------------------ hat dialogue

def check_chain(path, config) -> int:
    """Every link is sigma of the one before; lengths come from Euclid quotients."""
    (doc,) = _json_lines(path)
    links = [tuple(s) for s in doc["chain"]]
    expect(doc["config"] == list(config) and doc["abbreviated"] is False, "chain header")
    expect(links[0] == tuple(sorted(config)), "chain does not start at the sorted config")
    for prev, nxt in zip(links, links[1:]):
        if prev[0] == prev[1] or nxt != oracle.sigma(prev):
            raise CheckError(f"link {prev} -> {nxt} is not sigma of a non-base configuration")
    expect(links[-1][0] == links[-1][1], "chain does not end at a base")
    full, abbreviated = oracle.chain_lengths(config)
    expect(len(links) == full and doc["length"] == abbreviated,
           f"chain length {len(links)}/{doc['length']} != {full}/{abbreviated}")
    return 1


def check_simulate(path, config) -> int:
    """Transcript ends at the oracle's announcement turn, all passes before it."""
    (doc,) = _json_lines(path)
    turn, player = oracle.announcement(config)
    expect(doc["config"] == list(config), "transcript config")
    expect((doc["turn"], doc["announcer"], doc["round"], doc["value"])
           == (turn, PLAYERS[player], (turn + 2) // 3, config[player]),
           f"announcement {doc['turn']} {doc['announcer']} != {turn} {PLAYERS[player]}")
    expect(config[player] == max(config), "announcer does not hold the maximum")
    turns = doc["turns"]
    expect(len(turns) == turn, "one record per turn")
    for t, rec in enumerate(turns[:-1], start=1):
        if rec != {"turn": t, "player": PLAYERS[(t - 1) % 3], "action": "pass"}:
            raise CheckError(f"turn record {rec}")
    expect(turns[-1] == {"turn": turn, "player": PLAYERS[player], "action": "announce",
                         "value": config[player]}, "announcement record")
    return 1


def _check_solution(sol: dict, query: HatQuery, cap: int | None) -> None:
    w, slot = sol["config"], PLAYERS.index(query.solver)
    lo, mid, hi = sorted(w)
    expect(lo >= 1 and lo + mid == hi, f"{w} is not a sum configuration")
    expect(w[slot] == query.value, f"{w} does not hold {query.value} in slot {query.solver}")
    expect(cap is None or hi <= cap, f"{w} exceeds the oracle cap")
    expect(sol["announcer"] == query.solver and sol["round"] == query.rounds
           and (sol["turn"] + 2) // 3 == query.rounds, f"{sol} does not answer the query")
    expect(oracle.literal_announcement(w, sol["turn"]) == sol["turn"],
           f"{w} does not first announce at turn {sol['turn']}")


def check_solve(path, query: HatQuery, with_oracle: bool) -> int:
    """Every solution answers the query, verified by the literal turn recursion."""
    (doc,) = _json_lines(path)
    expect(doc["query"] == {"solver": query.solver, "rounds": query.rounds,
                            "value": query.value}, "query echo")
    for a, b, c in doc["survivors"]:
        expect(c == a + b and 0 < a < b and gcd(a, b) == 1 and query.value % c == 0,
               f"survivor {a, b, c}")
    for sol in doc["solutions"]:
        _check_solution(sol, query, None)
    solved = [tuple(s["config"]) for s in doc["solutions"]]
    expect(query.known in solved, f"the known answer {query.known} is missing")
    if with_oracle:
        found = [tuple(s["config"]) for s in doc["oracle"]]
        for sol in doc["oracle"]:
            _check_solution(sol, query, ORACLE_CAP)
        expect(set(solved) <= set(found), "a solution inside the cap is missing from the oracle")
        expect(doc["oracle_extra"] == [s for s in doc["oracle"] if tuple(s["config"]) not in solved],
               "oracle_extra is not the oracle minus the solutions")
    return 1


# ---------------------------------------------------------- the dispatcher

def check_op(op, out_path, seed: int) -> int:
    """Check one CLI operation's outputs; returns its verified work items."""
    arg = dict(zip(op.argv, op.argv[1:]))
    kind = op.kind
    if kind == "scan-reflection":
        return check_reflection(out_path, int(arg["--max-len"]))
    if kind == "scan-converse":
        return check_converse(out_path, int(arg["--len"]))
    if kind == "scan-roots":
        return check_roots(out_path, int(arg["--max-entry"]), int(arg["--depth"]))
    if kind == "sb-check":
        return check_sb(out_path, int(arg["--depth"]))
    if kind == "conjecture-json":
        return check_conjecture_json(out_path, int(arg["--len"]))
    plan = inputs.hat_plan(seed)
    if kind == "hat-chain":
        return check_chain(out_path, plan["chain"])
    if kind == "hat-simulate":
        return check_simulate(out_path, plan["simulate"])
    if kind == "hat-solve":
        return check_solve(out_path, plan["solve"], False)
    if kind == "hat-solve-oracle":
        return check_solve(out_path, plan["solve_oracle"], True)
    raise ValueError(f"no check for {kind}")


STOPWATCH = re.compile(r"^.*: \d+(\.\d+)? ms$", re.M)


def stable_stderr(text: str) -> str:
    """stderr without the CLI's timing lines, which differ run to run."""
    return STOPWATCH.sub("", text)


# ------------------------------------------------------------ point queries

def _tree_value(node) -> int:
    """Value of an expansion tree; every sum node must join coprime values."""
    if hasattr(node, "index"):
        return oracle.fib(node.index)
    a, b = _tree_value(node.a), _tree_value(node.b)
    expect(gcd(a, b) == 1, f"sum node with coefficients {a}, {b}")
    return a * oracle.fib(node.k) + b * oracle.fib(node.k + 2)


def check_call(kind: str, args: tuple, result) -> None:
    """Judge one library call of the point-queries workload."""
    if kind == "decode_state":
        expect(isinstance(result, str) and oracle.state(result) == args[0], "decode_state")
        return
    if kind == "decode_expansion":
        a, b, k = args
        expect(result.startswith("1" * (k - 2) + "0")
               and oracle.value(result) == a * oracle.fib(k) + b * oracle.fib(k + 2),
               "decode_expansion")
        return
    if kind in ("chain_length", "first_announcement"):
        want = (oracle.chain_lengths(args[0])[1] if kind == "chain_length"
                else oracle.announcement(args[0]))
        expect(result == want, kind)
        return
    code = args[0]
    if kind == "reflect":
        expect(result == code[::-1], "reflect")
        return
    if kind == "trace":
        expect([tuple(s) for s in result] == oracle.trace(code), "trace")
        return
    if kind == "cluster_variance":
        expect((result.numerator, result.denominator) == oracle.variance(code), "cluster_variance")
        return
    if kind == "expand_recursive":
        tree, tv = result
        expect(tv == _tree_value(tree) == oracle.value(code), "expand_recursive/tree_value")
        return
    a, b, c = oracle.state(code)
    if kind == "value":
        expect(result == c, "value")
    elif kind in ("u", "v"):
        want = (a, b) if kind == "u" else (b, a)
        expect((result.numerator, result.denominator) == want, kind)
    elif kind == "encode_expansion":
        leading = len(code) - len(code.lstrip("1"))
        expect(result.k == leading + 2 and gcd(result.a, result.b) == 1
               and result.a * oracle.fib(result.k) + result.b * oracle.fib(result.k + 2) == c,
               "encode_expansion")
    else:
        raise ValueError(f"no check for {kind}")
