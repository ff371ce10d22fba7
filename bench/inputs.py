"""Seeded inputs for every workload: the same seed gives the same inputs.

Sizes are fixed so that every seed asks for the same amount of work;
the seed picks the operation order and, where the workload has
per-operation inputs, the inputs themselves from narrow bands (hat
configurations within 1% of their nominal ratio, solve values within
0.5% of 2000), so that runs on different seeds stay comparable.

A round of table-scans takes about 4 s on a 2-vCPU host.  Host speed
here wanders by 5-15% over tens of seconds, so a run is many short
rounds whose upper quartile over the whole run is reported, not one or
two long ones; the sizes are therefore smaller than the longest scans
the CLI can run.  The hat operations below are run only by the traced
pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

import oracle

WORKLOADS = ("table-scans", "point-queries")


def rng(seed: int, *salt) -> random.Random:
    return random.Random(":".join(map(str, (seed, *salt))))


@dataclass(frozen=True)
class Op:
    """One CLI operation: `python -m fibtree <argv>`."""
    kind: str
    argv: tuple[str, ...]
    exit_ok: int        # 0, or 3 for a scan that reports findings


def random_code(r: random.Random, length: int, need_zero: bool = False) -> str:
    bits = [r.choice("01") for _ in range(length)]
    if need_zero and "0" not in bits:
        bits[r.randrange(length)] = "0"
    return "".join(bits)


TABLE_OPS = (
    Op("scan-reflection", ("scan", "reflection", "--max-len", "18", "--format", "json"), 0),
    Op("scan-converse", ("scan", "converse", "--len", "16", "--format", "json"), 3),
    Op("scan-roots", ("scan", "roots", "--max-entry", "400", "--depth", "12",
                      "--format", "json"), 0),
    Op("sb-check", ("sb", "check", "--depth", "12", "--format", "json"), 0),
)


def _shuffled(ops, seed: int, salt: str) -> list[Op]:
    ops = list(ops)
    rng(seed, salt).shuffle(ops)
    return ops


def table_ops(seed: int) -> list[Op]:
    return _shuffled(TABLE_OPS, seed, "table")


def _ratio_config(r: random.Random, ratio: int) -> tuple[int, int, int]:
    """A positioned (k, n, n + k) with k in 4..9 and n/k within 1% of ratio."""
    k = r.randint(4, 9)
    rem = r.choice([x for x in range(1, k) if gcd(x, k) == 1])
    n = k * (ratio + r.randint(-ratio // 100, ratio // 100)) + rem
    cfg = [k, n, n + k]
    r.shuffle(cfg)
    return tuple(cfg)


@dataclass(frozen=True)
class HatQuery:
    solver: str
    rounds: int
    value: int
    known: tuple[int, int, int]   # one configuration that answers the query


SOLVE_VALUE = 2000
ORACLE_CAP = 3500


def _hat_query(r: random.Random) -> HatQuery:
    """A query built from a scaled tree state near SOLVE_VALUE, so it has an answer.

    The known answer's turn stays at most 12, which keeps the literal turn
    recursion that checks every returned solution cheap.
    """
    while True:
        a, b, c = oracle.state(random_code(r, r.randint(1, 4)))
        lam = round(SOLVE_VALUE / c)
        slot = r.randrange(3)
        pair = [lam * a, lam * b]
        r.shuffle(pair)
        w = [0, 0, 0]
        w[slot] = lam * c
        w[(slot + 1) % 3], w[(slot + 2) % 3] = pair
        turn, player = oracle.announcement(w)
        if player == slot and turn <= 12:
            return HatQuery(oracle.PLAYERS[slot], (turn + 2) // 3, lam * c, tuple(w))


def hat_plan(seed: int) -> dict:
    r = rng(seed, "hat")
    return {"chain": _ratio_config(r, 100_000),
            "simulate": _ratio_config(r, 50_000),
            "solve": _hat_query(r),
            "solve_oracle": _hat_query(r)}


def hat_ops(seed: int) -> list[Op]:
    plan = hat_plan(seed)
    q, qo = plan["solve"], plan["solve_oracle"]
    ops = [
        Op("hat-chain", ("hat", "chain", *map(str, plan["chain"]), "--full"), 0),
        Op("hat-simulate", ("hat", "simulate", *map(str, plan["simulate"])), 0),
        Op("hat-solve", ("hat", "solve", "--solver", q.solver, "--rounds", str(q.rounds),
                         "--value", str(q.value)), 0),
        Op("hat-solve-oracle", ("hat", "solve", "--solver", qo.solver, "--rounds",
                                str(qo.rounds), "--value", str(qo.value),
                                "--oracle-cap", str(ORACLE_CAP)), 0),
    ]
    return _shuffled([Op(op.kind, op.argv + ("--format", "json"), op.exit_ok) for op in ops],
                     seed, "hat-order")


def setup_code(seed: int, i: int) -> str:
    """Input of the trivial command timed as set-up."""
    return random_code(rng(seed, "setup", i), 8)


# --------------------------------------------------------- point queries

GROUPS_PER_ROUND = 2000
EXPAND_EVERY = 4        # one expand_recursive call per this many groups


def point_calls(seed: int, round_no: int, groups: int = GROUPS_PER_ROUND) -> list[tuple]:
    """One round of (kind, args) library calls; every round draws fresh inputs.

    Each group draws a code of 1..64 bits and asks for its value, trace,
    reflection, cluster variance, fraction labels and expansion; decodes
    the state of a second code (0..64 bits) and an expansion whose
    coefficients are the state of a third (0..40 bits); and asks for the
    chain length and first announcement of a configuration: a scaled,
    shuffled tree state 12..20 steps from the root.  Every
    EXPAND_EVERY-th group also expands a code of 1..40 bits recursively.
    Code lengths cycle through their ranges, so every round asks for the
    same amount of work; the bits are random, so inputs do not repeat.
    """
    r = rng(seed, "points", round_no)
    calls: list[tuple] = []
    for g in range(groups):
        code = random_code(r, 1 + g % 64, need_zero=True)
        calls += [("value", (code,)), ("trace", (code,)), ("reflect", (code,)),
                  ("cluster_variance", (code,)), ("u", (code,)), ("v", (code,)),
                  ("encode_expansion", (code,))]
        calls.append(("decode_state", (oracle.state(random_code(r, 7 * g % 65)),)))
        a, b, _ = oracle.state(random_code(r, 11 * g % 41))
        if r.random() < 0.5:
            a, b = b, a
        calls.append(("decode_expansion", (a, b, r.randint(2, 24))))
        lam = r.randint(1, 50)
        cfg = [lam * x for x in oracle.state(random_code(r, 12 + g % 9))]
        r.shuffle(cfg)
        calls += [("chain_length", (tuple(cfg),)), ("first_announcement", (tuple(cfg),))]
        if g % EXPAND_EVERY == 0:
            length = 1 + (g // EXPAND_EVERY) % 40
            calls.append(("expand_recursive", (random_code(r, length, need_zero=True),)))
    return calls
