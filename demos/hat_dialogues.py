#!/usr/bin/env python3
"""Three players, each seeing the other two numbers, one holding the sum:
who announces first, and how the chain of a world decides it."""

from fibtree import (
    PuzzleQuery,
    brute_solve,
    chain,
    chain_length,
    dialogue_simulate,
    lemma_report,
    solve_puzzle,
)

for world in ((1, 2, 3), (3, 1, 2), (3, 11, 14)):
    t = dialogue_simulate(world)
    print(f"world A={world[0]} B={world[1]} C={world[2]}:")
    for rec in t.turns:
        if rec.action == "pass":
            print(f"  turn {rec.turn}: {rec.player} passes")
        else:
            print(f"  turn {rec.turn}: {rec.player} announces {rec.value}")
    print(f"  -> round {t.round}")
print()

world = (3, 11, 14)
print(f"the chain of {world} (length {chain_length(world)}):")
for link in chain(world):
    print(f"  {link}")
print()

# the inverse question: who can deduce what, given only the public outcome
q = PuzzleQuery(solver="A", rounds=2, value=3)
result = solve_puzzle(q)
print(f"worlds where {q.solver} announces {q.value} in round {q.rounds}:")
for s in result.solutions:
    print(f"  A={s.config[0]} B={s.config[1]} C={s.config[2]} "
          f"(turn {s.turn})")
print()

# base worlds (x, x, 2x) sit outside the scaled state tree; only the
# exhaustive oracle reaches them
q = PuzzleQuery(solver="C", rounds=1, value=2)
print(f"solver search for {q.solver}/{q.rounds}/{q.value}: "
      f"{[s.config for s in solve_puzzle(q).solutions]}")
print(f"exhaustive oracle:  "
      f"{[s.config for s in brute_solve(q, cap=20)]}")
print()

# every configuration with entries up to a million against the round
# windows, read off a walk of a few hundred coprime configurations
rep = lemma_report(10**6)
print(f"entries <= 10^6: {rep.checked} configurations, "
      f"{rep.violation_count} window violations, "
      f"{rep.abbreviated_deviations} abbreviated-convention deviations")
