"""Independent computations that the benchmark checks the program against.

Nothing here imports fibtree.  Every quantity is recomputed from the
definitions in the project README, where cheap by an algorithm that
differs from the library's: values by 2x2 matrix products or by
level-doubling rows of additions, cluster variance by run lengths,
chain lengths by Euclid quotients, announcement turns by folding whole
Euclid runs, and hat solutions by a literal evaluation of the turn
recursion.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import gcd
from operator import add

PLAYERS = "ABC"

# A code acts on the row vector (a, b) of a state (a, b, a + b).
_STEP = {"0": ((1, 1), (0, 1)), "1": ((0, 1), (1, 1))}


def _mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


@lru_cache(maxsize=1 << 14)
def state(code: str) -> tuple[int, int, int]:
    """State reached by a code, as (1, 2) times the product of step matrices."""
    m = ((1, 0), (0, 1))
    for ch in code:
        m = _mul(m, _STEP[ch])
    a = m[0][0] + 2 * m[1][0]
    b = m[0][1] + 2 * m[1][1]
    return (a, b, a + b)


def value(code: str) -> int:
    return state(code)[2]


def trace(code: str) -> list[tuple[int, int, int]]:
    """Every state along a code, root first, by additions."""
    a, b = 1, 2
    out = [(a, b, a + b)]
    for ch in code:
        a, b = (a, a + b) if ch == "0" else (b, a + b)
        out.append((a, b, a + b))
    return out


def level_values(length: int, root=(1, 2)) -> list[int]:
    """Values of all codes of one length, indexed by the code read as binary."""
    a_row, b_row = [root[0]], [root[1]]
    for _ in range(length):
        c_row = list(map(add, a_row, b_row))
        a_next = [0] * (2 * len(a_row))
        a_next[0::2] = a_row
        a_next[1::2] = b_row
        b_next = [0] * len(a_next)
        b_next[0::2] = c_row
        b_next[1::2] = c_row
        a_row, b_row = a_next, b_next
    return list(map(add, a_row, b_row))


def code_str(x: int, length: int) -> str:
    return format(x, f"0{length}b") if length else ""


def reverse_int(x: int, length: int) -> int:
    return int(code_str(x, length)[::-1] or "0", 2)


@lru_cache(maxsize=None)
def fib(n: int) -> int:
    """F(1) = F(2) = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


# ------------------------------------------------------------- metrics

def cube_sum(code: str) -> int:
    """Sum of m^3 over the runs of a code: its cluster variance times its length."""
    return sum(len(list(run)) ** 3 for _, run in groupby(code))


def variance(code: str) -> tuple[int, int]:
    """Cluster variance as a reduced (numerator, denominator)."""
    n, d = cube_sum(code), len(code)
    g = gcd(n, d)
    return (n // g, d // g)


def frac_text(num: int, den: int) -> str:
    """The text form the CLI prints for a fraction: '4' or '17/5'."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


# --------------------------------------------------------------- scans

def reflection_holds(root: tuple[int, int], depth: int) -> bool:
    """F[t] == F[reversed t] for every code of length 1..depth from a root."""
    for length in range(1, depth + 1):
        row = level_values(length, root)
        if any(row[x] != row[reverse_int(x, length)] for x in range(len(row))):
            return False
    return True


def coprime_pairs(n: int) -> int:
    """Ordered pairs (a, b) in [1, n]^2 with gcd 1, as 2 * sum(phi) - 1."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return 2 * sum(phi[1:]) - 1


def converse_classes(length: int) -> list[dict]:
    """Codes sharing a value, as the CLI's converse records."""
    by_value: dict[int, list[int]] = {}
    for x, val in enumerate(level_values(length)):
        by_value.setdefault(val, []).append(x)
    out = []
    for val in sorted(by_value):
        codes = by_value[val]
        if len(codes) < 2:
            continue
        mirror_pair = len(codes) == 2 and reverse_int(codes[0], length) == codes[1]
        out.append({"value": val, "codes": [code_str(x, length) for x in codes],
                    "beyond_reflection": not mirror_pair})
    return out


def generation_sides(c: int) -> tuple[set, set]:
    """The two fraction sets of one Stern-Brocot generation, as (num, den) pairs.

    The state side holds a/b and b/a for every code of length c; the path
    side holds every L/R word of length c applied to 1/2 and to 2/1, with
    L(p/q) = p/(p+q) and R(p/q) = (p+q)/q.
    """
    states = [(1, 2)]
    for _ in range(c):
        states = [s for a, b in states for s in ((a, a + b), (b, a + b))]
    state_side = {(a, b) for a, b in states} | {(b, a) for a, b in states}
    words = [(1, 2), (2, 1)]
    for _ in range(c):
        words = [s for p, q in words for s in ((p, p + q), (p + q, q))]
    return state_side, set(words)


class _Fenwick:
    def __init__(self, n: int):
        self.tree = [0] * (n + 1)

    def add(self, i: int) -> None:
        i += 1
        while i < len(self.tree):
            self.tree[i] += 1
            i += i & -i

    def prefix(self, i: int) -> int:
        """How many added indices are <= i."""
        i += 1
        total = 0
        while i:
            total += self.tree[i]
            i -= i & -i
        return total


def conjecture_counts(length: int) -> dict[int, int]:
    """Per weight, the pairs (i, j) of equal-weight codes with var_i < var_j
    and F[i] <= F[j], counted with a Fenwick tree over value ranks."""
    values = level_values(length)
    by_weight: dict[int, list[tuple[int, int]]] = {}
    for x in range(1 << length):
        text = code_str(x, length)
        by_weight.setdefault(text.count("1"), []).append((cube_sum(text), values[x]))
    counts = {}
    for w, members in sorted(by_weight.items()):
        ranks = {v: r for r, v in enumerate(sorted({v for _, v in members}))}
        tree = _Fenwick(len(ranks))
        members.sort()
        total = 0
        for _, group in groupby(members, key=lambda m: m[0]):
            group = list(group)
            total += sum(tree.prefix(ranks[v]) for _, v in group)
            for _, v in group:
                tree.add(ranks[v])
        counts[w] = total
    return counts


# ------------------------------------------------------------ hat dialogue

def sigma(config) -> tuple[int, int, int]:
    """Replace the largest entry by the difference of the other two, sorted."""
    x, y, z = sorted(config)
    return tuple(sorted((x, y, y - x)))


def chain_lengths(config) -> tuple[int, int]:
    """(full, abbreviated) sigma-chain lengths from the Euclid quotients.

    For sorted (a, b, a + b) the chain walks subtractive Euclid on (a, b),
    so its full length, base included, is the sum of the partial
    quotients of b / a; a base (x, x, 2x) is a chain of one.
    """
    a, b, _ = sorted(config)
    if a == b:
        return (1, 1)
    total = 0
    while a:
        q, r = divmod(b, a)
        total += q
        a, b = r, a
    return (total, total - 1)


def announcement(config) -> tuple[int, int]:
    """(turn, player index) of the first announcement, one Euclid run at a time.

    The closed form walks the sigma reduction, recording where the maximum
    sits, and then folds the turn back up: the base world's double holder
    speaks at their first turn and each earlier world's maximum holder at
    their first turn after that.  While the smallest entry s stays fixed
    the maximum alternates between the other two slots, so a run of q
    reductions is one divmod and folds in O(1): after its first slot, each
    two further steps advance the turn by exactly 3.
    """
    w = list(config)
    pm = max(range(3), key=w.__getitem__)
    p1, p2 = (pm + 1) % 3, (pm + 2) % 3
    if w[p1] == w[p2]:
        return (pm + 1, pm)
    ps, pl = (p1, p2) if w[p1] < w[p2] else (p2, p1)
    s, l = w[ps], w[pl]
    runs = []  # (slot of world 0, slot of world 1, reductions in the run)
    while True:
        q, r = divmod(l, s)
        if r == 0:
            runs.append((pm, pl, q - 1))
            turn = (pm if (q - 1) % 2 == 0 else pl) + 1
            break
        runs.append((pm, pl, q))
        new_pm = pm if q % 2 == 0 else pl
        other = pl if new_pm == pm else pm
        pm, ps, pl = new_pm, other, ps
        s, l = r, s
    for first, second, count in reversed(runs):
        if not count:
            continue
        last = first if (count - 1) % 2 == 0 else second
        prev = second if last == first else first
        turn += 1 + (last - turn) % 3
        turn += 3 * ((count - 1) // 2)
        if (count - 1) % 2:
            turn += (prev - last) % 3
    return (turn, (turn - 1) % 3)


def literal_announcement(config, limit: int) -> int | None:
    """First announcing turn <= limit, by the turn recursion read literally.

    At turn t player p = (t - 1) % 3 sees the other two entries x, y, so
    their own entry is x + y or |x - y|.  They announce when the other
    candidate is 0, or when the world holding it would have announced at
    some turn before t.  Worlds are compared in primitive form, since
    scaling a world does not change what anyone can deduce.
    """
    memo: dict[tuple, list] = {}

    def primitive(cfg):
        g = gcd(gcd(cfg[0], cfg[1]), cfg[2])
        return (cfg[0] // g, cfg[1] // g, cfg[2] // g)

    def first(cfg, budget):
        cfg = primitive(cfg)
        rec = memo.setdefault(cfg, [0, None])  # [turns ruled out, first turn]
        if rec[1] is not None:
            return rec[1] if rec[1] <= budget else None
        for t in range(rec[0] + 1, budget + 1):
            p = (t - 1) % 3
            x, y = cfg[(p + 1) % 3], cfg[(p + 2) % 3]
            other = abs(x - y) if cfg[p] == x + y else x + y
            if other == 0:
                rec[1] = t
                return t
            alt = list(cfg)
            alt[p] = other
            if first(tuple(alt), t - 1) is not None:
                rec[1] = t
                return t
            rec[0] = t
        return None

    return first(tuple(config), limit)
