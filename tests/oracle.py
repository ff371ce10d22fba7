"""Independent recomputations used to cross-check library results.

Everything here is deliberately written against different primitives
than the package uses: values via explicit 3x3 matrix products, cluster
statistics via a per-position outward scan, Fibonacci numbers via plain
iteration, hat announcements via the literal turn recursion, chain
lengths via single sigma steps, and both sides of the Stern-Brocot
generations as whole rows of pairs.  Slow and dumb on purpose.

The hat sweeps are judged by the per-configuration loops they replaced:
one first_announcement, chain_length and is_base call per configuration,
each of which the suite judges on its own against this module.
"""

from array import array
from fractions import Fraction
from itertools import islice, product
from math import gcd
from operator import add, lt, mul

from fibtree import threehat
from fibtree.threehat import validate_config

M0 = ((1, 0, 0), (0, 0, 1), (1, 0, 1))  # (a, b, c) -> (a, c, a+c)
M1 = ((0, 1, 0), (0, 0, 1), (0, 1, 1))  # (a, b, c) -> (b, c, b+c)


def mat_vec(m, v):
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def state_by_matrices(code, root=(1, 2, 3)):
    v = tuple(root)
    for ch in code:
        v = mat_vec(M1 if ch == "1" else M0, v)
    return v


def value_by_matrices(code, root=(1, 2, 3)):
    return state_by_matrices(code, root)[2]


def cluster_at(code, i):
    """Length of the maximal constant run containing position i."""
    lo = i
    while lo > 0 and code[lo - 1] == code[i]:
        lo -= 1
    hi = i
    while hi + 1 < len(code) and code[hi + 1] == code[i]:
        hi += 1
    return hi - lo + 1


def average_by_positions(code):
    return Fraction(sum(cluster_at(code, i) for i in range(len(code))), len(code))


def variance_by_positions(code):
    return Fraction(sum(cluster_at(code, i) ** 2 for i in range(len(code))),
                    len(code))


def conjecture_pairs_by_enumeration(length, weight=None):
    """Every counterexample pair to the variance-ordering conjecture among
    the codes of one length (of one weight, if given), as the stream's
    dicts: a pair of equal weight where the strictly smaller variance has
    a value no larger.  Sorted by weight, then the higher-variance code by
    (variance, value, code), then the lower-variance one by (value, code).
    """
    stats = []  # (weight, variance, value, code)
    for bits in product("01", repeat=length):
        code = "".join(bits)
        if weight is None or code.count("1") == weight:
            stats.append((code.count("1"), variance_by_positions(code),
                          value_by_matrices(code), code))
    pairs = [(lo, hi) for lo in stats for hi in stats
             if lo[0] == hi[0] and lo[1] < hi[1] and lo[2] <= hi[2]]
    pairs.sort(key=lambda pair: (pair[1], pair[0][2], pair[0][3]))
    return [{"length": length, "weight": hi[0],
             "low_var_code": lo[3], "high_var_code": hi[3],
             "low_var": str(lo[1]), "high_var": str(hi[1]),
             "low_var_value": lo[2], "high_var_value": hi[2]} for lo, hi in pairs]


def totients_by_sieve(n):
    """Euler's phi(0), ..., phi(n): each prime p, found untouched by every
    smaller prime, takes phi(m) // p off each of its multiples m."""
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return phi


def state_rows(c):
    """The rows a and b of u = a/b over the codes of length c, increasing.

    Step 0 maps u to a/(a+b) = u/(1+u), increasing into (0, 1/2), and step
    1 to b/(a+b) = 1/(1+u), decreasing into (1/2, 1), so the next row is
    step 0 of this one followed by step 1 of it reversed."""
    a_row, b_row = array("Q", [1]), array("Q", [2])
    for _ in range(c):
        s_row = array("Q", map(add, a_row, b_row))
        a_row, b_row = a_row + b_row[::-1], s_row + s_row[::-1]
    return a_row, b_row


def path_rows(c):
    """The rows p and q of the L/R words of length c on 1/2 and 2/1, increasing.

    Appending L maps (p, q) to (p, p + q), increasing into (0, 1), and R
    to (p + q, q), increasing into (1, oo), so the next row is the L block
    of this one followed by its R block.  gcd(p, q) stays 1.
    """
    p_row, q_row = array("Q", [1, 2]), array("Q", [2, 1])
    for _ in range(c):
        s_row = array("Q", map(add, p_row, q_row))
        p_row, q_row = p_row + s_row, s_row + q_row
    return p_row, q_row


def increasing(p_row, q_row):
    """Whether the fractions p/q increase strictly, by adjacent cross-products."""
    return all(map(lt, map(mul, p_row, islice(q_row, 1, None)),
                   map(mul, islice(p_row, 1, None), q_row)))


def generation_by_rows(c, u_rows=None, path=None):
    """check_generation's verdict (length, equal, state_side, path_side) from
    whole rows: u_rows are the rows a, b of u (state_rows(c) if None), and
    path the rows p, q of the words (path_rows(c) if None).

    The state side is the u row, then that row swapped and reversed for
    v = 1/u.  When both sides increase strictly, their pairs are distinct
    and in one order, so the sides are equal iff the rows are, and the
    counts are the row lengths; a side that does not is compared and
    counted as a set.  Both sides are held whole, 32 bytes a pair.
    """
    a_row, b_row = u_rows or state_rows(c)
    state = (a_row + b_row[::-1], b_row + a_row[::-1])
    path = path or path_rows(c)
    if increasing(*state) and increasing(*path):
        return (c, state == path, len(state[0]), len(path[0]))
    state, path = set(zip(*state)), set(zip(*path))
    return (c, state == path, len(state), len(path))


def fib_by_addition(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def fibs_by_addition(n):
    """[F(1), ..., F(n)] by plain addition."""
    out = [1, 1][:n]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return out


def is_prime_by_division(n):
    """n has exactly two divisors among 1..n."""
    return sum(n % k == 0 for k in range(1, n + 1)) == 2


def chain_length_by_sigma(w) -> int:
    """Abbreviated chain length by iterating sigma one step at a time:
    the configurations before the base, or 1 for a base."""
    s = sorted(w)
    steps = 0
    while s[0] != s[1]:
        s = sorted((s[0], s[1], s[1] - s[0]))  # the maximum becomes the difference
        steps += 1
    return max(steps, 1)


def reference_announcement(w, cap: int | None = None) -> int | None:
    """Earliest announcing turn <= cap by direct evaluation of the recursion.

    Slow path kept as the semantic ground truth; memo tables live only in
    this invocation.  Announcement turns are scale invariant, so worlds
    are coprime-normalized before lookup, and a world whose chain has
    length L cannot announce before turn L (the refutation path must walk
    down to an equal-pair world one neighbor at a time).
    """
    w = validate_config(w)
    if cap is None:
        cap = 3 * (chain_length_by_sigma(w) + 2)
    ann_memo: dict[tuple, bool] = {}
    first_memo: dict[tuple, list] = {}  # [last turn tried, first turn, chain length]

    def alternative(cfg, i):
        x, y = cfg[(i + 1) % 3], cfg[(i + 2) % 3]
        other = x + y if cfg[i] == abs(x - y) else abs(x - y)
        if other == 0:
            return None
        out = list(cfg)
        out[i] = other
        return tuple(out)

    def announces(cfg, t) -> bool:
        key = (cfg, t)
        if key not in ann_memo:
            alt = alternative(cfg, (t - 1) % 3)
            ann_memo[key] = alt is None or first_by(alt, t - 1) is not None
        return ann_memo[key]

    def first_by(cfg, budget):
        g = gcd(gcd(cfg[0], cfg[1]), cfg[2])
        cfg = (cfg[0] // g, cfg[1] // g, cfg[2] // g)
        rec = first_memo.get(cfg)
        if rec is None:
            rec = first_memo[cfg] = [0, None, chain_length_by_sigma(cfg)]
        if budget < rec[2]:
            return None
        if rec[1] is not None:
            return rec[1] if rec[1] <= budget else None
        t = rec[0] + 1
        while t <= budget:
            if announces(cfg, t):
                rec[1] = t
                return t
            rec[0] = t
            t += 1
        return None

    return first_by(w, cap)


def configs_by_slots(max_entry):
    """Every configuration with entries <= max_entry, in the sweeps' order:
    by sum s, then split x + y, then the sum's slot."""
    for s in range(2, max_entry + 1):
        for x in range(1, s):
            y = s - x
            yield (s, x, y)
            yield (x, s, y)
            yield (x, y, s)


def lemma_report_by_configs(max_entry):
    """lemma_report as one loop of per-configuration calls; bounds is read
    from the module at call time, so a patched window applies here too."""
    checked = 0
    violations = []
    abbr_dev = 0
    abbr_samples = []
    for w in configs_by_slots(max_entry):
        checked += 1
        turn, player = threehat.first_announcement(w)
        rnd = (turn + 2) // 3
        announcer = threehat.PLAYERS[player]
        lo, hi = threehat.bounds(announcer, rnd)
        l_abbr = threehat.chain_length(w)
        l_full = l_abbr if threehat.is_base(w) else l_abbr + 1
        if not lo <= l_full <= hi:
            violations.append({"config": list(w), "announcer": announcer, "round": rnd,
                               "chain_length": l_full, "bounds": [lo, hi]})
        if not lo <= l_abbr <= hi:
            abbr_dev += 1
            if len(abbr_samples) < 5:
                abbr_samples.append({"config": list(w), "announcer": announcer,
                                     "round": rnd, "chain_length": l_abbr,
                                     "bounds": [lo, hi]})
    return threehat.LemmaReport(max_entry, "full-chain", checked, violations,
                                abbr_dev, abbr_samples)


def divergence_sweep_by_configs(max_entry):
    """divergence_sweep as one loop of per-configuration calls."""
    checked = 0
    divergences = []
    for w in configs_by_slots(max_entry):
        checked += 1
        turn, _ = threehat.first_announcement(w)
        cap = 3 * (threehat.chain_length(w) + 2)
        if turn > cap:
            divergences.append({"config": list(w), "turn": turn, "cap": cap})
    return threehat.DivergenceReport(max_entry, checked, divergences)
