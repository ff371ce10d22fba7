"""Exhaustive verification campaigns over the code space.

Each scan enumerates a declared scope, checks one statement, and returns
a report whose violation records carry enough data to replay the check.
Values come one length at a time from the row kernel
engine.level_rows, indexed by the code read as a binary number.
Reflection permutes that index; the bit-reversal rows are built here the
same way, each from the one before.

The steps act linearly on the pair (a, b): from a root (a0, b0) a code t
has value a0*P_t + b0*Q_t, where P and Q are its values from the unit
pairs (1, 0) and (0, 1), and a code h followed by l has value
a_h*P_l + b_h*Q_l.  The reflection and root scans check their
statements through these identities with exact integer Gram matrices:
reflection at length L costs O(2**(L/2)) time and memory, and the root
scan reads its survivors off the kernel of one 2x2 Gram matrix and
counts the coprime roots with a totient sieve, in
O(max_entry log log max_entry + 2**depth).  Rows of every code are
built only to write violation records.  The converse scan streams its
classes from the same split: it groups only the codes that are not
larger than their reflections, a suffix of each head's block of tail
values, into per-value arrays of code indices, about 13 bytes per code
at length 16, and spells names only for the classes it yields.  The
conjecture scan holds one entry per code, O(2**L) memory, but its time
grows with the pairs it writes, not with the codes: 3,297,051 pairs at
length 14 against 16,384 codes.  Each weight class also pays a quadratic
insort.

Scans run in one process and are deterministic: the same parameters
produce the same report.  Wall-clock timing is kept out of the
serialized payload so that re-runs compare byte-identical.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right, insort
from collections import defaultdict, deque
from functools import partial
from itertools import repeat
from math import comb, gcd
from operator import add, and_, mul, rshift, sub
from typing import NamedTuple

from .engine import State, _rows, level_row, level_rows, value
from .errors import DomainError


# ---------------------------------------------------------------- reports

class ScanReport(NamedTuple):
    scope: str
    checked: int
    violations: list


class ValueClass(NamedTuple):
    value: int
    codes: tuple[str, ...]
    beyond_reflection: bool

    def to_jsonable(self) -> dict:
        return {
            "value": self.value,
            "codes": list(self.codes),
            "beyond_reflection": self.beyond_reflection,
        }


class BlockAlternatingVerdict(NamedTuple):
    j: int
    block: int
    block_reflected: int
    alternating: int
    alternating_reflected: int

    @property
    def ok(self) -> bool:
        return (
            self.block == self.block_reflected
            and self.alternating == self.alternating_reflected
            and self.block < self.alternating
        )


class RootScanReport(NamedTuple):
    scope: str
    checked: int
    survivors: list[State]


# ------------------------------------------------------- value tables

def build_value_tables(max_len: int, jobs: int = 1) -> list[list[int]]:
    """tables[L][code_as_int] = value of the code, for 0 <= L <= max_len.

    jobs is accepted for compatibility and selects nothing: the rows come
    from one process.
    """
    return [values.tolist() for _, _, values in level_rows(max_len)]


def _reversals(max_len: int):
    """Bit-reversal permutations by length: rev[x] is x read backwards in L bits.

    Reversing a code moves its first bit to the end, so the codes led by 0
    map to the even indices 2*rev' and those led by 1 to 2*rev' + 1.
    """
    rev = array("Q", [0])
    yield rev
    for _ in range(max_len):
        doubled = array("Q", map(add, rev, rev))
        rev = doubled + array("Q", map((1).__add__, doubled))
        yield rev


def _permuted(row: array, rev: array) -> array:
    return array(row.typecode, map(row.__getitem__, rev))


def _reflects(values: array, rev: array) -> bool:
    return _permuted(values, rev) == values


def _gram(rows) -> list[list[int]]:
    """The exact integer Gram matrix: entry (i, j) is rows[i] . rows[j]."""
    return [[sum(map(mul, u, v)) for v in rows] for u in rows]


def _split_levels(n: int) -> list[tuple[array, array, array, array, array]]:
    """Per length 0..n: the root's rows a and b, the unit pairs' value rows
    P and Q, and the bit reversal."""
    return [(a, b, p, q, rev) for (a, b, _), (_, _, p), (_, _, q), rev
            in zip(level_rows(n), _rows(n, 1, 0), _rows(n, 0, 1), _reversals(n))]


def _certifies(head, tail) -> bool:
    """Whether every code of length |h| + |l| reflects, from the split levels
    of the head length |h| and the tail length |l|.

    Split t = h||l.  Then value(t) - value(rev t) is x_h . y_l with
    x_h = (a_h, b_h, -P_rev(h), -Q_rev(h)) and y_l = (P_l, Q_l, a_rev(l),
    b_rev(l)), so reflection holds iff the x span is orthogonal to the y
    span.  With Gx and Gy their Gram matrices, that is Gx.Gy == 0, since a
    Gram matrix has the span of its vectors as column space and as the
    complement of its kernel.  Gx is taken unsigned, so D = diag(1, 1, -1,
    -1) sits between the two: D.Gx'.D.Gy == 0 iff Gx'.D.Gy == 0.
    """
    a, b, p, q, rev = head
    gx = _gram((a, b, _permuted(p, rev), _permuted(q, rev)))
    a, b, p, q, rev = tail
    gy = _gram((p, q, _permuted(a, rev), _permuted(b, rev)))
    signed = gy[:2] + [[-y for y in row] for row in gy[2:]]
    return all(sum(map(mul, row, col)) == 0 for row in gx for col in zip(*signed))


def _code_str(x: int, length: int) -> str:
    return format(x, f"0{length}b") if length else ""


def _code_strs(length: int) -> list[str]:
    """The text of every code of one length, indexed like the level rows."""
    names = [""]
    for _ in range(length):
        names = [s + b for s in names for b in "01"]
    return names


def _coprime_pairs(n: int) -> int:
    """The number of coprime (a, b) with 1 <= a, b <= n.

    That is 2 * (phi(1) + ... + phi(n)) - 1, since each a < b pair is
    counted twice and (1, 1) once, with Euler's phi from a sieve.
    """
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:  # untouched by any smaller prime, so p is prime
            for m in range(p, n + 1, p):
                phi[m] -= phi[m] // p
    return 2 * sum(phi) - 1


# ------------------------------------------------------------ the scans

def scan_reflection(max_len: int) -> ScanReport:
    """Check value(t) == value(reflect(t)) for every code of length <= max_len.

    Each length L is certified from the split levels of lengths ceil(L/2)
    and floor(L/2), in O(2**(L/2)) time and memory.  Only when a length
    fails are the rows of every code built, up to the last failing
    length, to write the violation records.
    """
    if max_len < 1:
        raise DomainError("max_len must be >= 1")
    split = _split_levels((max_len + 1) // 2)
    failing = [L for L in range(1, max_len + 1)
               if not _certifies(split[(L + 1) // 2], split[L // 2])]
    violations = []
    levels = zip(level_rows(failing[-1]), _reversals(failing[-1])) if failing else ()
    for L, ((_, _, values), rev) in enumerate(levels):
        if _reflects(values, rev):
            continue
        for code, mirror in enumerate(rev):
            if code < mirror and values[code] != values[mirror]:
                violations.append({
                    "length": L,
                    "code": _code_str(code, L),
                    "reflected": _code_str(mirror, L),
                    "value": values[code],
                    "reflected_value": values[mirror],
                })
    return ScanReport(
        scope=f"all codes of length 1..{max_len}",
        checked=(1 << (max_len + 1)) - 2,
        violations=violations,
    )


def iter_converse_classes(length: int):
    """Group the codes of one length by value; yield every class of two or
    more codes as a ValueClass, in ascending value order.

    A class is flagged when it holds codes that are neither equal nor
    mutual reflections, which is exactly a counterexample to the converse
    of the reflection principle at this length.  Each code is split as
    t = h||l with |h| = ceil(L/2), and its value a_h*P_l + b_h*Q_l comes
    from half-length rows; no full-length row is built.  Reflection keeps
    the value (scan_reflection certifies it), so each class is closed
    under reflection and only its representatives, the codes with
    t <= refl(t), are grouped.  Comparing the first |l| bits of t and
    refl(t) shows that t is one exactly when rev(l) >= h >> (L mod 2), so
    with the tail rows in bit-reversed order a head's representatives are
    a suffix of its block, and the grouping touches about half the codes.
    Their indices go straight into per-value arrays of the narrowest
    typecode that holds them.  A class's codes are its representatives
    and their reflections, spelled from the head and tail names when it
    is yielded, and its array is dropped then.  It is flagged exactly
    when it has two or more representatives.  Memory is about 13 bytes
    per code at L = 16 and 7 at L = 20.  length is checked at the call,
    before the first class.
    """
    if length < 1:
        raise DomainError("length must be >= 1")
    return _converse_classes(length)


def _converse_classes(length: int):
    low, odd = length // 2, length & 1
    split = _split_levels(length - low)
    a_row, b_row = split[length - low][:2]
    p, q, rev = split[low][2:]
    # tail rows in bit-reversed order: position r holds the tail rev[r],
    # so a head h's representatives are the positions r >= h >> odd
    p, q = _permuted(p, rev), _permuted(q, rev)
    # the narrowest typecode that holds every index below 2**length
    typecode = next(t for t in "BHIQ" if length <= 8 * array(t).itemsize)
    by_value = defaultdict(partial(array, typecode))
    for h, (a, b) in enumerate(zip(a_row, b_row)):
        # the values of the head's representatives, each code index
        # appended to its value's array without a Python-level step per code
        start, base = h >> odd, h << low
        block = map(add, map(mul, p[start:], repeat(a)), map(mul, q[start:], repeat(b)))
        deque(map(array.append, map(by_value.__getitem__, block),
                  map(base.__add__, rev[start:])), maxlen=0)
    heads, tails, mask = _code_strs(length - low), _code_strs(low), (1 << low) - 1
    for val in sorted(by_value):
        reps = by_value.pop(val)
        if len(reps) == 1:
            # one representative t <= refl(t): the class {t, refl(t)}, or
            # a single code when t is a palindrome
            name = heads[reps[0] >> low] + tails[reps[0] & mask]
            if name != name[::-1]:
                yield ValueClass(val, (name, name[::-1]), False)
            continue
        # a class is its representatives and their reflections (a
        # palindrome is its own); a second representative is neither
        # equal to nor the reflection of the first, a counterexample to
        # the converse
        names = list(map(add, map(heads.__getitem__, map(rshift, reps, repeat(low))),
                         map(tails.__getitem__, map(and_, reps, repeat(mask)))))
        names += [mirror for name in names if (mirror := name[::-1]) != name]
        names.sort()
        yield ValueClass(val, tuple(names), True)


def scan_converse(length: int) -> list[ValueClass]:
    """The classes of iter_converse_classes, as a list.

    The grouping streams from the head/tail split at about 13 bytes per
    code at L = 16; the list then holds the names of every code in a class.
    """
    return list(iter_converse_classes(length))


def check_block_alternating(j: int) -> BlockAlternatingVerdict:
    """Compare the block code 0^j 1^j with the alternating code (01)^j."""
    if j < 2:
        raise DomainError("block comparison needs j >= 2")
    return BlockAlternatingVerdict(
        j=j,
        block=value("0" * j + "1" * j),
        block_reflected=value("1" * j + "0" * j),
        alternating=value("01" * j),
        alternating_reflected=value("10" * j),
    )


def iter_conjecture_violations(length: int, weight_filter: int | None = None):
    """Every pair of equal-length, equal-weight codes where the strictly
    smaller cluster variance does not come with a strictly larger value.

    Yields one dict per violating pair, in a fixed deterministic order
    (weight ascending, then the higher-variance code by (value, code),
    then its lower-variance partners by (value, code)), so results can be
    streamed and compared byte for byte across runs.  The pair count can
    be in the millions at length 14, hence a generator.
    """
    if length < 1:
        raise DomainError("length must be >= 1")
    from .metrics import cluster_variance, weight

    row = level_row(length)[2]
    # weight -> (cluster variance as a Fraction, value, code)
    buckets: dict[int, list[tuple]] = {}
    for code in range(1 << length):
        text = _code_str(code, length)
        w = weight(text)
        if weight_filter is not None and w != weight_filter:
            continue
        buckets.setdefault(w, []).append((cluster_variance(text), row[code], code))
    for w in sorted(buckets):
        items = sorted(buckets[w], key=lambda r: (r[0], r[1], r[2]))
        # previous strictly-lower-variance (value, code, variance) entries,
        # ordered by (value, code)
        prev: list[tuple] = []
        prev_vals: list[int] = []
        start = 0
        for end in range(1, len(items) + 1):
            if end < len(items) and items[end][0] == items[start][0]:
                continue
            group = items[start:end]
            for var_j, val_j, code_j in sorted(group, key=lambda r: (r[1], r[2])):
                cut = bisect_right(prev_vals, val_j)
                for val_i, code_i, var_i in prev[:cut]:
                    yield {
                        "length": length,
                        "weight": w,
                        "low_var_code": _code_str(code_i, length),
                        "high_var_code": _code_str(code_j, length),
                        "low_var": str(var_i),
                        "high_var": str(var_j),
                        "low_var_value": val_i,
                        "high_var_value": val_j,
                    }
            for var_i, val_i, code_i in group:
                insort(prev, (val_i, code_i, var_i))
                insort(prev_vals, val_i)
            start = end


def scan_conjecture(length: int, weight_filter: int | None = None) -> ScanReport:
    """Report form of iter_conjecture_violations: it keeps every pair, which
    is fine up to length 12 or so but runs to millions of pairs beyond.
    """
    violations = list(iter_conjecture_violations(length, weight_filter))
    checked = 1 << length
    if weight_filter is not None:
        checked = comb(length, weight_filter) if weight_filter >= 0 else 0
    scope = f"codes of length {length}"
    if weight_filter is not None:
        scope += f" with weight {weight_filter}"
    return ScanReport(scope, checked, violations)


def _root_gram(depth: int) -> list[list[int]]:
    """The Gram matrix of (P_t - P_rev(t), Q_t - Q_rev(t)) over every code t
    of length <= depth."""
    dp, dq = array("q"), array("q")
    for (_, _, p), (_, _, q), rev in zip(_rows(depth, 1, 0), _rows(depth, 0, 1),
                                         _reversals(depth)):
        dp += array("q", map(sub, p, _permuted(p, rev)))
        dq += array("q", map(sub, q, _permuted(q, rev)))
    return _gram((dp, dq))


def _kernel_roots(g, max_entry: int) -> list[State]:
    """The sorted roots (a, b, a+b) with a, b in 1..max_entry coprime whose
    value-ordered pair (lo, hi) solves g.(lo, hi) == 0, for a 2x2 integer
    matrix g.

    A nonzero g with nonzero determinant solves only (0, 0).  With
    determinant zero its rows are parallel, so its kernel is the line
    through (-g01, g00), or through (-g11, g10) when the first row is
    zero.  The coprime pairs on that line are its primitive vector and
    that vector's negative; a root survives iff the primitive vector has
    both entries positive and reads (lo, hi).  A zero g keeps every root.
    """
    (g00, g01), (g10, g11) = g
    if not (g00 or g01 or g10 or g11):
        return [(a, b, a + b) for a in range(1, max_entry + 1)
                for b in range(1, max_entry + 1) if gcd(a, b) == 1]
    if g00 * g11 != g01 * g10:
        return []
    x, y = (-g01, g00) if g00 or g01 else (-g11, g10)
    if x < 0:
        x, y = -x, -y
    k = gcd(x, y)
    lo, hi = x // k, y // k
    if not 0 < lo <= hi <= max_entry:
        return []
    return [(lo, hi, lo + hi)] + ([(hi, lo, lo + hi)] if lo != hi else [])


def scan_roots(max_entry: int, depth: int) -> RootScanReport:
    """Which roots (a, b, a+b) keep the reflection identity?

    A root is evaluated from its value-ordered pair: listing (2, 1, 3)
    next to (1, 2, 3) only makes sense if evaluation does not depend on
    which of the first two slots holds the smaller entry.  From the
    ordered root (lo, hi) a code t has value lo*P_t + hi*Q_t, so the root
    keeps the identity over all codes of length <= depth iff (lo, hi) is
    orthogonal to every (P_t - P_rev(t), Q_t - Q_rev(t)), that is iff
    G.(lo, hi) == 0 for the Gram matrix G of those vectors.  G is built
    once, in exact integers, and the survivors are read off its kernel
    (_kernel_roots).  The coprime roots checked are counted, not walked.
    Cost: O(max_entry log log max_entry + 2**depth) time, O(max_entry +
    2**depth) memory.
    """
    if max_entry < 2:
        raise DomainError("max_entry must be >= 2")
    if depth < 2:
        raise DomainError("depth must be >= 2")
    return RootScanReport(
        scope=f"roots (a, b, a+b) with a, b <= {max_entry}, coprime, depth {depth}",
        checked=_coprime_pairs(max_entry),
        survivors=_kernel_roots(_root_gram(depth), max_entry),
    )
