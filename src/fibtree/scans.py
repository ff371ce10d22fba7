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
a_h*P_l + b_h*Q_l.  The reflection and root scans read every length off
one linear recursion, _difference_spans, at O(1) a length once its span
repeats, and the root scan counts the coprime roots it checks with a
totient sum.  Rows of every code are built only to write violation
records.  The converse scan streams its classes from the split t = h||l:
it takes each value from half-length rows, groups only the codes that
are not larger than their reflections, a suffix of each head's block of
tail values, into per-value arrays of code indices, about 13 bytes per
code at length 16, and spells names only for the classes it yields.
The conjecture scan holds one int per code and sorts each weight class
once by value; its time grows with the pairs it writes, not with the
codes: 3,297,051 pairs at length 14 against 16,384 codes.

Scans run in one process and are deterministic: the same parameters
produce the same report.  Wall-clock timing is kept out of the
serialized payload so that re-runs compare byte-identical.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import defaultdict, deque
from functools import cache, partial
from itertools import compress, repeat
from math import comb, gcd
from operator import add, and_, mul, rshift
from typing import NamedTuple

from .engine import (ROOT, State, _code_str, _last, _rows, enumerate_codes,
                     level_row, level_rows, value)
from .errors import DomainError, _require_int


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


def _coprime_pairs(n: int) -> int:
    """The number of coprime (a, b) with 1 <= a, b <= n.

    The totient sum Phi(m) counts the coprime a <= b <= m, so the count is
    2 * Phi(n) - 1: each a < b pair twice and (1, 1) once.  A pair
    a <= b <= m over its gcd d is one counted by Phi(m // d), so Phi(m) is
    m(m+1)/2 minus Phi(m // d) for each d >= 2, memoised over the
    O(sqrt(n)) distinct quotients: O(n**(3/4)) time, O(sqrt(n)) memory.
    """
    @cache
    def phi_sum(m: int) -> int:
        total, d = m * (m + 1) // 2, 2
        while d <= m:
            q = m // d  # shared by every d up to m // q, taken at once
            total -= (m // q - d + 1) * phi_sum(q)
            d = m // q + 1
        return total

    return 2 * phi_sum(n) - 1


def _primitive(row) -> tuple[int, ...]:
    """row divided by the gcd of its entries, its first nonzero entry positive."""
    k = (gcd(*row) or 1) * (-1 if next(filter(None, row), 0) < 0 else 1)
    return tuple(x // k for x in row)


def _echelon(rows) -> tuple[tuple[int, ...], ...]:
    """The canonical basis of the rational span of integer rows: the reduced
    row echelon form, each row scaled to coprime integers and a positive
    pivot.  Clearing a column as pivot[col]*row - row[col]*pivot keeps the
    earlier pivots positive, since the new pivot is zero left of col."""
    rows, basis = [tuple(row) for row in rows], []
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[col]), None)
        if pivot:
            pivot = _primitive(pivot)
            rows = [_cleared(row, pivot, col) for row in rows]
            basis = [_cleared(row, pivot, col) for row in basis] + [pivot]
    return tuple(basis)


def _cleared(row, pivot, col: int) -> tuple[int, ...]:
    return _primitive([pivot[col] * x - row[col] * y for x, y in zip(row, pivot)])


def _difference_spans(max_len: int):
    """Yield, for each length L = 1..max_len, the _echelon basis of
    S_L = span{(P_t - P_rev(t), Q_t - Q_rev(t)) : |t| = L}.

    A root (a0, b0) reflects at L iff it is orthogonal to S_L, since t has
    value (1, 1).M_t.(a0, b0), M_t the matrix of its steps, and rev(t) has
    P_rev(t)*a0 + Q_rev(t)*b0.  S_L is the image of the span Z_L of the
    z_t = (M_t, P_rev(t), Q_rev(t)), and appending a bit is linear in z_t
    as rev(tx) = x rev(t), so once Z_(L+1) == Z_L every later S repeats.
    Z is fixed from L = 3 and S_L = span{(2, -1)} from L = 2; the loop finds it.
    """
    z, s = _echelon([(1, 0, 0, 1, 1, 1)]), ()  # S_0 = {0}, as rev("") = ""
    for length in range(1, max_len + 1):
        grown = _echelon(row for m00, m01, m10, m11, p, q in z for row in (
            (m00, m01, m00 + m10, m01 + m11, p + q, q),
            (m10, m11, m00 + m10, m01 + m11, q, p + q)))
        if grown == z:
            yield from repeat(s, max_len - length + 1)
            return
        z = grown
        s = _echelon((m00 + m10 - p, m01 + m11 - q) for m00, m01, m10, m11, p, q in z)
        yield s


# ------------------------------------------------------------ the scans

def scan_reflection(max_len: int) -> ScanReport:
    """Check value(t) == value(reflect(t)) for every code of length <= max_len.

    Each length is checked for all its codes at once against the span of
    _difference_spans, in O(1) once the span repeats.  Only when a length
    fails are the rows of every code built, up to the last one, to write
    the violation records.
    """
    _require_int("max_len", max_len, 1)
    a0, b0, _ = ROOT
    failing = [L for L, span in enumerate(_difference_spans(max_len), 1)
               if any(x * a0 + y * b0 for x, y in span)]
    violations = []
    levels = zip(level_rows(failing[-1], ROOT), _reversals(failing[-1])) if failing else ()
    for L, ((_, _, values), rev) in enumerate(levels):
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
    _require_int("length", length, 1)
    return _converse_classes(length)


def _converse_classes(length: int):
    low, odd = length // 2, length & 1
    a_row, b_row, _ = _last(level_rows(length - low))
    p, q = _last(_rows(low, 1, 0))[2], _last(_rows(low, 0, 1))[2]
    rev = _last(_reversals(low))
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
    heads, tails = list(enumerate_codes(length - low)), list(enumerate_codes(low))
    mask = (1 << low) - 1
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
    _require_int("j", j)
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
    (weight ascending, then the higher-variance code by (variance, value,
    code), then its lower-variance partners by (value, code)), so results
    can be streamed and compared byte for byte across runs.  The pair
    count can be in the millions at length 14, hence a generator.

    Each weight class is sorted once by value; a code's partners are the
    prefix of values <= its own whose cube sum S = L * variance is smaller.
    Cost: O(sum of n_w**2) C-level comparisons plus O(pairs); memory: one
    int per code in the class lists, plus one class's names and variances.
    """
    _require_int("length", length, 1)
    if weight_filter is not None:
        _require_int("weight_filter", weight_filter)
    return _violations(length, weight_filter)


def _violations(length: int, weight_filter: int | None):
    """iter_conjecture_violations, unchecked."""
    from .metrics import cluster_variance

    row = level_row(length)[2]
    classes = defaultdict(list)
    for code in range(1 << length):
        w = code.bit_count()
        if weight_filter is None or w == weight_filter:
            classes[w].append(code)
    for w in sorted(classes):
        # the codes ascend, so a stable sort by value gives (value, code) order
        codes = sorted(classes.pop(w), key=row.__getitem__)
        vals = list(map(row.__getitem__, codes))
        names = [_code_str(code, length) for code in codes]
        variances = list(map(cluster_variance, names))
        sums = [int(v * length) for v in variances]
        var_text = dict(zip(sums, map(str, variances)))
        for j in sorted(range(len(codes)), key=sums.__getitem__):
            s_j, val_j, name_j = sums[j], vals[j], names[j]
            for i in compress(range(bisect_right(vals, val_j)), map(s_j.__gt__, sums)):
                yield {
                    "length": length,
                    "weight": w,
                    "low_var_code": names[i],
                    "high_var_code": name_j,
                    "low_var": var_text[sums[i]],
                    "high_var": var_text[s_j],
                    "low_var_value": vals[i],
                    "high_var_value": val_j,
                }


def scan_conjecture(length: int, weight_filter: int | None = None) -> ScanReport:
    """Report form of iter_conjecture_violations: it keeps every pair, which
    is fine up to length 12 or so but runs to millions of pairs beyond.
    """
    violations = list(iter_conjecture_violations(length, weight_filter))
    checked, scope = 1 << length, f"codes of length {length}"
    if weight_filter is not None:
        checked = comb(length, weight_filter) if weight_filter >= 0 else 0
        scope += f" with weight {weight_filter}"
    return ScanReport(scope, checked, violations)


def _kernel_roots(g, max_entry: int) -> list[State]:
    """The sorted roots (a, b, a+b) with a, b in 1..max_entry coprime whose
    value-ordered pair (lo, hi) solves g.(lo, hi) == 0, for 2x2 integer g.

    A nonzero g with nonzero determinant solves only (0, 0).  With
    determinant zero its rows are parallel, so its kernel is the line
    through (-g01, g00), or (-g11, g10) when the first row is zero, whose
    coprime pairs are its _primitive vector and that vector's negative:
    a root survives iff that vector reads (lo, hi).  A zero g keeps every
    root.
    """
    (g00, g01), (g10, g11) = g
    if not (g00 or g01 or g10 or g11):
        return [(a, b, a + b) for a in range(1, max_entry + 1)
                for b in range(1, max_entry + 1) if gcd(a, b) == 1]
    if g00 * g11 != g01 * g10:
        return []
    lo, hi = _primitive((-g01, g00) if g00 or g01 else (-g11, g10))
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
    orthogonal to every (P_t - P_rev(t), Q_t - Q_rev(t)), that is to the
    spans S_L of _difference_spans for L <= depth, and the survivors are
    read off the kernel of their joint basis (_kernel_roots).  The coprime
    roots checked are counted by a totient sum, not walked.  Cost:
    O(max_entry**(3/4) + depth) time, O(sqrt(max_entry)) memory.
    """
    _require_int("max_entry", max_entry, 2)
    _require_int("depth", depth, 2)
    basis = _echelon(row for span in set(_difference_spans(depth)) for row in span)
    return RootScanReport(
        scope=f"roots (a, b, a+b) with a, b <= {max_entry}, coprime, depth {depth}",
        checked=_coprime_pairs(max_entry),
        survivors=_kernel_roots(basis + ((0, 0),) * (2 - len(basis)), max_entry),
    )
