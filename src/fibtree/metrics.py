"""Exact rational statistics of a code: weight, runs, cluster average and variance.

The cluster number of a position is the length of the maximal constant
run containing it, so a run of length m contributes m copies of m to the
cluster sum and m copies of m^2 to the variance sum.  Both statistics are
plain averages of those per-position numbers (no mean-centering) and are
kept as exact fractions because downstream comparisons are strict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import as_code
from .errors import DomainError


@dataclass(frozen=True)
class ClusterProfile:
    run_lengths: tuple[int, ...]
    per_position: tuple[int, ...]


def weight(code: str) -> int:
    """Number of ones."""
    return as_code(code).count("1")


def _cluster_runs(code: str) -> list[int]:
    if not as_code(code):
        raise DomainError("cluster metrics are undefined for the empty code")
    out: list[int] = []
    prev = ""
    for ch in code:
        if ch == prev:
            out[-1] += 1
        else:
            out.append(1)
            prev = ch
    return out


def cluster_profile(code: str) -> ClusterProfile:
    runs = _cluster_runs(code)
    per_position = tuple(m for m in runs for _ in range(m))
    return ClusterProfile(tuple(runs), per_position)


def cluster_average(code: str) -> Fraction:
    return Fraction(sum(m * m for m in _cluster_runs(code)), len(code))


def cluster_variance(code: str) -> Fraction:
    return Fraction(sum(m ** 3 for m in _cluster_runs(code)), len(code))
