"""Shared reference rows: every length-4 code with a nonconstant pattern,
its final state, and its cluster variance, in the canonical listing order;
and four longer codes with their cluster variances.  Also strategies for
entries that are not ints, which states and configurations refuse."""

from fractions import Fraction

from hypothesis import strategies as st

LENGTH4_TABLE = [
    # code, final state, cluster variance
    ("1000", (2, 9, 11), Fraction(7)),
    ("0100", (3, 10, 13), Fraction(5, 2)),
    ("0010", (4, 9, 13), Fraction(5, 2)),
    ("0001", (5, 6, 11), Fraction(7)),
    ("1100", (3, 11, 14), Fraction(4)),
    ("0110", (4, 11, 15), Fraction(5, 2)),
    ("0011", (5, 9, 14), Fraction(4)),
    ("1001", (7, 9, 16), Fraction(5, 2)),
    ("1010", (5, 12, 17), Fraction(1)),
    ("0101", (7, 10, 17), Fraction(1)),
    ("1110", (5, 13, 18), Fraction(7)),
    ("1101", (8, 11, 19), Fraction(5, 2)),
    ("1011", (7, 12, 19), Fraction(5, 2)),
    ("0111", (7, 11, 18), Fraction(7)),
]

# Cluster variance of four longer codes.  A run of length m adds m^3 to the
# numerator.  The source prints two of these wrongly: 55/7 is the variance
# of runs such as 3,1,3, and no code of length 8 has variance 65/8.
VARIANCE_SPOT_VALUES = [
    ("1010111", Fraction(31, 7)),    # runs 1,1,1,1,3: as printed
    ("1110110", Fraction(37, 7)),    # runs 3,1,2,1: (27+1+8+1)/7; printed 55/7
    ("10101111", Fraction(17, 2)),   # runs 1,1,1,1,4: as printed
    ("11101101", Fraction(19, 4)),   # runs 3,1,2,1,1: 38/8; printed 65/8
]


# Each kind includes values equal to a valid int, which coercion would accept.
NOT_INT_ENTRIES = {
    "bool": st.booleans(),
    "float": st.one_of(st.integers(1, 50).map(float), st.floats()),
    "str": st.one_of(st.integers(1, 50).map(str), st.text(max_size=3)),
    "Fraction": st.one_of(st.integers(1, 50).map(Fraction), st.fractions()),
}
