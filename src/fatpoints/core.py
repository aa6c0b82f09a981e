"""Integer combinatorics and the dimension bookkeeping shared by every module.

All arithmetic is exact (Python integers never overflow). Values are tied to
the convention HF(a,b) = (a+1)(b+1) - dim(ideal piece at (a,b)).
"""

from dataclasses import dataclass
from enum import Enum
from math import comb


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the zero-outside-range convention.

    Returns C(n, k) when 0 <= k <= n and 0 otherwise (in particular for
    negative n), so difference formulas stay valid at degenerate inputs.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


class Source(Enum):
    """How a Hilbert-function value was produced."""

    FORMULA = "formula"
    ORACLE = "oracle"


@dataclass(frozen=True)
class BiDegree:
    """A bidegree (a, b): the pair indexing one graded piece of the ring."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError(f"bidegree entries must be nonnegative, got ({self.a}, {self.b})")

    @property
    def normalized(self) -> "BiDegree":
        """The swap-invariant representative with a >= b."""
        if self.a >= self.b:
            return self
        return BiDegree(self.b, self.a)

    @property
    def cells(self) -> int:
        """Dimension (a+1)(b+1) of the full graded piece."""
        return (self.a + 1) * (self.b + 1)


@dataclass(frozen=True)
class UniformFatPoints:
    """s general points, all with the same multiplicity m."""

    s: int
    m: int

    def __post_init__(self):
        if self.s < 0:
            raise ValueError(f"point count must be nonnegative, got {self.s}")
        if self.m < 1:
            raise ValueError(f"multiplicity must be at least 1, got {self.m}")

    @property
    def degree(self) -> int:
        """Total degree s * C(m+1, 2): each point imposes C(m+1, 2) conditions."""
        return self.s * binom(self.m + 1, 2)


def virtual_dim_bi(deg: BiDegree, pts: UniformFatPoints) -> int:
    """Parameter-count dimension (a+1)(b+1) - s*C(m+1,2); may be negative."""
    return deg.cells - pts.degree


def critical_counts(deg: BiDegree, m: int) -> tuple[int, int]:
    """Floor/ceiling point counts where the expected dimension crosses zero.

    Non-defectivity at both counts implies it for every s.
    """
    if m < 1:
        raise ValueError(f"multiplicity must be at least 1, got {m}")
    per_point = binom(m + 1, 2)
    s1 = deg.cells // per_point
    s2 = -(-deg.cells // per_point)
    return s1, s2


@dataclass(frozen=True)
class HFValue:
    """A Hilbert-function value with its dimension bookkeeping.

    The bidegree is carried by the caller; `value + dim(ideal piece)` always
    equals (a+1)(b+1) at that bidegree. `known` is False in the region the
    closed forms do not cover; `value` is None there unless an oracle filled
    it in (then source is ORACLE).
    """

    value: int | None
    source: Source
    known: bool
    virtual_dim: int
    expected_dim: int
    defect: int
    defective: bool


def hf_value(value: int | None, deg: BiDegree, pts: UniformFatPoints,
             source: Source = Source.FORMULA, known: bool = True) -> HFValue:
    """Assemble an HFValue, deriving defect data from the value.

    virtual/expected refer to the ideal piece: virtual = (a+1)(b+1) - deg(X),
    expected = max(0, virtual); the defect is the gap between the actual
    ideal dimension (a+1)(b+1) - value and the expected one.
    """
    virtual = virtual_dim_bi(deg, pts)
    expected = max(0, virtual)
    if value is None:
        return HFValue(None, source, known, virtual, expected, 0, False)
    if not 0 <= value <= deg.cells:
        raise ValueError(f"Hilbert function value {value} outside [0, {deg.cells}]")
    ideal_dim = deg.cells - value
    defect = ideal_dim - expected
    if defect < 0:
        raise ValueError(
            f"value {value} exceeds the parameter-count bound at {deg}: "
            f"ideal dimension {ideal_dim} < expected {expected}"
        )
    return HFValue(value, source, known, virtual, expected, defect, defect > 0)
