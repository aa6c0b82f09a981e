"""Plane-model schemes: two corner fat points, general fat points, and
vertically graded points sitting on a distinguished line.

The two corners are Q1 = [0:1:0] and Q2 = [0:0:1], and the distinguished
line passes through neither. A point on the line is described purely by its
width profile (d_0, ..., d_k): d_j conditions at level j, so in local
coordinates x along the line and y across it, y = 0 being the line, the
scheme's local ideal is (x^{d_0}) + (x^{d_1}) y + ... + (y^{k+1}).

The rank oracle puts the line at y = x in the chart x0 = 1, where each
corner condition is the coefficient of one monomial, and differentiates a
point on the line along (1, 1) and across a random direction (1, slope),
which points at neither corner. A profile whose widths fall strictly, as a
fat point's do, gives the same scheme whatever the direction across; one
whose widths do not, such as (3, 3, 2), need not.
"""

from dataclasses import dataclass, field

from .core import BiDegree, UniformFatPoints, binom


def fat_profile(m: int) -> tuple[int, ...]:
    """Width profile of a fat point of multiplicity m: (m, m-1, ..., 1)."""
    return tuple(range(m, 0, -1))


@dataclass(frozen=True)
class SliceProfile:
    """Row widths of a vertically graded point, bottom row first."""

    widths: tuple[int, ...]

    def __post_init__(self):
        if not self.widths:
            raise ValueError("a profile needs at least one row")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"profile widths must be positive, got {self.widths}")
        if any(a < b for a, b in zip(self.widths, self.widths[1:])):
            raise ValueError(f"profile widths must be non-increasing, got {self.widths}")

    @staticmethod
    def fat_point(m: int) -> "SliceProfile":
        """Full fat point of multiplicity m on the line: widths (m, ..., 1)."""
        if m < 1:
            raise ValueError(f"multiplicity must be at least 1, got {m}")
        return SliceProfile(fat_profile(m))

    @property
    def degree(self) -> int:
        return sum(self.widths)

    @property
    def bottom(self) -> int:
        """Width of the row on the line itself (the trace length)."""
        return self.widths[0]

    def is_fat_point(self) -> bool:
        return self.widths == fat_profile(len(self.widths))


@dataclass(frozen=True)
class PlaneScheme:
    """aQ1 + bQ2 + general fat points + profiled points on the distinguished
    line."""

    corner_a: int
    corner_b: int
    general: tuple[int, ...] = ()
    on_line: tuple[SliceProfile, ...] = field(default=())

    def __post_init__(self):
        if self.corner_a < 0 or self.corner_b < 0:
            raise ValueError("corner multiplicities must be nonnegative")
        if any(m < 0 for m in self.general):
            raise ValueError("general multiplicities must be nonnegative")

    @property
    def degree(self) -> int:
        return (
            binom(self.corner_a + 1, 2)
            + binom(self.corner_b + 1, 2)
            + sum(binom(m + 1, 2) for m in self.general)
            + sum(p.degree for p in self.on_line)
        )


def reduce_to_plane(deg: BiDegree, pts: UniformFatPoints) -> tuple[PlaneScheme, int]:
    """Translate a bidegree problem into the equivalent plane problem.

    The bidegree-(a,b) piece of the ideal on the doubly ruled surface has the
    same dimension as the degree-(a+b) piece of the plane ideal of
    aQ1 + bQ2 + the same s fat points.
    """
    scheme = PlaneScheme(deg.a, deg.b, (pts.m,) * pts.s)
    return scheme, deg.a + deg.b
