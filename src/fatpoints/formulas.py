"""Closed-form Hilbert functions, their dispatch, and the table fill.

The known regions and their values:

* m = 1: simple points always impose independent conditions.
* b <= m (bidegree normalized so a >= b): the low-bidegree theorem. Each
  point contributes C(m+1,2) - C(m-b,2) conditions, capped by the space
  dimension, except one odd-s family where the count drops by C(c+2,2).
* m = 2, b >= 3: min((a+1)(b+1), 3s) with no exceptions.
* m = 3: complete classification, four exceptional families plus one
  sporadic cell.
* m >= 4, b > m: open, except one infinite defective family (defect 1).

Unknown is a first-class answer, never a guess; the oracle can fill those
cells on request.
"""

from .core import (
    BiDegree,
    HFValue,
    Source,
    UniformFatPoints,
    binom,
    hf_value,
)
from .oracle import OracleConfig, hf_uniform_cells, require_memory

# peak bytes per cell of filling a table and printing it, by tracemalloc on
# the second call, stdout to /dev/null, on 200 x 200 rectangles: the grid of
# HFValues alone near 175, `table` 177 as json, 180 as csv and 244 as text
# with --mark-defective, `defects` json 178. `verify` peaks highest, 542
# (m 1, s 9), 580 (m 2, s 4), 697 (m 2, s 9), 724 (m 3, s 5) and 865 (m 3,
# s 8), because it also holds an oracle row, whose matrix of s m (m + 1) / 2
# rows the oracle checks alone; the trial loop eliminates that matrix in
# place, without the copy that took m 3, s 8 to 1249
_TABLE_BYTES_PER_CELL = 1024


def hf_m_ge_b(deg: BiDegree, pts: UniformFatPoints) -> HFValue:
    """Hilbert function when the smaller bidegree entry is at most m.

    min((a+1)(b+1), s(C(m+1,2) - C(m-b,2))), except for odd s = 2k+1 with
    a = bk + c + s(m-b) and 0 <= c <= b-2, where the answer is
    (a+1)(b+1) - C(c+2,2). The b = 0 column needs no special case: the
    binomial difference already counts m conditions per point there.
    """
    deg = deg.normalized
    a, b, s, m = deg.a, deg.b, pts.s, pts.m
    if m < b:
        raise ValueError(f"needs m >= min(a, b): got m={m}, bidegree ({a}, {b})")
    value = min(deg.cells, s * (binom(m + 1, 2) - binom(m - b, 2)))
    if b >= 1 and s % 2 == 1:
        reduced = a - s * (m - b)
        if reduced >= 0:
            k, c = divmod(reduced, b)
            if k == s // 2 and c <= b - 2:
                value = deg.cells - binom(c + 2, 2)
    return hf_value(value, deg, pts)


def hf_triple(deg: BiDegree, s: int) -> HFValue:
    """Complete Hilbert function for triple points (m = 3), any bidegree."""
    deg = deg.normalized
    a, b = deg.a, deg.b
    pts = UniformFatPoints(s, 3)
    cap = deg.cells
    if b == 0:
        # bidegree (a, 0) forms see only the 3 pure-x conditions per point
        value = min(a + 1, 3 * s)
    elif b == 1 and 5 * s < 2 * (a + 1):
        value = 5 * s
    elif s % 2 == 1 and (a, b) in {(2 * s - 1, 2), ((3 * (s - 1)) // 2, 3)}:
        value = cap - 1
    elif s % 2 == 1 and (a, b) == ((3 * (s - 1)) // 2 + 1, 3):
        value = 6 * s - 1
    elif (s, a, b) == (5, 5, 4):
        value = 29
    else:
        value = min(cap, 6 * s)
    return hf_value(value, deg, pts)


def defective_family(deg: BiDegree, pts: UniformFatPoints) -> HFValue | None:
    """The one known infinite defective family above the low-bidegree region.

    At a = (2m-1)(m-2), b = m+1, s = 4m-7 (m >= 3) the ideal piece has
    dimension (m-3)(m-4)/2 + 1, one more than expected. None off the family.
    """
    deg = deg.normalized
    m = pts.m
    if not (m >= 3 and deg.a == (2 * m - 1) * (m - 2) and deg.b == m + 1
            and pts.s == 4 * m - 7):
        return None
    ideal_dim = (m - 3) * (m - 4) // 2 + 1
    return hf_value(deg.cells - ideal_dim, deg, pts)


def hf_uniform(deg: BiDegree, pts: UniformFatPoints) -> HFValue:
    """Dispatch to the closed form covering (deg, pts), if any.

    Returns an HFValue with known=False and value=None on the open region
    (m >= 4, min(a, b) > m, off the defective family).
    """
    deg = deg.normalized
    m = pts.m
    if m == 1:
        return hf_value(min(deg.cells, pts.s), deg, pts)
    if deg.b <= m:
        return hf_m_ge_b(deg, pts)
    if m == 2:
        return hf_value(min(deg.cells, 3 * pts.s), deg, pts)
    if m == 3:
        return hf_triple(deg, pts.s)
    family = defective_family(deg, pts)
    return family if family is not None else hf_value(None, deg, pts, known=False)


def table_region(
    m: int,
    s: int,
    a_max: int,
    b_max: int,
    oracle: OracleConfig | None = None,
) -> list[list[HFValue]]:
    """Grid of values, rows indexed by b from 0, columns by a from 0.

    Unknown cells are resolved by the rank oracle when a configuration is
    given (tagged source=ORACLE), and left value-less otherwise. The oracle
    is asked for exactly the unknown cells, each read off the row of
    min(a, b), so a cell and its transpose share that row's trials, which
    stop once its cells reach their bounds; the values are the ones all
    trials would give. A table whose cells would not fit in physical memory
    is refused with a ValueError before its first row, and an oracle row
    that would not fit before the first elimination.
    """
    if a_max < 0 or b_max < 0:
        raise ValueError("table bounds must be nonnegative")
    pts = UniformFatPoints(s, m)
    cells = (a_max + 1) * (b_max + 1)
    require_memory(cells * _TABLE_BYTES_PER_CELL, f"a table of {cells} cells", "to fill")
    grid = [[hf_uniform(BiDegree(a, b), pts) for a in range(a_max + 1)]
            for b in range(b_max + 1)]
    if oracle is not None:
        unknown = [(a, b) for b, row in enumerate(grid)
                   for a, cell in enumerate(row) if cell.value is None]
        for (a, b), rank in hf_uniform_cells(unknown, pts, oracle).items():
            grid[b][a] = hf_value(rank, BiDegree(a, b), pts, source=Source.ORACLE, known=False)
    return grid
