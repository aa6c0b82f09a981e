"""Ground-truth Hilbert functions by exact linear algebra over a prime field.

A value is read off the rank of a conditions matrix, derivative conditions
at pseudo-random support with entries in [1, p-1], p a large prime,
maximized over trials. Each argument is stated once, where it is
implemented:

- Models: bidegree (a, b), a row of cells per elimination with one point at
  the origin, hf_biproj_row, and the cells of a command by row,
  HF(a, b) = HF(b, a), hf_uniform_cells; plane degree d with two corners
  and a distinguished line, plane_conditions_matrix and _plane_box, reached
  from a bidegree by check_reduction; the line, hf_trace_line.
- Matrix: the columns, _band and _below; the rows as runs and the one
  memory guard, _require_fits; the builder, conditions_matrix and
  _derivative_tables.
- Trials, why a rank at random support is the generic one and how the
  support is drawn: _max_ranks.
- Bounds at which the trials stop: the rows, with the trace count on a
  line, _rank_bound; the curve steps, _curve_bound.
- Containment: _Boxes.
- Kernel: rank_profile_mod_p, left-looking in panels, with _eliminate_panel,
  _sub_mul_mod_p, _panel_width, _SINGLE_PANEL_ENTRIES and ColumnSource;
  memory: _PEAK_BYTES_PER_ENTRY.

Agreement under a second prime and under distinct seeds is part of the test
suite.
"""

import hashlib
import math
import os
import random
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import groupby, zip_longest
from typing import NamedTuple

import numpy as np

from .core import BiDegree, UniformFatPoints, binom
from .schemes import PlaneScheme, fat_profile, reduce_to_plane

DEFAULT_PRIME = (1 << 31) - 1  # Mersenne; exponents in scope stay far below it
ALT_PRIME = (1 << 31) + 11  # independent second field for paranoia runs
DEFAULT_TRIALS = 3
DEFAULT_SEED = 0


class OracleConfigError(ValueError):
    """Invalid prime/trials/seed configuration."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class OracleConfig:
    prime: int = DEFAULT_PRIME
    trials: int = DEFAULT_TRIALS
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.trials < 1:
            raise OracleConfigError(f"trials must be at least 1, got {self.trials}")
        if self.prime <= (1 << 30):
            raise OracleConfigError(f"prime must exceed 2^30, got {self.prime}")
        # entries must fit in int64 through a*b accumulation in elimination
        if self.prime >= (1 << 31) + (1 << 20):
            raise OracleConfigError(f"prime too large for 64-bit elimination: {self.prime}")
        if not is_prime(self.prime):
            raise OracleConfigError(f"{self.prime} is not prime")

    def require_degree(self, degree: int):
        if degree >= self.prime:
            raise OracleConfigError(
                f"prime {self.prime} too small for degree {degree}"
            )


DEFAULT_CONFIG = OracleConfig()


def derive_seed(master: int, *tags) -> int:
    """Stable per-instance seed from the master seed and instance tags."""
    text = repr((master,) + tags).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def sample_support(seed: int, count: int, p: int) -> tuple[tuple[int, int], ...]:
    """count chart points with pairwise-distinct x's and pairwise-distinct
    y's, reproducible from the seed: distinctness per coordinate keeps the
    support off every ruling/vertical line shared by two points, which is
    what general position requires here. Each axis, the x's first, is one
    random.Random.sample of [1, p-1]. Below 89,478,486 points an axis for any
    prime OracleConfig accepts, 357,913,942 at DEFAULT_PRIME, sample draws
    1 + randbelow(p - 1), which is randrange(1, p), until a value is new, so
    it gives the values of a loop of randrange(1, p) that skips repeats,
    the draw of every earlier version."""
    rng = random.Random(seed)
    xs = rng.sample(range(1, p), count)
    ys = rng.sample(range(1, p), count)
    return tuple(zip(xs, ys))


def _derivative_tables(coords, orders: int, starts, width: int, p: int) -> np.ndarray:
    """D[k, ..., c, i] = d^c/dt^c t^j mod p at each t of coords[k], for
    j = starts[k] + i, i < width and c < orders: one table per axis k, for
    every t at once. Row 0 holds the powers, t^j = t^(j-1) t from
    t^starts[k], and row c holds d^c t^j = j d^(c-1) t^(j-1), zero at its
    first c places: d^c t^j is zero for j < c, and a table that starts above
    t^0 starts orders - 1 below the smallest exponent read from it.
    """
    coords = np.asarray(coords, dtype=np.int64) % p
    D = np.zeros(coords.shape + (orders, width), dtype=np.int64)
    # pow takes t^starts[k] by repeated squaring
    D[..., 0, 0] = ([[pow(t, j, p) for t in axis] for axis, j in zip(coords.tolist(), starts)]
                    if any(starts) else 1)
    for i in range(1, width):
        D[..., 0, i] = D[..., 0, i - 1] * coords % p
    # the exponent j of each place i of each axis's table
    exps = np.add.outer(starts, np.arange(width))[:, None]
    for c in range(1, orders):
        D[..., c, c:] = D[..., c - 1, c - 1 : width - 1] * exps[..., c:] % p
    return D


# the first panel's crossover in rank_profile_mod_p. On one BLAS thread, a
# first panel of rows + 64 columns against panels of 64 from the start: the
# golden table's 60x479 (2^14.8 entries) takes 1.0 against 2.0 ms and a
# 125x120 Horace chain matrix 4.0 against 5.8 ms, while panels win on the
# plane matrices of reduce cells in the tests' triangle reference, 399x666
# (2^18.0) in 29 against 31 ms and 571x990 in 50 against 56 ms, and on a
# dense random 210x294 (2^15.9), 17 against 24 ms. So the plane crossover
# lies near 2^18 and the dense one below 2^15.9. No workload matrix lies
# between 2^15.7 and 2^20.1 entries, so any cutoff there routes them alike:
# the large cell, 684x1645, is the only one in panels. The first panel holds
# every column of verify's (at most 189x21) and the Horace chains' (at most
# 66x64) matrices and every pivot of the golden table's (at most 60x479, by
# column 66) and the plane reductions' (75x494, and 120x441 at 2^15.7, by
# column 108).
_SINGLE_PANEL_ENTRIES = 1 << 18


def _panel_width(p: int) -> int:
    """Largest k <= 64 with k (p-1) (2^16-1) < 2^53, the widest exact limb
    product of _sub_mul_mod_p: 64 for p <= 2147516417, about 2^31 + 2^15,
    and 63 at the largest prime OracleConfig accepts, 2148532223."""
    return min(64, ((1 << 53) - 1) // ((p - 1) * 0xFFFF))


def _eliminate_panel(M, p: int, rank: int, order=None) -> list[int]:
    """Gaussian elimination over Z/p of every column of M from row `rank`;
    returns the pivot columns.

    The one elimination loop: every panel of rank_profile_mod_p, and
    [L11 | I] to [L11 | L11^-1] after each panel that leaves multipliers.
    Each row below a pivot keeps its entry in the pivot column, the
    multiplier, and the pivot row is scaled by the pivot's inverse, so with
    P the swaps, of `order` too when given, the panel's rows from `rank` on
    hold P A = L U: L on and below the pivots of the pivot columns, U unit
    upper triangular above them and to their right.
    """
    (rows, cols), pivots = M.shape, []
    for col in range(cols):
        if rank == rows:
            break
        column = M[rank:, col]
        nz = column.nonzero()[0]
        if nz.size == 0:
            continue
        pivot = rank + int(nz[0])
        if pivot != rank:
            row = M[pivot].copy()
            M[pivot] = M[rank]
            M[rank] = row
            if order is not None:
                order[rank], order[pivot] = order[pivot], order[rank]
        top = M[rank, col + 1 :]
        top *= pow(int(column[0]), -1, p)
        top %= p
        # the rows to clear: the row swapped down holds a zero in col
        below = nz[1:]
        if below.size:
            hit = below + rank
            block = M[hit, col + 1 :]
            # one gather, then a view: column[below, None] indexes slower
            block -= column[below][:, None] * top
            # entries lie in (-(p-1)^2, p): floor division leaves [0, p)
            block -= block // p * p
            M[hit, col + 1 :] = block
        pivots.append(col)
        rank += 1
    return pivots


def _sub_mul_mod_p(C, A, B, p: int):
    """C = (C - A @ B) mod p in place, for residues in [0, p).

    With B = 2^16 B1 + B0 split into 16-bit limbs, A @ B is congruent to
    A @ B0 + (2^16 A mod p) @ B1. Over an inner dimension k of at most
    _panel_width(p), every partial sum of either float64 matmul is below
    k (p-1) (2^16-1) < 2^53, exact whatever order BLAS adds in, so a wider
    one goes in slices of k. C, subtracted from as int64 through one float64
    buffer, loses less than 2^54 a slice before the remainder: exact for up
    to 511 slices. rank_profile_mod_p needs at most 8: a first panel that
    leaves columns to later ones lies in a matrix of at most 2^18 entries
    and more than rows + 63 columns, so it has at most 480 rows and pivots.
    """
    k = _panel_width(p)
    lo = A.astype(np.float64)
    hi = ((A << 16) % p).astype(np.float64)
    out = np.empty(C.shape)
    for i in range(0, len(B), k):
        b = B[i : i + k]
        np.matmul(lo[:, i : i + k], (b & 0xFFFF).astype(np.float64), out=out)
        np.subtract(C, out, out=C, dtype=np.int64, casting="unsafe")
        np.matmul(hi[:, i : i + k], (b >> 16).astype(np.float64), out=out)
        np.subtract(C, out, out=C, dtype=np.int64, casting="unsafe")
    np.remainder(C, p, out=C)


class ColumnSource(NamedTuple):
    """A matrix of `shape` whose columns fetch(slice(c0, c1)) returns, as a
    new int64 array that the caller may overwrite, so an elimination builds
    only the columns it reaches: the large cell's trial builds 684 x 704 of
    its 684 x 1645, a golden-table row 60 x 124 of 60 x 479."""
    shape: tuple[int, int]
    fetch: Callable[[slice], np.ndarray]


def rank_profile_mod_p(matrix, p: int) -> list[int]:
    """Column rank profile over Z/p: the pivot columns of a left-to-right
    Gaussian elimination, in increasing order. They are the
    lexicographically first independent columns, so the rank of the first k
    columns is the number of pivots below k. matrix is a ColumnSource or a
    two-dimensional array, which is left as it was: its columns are copied a
    panel at a time, and each panel is reduced mod p as it is fetched.

    The elimination is left-looking: a column is fetched only once the
    elimination reaches it, and it stops at rank == rows, so no column past
    that panel is built, copied or held. Each panel is its own array. A
    matrix of at most _SINGLE_PANEL_ENTRIES entries starts with rows +
    _panel_width(p) columns, enough for rank == rows unless more than
    _panel_width(p) of them are dependent; every other panel is
    _panel_width(p) wide. After a panel with pivot columns q and pivot rows
    top..rank-1, the rows below hold L21 in q, and A21 A11^-1 = L21 L11^-1,
    with L11^-1 from one swap-free run of the loop on [L11 | I]. Only that
    multiplier is kept, in the columns top..rank-1 of one
    rows x min(rows, cols) array for every panel, whose rows take every
    later swap. Each new panel is caught up from every earlier one, oldest
    first, to A22 - A21 A11^-1 A12, A12 the earlier pivot rows in its
    columns, by the exact products of _sub_mul_mod_p, in the rows whose L21
    row is nonzero only; a panel with none keeps no multiplier. The panel
    then holds exactly what one pass of the loop over every column leaves
    there, so every pivot is the same.
    """
    if not isinstance(matrix, ColumnSource):
        A = np.asarray(matrix)
        if A.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        matrix = ColumnSource(A.shape, lambda columns: A[:, columns].astype(np.int64))
    rows, cols = matrix.shape
    if rows * cols == 0:
        return []
    width = _panel_width(p)
    c0, c1 = 0, min(cols, rows + width if rows * cols <= _SINGLE_PANEL_ENTRIES else width)
    # order[i]: the row of the matrix that row i of the elimination holds
    rank, pivots, earlier, order = 0, [], [], np.arange(rows)
    # L[b:, t:b]: the multipliers L21 L11^-1 of pivot rows t..b-1, in order
    L = None
    while True:
        P = matrix.fetch(slice(c0, c1))
        if P.view(np.uint64).max() >= p:  # a negative entry reads as 2^63 or more
            P %= p
        if rank:  # no row is swapped before the first pivot
            P = P[order]
        # oldest first: an earlier panel's pivot rows, its A12, lie below
        # every panel before it and take their catch-ups first
        for t, b in earlier:
            mult = L[b:, t:b]
            live = mult.any(axis=1).nonzero()[0]
            block = P[b + live]
            _sub_mul_mod_p(block, mult[live], P[t:b], p)
            P[b + live] = block
        # the swaps matter only to a later panel
        top, moved = rank, np.arange(rows) if c1 < cols else None
        q = _eliminate_panel(P, p, rank, moved)
        rank += len(q)
        pivots += [c0 + c for c in q] if c0 else q
        if rank == rows or c1 == cols:
            return pivots
        order = order[moved]
        # rows swap only from top on, below every earlier panel's pivots
        if earlier and (moved[top:] != np.arange(top, rows)).any():
            L[top:, :top] = L[moved[top:], :top]
        L21, k = P[rank:, q], rank - top
        live = L21.any(axis=1).nonzero()[0]
        if live.size:
            # L11 has a nonzero diagonal, so the loop takes its rows in order
            inverse = np.concatenate([np.tril(P[top:rank, q]), np.eye(k, dtype=np.int64)], axis=1)
            _eliminate_panel(inverse, p, 0)
            # 0 - L21 (-L11^-1) = L21 L11^-1
            mult = np.zeros((live.size, k), dtype=np.int64)
            _sub_mul_mod_p(mult, L21[live], -inverse[:, k:] % p, p)
            L21[live] = mult
            if L is None:
                L = np.empty((rows, min(rows, cols)), dtype=np.int64)
            L[rank:, top:rank] = L21
            earlier.append((top, rank))
        c0, c1 = c1, min(c1 + width, cols)


def rank_mod_p(matrix, p: int) -> int:
    """Exact rank over Z/p by dense Gaussian elimination."""
    return len(rank_profile_mod_p(matrix, p))


# peak bytes of build plus elimination per matrix entry, by tracemalloc, on
# the panels and multipliers of rank_profile_mod_p: with every column reached
# (a repeated row keeps the rank below the rows) the peak is 0.65 of the
# whole matrix at 684x1645 (5.8 of 9.0 MB), 0.85 and 0.98 at 571x990 and
# 540x861 of the tests' triangle reference; on a first panel of every
# column, 0.97 at 60x479, 1.09 at 75x494, 1.65 at 120x441 and 2.6 at 189x21,
# where the loop's temporaries and numpy's fixed iteration buffers (about
# 0.2 MB) weigh most. A caller's built array is copied a panel at a time on
# top of itself: 1.65 to 1.93 times it in panels, up to 3.6 on the smallest.
# Five matrices cover every case, and the build alone, which peaks at 1.03
# to 2.1 times the matrix. How many columns the kernel will reach is not
# known before it runs, so the guard counts them all.
_PEAK_BYTES_PER_ENTRY = 5 * 8


def conditions_bytes(rows: int, cols: int) -> int:
    """Estimated peak memory of building and eliminating a rows x cols matrix."""
    return _PEAK_BYTES_PER_ENTRY * rows * cols


def require_memory(need: int, subject: str, purpose: str):
    """Refuse with a ValueError work on `subject` whose peak memory, `need`
    bytes, exceeds the physical memory of the host."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"{subject} needs about {need / 2**30:.1f} GiB {purpose}, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )


def _require_fits(runs, cols: int) -> int:
    """The runs' rows, the one count behind a size check; a ValueError,
    before any of the matrix is built, if its elimination would not fit in
    physical memory. Each model states its rows once, as runs (widths,
    count, on_line) of points of one width profile clamped to the rows that
    can be nonzero on its columns (_bi_row, require_plane_fits,
    hf_trace_line); that one list feeds this guard, the rank bound and the
    builder, and values and sampling tags keep the raw widths."""
    rows = sum(n * sum(widths) for widths, n, _ in runs)
    # a matrix with no rows still allocates its column index arrays, and a
    # row call with no columns still holds its points' multiplicities, 8
    # bytes a point, which one column's 40 bytes a row cover
    require_memory(conditions_bytes(max(rows, 1), max(cols, 1)),
                   f"a {rows} x {cols} conditions matrix", "to eliminate")
    return rows


def conditions_matrix(points, runs, xexp, yexp, p: int, *, slope: int = 0) -> np.ndarray:
    """Derivative conditions at chart points against exponent columns.

    The columns are the monomials x^j y^l for (j, l) over xexp and yexp
    broadcast together, in C order. Each (widths, count, on_line) run takes
    its count of the points in turn. A point (x, y) of width profile
    (w_0, w_1, ...), (m, ..., 1) for an m-fold point and a SliceProfile's
    widths on the line, gives for each level e and c < w_e the row of
    d^c/dx^c d^e/dy^e of every column at (x, y); a point of a run on_line
    lies on y = x and gives d_u^c d_v^e instead, with u = (1, 1) along the
    line and v = (1, slope) across it. Rows run point by point, then by
    level, then by c.

    The tables of _derivative_tables, one per axis for all points, span the
    exponents the columns use on that axis from orders - 1 below the
    smallest, the lowest power a row reads, so a panel of a wide row costs
    its own width. A chart run is written in place, and no temporary grows
    with a point's rows times the columns: the run's x table has one table
    row per row of a point, a level's y factor one row per point. The
    Python-level work grows with the runs, not the points: one run for the
    bidegree model, a few for the plane. On the line, d_u^c d_v^e =
    (d_x + d_y)^c (d_x + slope d_y)^e is sum_i k_i d^(c+e-i)/dx^(c+e-i)
    d^i/dy^i, k_i the coefficient of z^i in (1 + z)^c (1 + slope z)^e, so
    row (c, e) is summed in place from c + e + 1 products of the same
    tables, each a temporary of one row per point.
    """
    shape = np.broadcast_shapes(np.shape(xexp), np.shape(yexp))
    cols = math.prod(shape)
    out = np.empty((_require_fits(runs, cols), cols), dtype=np.int64)
    if out.size == 0:
        return out
    coords, count = list(points), sum(n for _, n, _ in runs)
    if len(coords) != count:
        raise ValueError(f"{len(coords)} points for runs of {count}")
    # one exponent of each kind per column, behind the point and c axes
    xexp, yexp = (np.broadcast_to(e, shape) for e in (xexp, yexp))
    # a row d_u^c d_v^e takes derivatives of order up to c + e in x and in y
    orders = max(w + e for widths, _, _ in runs for e, w in enumerate(widths))
    starts = [max(0, int(e.min()) - orders + 1) for e in (xexp, yexp)]
    width = max(int(xexp.max()) - starts[0], int(yexp.max()) - starts[1]) + 1
    DX, DY = _derivative_tables(np.transpose(coords), orders, starts, width, p)
    if any(starts):
        xexp, yexp = xexp - starts[0], yexp - starts[1]
    r = i = 0
    for widths, n, on_the_line in runs:
        size = sum(widths)
        view = out[r : r + n * size].reshape((n, size) + shape)
        dx, dy = DX[i : i + n], DY[i : i + n]
        if not on_the_line:
            # view is contiguous, so the gather writes it with no buffer;
            # mode "raise" would buffer it
            np.take(dx[:, [c for w in widths for c in range(w)]], xexp, axis=2,
                    out=view, mode="clip")
        level = 0
        for e, w in enumerate(widths):
            if not on_the_line:
                view[:, level : level + w] *= dy[:, e][:, None, yexp]  # below p^2
            else:
                for c in range(w):
                    kappa = [1]
                    for root in (1,) * c + (slope,) * e:  # times (1 + root z)
                        kappa = [(a + root * b) % p for a, b in zip(kappa + [0], [0] + kappa)]
                    row = view[:, level + c]
                    row[...] = 0
                    for t, k in enumerate(kappa):
                        term = dx[:, c + e - t, xexp] * dy[:, t, yexp]
                        term %= p
                        term *= k
                        term %= p
                        row += term  # at most c + e + 1 terms below p
            level += w
        view %= p
        r, i = r + n * size, i + n
    return out


def _below(width: int, height: int, t: int) -> int:
    """The monomials x^j y^k of the width x height box with j + k < t:
    min(height, t - j) at each j < J = min(width, t), the first f of them
    height and the rest t - j."""
    J = min(width, t)
    f = min(J, max(0, t - height + 1))
    return f * height + (J - f) * t - (J * (J - 1) - f * (f - 1)) // 2


def _band(width: int, height: int, low: int, high: int, columns: slice = slice(None)):
    """The exponents (j, k) of the width x height box with low <= j + k <=
    high, j-major, those at `columns` of them: every model's columns. They
    are at least one at each j from max(0, low - height + 1) up to the last,
    so column c lies at some j <= j0 + c and a column range costs its own
    size and one entry per j up to its last column's."""
    j0 = max(0, low - height + 1)
    c = np.arange(*columns.indices(max(0, _below(width, height, high + 1)
                                           - _below(width, height, low))))
    j = np.arange(j0, min(width, j0 + int(c.max(initial=-1)) + 1))
    stop = np.minimum(height, high + 1 - j)
    ends = (stop - np.maximum(0, low - j)).cumsum()
    at = ends.searchsorted(c, "right")
    # the band at j ends at k = stop - 1, its ends[at]-th column
    return at + j0, c + stop[at] - ends[at]


def bi_conditions_matrix(deg: BiDegree, runs, points, p: int, *, origin: int = 0,
                         columns: slice = slice(None)) -> np.ndarray:
    """The rows of the runs at points against the columns of the bidegree
    (a, b) box that an origin-fold point at (0, 0) leaves, _band(a + 1,
    b + 1, origin, a + b), those at `columns` of them; origin = 0 keeps
    every column. Why the origin's rows leave, and why a smaller a reads a
    prefix of these columns: hf_biproj_row."""
    return conditions_matrix(points, runs, *_band(deg.a + 1, deg.b + 1, origin, deg.a + deg.b,
                                                  columns), p)


def _plane_box(d: int, corner_a: int, corner_b: int) -> tuple[int, int, int]:
    """(width, height, count) of the monomials x^j y^k of degree at most d
    that the corners leave. In the chart x0 = 1, x^j y^k has order d - j at
    Q1 = [0:1:0] and d - k at Q2 = [0:0:1], so they are the box j < width =
    d - alpha + 1, k < height = d - beta + 1, alpha and beta clamped to
    d + 1, cut at j + k <= d: _band(width, height, 0, d)."""
    width, height = (d + 1 - min(m, d + 1) for m in (corner_a, corner_b))
    return width, height, _below(width, height, d + 1)


def plane_conditions_matrix(d: int, corners, runs, points, p: int, *,
                            columns: slice = slice(None)) -> np.ndarray:
    """Conditions of the runs of require_plane_fits, a plane scheme's points
    other than its corners, on the degree-d forms that the corners
    (alpha, beta) leave, those at `columns` of the _band of their _plane_box,
    in the chart x0 = 1.

    The corners sit at Q1 = [0:1:0] and Q2 = [0:0:1] and the distinguished
    line at y = x, which avoids both: PGL(3) takes any two points and a line
    through neither there, and no dimension changes. There a corner
    condition is the coefficient of one monomial, so the corners give no
    rows and their monomials no columns. points holds one chart point per
    point of the runs, in order, and one more: the general points, then the
    points on the line, each keeping its x and moved to (x, x), as general
    as the others, and last one whose x is the slope of v = (1, slope)
    across the line. v points at neither Q2, as d/dy does, nor Q1, as d/dx
    does; a profile that does not fall strictly depends on it (schemes).
    """
    general = sum(n for _, n, on_line in runs if not on_line)
    *points, (slope, _) = points
    points = points[:general] + [(x, x) for x, _ in points[general:]]
    width, height, _ = _plane_box(d, *corners)
    return conditions_matrix(points, runs, *_band(width, height, 0, d, columns), p, slope=slope)


def require_plane_fits(d: int, corners, general, line=()) -> list:
    """The runs of a degree-d plane matrix, the general points as (multiplicity,
    count) pairs in order and one point on the line per widths in line, each
    kept to its rows of order at most d, the others vanishing on degree-d
    forms; refused with a ValueError, before any scheme or support exists,
    when too large for memory on the band that corners (alpha, beta) leave,
    the count of _plane_box."""
    runs = [(fat_profile(min(m, d + 1)), n, False) for m, n in general]
    clamped = (tuple(min(w, d + 1 - e) for e, w in enumerate(widths[: d + 1])) for widths in line)
    runs += [(widths, len(list(run)), True) for widths, run in groupby(clamped)]
    _require_fits(runs, _plane_box(d, *corners)[2])
    return runs


def _max_ranks(tags, count, runs, build, bounds, cfg: OracleConfig, *,
               tighten=None) -> dict[int, int]:
    """For each cut c in bounds, the max over trials of the rank of the first
    c columns, each trial's matrix a ColumnSource of build(points, columns)
    over the columns of the widest cut still below its bound.

    A nonzero minor of the generic matrix is an integer polynomial of degree
    far below p in the coordinates, so each trial returns the generic rank
    except with probability bounded by degree/p; the max over trials only
    sharpens this. Trial t draws count points, sample_support(derive_seed(
    cfg.seed, *tags, t), count, cfg.prime), the tags naming the model and
    its instance. Every model draws this way (hf_trace_line once, from its
    tags alone), so identical inputs give identical outputs in any call
    order.

    bounds[c] is the model's upper bound on that rank on any support, at
    most the rows, so a cut at its bound cannot move, and the trials stop,
    at most cfg.trials of them, once every value reaches its bound. A bound
    is the rows (_rank_bound) or, where tighten is given, tighten(c), a
    second bound on any support that the loop asks for once, after trial 0,
    for the cuts still below their rows: hf_biproj_row's curve steps
    (_curve_bound). The cuts are prefixes, so each value is the one all
    cfg.trials on every column would give. When every bound is 0, no trial
    draws.
    """
    best = dict.fromkeys(bounds, 0)
    rows = _require_fits(runs, max(bounds))
    for trial in range(cfg.trials):
        if trial == 1 and tighten is not None:
            bounds = {c: min(bound, tighten(c)) if best[c] < bound else bound
                      for c, bound in bounds.items()}
        cols = max((c for c in bounds if best[c] < bounds[c]), default=0)
        if not cols:
            break
        points = sample_support(derive_seed(cfg.seed, *tags, trial), count, cfg.prime)
        pivots = rank_profile_mod_p(ColumnSource((rows, cols), partial(build, points)), cfg.prime)
        best = {c: max(r, bisect_left(pivots, c)) for c, r in best.items()}
    return best


def _bi_row(b: int, cells, pairs, cfg: OracleConfig):
    """(max(cells), b), the widest bidegree of a row of points given in order
    as (multiplicity, count) pairs; the runs hf_biproj_row builds there, each
    point but the first of largest multiplicity m0, which sits at the origin,
    with its rows of order at most a + b and of level at most b, the others
    vanishing on the box; and m0. Raises a ValueError unless the cells are
    nonnegative, the prime exceeds the degree, and the runs fit in
    physical memory on the columns the origin leaves. From the pairs alone,
    so a caller can check a row before its multiplicities exist."""
    cells = tuple(cells)
    if not cells or min(cells) < 0:
        raise ValueError(f"cells must be nonempty and nonnegative, got {cells}")
    deg = BiDegree(max(cells), b)
    cfg.require_degree(deg.a + b)
    origin = max((m for m, n in pairs if n), default=0)
    at = next((i for i, (m, n) in enumerate(pairs) if n and m == origin), None)
    runs = [(fat_profile(min(m, deg.a + b + 1))[: b + 1], n - (i == at), False)
            for i, (m, n) in enumerate(pairs) if n > (i == at)]
    _require_fits(runs, deg.cells - _below(deg.a + 1, b + 1, origin))
    return deg, runs, origin


def _rank_bound(levels, runs, caps=()) -> int:
    """An upper bound, on any support, on the rank of derivative conditions
    against the columns x^j y^e with j < levels[e], levels not growing with
    e: (a+1,) * (b+1) for the bidegree (a, b) box, and for plane degree d
    the columns the corners leave, per power of y.

    The row d^c/dx^c d^e/dy^e at a chart point is c! e! at x^c y^e and zero
    on every column x^j y^k with j < c or k < e, so, levels not growing, it
    can be nonzero on the columns exactly when c < levels[e]: a point of a
    run off the line has min(w_e, levels[e]) such rows of level e. On a
    line, the level-e row d_u^c d_v^e, with u along the line, is d_u^c of
    the restriction of d_v^e F to the line, so the level-e rows of all its
    points factor through that restriction and together count at most
    caps[e], the dimension it ranges over (d - e + 1 on degree-d forms, none
    past the last cap): the trace count on the line, which certifies the
    Horace chains' specialized schemes, whose points on the line carry more
    conditions there than the forms can meet. The columns cap the sum.
    """
    rows = sum(n * sum(map(min, widths, levels)) for widths, n, on_line in runs if not on_line)
    line = [[n * w for w in widths] for widths, n, on_line in runs if on_line]
    rows += sum(map(min, map(sum, zip_longest(*line, fillvalue=0)), caps))
    return min(rows, sum(levels))


def _curve_bound(a: int, b: int, m: int, s: int, memo: dict) -> int:
    """An upper bound, on any support, on the rank of the conditions of s
    m-fold points on the bidegree (a, b) box, by curve steps; memo holds the
    bounds already found for this s, keyed by (a, b, m).

    It starts from min((a+1)(b+1), s C(m+1, 2)), the columns or the rows.
    Let L = (a, b; m^s) and E = (alpha, beta; mu^s) with (alpha+1)(beta+1) >
    s C(mu+1, 2). The forms of bidegree (alpha, beta) outnumber the
    conditions of s mu-fold points, so a nonzero one, F, vanishes to order
    mu at the points on every support, and multiplying by F embeds the
    ideal of L - E = (a-alpha, b-beta; (m-mu)^s) in that of L. So the ideal
    of L has dimension at least cells(L - E) - rank(L - E), and
    rank(L) <= cells(L) - cells(L - E) + bound(L - E): the residual exact
    sequence of the Horace steps, with a curve where they take a line. For
    each mu <= m and beta <= b, alpha is the least such, and the step is
    taken when alpha <= a and L.E = a beta + b alpha - s m mu < 0, where F's
    curve is a fixed part of L. At (9, 6) with five 5-fold points, C^4 D
    lies in the ideal, C the (2, 1) and D the (1, 2) curve through the
    points, and the bound is the rank, 69.
    """
    key = (a, b, m)
    if key not in memo:
        cells = (a + 1) * (b + 1)
        bound = min(cells, s * binom(m + 1, 2))
        for mu in range(1, m + 1):
            conditions = s * binom(mu + 1, 2)
            for beta in range(b + 1):
                alpha = conditions // (beta + 1)
                if alpha <= a and a * beta + b * alpha < s * m * mu:
                    bound = min(bound, cells - (a - alpha + 1) * (b - beta + 1)
                                + _curve_bound(a - alpha, b - beta, m - mu, s, memo))
        memo[key] = bound
    return memo[key]


def hf_biproj_row(b: int, cells, mults, cfg: OracleConfig = DEFAULT_CONFIG) -> dict[int, int]:
    """Generic Hilbert-function values at (a, b) for each a in cells.

    The first point of largest multiplicity m0 sits at the origin, as
    PGL(2) x PGL(2) takes any point to (0, 0) and keeps the others general,
    and the trials draw the other len(mults) - 1. There an m0-fold point's
    conditions are the coefficients of the x^j y^l with j + l < m0, so its
    rows, and the columns they kill, leave the matrix: the runs of _bi_row
    are built on the box columns with j + l >= m0, j-major. The rank on the
    (a, b) box is the _below(a + 1, b + 1, m0) columns killed there plus the
    rank of the kept columns with j <= a, a prefix of the (max(cells), b)
    matrix: one elimination per trial gives every cell, and the tags
    ("bi", b, mults) leave a out, so the support does not depend on the
    cells. The origin's rows are their own term in either bound on the box,
    its rows (_rank_bound) or its curve steps (_curve_bound), so the bound
    drops by the same count and stays sharp. Exactly the cells asked for
    are returned, keyed by a, and only they can hold the trials up.
    """
    mults, cells = tuple(mults), tuple(cells)
    deg, runs, origin = _bi_row(b, cells, [(m, len(list(g))) for m, g in groupby(mults)], cfg)
    killed = {a: _below(a + 1, b + 1, origin) for a in cells}
    cut = {a: (a + 1) * (b + 1) - killed[a] for a in cells}
    # two cells share a cut only when no column of it is left, and then both
    # bounds are 0
    bounds = {cut[a]: min(_rank_bound((a + 1,) * (b + 1), runs), cut[a]) for a in cells}
    tighten = None
    if len(set(mults)) == 1:
        at, memo = {cut[a]: a for a in cells}, {}
        tighten = lambda c: _curve_bound(at[c], b, origin, len(mults), memo) - killed[at[c]]
    ranks = _max_ranks(("bi", b, mults), sum(n for _, n, _ in runs), runs,
                       lambda points, columns: bi_conditions_matrix(
                           deg, runs, points, cfg.prime, origin=origin, columns=columns),
                       bounds, cfg, tighten=tighten)
    return {a: killed[a] + ranks[cut[a]] for a in cells}


class _Boxes:
    """The boxes whose values a row call has returned, as two staircases over
    the rows b of a call, in increasing order: least[i], the least a of an
    independent box (a, b') with b' <= b_i, its value the degree
    s C(m+1, 2), and most[i], the greatest a of a free box (a, b') with
    b' >= b_i, its value its cells. A rank seen on any support is at most
    the generic rank, so a box at the degree has independent conditions, and
    so does every box around it; a box at its cells has no form, and neither
    does any box inside it. Boxes are added, and cells looked up, with
    a >= b: for such a cell a box around or inside its transpose is around
    or inside the cell too, so no transpose is recorded. Each staircase is
    monotone: adding a box stops at the first row it does not move, and a
    lookup is one index."""

    def __init__(self, rows, degree: int):
        self.rows, self.degree = list(rows), degree
        self.least, self.most = [math.inf] * len(self.rows), [-1] * len(self.rows)

    def add(self, a: int, b: int, value: int):
        if value == self.degree:
            for i in range(bisect_left(self.rows, b), len(self.rows)):
                if self.least[i] <= a:
                    break
                self.least[i] = a
        if value == (a + 1) * (b + 1):
            for i in range(bisect_right(self.rows, b) - 1, -1, -1):
                if self.most[i] >= a:
                    break
                self.most[i] = a

    def settled(self, a: int, i: int) -> int | None:
        """The value of the box (a, b_i) if a box added settles it, else None."""
        if self.least[i] <= a:
            return self.degree
        if self.most[i] >= a:
            return (a + 1) * (self.rows[i] + 1)
        return None


def hf_uniform_cells(cells, pts: UniformFatPoints,
                     cfg: OracleConfig = DEFAULT_CONFIG) -> dict[tuple[int, int], int]:
    """Generic Hilbert-function values of s general m-fold points at each
    bidegree (a, b) in cells, keyed by (a, b).

    Swapping the two factors keeps general points general, so HF(a, b) =
    HF(b, a): each cell is read off the row of min(a, b) at max(a, b), and a
    cell and its transpose share one elimination per trial and one support
    in every command. Every row is checked from (s, m) before the s
    multiplicities exist and before the first elimination; a negative cell
    fails its row's check with a ValueError. The rows are visited from the
    outside in, the largest b first, then the smallest, and so on, each
    hf_biproj_row call asked only for the cells, as (max(a, b), min(a, b)),
    that no box returned so far settles (_Boxes). A row with no cell left
    takes no call: the golden table asks 4 of its 13 rows. Every settled
    value is exact, so the values are the ones a call per row would give.
    """
    normal = {(a, b): (max(a, b), min(a, b)) for a, b in cells}
    rows = {}
    for a, b in normal.values():
        rows.setdefault(b, set()).add(a)
    rows = {b: sorted(rows[b]) for b in sorted(rows)}
    for b, row in rows.items():
        _bi_row(b, row, [(pts.m, pts.s)], cfg)
    if not rows:
        return {}
    mults, boxes, values = (pts.m,) * pts.s, _Boxes(rows, pts.degree), {}
    for k in range(len(rows)):
        i = len(rows) - 1 - k // 2 if k % 2 == 0 else k // 2
        b = boxes.rows[i]
        for a in rows[b]:
            values[a, b] = boxes.settled(a, i)
        asked = [a for a in rows[b] if values[a, b] is None]
        if asked:
            for a, value in hf_biproj_row(b, asked, mults, cfg).items():
                values[a, b] = value
                boxes.add(a, b, value)
    return {cell: values[key] for cell, key in normal.items()}


def hf_biproj(deg: BiDegree, mults, cfg: OracleConfig = DEFAULT_CONFIG) -> int:
    """Generic Hilbert-function value at `deg` for the given multiplicities,
    which plus the ideal piece's dimension is (a+1)(b+1): hf_biproj_row's
    for this one cell on the row of min(a, b), so (a, b), (b, a) and a table
    row agree bit for bit.
    """
    deg = deg.normalized
    return hf_biproj_row(deg.b, (deg.a,), mults, cfg)[deg.a]


def hf_plane(d: int, scheme: PlaneScheme, cfg: OracleConfig = DEFAULT_CONFIG) -> int:
    """Dimension of the degree-d piece of the plane scheme's ideal.

    The corners give no rows and their monomials no columns
    (plane_conditions_matrix), so the value is the monomials they leave, the
    band of _plane_box, less the max rank over trials of the other points'
    conditions on those, the runs of require_plane_fits: 0 when they leave
    none, its one bound 0, so _max_ranks draws nothing. Its _rank_bound caps
    the line at d - e + 1.
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    cfg.require_degree(d)
    corners = (scheme.corner_a, scheme.corner_b)
    line = tuple(pr.widths for pr in scheme.on_line)
    runs = require_plane_fits(d, corners, [(m, len(list(g))) for m, g in groupby(scheme.general)],
                              line)  # before the first draw
    width, height, cols = _plane_box(d, *corners)
    tags = ("plane", d, *corners, scheme.general, line)
    levels = [min(width, d + 1 - k) for k in range(height)]
    bound = _rank_bound(levels, runs, range(d + 1, 0, -1))
    return cols - _max_ranks(tags, sum(n for _, n, _ in runs) + 1, runs,
                             lambda points, columns: plane_conditions_matrix(
                                 d, corners, runs, points, cfg.prime, columns=columns),
                             {cols: bound}, cfg)[cols]


def hf_trace_line(d: int, lengths, cfg: OracleConfig = DEFAULT_CONFIG) -> int:
    """Ideal dimension on the line: degree-d forms vanishing to the lengths.

    Collinear conditions at distinct points are Hermite-independent, so the
    answer is max(0, d+1 - sum); the univariate rank at random support, on
    min(l, d+1) rows per length l, is a cross-check, and a disagreement raises.
    """
    lengths = tuple(lengths)
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    if any(l < 1 for l in lengths):
        raise ValueError(f"lengths must be positive, got {lengths}")
    cfg.require_degree(d)
    expected = max(0, d + 1 - sum(lengths))
    runs = [((min(l, d + 1),), 1, False) for l in lengths]
    _require_fits(runs, d + 1)  # before the columns exist
    p = cfg.prime
    support = sample_support(derive_seed(cfg.seed, "line", d, lengths), len(lengths), p)
    M = conditions_matrix([(x, 0) for x, _ in support], runs, *_band(d + 1, 1, 0, d), p)
    got = d + 1 - rank_mod_p(M, p)
    if got != expected:
        raise ArithmeticError(
            f"univariate rank disagrees with the count: {got} != {expected}"
        )
    return expected


def check_reduction(deg: BiDegree, pts, cfg: OracleConfig = DEFAULT_CONFIG) -> bool:
    """Both sides of the plane-model translation, compared by oracle. With
    d = a + b, the monomials the corners leave are the (b+1) x (a+1) box of
    the bidegree model, so this checks the corner bookkeeping; the tests
    compare the plane model with the triangle of every degree-d monomial,
    the corners two more random chart points and the line y = 0. The plane
    side is the larger, the box against every point's rows, none at the
    origin, so after the degree is checked against the prime its guard
    refuses both, before the points exist."""
    # reduce_to_plane's degree and corners, before its s points exist
    cfg.require_degree(deg.a + deg.b)
    require_plane_fits(deg.a + deg.b, (deg.a, deg.b), [(pts.m, pts.s)])
    scheme, d = reduce_to_plane(deg, pts)
    bi_ideal = deg.cells - hf_biproj(deg, (pts.m,) * pts.s, cfg)
    return bi_ideal == hf_plane(d, scheme, cfg)
