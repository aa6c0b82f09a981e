"""Ground-truth Hilbert functions by exact linear algebra over a prime field.

Multiplicity conditions are evaluated at pseudo-random support with entries
in [1, p-1], p a large prime, and the rank of the conditions matrix is the
number of independent conditions. A nonzero minor of the generic matrix is an
integer polynomial of degree far below p in the coordinates, so each trial
returns the generic rank except with probability bounded by degree/p; taking
the maximum over trials only sharpens this. Both the bidegree and the plane
model run their trials through _max_ranks, which draws each trial's support
and stops the trials once every rank reaches its bound, so cfg.trials is an
upper bound. A bound comes from one of two rules, and no trial on any
support passes either, so no later trial could raise the maximum. The rows,
_rank_bound, count the rows that can be nonzero on the cut's columns, those
of each level on a line at most the trace count there, capped by the cut.
The curve steps, _curve_bound, hold for a bidegree row of equal
multiplicities: a form that vanishes to a lower order at every point exists
on every support, and multiplying by it embeds a smaller box's ideal in the
cell's. They are computed only for a cut still below its rows after the
first trial. Agreement under a second prime and under distinct seeds is
part of the test suite.

Everything is deterministic, and every model draws its support the same way:
sample_support(derive_seed(master seed, *tags, trial index), count, p), with
tags naming the model and its instance; the line model makes one draw, from
its tags alone. So identical inputs give identical outputs in any call order,
and how the support is drawn is stated in one function. For the bidegree
model the tags are ("bi", b, multiplicities), without a: one
elimination per trial of the widest (a, b) matrix of a row gives the rank at
every smaller a through its column rank profile. Swapping the two factors
keeps general points general, so HF(a, b) = HF(b, a), and every cell is read
off the row of min(a, b): hf_uniform_cells groups the cells of a table, a
verify rectangle or a single cell by that row, so a cell and its transpose
share one elimination per trial and one support in every command. A cell
can also be known from a box that contains it or that it contains, with no
row of its own. A rank seen on any support is at most the generic rank, so
a box whose rank is the degree s C(m+1, 2) has independent conditions, and
so does every box around it; a box whose rank is its cells has no form, and
neither does any box inside it. hf_uniform_cells visits the rows from the
outside in, the largest b first, then the smallest, and asks each only for
the cells that no box it has returned settles this way. Cells and boxes are
both taken as a >= b, so one orientation covers both: a box around the
transpose of such a box is also around the box, and one inside the
transpose is also inside it. The golden table asks 4 of its 13 rows.

The bidegree model puts the first point of largest multiplicity m0 at the
origin and draws the other s - 1: PGL(2) x PGL(2) takes any point to
(0, 0) and keeps the others general. There an m0-fold point's conditions are
the coefficients of the monomials x^j y^l with j + l < m0, so its rows, and
the columns they kill, leave the matrix: the other points' rows are built on
the box columns with j + l >= m0, j-major. The rank on the (a, b) box is the
columns killed there plus the rank of the first kept columns, those with
j <= a, and the count killed is the origin's own term in _rank_bound on the
box, so the bound drops by it too and stays sharp. The golden table's widest
matrix is 60x479 (75x494 on the whole box) and the large cell's 684x1645
(720x1681).

All three models share one builder, conditions_matrix, of derivative
conditions at chart points, and one column rule, _band: the monomials x^j y^k
of a box with low <= j + k <= high, j-major, which _below counts. They are
the (a+1) x (b+1) box from the origin's multiplicity up for bidegree (a, b),
the box the corners leave up to d for plane degree d, and a box of height 1
for the line. Each model states its rows once, as runs (widths, count,
on_line) of equal width profile clamped to the rows that can be nonzero, and
that one list feeds the size guard _require_fits, the only row count, the
rank bound and the builder. The builder fills one derivative table per axis
for all points together, over the exponents its columns use on that axis:
row 0 by the powers t^j = t^(j-1) t from t^j0, which repeated squaring
gives, and row c by d^c t^j = j d^(c-1) t^(j-1), with j0 the derivative
orders less one below the axis's smallest exponent, so a panel of a wide row
costs its own width. Each run takes one gather of its x factors straight
into its rows, one multiply per level by the y factor and one remainder, all
in place. The bidegree model is one run and the plane model a few, so the
builder's Python-level work does not grow with the number of points.

The plane model puts its corners at Q1 = [0:1:0] and Q2 = [0:0:1] and its
distinguished line at y = x, which avoids both: PGL(3) takes any two points
and a line through neither there, and no dimension changes. At those points
a corner condition is the coefficient of one monomial, so the corners give
no rows, the monomials they kill give no columns, and the value is the
columns left less the rank of the other points' rows on them. For a
reduction, d = a + b, those are the (b+1) x (a+1) box of the bidegree
model, so check_reduction checks the corner bookkeeping, on every point's
rows against the whole box, the larger side; the tests compare
the plane model with the triangle of every degree-d monomial, with the
corners as two more random chart points and the line at y = 0. The plane
model takes one point per profile in scheme order: the general points,
then the points on the line, which keep their x and move to (x, x), and one
more, whose x is the slope of the direction v = (1, slope) across the line.
A point on the line gives the rows d_u^c d_v^e with c + e <= d, u = (1, 1)
along the line, each a sum of c + e + 1 products of the same tables. The
direction v points at neither corner, as d/dy would at Q2: the scheme of a
profile that does not fall strictly, such as (3, 3, 2), depends on it.

A matrix whose elimination would not fit in physical memory is refused with
a ValueError before any of it is built.

rank_profile_mod_p is the one elimination kernel, and it is left-looking:
a column is fetched and updated only once the elimination reaches it, and
the elimination stops when the rank reaches the rows. Its one loop, on scalar
int64 rows, keeps each multiplier in the entry it clears and each pivot
where it is, so it leaves the lower factor L of P A = L U in place. A matrix
of at most 2^18 entries starts with that loop over rows + 64 columns, which
hold every column of verify's and the Horace chains' matrices and every
pivot of the golden table's; a larger matrix starts with 64 columns. Either
goes on in panels of 64. After a panel, the rows below its pivots keep the
multipliers L21 L11^-1 of its pivot columns, with L11^-1 from one more run
of the loop, and each later panel is caught up from every earlier one by
float64 BLAS matmuls, in the rows whose multiplier row is nonzero only. The
matmuls stay exact: one factor is split into 16-bit limbs, so every partial
sum is below k (p-1) (2^16-1) < 2^53 for an inner dimension k of at most
the panel width, which is 64 for p <= 2147516417 and 63 at the largest
prime OracleConfig accepts. The pivots are those of one pass of the loop
over every column, bit for bit.

The kernel fetches each panel as it starts it. The trial loop hands it a
ColumnSource, whose fetch builds those columns on the trial's support, so no
trial builds or holds a column past the last panel its elimination reaches:
the large cell's trial builds 684 x 704 of its 684 x 1645, a golden-table
row 60 x 124 of 60 x 479. Each panel is its own array, and once it is done
only its multipliers are kept, in one array of rows x min(rows, cols) for
every panel; the kernel writes only its part below the pivots. A caller's
array is copied a panel at a time and left as it was.
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
        # entries must fit in int64 through a*b accumulation in elimination.
        # The blocked elimination's float64 limb products need
        # k (p-1) (2^16-1) < 2^53 for its panel width k: that allows 64 only
        # for p <= 2147516417, about 2^31 + 2^15, so at the largest prime
        # accepted here, 2148532223, _panel_width gives 63.
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


def _distinct(rng: random.Random, count: int, p: int) -> list[int]:
    seen = set()
    out = []
    while len(out) < count:
        v = rng.randrange(1, p)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def sample_support(seed: int, count: int, p: int) -> tuple[tuple[int, int], ...]:
    """count chart points with pairwise-distinct x's and pairwise-distinct y's,
    reproducible from the seed.

    Distinctness per coordinate keeps the support off every ruling/vertical
    line shared by two points, which is what general position requires here.
    """
    rng = random.Random(seed)
    xs = _distinct(rng, count, p)
    ys = _distinct(rng, count, p)
    return tuple(zip(xs, ys))


def _derivative_tables(coords, orders: int, starts, width: int, p: int) -> np.ndarray:
    """D[k, ..., c, i] = d^c/dt^c t^j mod p at each t of coords[k], for
    j = starts[k] + i, i < width and c < orders: one table per axis k,
    filled for every t at once by two recurrences. Row 0 holds the powers,
    t^j = t^(j-1) t from t^starts[k], and row c holds d^c t^j = j d^(c-1)
    t^(j-1), so it is left zero at its first c places: d^c t^j is zero for
    j < c, and a table that starts above t^0 starts orders - 1 below the
    smallest exponent read from it.
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


# A matrix of at most this many entries starts with a first panel of
# rows + _panel_width(p) columns, a larger one with _panel_width(p). On one
# BLAS thread, left-looking, that first panel against panels of 64 from the
# start: the golden table's 60x479 (2^14.8 entries) takes 1.0 against 2.0 ms
# and a 125x120 Horace chain matrix 4.0 against 5.8 ms, while panels win on
# the plane matrices of reduce cells in the tests' triangle reference, with
# the corners drawn as chart points, 399x666 (2^18.0) in 29 against 31 ms and
# 571x990 in 50 against 56 ms, and on a dense random 210x294 (2^15.9), 17
# against 24 ms. So the plane crossover lies near 2^18 and the dense one
# below 2^15.9. No workload matrix lies between 2^15.7 and 2^20.1 entries,
# so any cutoff there routes them alike: the golden table (at most 60x479),
# verify (at most 189x21), the Horace chains (at most 66x64) and the plane
# reductions (75x494, and 120x441 at 2^15.7) take the first panel, and the
# large cell, 684x1645, is the only workload matrix in panels.
_SINGLE_PANEL_ENTRIES = 1 << 18


def _panel_width(p: int) -> int:
    """Largest k <= 64 with k (p-1) (2^16-1) < 2^53.

    An inner dimension of k keeps every partial sum of a limb product in
    _sub_mul_mod_p an exact float64 integer, whatever order BLAS adds in.
    """
    return min(64, ((1 << 53) - 1) // ((p - 1) * 0xFFFF))


def _eliminate_panel(M, p: int, rank: int, c0: int, c1: int, pivots: list, order=None) -> int:
    """Gaussian elimination over Z/p of columns c0..c1-1 of M from row
    `rank`, leaving the lower factor in place.

    The one elimination loop: every panel of rank_profile_mod_p, and
    [L11 | I] to [L11 | L11^-1] after each panel that leaves multipliers. Each
    pivot is the first nonzero entry at or below row `rank`, and its whole
    row is swapped up, as is its entry of `order` when given. The pivot
    keeps its value and the rest of its row, up to c1, is scaled by the
    pivot's inverse. Each row below keeps its entry
    in the pivot column, the multiplier, and takes that multiple of the
    scaled row off columns col+1..c1-1. With P the swaps, the panel's rows
    from `rank` on then hold P A = L U: L on and below the pivots of the
    pivot columns, U unit upper triangular above them and to their right.
    Appends the pivot columns and returns the new rank.
    """
    rows = M.shape[0]
    for col in range(c0, c1):
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
        top = M[rank, col + 1 : c1]
        top *= pow(int(column[0]), -1, p)
        top %= p
        # the rows to clear: the row swapped down holds a zero in col
        below = nz[1:]
        if below.size:
            hit = below + rank
            block = M[hit, col + 1 : c1]
            # one gather, then a view: column[below, None] indexes slower
            block -= column[below][:, None] * top
            # entries lie in (-(p-1)^2, p): floor division leaves [0, p)
            block -= block // p * p
            M[hit, col + 1 : c1] = block
        pivots.append(col)
        rank += 1
    return rank


def _sub_mul_mod_p(C, A, B, p: int):
    """C = (C - A @ B) mod p in place.

    C, A and B hold residues in [0, p). With B = 2^16 B1 + B0 split into
    16-bit limbs, A @ B is congruent to A @ B0 + (2^16 A mod p) @ B1. Both
    float64 matmuls are exact over an inner dimension of at most
    _panel_width(p), so a wider one goes in slices of that width. One float64
    buffer takes each product in turn, and C, subtracted from as int64, loses
    less than 2^54 a slice before the remainder: exact for up to 511 slices.
    rank_profile_mod_p needs at most 8: a first panel that leaves columns to
    later ones lies in a matrix of at most 2^18 entries and more than
    rows + 63 columns, so it has at most 480 rows and as many pivots.
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
    only the columns it reaches."""
    shape: tuple[int, int]
    fetch: Callable[[slice], np.ndarray]


def rank_profile_mod_p(matrix, p: int) -> list[int]:
    """Column rank profile over Z/p: the pivot columns of a left-to-right
    Gaussian elimination, in increasing order.

    They are the lexicographically first independent columns, so the rank
    of the first k columns is the number of pivots below k.

    matrix is a ColumnSource or a two-dimensional array, which is left as it
    was: its columns are copied a panel at a time, and a panel's entries
    are reduced mod p as it is fetched.

    The elimination is left-looking: a column is fetched only once the
    elimination reaches it, and it stops at rank == rows, so no column past
    that panel is built, copied or held. A matrix of at most
    _SINGLE_PANEL_ENTRIES entries takes the loop over a first panel of
    rows + _panel_width(p) columns, enough for rank == rows unless more than
    _panel_width(p) of them are dependent; a larger one starts with a panel
    of _panel_width(p) columns. Either goes on in panels of _panel_width(p)
    columns. Each panel is its own array, its rows put in the order of the
    swaps made so far as it is fetched. After a panel with pivot columns q
    and pivot rows top..rank-1, the rows below hold L21 in q, and
    A21 A11^-1 = L21 L11^-1, with L11^-1 from one swap-free run of the loop
    on [L11 | I]; of the panel only that multiplier is kept, in the columns
    top..rank-1 of one array of multipliers for every panel, whose rows take
    every later swap. Each new panel is caught up from every earlier one,
    oldest first, to A22 - A21 A11^-1 A12 by BLAS, A12 being the earlier
    pivot rows in the panel's columns. Only the rows whose L21 row is
    nonzero take part, and a panel with none keeps no multiplier. The panel
    then holds exactly the values one pass of the loop over every column
    leaves there, so every pivot is the same.
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
    # L[b:, t:b]: the multipliers L21 L11^-1 of the panel with pivot rows
    # t..b-1, in the pivot order; one array for every panel that has any
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
        top, q, moved = rank, [], np.arange(rows) if c1 < cols else None
        rank = _eliminate_panel(P, p, rank, 0, c1 - c0, q, moved)
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
            _eliminate_panel(inverse, p, 0, 0, 2 * k, [])
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


# peak bytes of build plus elimination per matrix entry, by tracemalloc. The
# trial loop builds only the panels its elimination reaches, and of each
# panel keeps only its multipliers, in one array of rows x min(rows, cols):
# with every column reached (a repeated row keeps the rank below the rows)
# the peak is 0.65 of the whole matrix at 684x1645, 0.85 and 0.98 at 571x990
# and 540x861 of the tests' triangle reference; on a first panel of every
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
    """The runs' rows, the one count behind a size check; a ValueError if too large."""
    rows = sum(n * sum(widths) for widths, n, _ in runs)
    # a matrix with no rows still allocates its column index arrays, and a
    # row call with no columns still holds its points' multiplicities, 8
    # bytes a point, which one column's 40 bytes a row cover
    require_memory(conditions_bytes(max(rows, 1), max(cols, 1)),
                   f"a {rows} x {cols} conditions matrix", "to eliminate")
    return rows


def conditions_matrix(points, runs, xexp, yexp, p: int, *, slope: int = 0) -> np.ndarray:
    """Derivative conditions at chart points against exponent columns.

    The columns are the monomials x^j y^l for (j, l) running over xexp and
    yexp broadcast together, in C order. runs holds (widths, count, on_line)
    triples, and each run takes its count of the points in turn. A point
    (x, y) with width profile (w_0, w_1, ...) gives, for each level e and
    each c < w_e, the row of d^c/dx^c d^e/dy^e of every column monomial at
    (x, y). The points of a run on_line are points of the line y = x, and
    theirs is instead the row of d_u^c d_v^e, with u = (1, 1) along the line
    and v = (1, slope) across it. A fat point of multiplicity m is the
    profile (m, ..., 1); a point on the line takes its SliceProfile widths.
    Rows run point by point, then by level, then by c.

    The derivative tables DX and DY of all points span the x and the y
    exponents of the columns, each from orders - 1 below its axis's smallest
    exponent, the lowest power a row of derivative order below orders reads,
    to its largest. They are filled together by two recurrences: t^j =
    t^(j-1) t from t^j0 for the powers in row 0, and d^c t^j = j d^(c-1)
    t^(j-1) for row c, zero where j < c. The rows of a chart run are
    written in place in the preallocated matrix: one gather puts the x
    factor d^c x^j of every row (c, e) of the run straight into it, each
    level is then multiplied by its y factor d^e y^l, and one remainder
    reduces the run. The temporaries are the run's x table, one
    row of DX per row of a point, and the y factor of a level, one row per
    point; no temporary grows with the rows of a point times the columns.
    On the line, d_u^c d_v^e = (d_x + d_y)^c (d_x + slope d_y)^e is
    sum_i k_i d^(c+e-i)/dx^(c+e-i) d^i/dy^i, with k_i the coefficient of z^i
    in (1 + z)^c (1 + slope z)^e, so row (c, e) of a run is summed in place
    from c + e + 1 products of the same tables, one per i, each a temporary
    of one row per point.
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
    """One row per derivative condition against the columns of the bidegree
    (a, b) box that an origin-fold point at (0, 0) leaves, _band(a + 1,
    b + 1, origin, a + b), those at `columns` of them.

    A point of multiplicity m contributes the rows (c,e) with c+e <= m-1:
    the (c,e)-derivative of a bidegree-(a,b) chart polynomial at the point.
    At (0, 0) those rows are the coefficients of x^j y^l with j + l < m,
    so hf_biproj_row puts one point there and builds only the others' rows,
    the runs of _bi_row; origin = 0 keeps every column. The band runs
    j-major, so the columns with j <= a' are a prefix for each a' <= a,
    which hf_biproj_row reads smaller a off, and its trials build them a
    panel at a time. The build takes no temporary that grows with a point's
    rows times the columns (see conditions_matrix).
    """
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

    points holds one chart point per point of the runs, in order, and one
    more: the general points, then one per point on the distinguished line
    y = x, which keeps its x and moves to (x, x), and last a point whose x
    is the slope of the direction v = (1, slope) across the line. The line
    avoids both corners, and v is general: it does not point at Q2, as d/dy
    does, or at Q1, as d/dx does.
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
    c columns.

    Trial t draws count points, sample_support(derive_seed(cfg.seed, *tags,
    t), count, cfg.prime), and hands the kernel the conditions matrix of the
    runs on them, over the columns of the widest cut still below its bound,
    as a ColumnSource: the kernel builds the columns c0..c1-1 by
    build(points, slice(c0, c1)) as it reaches them, and no others. The
    rank of the first c columns is the number of pivots before column c.
    bounds[c] is the model's upper bound on that rank on any support, at
    most the rows: no trial passes it, so a cut at its bound cannot move,
    and once every value reaches its bound the trials stop. A cut's bound
    comes from one of two rules: the rows (_rank_bound), or, where tighten
    is given, tighten(c), a second bound on any support that the loop asks
    for once, after trial 0, and only for the cuts still below their rows;
    hf_biproj_row's is the curve steps of _curve_bound. The cuts are
    prefixes, so each value is the one all cfg.trials on every column would
    give. When every bound is 0 there is nothing to eliminate, and no trial
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
    nonnegative, the prime exceeds the degree and m0, and the runs fit in
    physical memory on the columns the origin leaves. From the pairs alone,
    so a caller can check a row before its multiplicities exist."""
    cells = tuple(cells)
    if not cells or min(cells) < 0:
        raise ValueError(f"cells must be nonempty and nonnegative, got {cells}")
    deg = BiDegree(max(cells), b)
    cfg.require_degree(deg.a + b)
    origin = max((m for m, n in pairs if n), default=0)
    cfg.require_degree(origin)
    at = next((i for i, (m, n) in enumerate(pairs) if n and m == origin), None)
    runs = [(fat_profile(min(m, deg.a + b + 1))[: b + 1], n - (i == at), False)
            for i, (m, n) in enumerate(pairs) if n > (i == at)]
    _require_fits(runs, deg.cells - _below(deg.a + 1, b + 1, origin))
    return deg, runs, origin


def _rank_bound(levels, runs, caps=()) -> int:
    """An upper bound, on any support, on the rank of derivative conditions
    against the columns x^j y^e with j < levels[e], where levels does not
    grow with e: (a+1,) * (b+1) for the bidegree (a, b) box, and for plane
    degree d the columns that the corners leave, per power of y.

    The row d^c/dx^c d^e/dy^e at a chart point is c! e! at x^c y^e and zero
    on every column x^j y^k with j < c or k < e, so, levels not growing, it
    can be nonzero on the columns exactly when c < levels[e]. runs holds the
    (widths, count, on_line) triples the model builds. A point of a run off
    the line has min(w_e, levels[e]) such rows of level e. At a point of a
    run on a line the level-e row d_u^c d_v^e, with u along the line, is
    d_u^c of the restriction of d_v^e F to the line: the level-e rows of all
    of them factor through that restriction, so together they count at
    most caps[e], the dimension it ranges over (d - e + 1 on degree-d forms;
    none past the last cap). This is the trace count on the line. The sum
    is capped by the columns.
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
    mu at the s points on every support. Multiplying by F embeds the ideal
    of L - E = (a-alpha, b-beta; (m-mu)^s) in the ideal of L, so the ideal of
    L has dimension at least cells(L - E) - rank(L - E), and
    rank(L) <= cells(L) - cells(L - E) + bound(L - E). This is the residual
    exact sequence of the Horace steps, with a curve where they take a line.
    For each mu <= m and beta <= b, alpha is the least such, and the step
    is taken when alpha <= a and L.E = a beta + b alpha - s m mu < 0, where
    F's curve is a fixed part of L. At (9, 6) with five 5-fold points, C^4 D
    lies in the ideal, C the (2, 1) curve and D the (1, 2) curve through
    the points, and the bound is the rank, 69.
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

    The first point of largest multiplicity m0 sits at the origin, where its
    rows are the coefficients of the monomials it kills, and the trials draw
    the other len(mults) - 1 points. The rank on the (a, b) box is then the
    _below(a + 1, b + 1, m0) columns of the box below the band plus the rank
    of the other points' rows on the band's columns with j <= a: a prefix of
    the (max(cells), b) matrix, j-major, so one elimination per trial gives
    every cell. Each cut's bound is its rows, _rank_bound, and when every
    multiplicity is equal, for a cut still below that after the first
    trial, also its curve steps, _curve_bound, which the trial loop asks
    for then, with one memo for the row. The origin's rows are its own term
    in either bound on the box, so each cut's bound drops by the same count
    and stays sharp. Exactly the cells asked for are returned, keyed by a,
    and only they can hold the trials up: the trials stop once each has
    reached its bound. The support does not depend on the cells.
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
    """The boxes whose values a row call has returned, as two staircases
    over the rows b of a call, in increasing order: least[i], the least a
    of an independent box (a, b') with b' <= b_i, its value the degree, and
    most[i], the greatest a of a free box (a, b') with b' >= b_i, its value
    its cells. A rank seen on any support is at most the generic rank, so a
    box at the degree has independent conditions, and so does every box
    around it; a box at its cells has no form, and neither does any box
    inside it. Boxes are added, and cells looked up, with a >= b; for such a
    cell a box around or inside its transpose is around or inside the cell
    too, so no transpose is recorded. Each staircase is monotone, so adding
    a box stops at the first row it does not move, and a lookup is one index.
    """

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

    HF(a, b) = HF(b, a), so each cell is read off the row of min(a, b) at
    max(a, b). Every row is checked from (s, m) before the s multiplicities
    exist and before the first elimination; a negative cell fails its row's
    check with a ValueError. The rows are then visited from the outside in,
    the largest b first, then the smallest, and so on, and each
    hf_biproj_row call is asked only for the cells that no box returned so
    far settles by containment: a box around one whose value is the
    degree s C(m+1, 2), or inside one whose value is its cells, has the
    same kind of value (_Boxes). The cells are asked, and the boxes kept,
    as (max(a, b), min(a, b)), and one orientation covers both: for a cell
    with a >= b, a box around or inside the transpose of a box is around or
    inside the box too. A row with no cell left takes no call. Every
    settled value is exact, so the values are the ones a call per row would
    give.
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
    """Generic Hilbert-function value at `deg` for the given multiplicities.

    Max over trials of the conditions-matrix rank; the value plus the ideal
    piece's dimension is (a+1)(b+1). Read off the row of min(a, b) with this
    one cell, on the row's support, so (a, b), (b, a) and a table row agree
    bit for bit.
    """
    deg = deg.normalized
    return hf_biproj_row(deg.b, (deg.a,), mults, cfg)[deg.a]


def hf_plane(d: int, scheme: PlaneScheme, cfg: OracleConfig = DEFAULT_CONFIG) -> int:
    """Dimension of the degree-d piece of the plane scheme's ideal.

    The corners sit at Q1 = [0:1:0] and Q2 = [0:0:1], where each of their
    conditions is the coefficient of one monomial. So the value is the
    number of monomials they leave, the band of _plane_box, less the max
    over trials of the rank of the other points' conditions on those, the
    runs of require_plane_fits: 0, with no draw, when they leave none. The
    trials stop once the rank reaches its _rank_bound, whose line caps
    d - e + 1 are the trace count on y = x.
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    cfg.require_degree(d)
    corners = (scheme.corner_a, scheme.corner_b)
    line = tuple(pr.widths for pr in scheme.on_line)
    runs = require_plane_fits(d, corners, [(m, len(list(g))) for m, g in groupby(scheme.general)],
                              line)  # before the first draw
    width, height, cols = _plane_box(d, *corners)
    if cols == 0:
        return 0
    tags = ("plane", d, *corners, scheme.general, line)
    levels = [min(width, d + 1 - k) for k in range(height)]
    bound = _rank_bound(levels, runs, range(d + 1, 0, -1))
    # one point per point of the runs, and one more for the direction across the line
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
    """Both sides of the plane-model translation, compared by oracle. The plane side is the
    larger: the bidegree box against every point's rows, none at the origin. So after the
    degree and prime checks its guard refuses both, before the points exist."""
    # reduce_to_plane's degree and corners, before its s points exist
    cfg.require_degree(deg.a + deg.b)
    cfg.require_degree(pts.m if pts.s else 0)
    require_plane_fits(deg.a + deg.b, (deg.a, deg.b), [(pts.m, pts.s)])
    scheme, d = reduce_to_plane(deg, pts)
    bi_ideal = deg.cells - hf_biproj(deg, (pts.m,) * pts.s, cfg)
    return bi_ideal == hf_plane(d, scheme, cfg)
