"""Ground-truth Hilbert functions by exact linear algebra over a prime field.

Multiplicity conditions are evaluated at pseudo-random support with entries
in [1, p-1], p a large prime, and the rank of the conditions matrix is the
number of independent conditions. A nonzero minor of the generic matrix is an
integer polynomial of degree far below p in the coordinates, so each trial
returns the generic rank except with probability bounded by degree/p; taking
the maximum over trials only sharpens this. Both the bidegree and the plane
model run their trials through _max_ranks, which draws each trial's support
and stops the trials once every rank reaches its model's bound, so
cfg.trials is an upper bound. The bound counts the rows that can be nonzero
on the cut's columns on any support, capped by the cut: for bidegree (a, b)
the conditions (c, e) with c <= a and e <= b, for the plane every row of
the fat points and, at each level e, at most d-e+1 rows of the points on
the line, whose level-e rows meet only the columns x^j y^e. No trial passes
it, so no later trial could raise the maximum. Agreement under a second
prime and under distinct seeds is part of the test suite.

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
share one elimination per trial and one support in every command.

All three models share one builder, conditions_matrix: derivative conditions
at chart points against a set of exponent columns, a box for bidegree
(a, b), a triangle for plane degree d and a segment for the line. It
fills one derivative table for all points together, row 0 by the powers
t^j = t^(j-1) t and row c by d^c t^j = j d^(c-1) t^(j-1), and writes the
rows of each run of points with equal width profile one level at a time,
each level one block multiplied and reduced in place. The bidegree model is
one run and the plane model a few, so the builder's Python-level work does
not grow with the number of points. The plane model takes one point per
profile in scheme order: the general points, then the corners Q1 and Q2,
drawn as two more random chart points off the line y = 0 since PGL(3) takes
any two general points to them (no dimension changes), then the points on
the line, which keep their x and move to (x, 0). A matrix whose elimination
would not fit in physical memory is refused with a ValueError before it is
allocated.

rank_profile_mod_p is the one elimination kernel, and it is left-looking:
a column is updated only once the elimination reaches it, and the
elimination stops when the rank reaches the rows. Its one loop, on scalar
int64 rows, keeps each multiplier in the entry it clears and each pivot
where it is, so it leaves the lower factor L of P A = L U in place. A matrix
of at most 2^18 entries starts with that loop over rows + 64 columns, which
hold every column of verify's and the Horace chains' matrices and every
pivot of the golden table's; a larger matrix starts with 64 columns. Either
goes on in panels of 64. After a panel, the rows below its pivots keep the
multipliers L21 L11^-1 in its pivot columns, with L11^-1 from one more run
of the loop, and each later panel is caught up from every earlier one by
float64 BLAS matmuls, in the rows whose multiplier row is nonzero only. The
matmuls stay exact: one factor is split into 16-bit limbs, so every partial
sum is below k (p-1) (2^16-1) < 2^53 for an inner dimension k of at most
the panel width, which is 64 for p <= 2147516417 and 63 at the largest
prime OracleConfig accepts. The pivots are those of one pass of the loop
over every column, bit for bit.

The kernel eliminates an int64 copy of its argument, so a caller's matrix is
left as it was, except in the trial loop: _max_ranks passes overwrite=True,
so the kernel eliminates the matrix just built in place, and the loop drops
it before the next trial builds its own. There, one trial's matrix is alive
at a time and no copy is made.
"""

import hashlib
import math
import os
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import groupby, zip_longest

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


def _derivative_tables(coords, orders: int, max_exp: int, p: int) -> np.ndarray:
    """D[..., c, j] = d^c/dt^c t^j mod p at each t of coords, for c < orders
    and j <= max_exp, one table filled for every t at once by two
    recurrences: row 0 holds the powers, t^j = t^(j-1) t, and row c holds
    d^c t^j = j d^(c-1) t^(j-1) for j >= c and zero below.
    """
    coords = np.asarray(coords, dtype=np.int64) % p
    D = np.zeros(coords.shape + (orders, max_exp + 1), dtype=np.int64)
    D[..., 0, 0] = 1
    for j in range(1, max_exp + 1):
        D[..., 0, j] = D[..., 0, j - 1] * coords % p
    for c in range(1, orders):
        D[..., c, c:] = D[..., c - 1, c - 1 : max_exp] * np.arange(c, max_exp + 1) % p
    return D


# A matrix of at most this many entries starts with a first panel of
# rows + _panel_width(p) columns, a larger one with _panel_width(p). On one
# BLAS thread, left-looking, that first panel against panels of 64 from the
# start: the golden table's 75x494 (2^15.2 entries) takes 2.2 against 3.8 ms
# and the widest Horace chain matrix, 125x120, 4.0 against 5.8 ms, while
# panels win on the plane matrices of reduce cells, 399x666 (2^18.0) in 29
# against 31 ms and 571x990 in 50 against 56 ms, and on a dense random
# 210x294 (2^15.9), 17 against 24 ms. So the plane crossover lies near 2^18
# and the dense one below 2^15.9. No workload matrix lies between 2^15.2 and
# 2^18.8 entries, so any cutoff there routes them alike: the golden table,
# verify (at most 210x42) and the Horace chains take the first panel, the
# plane reductions (540x861, 571x990) and the large cell go in panels.
_SINGLE_PANEL_ENTRIES = 1 << 18


def _panel_width(p: int) -> int:
    """Largest k <= 64 with k (p-1) (2^16-1) < 2^53.

    An inner dimension of k keeps every partial sum of a limb product in
    _sub_mul_mod_p an exact float64 integer, whatever order BLAS adds in.
    """
    return min(64, ((1 << 53) - 1) // ((p - 1) * 0xFFFF))


def _eliminate_panel(M, p: int, rank: int, c0: int, c1: int, pivots: list) -> int:
    """Gaussian elimination over Z/p of columns c0..c1-1 of M from row
    `rank`, leaving the lower factor in place.

    The one elimination loop: every panel of rank_profile_mod_p, and
    [L11 | I] to [L11 | L11^-1] after each panel that leaves multipliers. Each
    pivot is the first nonzero entry at or below row `rank`, and its whole
    row is swapped up. The pivot keeps its value and the rest of its row, up
    to c1, is scaled by the pivot's inverse. Each row below keeps its entry
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


def rank_profile_mod_p(matrix, p: int, *, overwrite: bool = False) -> list[int]:
    """Column rank profile over Z/p: the pivot columns of a left-to-right
    Gaussian elimination, in increasing order.

    They are the lexicographically first independent columns, so the rank
    of the first k columns is the number of pivots below k.

    The elimination runs on an int64 copy of matrix, so the argument is left
    as it was. With overwrite=True, an int64 ndarray argument is eliminated
    in place instead (any other argument is still copied): its entries are
    then reduced mod p and left in the elimination's state, so only a
    caller that never reads the matrix again may pass it.

    The elimination is left-looking: a column is touched only once the
    elimination reaches it, and it stops at rank == rows. A matrix of at most
    _SINGLE_PANEL_ENTRIES entries takes the loop over a first panel of
    rows + _panel_width(p) columns, enough for rank == rows unless more than
    _panel_width(p) of them are dependent; a larger one starts with a panel
    of _panel_width(p) columns. Either goes on in panels of _panel_width(p)
    columns. After a panel with pivot columns q and pivot rows top..rank-1,
    the rows below hold L21 in q, and A21 A11^-1 = L21 L11^-1, with L11^-1
    from one swap-free run of the loop on [L11 | I]; that multiplier
    replaces L21 in place, so later whole-row swaps carry it. Each new
    panel's columns are caught up from every earlier panel, oldest first, to
    A22 - A21 A11^-1 A12 by BLAS, A12 being the earlier pivot rows in the
    panel's columns. Only the rows whose L21 row is nonzero take part, and a
    panel with none adds no update. The panel then holds exactly the values
    one pass of the loop over every column leaves there, so every pivot is
    the same.
    """
    M = np.asarray(matrix, dtype=np.int64) if overwrite else np.array(matrix, dtype=np.int64)
    if M.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if M.size == 0:
        return []
    if M.view(np.uint64).max() >= p:  # a negative entry reads as 2^63 or more
        M %= p
    rows, cols = M.shape
    width = _panel_width(p)
    c1 = min(cols, rows + width if M.size <= _SINGLE_PANEL_ENTRIES else width)
    pivots = []
    rank = _eliminate_panel(M, p, 0, 0, c1, pivots)
    top, earlier = 0, []
    while rank < rows and c1 < cols:
        q, k = pivots[top:], rank - top
        L21 = M[rank:, q]
        live = L21.any(axis=1).nonzero()[0]
        if live.size:
            # L11 has a nonzero diagonal, so the loop takes its rows in order
            inverse = np.concatenate([np.tril(M[top:rank, q]), np.eye(k, dtype=np.int64)], axis=1)
            _eliminate_panel(inverse, p, 0, 0, 2 * k, [])
            # 0 - L21 (-L11^-1) = L21 L11^-1
            mult = np.zeros((live.size, k), dtype=np.int64)
            _sub_mul_mod_p(mult, L21[live], -inverse[:, k:] % p, p)
            L21[live] = mult
            M[rank:, q] = L21
            earlier.append((top, rank, q))
        c0, c1 = c1, min(c1 + width, cols)
        # oldest first: an earlier panel's pivot rows, its A12, lie below
        # every panel before it and take their catch-ups first
        for t, b, q in earlier:
            mult = M[b:, q]
            live = mult.any(axis=1).nonzero()[0]
            block = M[b + live, c0:c1]
            _sub_mul_mod_p(block, mult[live], M[t:b, c0:c1], p)
            M[b + live, c0:c1] = block
        top = rank
        rank = _eliminate_panel(M, p, rank, c0, c1, pivots)
    return pivots


def rank_mod_p(matrix, p: int) -> int:
    """Exact rank over Z/p by dense Gaussian elimination."""
    return len(rank_profile_mod_p(matrix, p))


# peak bytes of build plus elimination per matrix entry, by tracemalloc. The
# trial loop eliminates the matrix it built in place: with panels, the
# matrix and a panel's catch-up buffers come to 1.2 to 1.4 times it
# (720x1681, 571x990, 540x861, 300x961); on a first panel of every column
# the loop's temporaries of the block below each pivot take it to 1.7 at
# 75x494, 2.4 at 210x42, 2.8 at 240x169 and 3.3 at 120x120, where numpy's
# fixed iteration buffers (about 0.2 MB) weigh most. A call that keeps the
# copy adds one matrix: 2.2 to 2.4 times in panels, up to 4.3 on the
# smallest. Five matrices cover every case, and the build alone, which
# peaks at 1.03 to 1.7 times the matrix.
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


def _require_fits(rows: int, cols: int):
    # a matrix with no rows still allocates its column index arrays
    require_memory(conditions_bytes(max(rows, 1), cols),
                   f"a {rows} x {cols} conditions matrix", "to eliminate")


def conditions_matrix(points, profiles, xexp, yexp, p: int) -> np.ndarray:
    """Derivative conditions at chart points against exponent columns.

    The columns are the monomials x^j y^l for (j, l) running over xexp and
    yexp broadcast together, in C order. Point (x, y) with width profile
    (w_0, w_1, ...) gives, for each level e and each c < w_e, the row of
    d^c/dx^c d^e/dy^e of every column monomial at (x, y). A fat point of
    multiplicity m is the profile (m, ..., 1); a point on the line y = 0
    takes its SliceProfile widths. Rows run point by point, then by level,
    then by c.

    The derivative tables DX and DY of all points are one table, filled
    together by two recurrences: t^j = t^(j-1) t for the powers in row 0,
    and d^c t^j = j d^(c-1) t^(j-1) for row c, zero where j < c. Points
    come in runs of equal profile (the bidegree model is one run, the plane
    model a few), and each level of a run is one block of rows of the
    preallocated matrix, written in place by one multiply and one remainder.
    The only temporaries are the two gathered factors of a block, the x one
    no larger than the block and the y one no larger than a row per point.
    """
    profiles = [tuple(widths) for widths in profiles]
    shape = np.broadcast_shapes(np.shape(xexp), np.shape(yexp))
    rows, cols = sum(map(sum, profiles)), math.prod(shape)
    _require_fits(rows, cols)
    out = np.empty((rows, cols), dtype=np.int64)
    if rows == 0:
        return out
    # strict: a point without a profile, or a profile without a point, is an error
    coords = [xy for xy, _ in zip(points, profiles, strict=True)]
    # both exponent arrays get the full number of axes, behind the point and c axes
    xexp, yexp = (np.reshape(e, (1,) * (len(shape) - np.ndim(e)) + np.shape(e))
                  for e in (xexp, yexp))
    orders = max(max(len(w), *w) for w in profiles if w)
    DX, DY = _derivative_tables(np.transpose(coords), orders,
                                int(max(xexp.max(), yexp.max())), p)
    r = i = 0
    for widths, run in groupby(profiles):
        n, size = len(list(run)), sum(widths)
        view = out[r : r + n * size].reshape((n, size) + shape)
        level = 0
        for e, w in enumerate(widths):
            block = view[:, level : level + w]
            np.multiply(DX[i : i + n, :w, xexp], DY[i : i + n, e][:, None, yexp], out=block)
            np.remainder(block, p, out=block)
            level += w
        r, i = r + n * size, i + n
    return out


def bi_conditions_matrix(deg: BiDegree, mults, points, p: int) -> np.ndarray:
    """One row per derivative condition against the monomial basis x^j y^l.

    Point i of multiplicity m contributes the rows (c,e) with c+e <= m-1:
    the (c,e)-derivative of a bidegree-(a,b) chart polynomial at the point.
    Column j*(b+1) + l holds x^j y^l; hf_biproj_row relies on this j-major
    order to read smaller a off a prefix of the columns.
    """
    return conditions_matrix(points, map(fat_profile, mults),
                             np.arange(deg.a + 1)[:, None], np.arange(deg.b + 1), p)


def plane_conditions_matrix(d: int, scheme: PlaneScheme, points, p: int) -> np.ndarray:
    """Conditions of a plane scheme on degree-d forms, in the chart x0 = 1.

    points holds one chart point per profile, in scheme order: the general
    points and the two corners, each (x, y) with y != 0, then one per
    profiled point on the distinguished line, which keeps its x and moves
    to (x, 0). A monomial of degree d is the column x^j y^k with j + k <= d.
    """
    mults = scheme.general + (scheme.corner_a, scheme.corner_b)
    # partials of order above d vanish on degree-d forms
    profiles = [fat_profile(min(m, d + 1)) for m in mults]
    profiles += [pr.widths for pr in scheme.on_line]
    points = list(points[: len(mults)]) + [(x, 0) for x, _ in points[len(mults) :]]
    j, k = np.triu_indices(d + 1)
    return conditions_matrix(points, profiles, j, k - j, p)


def require_plane_fits(d: int, points, line_rows: int = 0):
    """Refuse with a ValueError a degree-d plane conditions matrix that would
    not fit in physical memory, from its fat points as (multiplicity, count)
    pairs and the rows of its on-line points, before any scheme or support
    exists."""
    _require_fits(line_rows + _chart_rows(d, points), binom(d + 2, 2))


def _chart_rows(d: int, points) -> int:
    """Rows of fat points, as (multiplicity, count) pairs, on degree-d forms."""
    # partials of order above d vanish on degree-d forms, as in the builder
    return sum(n * binom(min(m, d + 1) + 1, 2) for m, n in points)


def _max_ranks(tags, count, build, bounds, cfg: OracleConfig) -> dict[int, int]:
    """For each cut c in bounds, the max over trials of the rank of the first
    c columns.

    Trial t draws count points, sample_support(derive_seed(cfg.seed, *tags,
    t), count, cfg.prime), and eliminates build(points), the conditions
    matrix on them; the rank of its first c columns is the number of pivots
    before column c. bounds[c] is the model's upper bound on that rank on
    any support, at most the rows: no trial passes it, so once every value
    reaches its bound the trials stop, and each value is the one all
    cfg.trials would give.
    """
    best = dict.fromkeys(bounds, 0)
    for trial in range(cfg.trials):
        M = build(sample_support(derive_seed(cfg.seed, *tags, trial), count, cfg.prime))
        # no one else holds the matrix: eliminate it in place, and free it
        # before the next trial builds its own
        pivots = rank_profile_mod_p(M, cfg.prime, overwrite=True)
        del M
        best = {c: max(r, bisect_left(pivots, c)) for c, r in best.items()}
        if best == bounds:
            break
    return best


def _bi_row_degree(b: int, cells, counts, cfg: OracleConfig) -> BiDegree:
    """(max(cells), b), the widest bidegree of a row of points with counts[m]
    of multiplicity m. Raises a ValueError unless the cells are nonnegative,
    the prime exceeds the degree and the top multiplicity, and the matrix
    fits in physical memory; from the counts alone, so a caller can check a
    row before its multiplicities exist."""
    cells = tuple(cells)
    if not cells or min(cells) < 0:
        raise ValueError(f"cells must be nonempty and nonnegative, got {cells}")
    deg = BiDegree(max(cells), b)
    cfg.require_degree(deg.a + b)
    cfg.require_degree(max((m for m, n in counts.items() if n), default=0))
    _require_fits(sum(n * binom(m + 1, 2) for m, n in counts.items()), deg.cells)
    return deg


def _bi_rank_bound(a: int, b: int, counts: Counter) -> int:
    """min(N(a, b), (a+1)(b+1)), an upper bound on the rank of the (a, b)
    conditions of points with counts[m] of multiplicity m, on any support.

    The row of condition (c, e) at a point holds d^c/dx^c d^e/dy^e x^j y^l,
    which is zero on every column j <= a, l <= b when c > a or e > b,
    whatever the support, and c! e! at x^c y^e otherwise. So exactly
    N(a, b) = sum over points of sum_{e <= min(m-1, b)} min(a+1, m-e) rows
    are nonzero there. Its cost grows with the distinct multiplicities,
    not with the points.
    """
    rows = sum(n * sum(min(a + 1, m - e) for e in range(min(m, b + 1)))
               for m, n in counts.items())
    return min(rows, (a + 1) * (b + 1))


def hf_biproj_row(b: int, cells, mults, cfg: OracleConfig = DEFAULT_CONFIG) -> dict[int, int]:
    """Generic Hilbert-function values at (a, b) for each a in cells.

    The columns of the conditions matrix run j-major, so the (a, b) matrix is
    the first (a+1)(b+1) columns of the (max(cells), b) matrix on the same
    support, and one elimination per trial gives every cell. Exactly the
    cells asked for are returned, keyed by a, and only they can hold the
    trials up: the trials stop once each has reached _bi_rank_bound(a, b).
    The support does not depend on the cells.
    """
    mults, cells = tuple(mults), tuple(cells)
    counts = Counter(mults)
    deg = _bi_row_degree(b, cells, counts, cfg)  # before the row exists
    ranks = _max_ranks(("bi", b, mults), len(mults),
                       lambda points: bi_conditions_matrix(deg, mults, points, cfg.prime),
                       {(a + 1) * (b + 1): _bi_rank_bound(a, b, counts) for a in cells}, cfg)
    return {a: ranks[(a + 1) * (b + 1)] for a in cells}


def hf_uniform_cells(cells, pts: UniformFatPoints,
                     cfg: OracleConfig = DEFAULT_CONFIG) -> dict[tuple[int, int], int]:
    """Generic Hilbert-function values of s general m-fold points at each
    bidegree (a, b) in cells, keyed by (a, b).

    HF(a, b) = HF(b, a), so each cell is read off the row of min(a, b) at
    max(a, b): one hf_biproj_row call per row, asked for the cells of both
    orientations at once. Every row is checked from (s, m) before the s
    multiplicities exist and before the first elimination.
    """
    normal = {(a, b): BiDegree(a, b).normalized for a, b in cells}
    rows = {}
    for deg in normal.values():
        rows.setdefault(deg.b, set()).add(deg.a)
    rows = {b: sorted(rows[b]) for b in sorted(rows)}
    for b, row in rows.items():
        _bi_row_degree(b, row, {pts.m: pts.s}, cfg)
    if not rows:
        return {}
    mults = (pts.m,) * pts.s
    ranks = {b: hf_biproj_row(b, row, mults, cfg) for b, row in rows.items()}
    return {cell: ranks[deg.b][deg.a] for cell, deg in normal.items()}


def hf_biproj(deg: BiDegree, mults, cfg: OracleConfig = DEFAULT_CONFIG) -> int:
    """Generic Hilbert-function value at `deg` for the given multiplicities.

    Max over trials of the conditions-matrix rank; the value plus the ideal
    piece's dimension is (a+1)(b+1). Read off the row of min(a, b) with this
    one cell, on the row's support, so (a, b), (b, a) and a table row agree
    bit for bit.
    """
    deg = deg.normalized
    return hf_biproj_row(deg.b, (deg.a,), mults, cfg)[deg.a]


def _plane_rank_bound(d: int, scheme: PlaneScheme) -> int:
    """An upper bound on the rank of the scheme's degree-d conditions, on any
    support: every row of its fat points, and at most d-e+1 of the rows of
    its points on the line at each level e, capped by the columns.

    A level-e row at (x, 0) holds d^c/dx^c d^e/dy^e x^j y^k at y = 0, which
    is zero unless k = e, and only the d-e+1 columns x^j y^e have k = e
    (none when e > d). This is the trace count on the line: the level-e rows
    are conditions on the restriction of d^e f/dy^e to the line, a form of
    degree d-e, so together they impose at most d-e+1.
    """
    fat = Counter(scheme.general + (scheme.corner_a, scheme.corner_b)).items()
    levels = map(sum, zip_longest(*(pr.widths for pr in scheme.on_line), fillvalue=0))
    line = sum(min(w, max(0, d - e + 1)) for e, w in enumerate(levels))
    return min(_chart_rows(d, fat) + line, binom(d + 2, 2))


def hf_plane(d: int, scheme: PlaneScheme, cfg: OracleConfig = DEFAULT_CONFIG) -> int:
    """Dimension of the degree-d piece of the plane scheme's ideal: the
    complement of the max over trials of the conditions-matrix rank. The
    trials stop once the rank reaches _plane_rank_bound(d, scheme)."""
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    cfg.require_degree(d)
    require_plane_fits(d, Counter(scheme.general + (scheme.corner_a, scheme.corner_b)).items(),
                       sum(pr.degree for pr in scheme.on_line))  # before the first draw
    tags = ("plane", d, scheme.corner_a, scheme.corner_b, scheme.general,
            tuple(pr.widths for pr in scheme.on_line))
    cols = binom(d + 2, 2)
    return cols - _max_ranks(tags, len(scheme.general) + 2 + len(scheme.on_line),
                             lambda points: plane_conditions_matrix(d, scheme, points, cfg.prime),
                             {cols: _plane_rank_bound(d, scheme)}, cfg)[cols]


def hf_trace_line(d: int, lengths, cfg: OracleConfig = DEFAULT_CONFIG) -> int:
    """Ideal dimension on the line: degree-d forms vanishing to the lengths.

    Collinear conditions at distinct points are Hermite-independent, so the
    answer is max(0, d+1 - sum); the univariate rank at random support is
    computed as a cross-check and a disagreement raises.
    """
    lengths = tuple(lengths)
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    if any(l < 1 for l in lengths):
        raise ValueError(f"lengths must be positive, got {lengths}")
    cfg.require_degree(d)
    expected = max(0, d + 1 - sum(lengths))
    _require_fits(sum(lengths), d + 1)  # before the columns exist
    p = cfg.prime
    support = sample_support(derive_seed(cfg.seed, "line", d, lengths), len(lengths), p)
    M = conditions_matrix([(x, 0) for x, _ in support], [(l,) for l in lengths],
                          np.arange(d + 1), 0, p)
    got = d + 1 - rank_mod_p(M, p)
    if got != expected:
        raise ArithmeticError(
            f"univariate rank disagrees with the count: {got} != {expected}"
        )
    return expected


def check_reduction(deg: BiDegree, pts, cfg: OracleConfig = DEFAULT_CONFIG) -> bool:
    """Both sides of the plane-model translation, compared by oracle; a
    bidegree side too large is refused before the s multiplicities exist."""
    row = deg.normalized
    _bi_row_degree(row.b, (row.a,), {pts.m: pts.s}, cfg)
    scheme, d = reduce_to_plane(deg, pts)
    bi_ideal = deg.cells - hf_biproj(deg, (pts.m,) * pts.s, cfg)
    return bi_ideal == hf_plane(d, scheme, cfg)
