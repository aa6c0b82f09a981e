"""Ground-truth Hilbert functions by exact linear algebra over a prime field.

Multiplicity conditions are evaluated at pseudo-random support with entries
in [1, p-1], p a large prime, and the rank of the conditions matrix is the
number of independent conditions. A nonzero minor of the generic matrix is an
integer polynomial of degree far below p in the coordinates, so each trial
returns the generic rank except with probability bounded by degree/p; taking
the maximum over trials only sharpens this. Specialization can only lower a
rank, so a trial whose rank reaches the trivial bound min(rows, cols) has
found the generic rank: the trials stop there, and since no later trial
could go past that bound, the maximum is the one all trials would give.
cfg.trials is an upper bound. Agreement under a second prime and under
distinct seeds is part of the test suite.

Everything is deterministic: support is derived from (master seed, instance,
trial index), so identical inputs give identical outputs in any call order.
For the bidegree model the instance is (b, multiplicities), without a: one
elimination per trial of the widest (a, b) matrix of a row gives the rank at
every smaller a through its column rank profile, so a table or verify row
costs one elimination per trial, and a single cell reads the same support.

All three models share one builder, conditions_matrix: derivative conditions
at chart points against a set of exponent columns, a box for bidegree
(a, b), a triangle for plane degree d and a segment for the line. The plane
corners Q1 and Q2 are drawn as two more random chart points off the line
y = 0, since PGL(3) takes any two general points to them; no dimension
changes. A matrix whose elimination would not fit in physical memory is
refused with a ValueError before it is allocated.

rank_profile_mod_p is the one elimination kernel. A matrix of at most 2^18
entries is eliminated by the scalar int64 loop alone, as one panel. A
larger one goes in panels of 64 columns, each factored by that same loop;
the rows below a panel's pivots then take their Schur complement in the
columns to the right as float64 BLAS matmuls, in chunks of 128 columns.
The matmuls stay exact: one factor is split into 16-bit limbs, so every
partial sum is below k (p-1) (2^16-1) < 2^53 for the panel width k, which
is 64 for p <= 2147516417 and 63 at the largest prime OracleConfig accepts.
The pivots are those of the single panel, bit for bit.
"""

import hashlib
import math
import os
import random
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import BiDegree, binom
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


def _falling_table(max_exp: int, max_order: int, p: int) -> np.ndarray:
    """fall[c, j] = j (j-1) ... (j-c+1) mod p, zero when j < c."""
    fall = np.zeros((max_order + 1, max_exp + 1), dtype=np.int64)
    fall[0, :] = 1
    for c in range(1, max_order + 1):
        fall[c, c:] = fall[c - 1, c:] * np.arange(1, max_exp - c + 2) % p
    return fall


def _derivatives(t: int, orders: int, fall: np.ndarray, p: int) -> np.ndarray:
    """D[c, j] = d^c/dt^c t^j = fall[c, j] t^(j-c) mod p, for c < orders."""
    n = fall.shape[1]
    powers = np.array([pow(t, e, p) for e in range(n)], dtype=np.int64)
    out = np.zeros((orders, n), dtype=np.int64)
    for c in range(min(orders, n)):
        out[c, c:] = fall[c, c:] * powers[: n - c] % p
    return out


# A matrix of at most this many entries is a single panel, the scalar loop
# alone. On one BLAS thread, single panel against blocked: the plane matrices
# of reduce cells ran faster on the single panel up to 464x780 (2^18.5
# entries; 390x630: 30 vs 34 ms) and faster blocked from 471x780 up
# (540x861: 83 vs 128 ms), while dense random matrices, with no zero for the
# loop to skip, cross near 210x294 (2^15.9; 294x961: 29 vs 163 ms). The
# cutoff sits between, so the golden table (75x494), verify (210x42) and the
# Horace chains (125x120) keep the single panel and the plane reductions
# (540x861, 571x990) go blocked.
_SINGLE_PANEL_ENTRIES = 1 << 18
# columns per chunk of the trailing update: 64 to 512 timed alike at 540x861,
# 571x990 and 720x1681, and the update's float64 buffer holds rows x
# _CHUNK_COLS entries, so a narrow chunk keeps the peak down (2.40 times the
# matrix at 571x990, against 2.53 at 256)
_CHUNK_COLS = 128


def _panel_width(p: int) -> int:
    """Largest k <= 64 with k (p-1) (2^16-1) < 2^53.

    An inner dimension of k keeps every partial sum of a limb product in
    _sub_mul_mod_p an exact float64 integer, whatever order BLAS adds in.
    """
    return min(64, ((1 << 53) - 1) // ((p - 1) * 0xFFFF))


def _eliminate_panel(M, p: int, rank: int, c0: int, c1: int, pivots: list, swaps: list) -> int:
    """Gaussian elimination over Z/p of columns c0..c1-1 of M from row `rank`.

    The one elimination loop: all of a single-panel matrix, each panel of a
    larger one, and the two runs of _inverse_mod_p. Each pivot is the first
    nonzero entry at or below row `rank`; its whole row is swapped up and
    the swap recorded, and the pivot row is scaled to 1 and cleared below
    the pivot within columns c0..c1-1 only. Appends the pivot columns and
    returns the new rank.
    """
    rows = M.shape[0]
    for col in range(c0, c1):
        if rank == rows:
            break
        nz = M[rank:, col].nonzero()[0]
        if nz.size == 0:
            continue
        pivot = rank + int(nz[0])
        if pivot != rank:
            row = M[pivot].copy()
            M[pivot] = M[rank]
            M[rank] = row
            swaps.append((rank, pivot))
        top = M[rank, col:c1]
        top *= pow(int(top[0]), -1, p)
        top %= p
        # the rows to clear: the row swapped down holds a zero in col
        hit = nz[1:] + rank
        if hit.size:
            block = M[hit, col:c1]
            block -= block[:, :1] * top
            # entries lie in (-(p-1)^2, p): floor division leaves [0, p)
            block -= block // p * p
            M[hit, col:c1] = block
        pivots.append(col)
        rank += 1
    return rank


def _sub_mul_mod_p(C, A, B, p: int):
    """C = (C - A @ B) mod p in place, _CHUNK_COLS columns at a time.

    C, A and B hold residues in [0, p) and the inner dimension of A @ B is
    at most _panel_width(p). With B = 2^16 B1 + B0 split into 16-bit limbs,
    A @ B is congruent to A @ B0 + (2^16 A mod p) @ B1. Both float64 matmuls
    are exact; one float64 buffer takes each in turn, and C, subtracted from
    as int64, stays above -2^54 until the remainder.
    """
    lo = A.astype(np.float64)
    hi = ((A << 16) % p).astype(np.float64)
    product = np.empty((len(A), min(_CHUNK_COLS, C.shape[1])))
    for j0 in range(0, C.shape[1], _CHUNK_COLS):
        b, c = B[:, j0 : j0 + _CHUNK_COLS], C[:, j0 : j0 + _CHUNK_COLS]
        out = product[:, : c.shape[1]]
        np.matmul(lo, (b & 0xFFFF).astype(np.float64), out=out)
        np.subtract(c, out, out=c, dtype=np.int64, casting="unsafe")
        np.matmul(hi, (b >> 16).astype(np.float64), out=out)
        np.subtract(c, out, out=c, dtype=np.int64, casting="unsafe")
        np.remainder(c, p, out=c)


def _inverse_mod_p(A, p: int) -> np.ndarray:
    """Inverse over Z/p of an invertible k x k matrix, by two panel runs.

    The first takes [A | I] to [U | E] with E A = U unit upper triangular.
    Reversing rows and columns makes U unit lower triangular, so the second
    takes [J U J | J E] to [I | J U^-1 E] without a swap, and U^-1 E = A^-1.
    """
    k = len(A)
    ue = np.concatenate([A, np.eye(k, dtype=np.int64)], axis=1)
    _eliminate_panel(ue, p, 0, 0, 2 * k, [], [])
    je = np.concatenate([ue[::-1, k - 1 :: -1], ue[::-1, k:]], axis=1)
    _eliminate_panel(je, p, 0, 0, 2 * k, [], [])
    return je[::-1, k:]


def rank_profile_mod_p(matrix, p: int) -> list[int]:
    """Column rank profile over Z/p: the pivot columns of a left-to-right
    Gaussian elimination, in increasing order.

    They are the lexicographically first independent columns, so the rank
    of the first k columns is the number of pivots below k.

    A matrix of at most _SINGLE_PANEL_ENTRIES entries is one panel. A larger
    one is eliminated in panels of _panel_width(p) columns. After a panel
    with k pivots, the rows below them take the Schur complement
    A22 - A21 A11^-1 A12 in the columns to its right, by BLAS: A11 and A21
    are the pivot and lower rows of the panel's pivot columns, read from a
    copy taken before the panel was eliminated and permuted by its swaps,
    and A12 is the pivot rows to the right. Those are exactly the values a
    single panel leaves in those rows, so every later pivot is the same.
    """
    M = np.asarray(matrix, dtype=np.int64)
    if M.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if M.size == 0:
        return []
    M = M % p
    rows, cols = M.shape
    pivots = []
    width = cols if M.size <= _SINGLE_PANEL_ENTRIES else _panel_width(p)
    rank = 0
    for c0 in range(0, cols, width):
        c1 = min(c0 + width, cols)
        panel = M[rank:, c0:c1].copy() if c1 < cols else None
        top, swaps = rank, []
        rank = _eliminate_panel(M, p, top, c0, c1, pivots, swaps)
        if rank == rows:
            break
        if rank == top or panel is None:
            continue
        for i, j in swaps:
            panel[[i - top, j - top]] = panel[[j - top, i - top]]
        k = rank - top
        q = np.array(pivots[-k:]) - c0
        # 0 - A21 (-A11^-1) = A21 A11^-1
        neg_inv = -_inverse_mod_p(panel[:k, q], p) % p
        mult = np.zeros((rows - rank, k), dtype=np.int64)
        _sub_mul_mod_p(mult, panel[k:, q], neg_inv, p)
        _sub_mul_mod_p(M[rank:, c1:], mult, M[top:rank, c1:], p)
    return pivots


def rank_mod_p(matrix, p: int) -> int:
    """Exact rank over Z/p by dense Gaussian elimination."""
    return len(rank_profile_mod_p(matrix, p))


# peak bytes of build plus elimination per matrix entry: by tracemalloc, the
# int64 matrix, its reduced copy and the update temporaries came to 3.0 and
# 3.8 times the matrix on the single panel (75x494, 240x169) and 2.4, 2.5
# and 2.2 times on the blocked path (571x990, 540x861, 720x1681), so five
# matrices cover both
_PEAK_BYTES_PER_ENTRY = 5 * 8


def conditions_bytes(rows: int, cols: int) -> int:
    """Estimated peak memory of building and eliminating a rows x cols matrix."""
    return _PEAK_BYTES_PER_ENTRY * rows * cols


def _require_fits(rows: int, cols: int):
    # a matrix with no rows still allocates its column index arrays
    need = conditions_bytes(max(rows, 1), cols)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"a {rows} x {cols} conditions matrix needs about {need / 2**30:.1f} GiB "
            f"to eliminate, more than the {have / 2**30:.1f} GiB of physical memory"
        )


def conditions_matrix(points, profiles, xexp, yexp, p: int) -> np.ndarray:
    """Derivative conditions at chart points against exponent columns.

    The columns are the monomials x^j y^l for (j, l) running over xexp and
    yexp broadcast together, in C order. Point (x, y) with width profile
    (w_0, w_1, ...) gives, for each level e and each c < w_e, the row of
    d^c/dx^c d^e/dy^e of every column monomial at (x, y). A fat point of
    multiplicity m is the profile (m, ..., 1); a point on the line y = 0
    takes its SliceProfile widths. The rows are written one point at a time
    into one preallocated array, so no temporary is as large as the matrix.
    """
    profiles = [tuple(widths) for widths in profiles]
    shape = np.broadcast_shapes(np.shape(xexp), np.shape(yexp))
    rows, cols = sum(map(sum, profiles)), math.prod(shape)
    _require_fits(rows, cols)
    out = np.empty((rows, cols), dtype=np.int64)
    if rows == 0:
        return out
    xexp, yexp = np.asarray(xexp), np.asarray(yexp)
    max_order = max(max(len(w), *w) for w in profiles if w) - 1
    fall = _falling_table(int(max(xexp.max(), yexp.max())), max_order, p)
    r = 0
    for (x, y), widths in zip(points, profiles, strict=True):
        if not widths:
            continue
        dx = _derivatives(x, max(widths), fall, p)
        dy = _derivatives(y, len(widths), fall, p)
        for e, w in enumerate(widths):
            block = out[r : r + w].reshape((w,) + shape)
            np.multiply(dx[:w, xexp], dy[e, yexp], out=block)
            np.remainder(block, p, out=block)
            r += w
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


def plane_conditions_matrix(d: int, scheme: PlaneScheme, chart, line, p: int) -> np.ndarray:
    """Conditions of a plane scheme on degree-d forms, in the chart x0 = 1.

    chart holds the chart points (x, y), y != 0, of the general points
    followed by the two corners; line holds the x coordinates t of the
    profiled points (t, 0) on the distinguished line. A monomial of degree
    d is the column x^j y^k with j + k <= d.
    """
    mults = scheme.general + (scheme.corner_a, scheme.corner_b)
    # partials of order above d vanish on degree-d forms
    profiles = [fat_profile(min(m, d + 1)) for m in mults]
    profiles += [pr.widths for pr in scheme.on_line]
    _require_fits(sum(map(sum, profiles)), binom(d + 2, 2))  # before the columns exist
    j, k = np.triu_indices(d + 1)
    return conditions_matrix(list(chart) + [(t, 0) for t in line], profiles, j, k - j, p)


def hf_biproj_row(b: int, cells, mults, cfg: OracleConfig = DEFAULT_CONFIG) -> dict[int, int]:
    """Generic Hilbert-function values at (a, b) for each a in cells.

    The columns of the conditions matrix run j-major, so the (a, b) matrix is
    the first (a+1)(b+1) columns of the (max(cells), b) matrix on the same
    support. One elimination per trial gives the column rank profile, and
    the rank at a is the number of pivots before column (a+1)(b+1). Each
    value is the max over trials. The trials stop once every cell asked for
    equals its bound min(rows, (a+1)(b+1)), which no trial can pass, so each
    value is the one all cfg.trials would give. Exactly those cells are
    returned, keyed by a; the support does not depend on them.
    """
    mults, cells = tuple(mults), tuple(cells)
    if not cells or min(cells) < 0:
        raise ValueError(f"cells must be nonempty and nonnegative, got {cells}")
    deg = BiDegree(max(cells), b)
    cfg.require_degree(deg.a + b)
    cfg.require_degree(max(mults, default=0))
    rows = sum(binom(m + 1, 2) for m in mults)
    _require_fits(rows, deg.cells)  # before the row exists
    bound = {a: min(rows, (a + 1) * (b + 1)) for a in cells}
    best = dict.fromkeys(bound, 0)
    for trial in range(cfg.trials):
        seed = derive_seed(cfg.seed, "bi", b, mults, trial)
        points = sample_support(seed, len(mults), cfg.prime)
        M = bi_conditions_matrix(deg, mults, points, cfg.prime)
        pivots = rank_profile_mod_p(M, cfg.prime)
        best = {a: max(r, bisect_left(pivots, (a + 1) * (b + 1))) for a, r in best.items()}
        if best == bound:
            break
    return best


def hf_biproj(deg: BiDegree, mults, cfg: OracleConfig = DEFAULT_CONFIG) -> int:
    """Generic Hilbert-function value at `deg` for the given multiplicities.

    Max over trials of the conditions-matrix rank; the value plus the ideal
    piece's dimension is (a+1)(b+1). Read off the row of `deg.b` with this
    one cell, so its trials stop as soon as the cell reaches its bound. The
    support is the row's, and the value is the max over all trials either
    way, so a single cell and a table row agree bit for bit.
    """
    return hf_biproj_row(deg.b, (deg.a,), mults, cfg)[deg.a]


def hf_plane(d: int, scheme: PlaneScheme, cfg: OracleConfig = DEFAULT_CONFIG) -> int:
    """Dimension of the degree-d piece of the plane scheme's ideal.

    The complement of the max over trials of the conditions-matrix rank.
    The trials stop once a rank reaches min(rows, cols), which no trial can
    pass, so the value is the one all cfg.trials would give.
    """
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    cfg.require_degree(d)
    n_gen, n_line = len(scheme.general), len(scheme.on_line)
    best = 0
    for trial in range(cfg.trials):
        seed = derive_seed(
            cfg.seed, "plane", d, scheme.corner_a, scheme.corner_b,
            scheme.general, tuple(pr.widths for pr in scheme.on_line), trial,
        )
        rng = random.Random(seed)
        # distinct x's over every point, distinct nonzero y's off the line
        xs = _distinct(rng, n_gen + n_line + 2, cfg.prime)
        ys = _distinct(rng, n_gen + 2, cfg.prime)
        chart = list(zip(xs[:n_gen] + xs[-2:], ys))
        line = xs[n_gen : n_gen + n_line]
        M = plane_conditions_matrix(d, scheme, chart, line, cfg.prime)
        best = max(best, rank_mod_p(M, cfg.prime))
        if best == min(M.shape):
            break
    return binom(d + 2, 2) - best


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
    rng = random.Random(derive_seed(cfg.seed, "line", d, lengths))
    ts = _distinct(rng, len(lengths), p)
    M = conditions_matrix([(t, 0) for t in ts], [(l,) for l in lengths],
                          np.arange(d + 1), 0, p)
    got = d + 1 - rank_mod_p(M, p)
    if got != expected:
        raise ArithmeticError(
            f"univariate rank disagrees with the count: {got} != {expected}"
        )
    return expected


def check_reduction(deg: BiDegree, pts, cfg: OracleConfig = DEFAULT_CONFIG) -> bool:
    """Both sides of the plane-model translation, compared by oracle."""
    scheme, d = reduce_to_plane(deg, pts)
    bi_ideal = deg.cells - hf_biproj(deg, (pts.m,) * pts.s, cfg)
    return bi_ideal == hf_plane(d, scheme, cfg)
