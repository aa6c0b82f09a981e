"""Ground-truth Hilbert functions by exact linear algebra over a prime field.

Multiplicity conditions are evaluated at pseudo-random support with entries
in [1, p-1], p a large prime, and the rank of the conditions matrix is the
number of independent conditions. A nonzero minor of the generic matrix is an
integer polynomial of degree far below p in the coordinates, so each trial
returns the generic rank except with probability bounded by degree/p; taking
the maximum over trials only sharpens this. Agreement under a second prime
and under distinct seeds is part of the test suite.

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
"""

import hashlib
import math
import os
import random
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import BiDegree, binom
from .schemes import PlaneScheme, reduce_to_plane

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


@dataclass(frozen=True)
class SupportSample:
    """Reproducible random support: coordinate lists with distinct entries."""

    seed: int
    points: tuple[tuple[int, int], ...]


def _distinct(rng: random.Random, count: int, p: int) -> list[int]:
    seen = set()
    out = []
    while len(out) < count:
        v = rng.randrange(1, p)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def sample_support(seed: int, count: int, p: int) -> SupportSample:
    """count chart points with pairwise-distinct x's and pairwise-distinct y's.

    Distinctness per coordinate keeps the support off every ruling/vertical
    line shared by two points, which is what general position requires here.
    """
    rng = random.Random(seed)
    xs = _distinct(rng, count, p)
    ys = _distinct(rng, count, p)
    return SupportSample(seed, tuple(zip(xs, ys)))


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


def rank_profile_mod_p(matrix, p: int) -> list[int]:
    """Column rank profile over Z/p: the pivot columns of a left-to-right
    Gaussian elimination, in increasing order.

    They are the lexicographically first independent columns, so the rank
    of the first k columns is the number of pivots below k.
    """
    M = np.asarray(matrix, dtype=np.int64)
    if M.ndim != 2:
        raise ValueError("matrix must be two-dimensional")
    if M.size == 0:
        return []
    M = M % p
    rows, cols = M.shape
    pivots = []
    for col in range(cols):
        rank = len(pivots)
        if rank == rows:
            break
        nz = np.nonzero(M[rank:, col])[0]
        if nz.size == 0:
            continue
        pivot = rank + int(nz[0])
        if pivot != rank:
            M[[rank, pivot]] = M[[pivot, rank]]
        inv = pow(int(M[rank, col]), p - 2, p)
        M[rank, col:] = M[rank, col:] * inv % p
        body = M[rank + 1 :, col]
        hit = np.nonzero(body)[0]
        if hit.size:
            M[rank + 1 + hit, col:] = (
                M[rank + 1 + hit, col:] - body[hit, None] * M[rank, col:]
            ) % p
        pivots.append(col)
    return pivots


def rank_mod_p(matrix, p: int) -> int:
    """Exact rank over Z/p by dense Gaussian elimination."""
    return len(rank_profile_mod_p(matrix, p))


# peak bytes of build plus elimination per matrix entry: the int64 matrix,
# its reduced copy and the row-update temporaries measured 3.0 to 4.3 times
# the matrix on wide and tall conditions matrices
_PEAK_BYTES_PER_ENTRY = 5 * 8


def conditions_bytes(rows: int, cols: int) -> int:
    """Estimated peak memory of building and eliminating a rows x cols matrix."""
    return _PEAK_BYTES_PER_ENTRY * rows * cols


def _require_fits(rows: int, cols: int):
    need = conditions_bytes(rows, cols)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(
            f"a {rows} x {cols} conditions matrix needs about {need / 2**30:.1f} GiB "
            f"to eliminate, more than the {have / 2**30:.1f} GiB of physical memory"
        )


def fat_profile(m: int) -> tuple[int, ...]:
    """Width profile of a chart fat point of multiplicity m: (m, m-1, ..., 1)."""
    return tuple(range(m, 0, -1))


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


def bi_conditions_matrix(deg: BiDegree, mults, support: SupportSample, p: int) -> np.ndarray:
    """One row per derivative condition against the monomial basis x^j y^l.

    Point i of multiplicity m contributes the rows (c,e) with c+e <= m-1:
    the (c,e)-derivative of a bidegree-(a,b) chart polynomial at the point.
    Column j*(b+1) + l holds x^j y^l; hf_biproj_row relies on this j-major
    order to read smaller a off a prefix of the columns.
    """
    return conditions_matrix(support.points, map(fat_profile, mults),
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


def hf_biproj_row(a_max: int, b: int, mults, cfg: OracleConfig = DEFAULT_CONFIG) -> list[int]:
    """Generic Hilbert-function values at (a, b) for every a <= a_max.

    The columns of the conditions matrix run j-major, so the (a, b) matrix is
    the first (a+1)(b+1) columns of the (a_max, b) matrix on the same
    support. One elimination per trial gives the column rank profile, and
    the rank at a is the number of pivots before column (a+1)(b+1). Each
    entry is the max over trials.
    """
    mults = tuple(mults)
    cfg.require_degree(a_max + b)
    cfg.require_degree(max(mults, default=0))
    deg = BiDegree(a_max, b)
    best = [0] * (a_max + 1)
    for trial in range(cfg.trials):
        seed = derive_seed(cfg.seed, "bi", b, mults, trial)
        support = sample_support(seed, len(mults), cfg.prime)
        M = bi_conditions_matrix(deg, mults, support, cfg.prime)
        pivots = rank_profile_mod_p(M, cfg.prime)
        best = [max(r, bisect_left(pivots, (a + 1) * (b + 1))) for a, r in enumerate(best)]
    return best


def hf_biproj(deg: BiDegree, mults, cfg: OracleConfig = DEFAULT_CONFIG) -> int:
    """Generic Hilbert-function value at `deg` for the given multiplicities.

    Max over trials of the conditions-matrix rank; the value plus the ideal
    piece's dimension is (a+1)(b+1). Read off the row of `deg.b`, so a
    single cell and a table row drawn on the same support agree bit for bit.
    """
    return hf_biproj_row(deg.a, deg.b, mults, cfg)[deg.a]


def hf_plane(d: int, scheme: PlaneScheme, cfg: OracleConfig = DEFAULT_CONFIG) -> int:
    """Dimension of the degree-d piece of the plane scheme's ideal."""
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    cfg.require_degree(d)
    cfg.require_degree(max(scheme.corner_a, scheme.corner_b))
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
