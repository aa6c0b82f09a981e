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
"""

import hashlib
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


def _distinct(rng: random.Random, count: int, p: int, forbid: set[int] | None = None) -> list[int]:
    seen = set() if forbid is None else set(forbid)
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
        for j in range(c, max_exp + 1):
            fall[c, j] = fall[c - 1, j] * (j - c + 1) % p
    return fall


def _power_row(base: int, max_exp: int, p: int) -> np.ndarray:
    out = np.empty(max_exp + 1, dtype=np.int64)
    acc = 1
    for e in range(max_exp + 1):
        out[e] = acc
        acc = acc * base % p
    return out


def _deriv_row(fall: np.ndarray, powers: np.ndarray, order: int, p: int) -> np.ndarray:
    """Vector over exponents j of d^order/dx^order x^j evaluated via powers."""
    n = powers.shape[0]
    row = np.zeros(n, dtype=np.int64)
    if order < n:
        row[order:] = fall[order, order:n] * powers[: n - order] % p
    return row


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


def bi_conditions_matrix(deg: BiDegree, mults, support: SupportSample, p: int) -> np.ndarray:
    """One row per derivative condition against the monomial basis x^j y^l.

    Point i of multiplicity m contributes the rows (c,e) with c+e <= m-1:
    the (c,e)-derivative of a bidegree-(a,b) chart polynomial at the point.
    Column j*(b+1) + l holds x^j y^l; hf_biproj_row relies on this j-major
    order to read smaller a off a prefix of the columns.
    """
    a, b = deg.a, deg.b
    mults = tuple(mults)
    rows = sum(binom(m + 1, 2) for m in mults)
    out = np.zeros((rows, (a + 1) * (b + 1)), dtype=np.int64)
    max_order = max(mults, default=1)
    fall = _falling_table(max(a, b), max_order, p)
    r = 0
    for (x, y), m in zip(support.points, mults):
        xp = _power_row(x, a, p)
        yp = _power_row(y, b, p)
        for c in range(m):
            dx = _deriv_row(fall, xp, c, p)
            for e in range(m - c):
                dy = _deriv_row(fall, yp, e, p)
                out[r] = (dx[:, None] * dy[None, :] % p).ravel()
                r += 1
    return out


def _plane_monomials(d: int) -> list[tuple[int, int, int]]:
    """Exponent triples (i, j, k), i+j+k = d, for the degree-d basis."""
    return [(d - j - k, j, k) for j in range(d + 1) for k in range(d + 1 - j)]


def _corner_rows(point: tuple[int, int, int], mult: int, d: int,
                 monomials, p: int) -> list[np.ndarray]:
    """Homogeneous partial-derivative conditions at a fixed projective point.

    Multiplicity >= mult on degree-d forms is the vanishing of all partials
    of order min(mult-1, d); the clamp handles mult > d, where the conditions
    must kill the whole space.
    """
    if mult == 0:
        return []
    order = min(mult - 1, d)
    fall = _falling_table(d, order, p)
    pows = [_power_row(coord, d, p) for coord in point]
    rows = []
    for a0 in range(order + 1):
        for a1 in range(order + 1 - a0):
            a2 = order - a0 - a1
            row = np.zeros(len(monomials), dtype=np.int64)
            for idx, (i, j, k) in enumerate(monomials):
                if i < a0 or j < a1 or k < a2:
                    continue
                row[idx] = (
                    int(fall[a0, i]) * int(pows[0][i - a0]) % p
                    * int(fall[a1, j]) % p
                    * int(pows[1][j - a1]) % p
                    * int(fall[a2, k]) % p
                    * int(pows[2][k - a2]) % p
                )
            rows.append(row)
    return rows


def plane_conditions_matrix(d: int, scheme: PlaneScheme, support_x: list[int],
                            support_line: list[int], support_y: list[int],
                            p: int, corner_support=None) -> np.ndarray:
    """Conditions of a plane scheme on degree-d forms.

    General points sit at (1, u, v) with v != 0; profiled points at (1, t, 0)
    on the distinguished line, where profile row j imposes the first d_j
    x-derivatives at y-level j. Corners sit at the exact coordinates [0:1:0]
    and [0:0:1] unless corner_support gives two chart points for them: the
    exact corners both lie on lines of constant y, so a scheme that uses the
    distinguished line needs its corners drawn off it (the dimension of a
    generic configuration does not depend on which generic support is used).
    """
    monomials = _plane_monomials(d)
    cols = len(monomials)
    all_rows = []
    if corner_support is None:
        all_rows += _corner_rows((0, 1, 0), scheme.corner_a, d, monomials, p)
        all_rows += _corner_rows((0, 0, 1), scheme.corner_b, d, monomials, p)

    # chart points: affine derivative conditions on f(x, y) = F(1, x, y);
    # the (c, e) rows for c+e <= m-1 encode multiplicity m at any degree
    max_order = max(
        [scheme.corner_a, scheme.corner_b, 1]
        + [m for m in scheme.general]
        + [pr.bottom for pr in scheme.on_line]
    )
    fall = _falling_table(d, max_order, p)
    # column exponents of f in the chart: monomial (i, j, k) -> x^j y^k
    js = np.array([j for (_, j, _) in monomials])
    ks = np.array([k for (_, _, k) in monomials])

    def chart_row(u_pows, v_pows, c, e):
        dx = _deriv_row(fall, u_pows, c, p)
        dy = _deriv_row(fall, v_pows, e, p)
        return dx[js] * dy[ks] % p

    chart_points = list(zip(support_x, support_y, scheme.general))
    if corner_support is not None:
        chart_points += [
            (u, v, m)
            for (u, v), m in zip(corner_support, (scheme.corner_a, scheme.corner_b))
        ]
    for u, v, m in chart_points:
        if m == 0:
            continue
        u_pows = _power_row(u, d, p)
        v_pows = _power_row(v, d, p)
        for c in range(m):
            for e in range(m - c):
                all_rows.append(chart_row(u_pows, v_pows, c, e))

    zero_pows = _power_row(0, d, p)  # (1, 0, 0, ...): picks out y-level rows
    for t, profile in zip(support_line, scheme.on_line):
        t_pows = _power_row(t, d, p)
        for level, width in enumerate(profile.widths):
            for c in range(width):
                all_rows.append(chart_row(t_pows, zero_pows, c, level))

    if not all_rows:
        return np.zeros((0, cols), dtype=np.int64)
    return np.vstack(all_rows)


def _plane_instance(d: int, scheme: PlaneScheme, seed: int, p: int):
    rng = random.Random(seed)
    n_gen, n_line = len(scheme.general), len(scheme.on_line)
    if n_line:
        xs = _distinct(rng, n_gen + n_line + 2, p)
        ys = _distinct(rng, n_gen + 2, p)
        corners = ((xs[-2], ys[-2]), (xs[-1], ys[-1]))
        gx, lx = xs[:n_gen], xs[n_gen : n_gen + n_line]
    else:
        xs = _distinct(rng, n_gen, p)
        ys = _distinct(rng, n_gen, p)
        corners = None
        gx, lx = xs, []
    return plane_conditions_matrix(d, scheme, gx, lx, ys[:n_gen], p, corners)


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
    cols = binom(d + 2, 2)
    best = 0
    for trial in range(cfg.trials):
        seed = derive_seed(
            cfg.seed, "plane", d, scheme.corner_a, scheme.corner_b,
            scheme.general, tuple(pr.widths for pr in scheme.on_line), trial,
        )
        M = _plane_instance(d, scheme, seed, cfg.prime)
        best = max(best, rank_mod_p(M, cfg.prime))
    return cols - best


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
    fall = _falling_table(d, max(lengths, default=1), p)
    rows = []
    for t, length in zip(ts, lengths):
        t_pows = _power_row(t, d, p)
        for c in range(length):
            rows.append(_deriv_row(fall, t_pows, c, p))
    M = np.vstack(rows) if rows else np.zeros((0, d + 1), dtype=np.int64)
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
