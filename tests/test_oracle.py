import random
import tracemalloc
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

from fatpoints import oracle as oracle_module
from fatpoints.core import BiDegree, Source, UniformFatPoints, binom
from fatpoints.formulas import hf_uniform, table_region
from fatpoints.horace import specialize_triple_step1, specialize_triple_step2, verify_chain
from fatpoints.oracle import (
    ALT_PRIME,
    DEFAULT_PRIME,
    OracleConfig,
    OracleConfigError,
    bi_conditions_matrix,
    check_reduction,
    conditions_bytes,
    conditions_matrix,
    derive_seed,
    fat_profile,
    hf_biproj,
    hf_biproj_row,
    hf_plane,
    hf_trace_line,
    is_prime,
    plane_conditions_matrix,
    rank_mod_p,
    rank_profile_mod_p,
    sample_support,
    _distinct,
    _panel_width,
    _sub_mul_mod_p,
)
from fatpoints.schemes import PlaneScheme, SliceProfile, reduce_to_plane


def rational_rank(rows):
    """Row reduction over exact rationals; independent of the mod-p path."""
    rows = [list(map(Fraction, r)) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inv = 1 / top[col]
        top[:] = [x * inv for x in top]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def triple_point_rows_at(u, v, a, b):
    """All second-order-jet vanishing rows of one point on the (a,b) basis."""
    rows = []
    for c in range(3):
        for e in range(3 - c):
            row = []
            for j in range(a + 1):
                for l in range(b + 1):
                    if j < c or l < e:
                        row.append(0)
                        continue
                    fall_j = 1
                    for i in range(c):
                        fall_j *= j - i
                    fall_l = 1
                    for i in range(e):
                        fall_l *= l - i
                    row.append(fall_j * fall_l * u ** (j - c) * v ** (l - e))
            rows.append(row)
    return rows


class TestRank:
    def test_trivial(self):
        assert rank_mod_p(np.eye(3, dtype=np.int64), 2**31 - 1) == 3
        assert rank_mod_p(np.zeros((2, 5), dtype=np.int64), 2**31 - 1) == 0
        assert rank_mod_p(np.zeros((0, 4), dtype=np.int64), 2**31 - 1) == 0

    def test_matches_rational_rank_on_random_matrices(self):
        rng = random.Random(20240601)
        p = 2**31 - 1
        for _ in range(20):
            rows = rng.randrange(1, 7)
            cols = rng.randrange(1, 7)
            M = [[rng.randrange(-9, 10) for _ in range(cols)] for _ in range(rows)]
            assert rank_mod_p(np.array(M, dtype=np.int64), p) == rational_rank(M)

    def test_triple_point_matrix(self):
        # one triple point on the (2,2) basis: 6x9 matrix of full rank
        rows = triple_point_rows_at(Fraction(3, 7), Fraction(5, 11), 2, 2)
        assert len(rows) == 6 and len(rows[0]) == 9
        assert rational_rank(rows) == 6


def structured_matrices(rng, p):
    """Matrices whose rank profile has gaps: zero and repeated columns,
    rank-deficient products, and more rows than columns."""
    def rand(rows, cols):
        return np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                        dtype=np.int64)

    base = rand(6, 9)
    zeros = base.copy()
    zeros[:, [0, 3, 4]] = 0
    repeated = base.copy()
    repeated[:, 5] = repeated[:, 1]
    repeated[:, 6] = 2 * repeated[:, 2] % p
    repeated[:, 7] = (repeated[:, 1] + repeated[:, 2]) % p
    # (a, k) @ (k, b) has rank at most k; entries below 2^15 keep int64 exact
    product = (rand(7, 2) % (1 << 15)) @ (rand(2, 10) % (1 << 15)) % p
    tall = rand(12, 5)
    tall[:, 3] = 0
    return [zeros, repeated, product, tall, np.zeros((4, 3), dtype=np.int64)]


class TestRankProfile:
    def test_prefix_ranks_are_pivot_counts(self):
        rng = random.Random(20261018)
        p = 2**31 - 1
        matrices = structured_matrices(rng, p)
        for _ in range(20):
            rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
            matrices.append(np.array(
                [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(cols)]
                 for _ in range(rows)], dtype=np.int64))
        for M in matrices:
            pivots = rank_profile_mod_p(M, p)
            assert pivots == sorted(set(pivots))
            for k in range(M.shape[1] + 1):
                assert bisect_left(pivots, k) == rank_mod_p(M[:, :k], p)

    def test_structured_profiles(self):
        p = 2**31 - 1
        zeros, repeated, product, tall, empty = structured_matrices(random.Random(7), p)
        assert rank_profile_mod_p(zeros, p) == [1, 2, 5, 6, 7, 8]
        assert rank_profile_mod_p(repeated, p) == [0, 1, 2, 3, 4, 8]
        assert len(rank_profile_mod_p(product, p)) == 2
        assert rank_profile_mod_p(tall, p) == [0, 1, 2, 4]
        assert rank_profile_mod_p(empty, p) == []

    def test_refuses_other_dimensions(self):
        for bad in (np.arange(3), np.zeros((2, 2, 2), dtype=np.int64)):
            with pytest.raises(ValueError, match="two-dimensional"):
                rank_profile_mod_p(bad, 2**31 - 1)

    @pytest.mark.parametrize("m", [4, 5])
    def test_row_matches_cells_on_independent_support(self, m, oracle):
        # each cell gets its own support, drawn under a tag the row never uses
        p = oracle.prime
        for s in range(3, 7):
            mults = (m,) * s
            for b in range(5, 9):
                row = hf_biproj_row(b, range(13), mults, oracle)
                for a in range(13):
                    seed = derive_seed(oracle.seed, "cross-check", a, b, mults)
                    points = sample_support(seed, s, p)
                    M = bi_conditions_matrix(BiDegree(a, b), mults, points, p)
                    assert row[a] == rank_mod_p(M, p), (a, b, m, s)


LARGEST_PRIME = 2148532223  # the largest prime OracleConfig accepts


def low_rank(rng, rows, cols, rank, p):
    """A random rows x cols matrix of rank at most `rank` over Z/p; factors
    below 2^15 keep the int64 product exact."""
    left = rng.integers(0, 1 << 15, (rows, rank))
    return left @ rng.integers(0, 1 << 15, (rank, cols)) % p


def blocked_cases(p):
    """Matrices past one 64-column panel: zero and repeated columns, tall and
    wide shapes, a panel with no pivot and a partial last panel."""
    rng = np.random.default_rng(20261018)
    wide = rng.integers(0, p, (100, 300))
    wide[:, 64:128] = 0  # the second panel has no pivot
    repeated = low_rank(rng, 90, 200, 70, p)  # 200 = 3 * 64 + 8
    repeated[:, 100:150] = repeated[:, :50]
    repeated[:, [3, 70, 199]] = 0
    tall = low_rank(rng, 260, 150, 100, p)
    tall[:, 60:70] = 0
    exact = rng.integers(0, p, (128, 256))  # rank reaches the rows on a boundary
    sparse = rng.integers(0, p, (120, 180)) * (rng.random((120, 180)) < 0.03)
    return [wide, repeated, tall, exact, sparse, low_rank(rng, 150, 400, 3, p)]


def reference_profile(M, p):
    """Pivot columns of a left-to-right Gaussian elimination over Z/p in
    Python integers; independent of the int64 and float64 arithmetic."""
    rows = [[int(x) % p for x in row] for row in M]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        top = rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        pivots.append(col)
    return pivots


def extreme_matrices(p):
    """Small matrices with entries at the ends of [0, p)."""
    rng = random.Random(p)
    full = np.full((6, 9), p - 1, dtype=np.int64)
    # the first pivot row is (1, p-1, ...) and every row below is
    # (p-1, 0, ...), so the first update takes 0 - (p-1) (p-1) = -(p-1)^2
    worst = np.zeros((8, 11), dtype=np.int64)
    worst[0] = p - 1
    worst[0, 0] = 1
    worst[1:, 0] = p - 1
    worst[4:, 5:] = p - 1
    ends = [np.array([[rng.choice((0, 1, p - 1)) for _ in range(cols)] for _ in range(rows)],
                     dtype=np.int64)
            for rows, cols in [(5, 7), (9, 4), (12, 13), (7, 20)]]
    dense = np.array([[rng.randrange(p) for _ in range(10)] for _ in range(8)],
                     dtype=np.int64)
    return [full, worst, dense] + ends


class TestReferenceElimination:
    """The kernel against plain Python-int elimination, on the single panel
    and on the blocked path forced with cutoff 0 and panel width 3."""

    @pytest.mark.parametrize("path", ["single_panel", "blocked"])
    @pytest.mark.parametrize("p", [DEFAULT_PRIME, ALT_PRIME, LARGEST_PRIME])
    def test_matches_python_int_elimination(self, p, path, monkeypatch):
        matrices = structured_matrices(random.Random(p), p) + extreme_matrices(p)
        if path == "blocked":
            monkeypatch.setattr("fatpoints.oracle._SINGLE_PANEL_ENTRIES", 0)
            monkeypatch.setattr("fatpoints.oracle._panel_width", lambda p: 3)
        for M in matrices:
            assert rank_profile_mod_p(M, p) == reference_profile(M, p), M.shape


class TestBlockedElimination:
    """The blocked path against the single panel, forced by patching the
    private cutoff (and, for matrices under 64 columns, the panel width)."""

    @pytest.mark.parametrize("p", [DEFAULT_PRIME, LARGEST_PRIME])
    def test_limb_product_is_exact_at_the_panel_width(self, p):
        k = _panel_width(p)
        assert k == (64 if p == DEFAULT_PRIME else 63)
        # from C = 0 both limb products take C to its least value before the
        # remainder; 300 columns make three chunks
        worst = np.full((5, k), p - 1, dtype=np.int64)
        C = np.zeros((5, 300), dtype=np.int64)
        _sub_mul_mod_p(C, worst, np.full((k, 300), p - 1, dtype=np.int64), p)
        assert (C == -k * (p - 1) ** 2 % p).all()
        rng = np.random.default_rng(p)
        A, B = rng.integers(0, p, (9, k)), rng.integers(0, p, (k, 300))
        C = rng.integers(0, p, (9, 300))
        expected = (C.astype(object) - A.astype(object) @ B.astype(object)) % p
        _sub_mul_mod_p(C, A, B, p)
        assert (C == expected).all()

    @pytest.mark.parametrize("width", [3, 64])
    def test_pivots_match_the_single_panel(self, width, monkeypatch):
        p = DEFAULT_PRIME
        rng = random.Random(width)
        matrices = structured_matrices(rng, p) + blocked_cases(p)
        nprng = np.random.default_rng(width)
        for _ in range(10):
            rows, cols = int(nprng.integers(1, 40)), int(nprng.integers(1, 140))
            rank = int(nprng.integers(1, min(rows, cols) + 1))
            matrices.append(low_rank(nprng, rows, cols, rank, p))
        expected = [rank_profile_mod_p(M, p) for M in matrices]
        monkeypatch.setattr("fatpoints.oracle._SINGLE_PANEL_ENTRIES", 0)
        monkeypatch.setattr("fatpoints.oracle._panel_width", lambda p: width)
        for M, pivots in zip(matrices, expected):
            before = M.copy()
            assert rank_profile_mod_p(M, p) == pivots, M.shape
            assert (M == before).all()

    @pytest.mark.parametrize("cutoff", [None, 0], ids=["single_panel", "blocked"])
    def test_leaves_the_input_unmodified(self, cutoff, monkeypatch):
        # callers eliminate views of one matrix in turn, so the kernel must
        # not write into its argument, even one already reduced mod p; the
        # check above cannot see that, as its matrices went through an
        # earlier call and an echelon form comes back unchanged
        p = DEFAULT_PRIME
        if cutoff is not None:
            monkeypatch.setattr("fatpoints.oracle._SINGLE_PANEL_ENTRIES", cutoff)
        for M in structured_matrices(random.Random(11), p) + blocked_cases(p):
            before = M.copy()
            rank_profile_mod_p(M, p)
            assert (M == before).all(), M.shape

    def test_above_the_real_cutoff(self, monkeypatch):
        p = DEFAULT_PRIME
        rng = np.random.default_rng(7)
        M = low_rank(rng, 200, 5300, 40, p)
        M[:, 2000:2100] = 0
        M[:, 4000:4040] = M[:, 10:50]
        assert M.size > oracle_module._SINGLE_PANEL_ENTRIES
        pivots = rank_profile_mod_p(M, p)
        monkeypatch.setattr("fatpoints.oracle._SINGLE_PANEL_ENTRIES", M.size)
        assert pivots == rank_profile_mod_p(M, p)
        assert len(pivots) == 40

    def test_routing_of_the_workload_shapes(self):
        # the golden table's widest row (75 x 494), the widest verify row
        # (m 6, s 10, 210 x 42) and every matrix of the 23 criterion-6 chains
        # of the benchmark (at most 125 x 120) stay on the single panel; the
        # plane matrices of the reduce cells (25, 18, 5, 5) and (20, 20, 5, 8)
        # take the blocked path
        for rows, cols in [(75, 494), (210, 42), (125, 120)]:
            assert rows * cols <= oracle_module._SINGLE_PANEL_ENTRIES
        for rows, cols in [(540, 861), (571, 990)]:
            assert rows * cols > oracle_module._SINGLE_PANEL_ENTRIES

    def test_reduce_cell_pivots_match_the_single_panel(self, monkeypatch):
        # the plane matrix of reduce --a 25 --b 18 --m 5 --s 5, as hf_plane
        # draws it on its first trial
        scheme, d = reduce_to_plane(BiDegree(25, 18), UniformFatPoints(5, 5))
        seen = []
        monkeypatch.setattr("fatpoints.oracle.rank_mod_p",
                            lambda M, p: seen.append(M) or len(rank_profile_mod_p(M, p)))
        hf_plane(d, scheme, OracleConfig(trials=1))
        (M,) = seen
        assert M.shape == (571, 990) and M.size > oracle_module._SINGLE_PANEL_ENTRIES
        p = DEFAULT_PRIME
        pivots = rank_profile_mod_p(M, p)
        monkeypatch.setattr("fatpoints.oracle._SINGLE_PANEL_ENTRIES", M.size)
        assert pivots == rank_profile_mod_p(M, p)
        assert len(pivots) == 571

    def test_large_row_reads_every_prefix(self, oracle):
        # 20 points of multiplicity 8 at (40, 40): a 720 x 1681 matrix
        row = hf_biproj_row(40, range(41), (8,) * 20, oracle)
        assert row[40] == 720
        pts = UniformFatPoints(20, 8)
        for a in range(9):  # min(a, b) <= m has a closed form
            assert row[a] == hf_uniform(BiDegree(a, 40), pts).value, a


class TestConditionsMatrix:
    def test_chart_fat_point_matches_reference(self):
        p = 2**31 - 1
        rng = random.Random(31)
        for a, b in [(2, 2), (4, 1), (0, 3), (5, 4)]:
            u, v = rng.randrange(1, p), rng.randrange(1, p)
            M = conditions_matrix([(u, v)], [fat_profile(3)],
                                  np.arange(a + 1)[:, None], np.arange(b + 1), p)
            reference = [[x % p for x in row] for row in triple_point_rows_at(u, v, a, b)]
            assert sorted(M.tolist()) == sorted(reference)

    def test_on_line_profile_gives_sum_of_widths_rows(self):
        p = 2**31 - 1
        j, k = np.triu_indices(7)
        profiles = [(3, 1), (2,), (4, 2, 1), fat_profile(2)]
        points = [(5, 0), (9, 0), (11, 0), (13, 17)]
        M = conditions_matrix(points, profiles, j, k - j, p)
        assert M.shape == (sum(map(sum, profiles)), binom(8, 2))
        # a row at level e on y = 0 sees only the monomials x^j y^e
        assert not M[:3, k - j != 0].any()
        assert not M[3, k - j != 1].any()

    def test_reduction_holds_on_a_grid(self, fast_oracle):
        # every corner is a chart point now, with or without on-line points
        for a in range(1, 6):
            for b in range(1, a + 1):
                for m in range(1, 4):
                    for s in range(0, 5):
                        assert check_reduction(BiDegree(a, b), UniformFatPoints(s, m),
                                               fast_oracle), (a, b, m, s)


class TestSizeGuard:
    def test_estimate(self):
        assert conditions_bytes(0, 10) == 0
        assert conditions_bytes(75, 494) == 5 * 8 * 75 * 494
        # hf --a 20000 --b 20000 --m 5 --s 5: a 240 GB matrix before elimination
        assert conditions_bytes(5 * 15, 20001**2) // 5 > 240 * 10**9

    def test_refused_before_allocation(self, monkeypatch):
        p = 2**31 - 1
        n = 10**6  # the box columns broadcast: two vectors, not a 10^12 grid
        with pytest.raises(ValueError, match="physical memory"):
            conditions_matrix([(3, 5)], [fat_profile(5)],
                              np.arange(n + 1)[:, None], np.arange(n + 1), p)
        # two corners of multiplicity 2000: 4 million rows, 8 million columns
        with pytest.raises(ValueError, match="physical memory"):
            hf_plane(4000, PlaneScheme(2000, 2000), OracleConfig(trials=1))
        # the row and line entries ask before building a 10^6-long row or
        # column range (8 MB each); one 4 KiB page refuses any matrix, also
        # one with no rows, whose index arrays still have a column each
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}
        monkeypatch.setattr("fatpoints.oracle.os.sysconf", pages.__getitem__)
        cfg = OracleConfig(trials=1)
        for refused in (lambda: hf_biproj_row(1, (n,), (5,) * 5, cfg),
                        lambda: hf_trace_line(n, (1,), cfg),
                        lambda: hf_biproj_row(0, (n,), (), cfg),
                        lambda: hf_plane(2000, PlaneScheme(0, 0), cfg),
                        lambda: hf_trace_line(n, (), cfg)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="physical memory"):
                    refused()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_compares_with_physical_memory(self, monkeypatch):
        p = 2**31 - 1
        columns = (np.arange(4)[:, None], np.arange(4))
        assert conditions_matrix([(3, 5)], [fat_profile(2)], *columns, p).shape == (3, 16)
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}  # one 4 KiB page
        monkeypatch.setattr("fatpoints.oracle.os.sysconf", pages.__getitem__)
        with pytest.raises(ValueError, match="physical memory"):
            conditions_matrix([(3, 5)], [fat_profile(4)], *columns, p)  # 6400 bytes


class TestBiModel:
    def test_examples(self, oracle):
        assert hf_biproj(BiDegree(2, 2), [3], oracle) == 6
        assert hf_biproj(BiDegree(1, 1), [1], oracle) == 1
        assert hf_biproj(BiDegree(5, 4), [3] * 5, oracle) == 29
        assert hf_biproj(BiDegree(8, 7), [5] * 5, oracle) == 71

    def test_empty_and_mixed(self, oracle):
        assert hf_biproj(BiDegree(4, 4), [], oracle) == 0
        assert hf_biproj(BiDegree(3, 3), [2, 1], oracle) == 4

    def test_value_plus_ideal_is_cells(self, oracle):
        deg = BiDegree(6, 3)
        mults = [2] * 4
        value = hf_biproj(deg, mults, oracle)
        assert 0 <= value <= min(deg.cells, sum(binom(m + 1, 2) for m in mults))

    def test_determinism(self, oracle):
        deg = BiDegree(7, 5)
        first = hf_biproj(deg, [4] * 3, oracle)
        second = hf_biproj(deg, [4] * 3, OracleConfig())
        assert first == second

    def test_three_seeds_agree(self):
        for a in range(1, 7):
            for b in range(1, a + 1):
                values = {
                    hf_biproj(BiDegree(a, b), [3] * 3, OracleConfig(seed=seed, trials=1))
                    for seed in (1, 2, 3)
                }
                assert len(values) == 1

    def test_two_primes_agree(self):
        for a in range(1, 7):
            for b in range(1, a + 1):
                lhs = hf_biproj(BiDegree(a, b), [4] * 2, OracleConfig(trials=1))
                rhs = hf_biproj(
                    BiDegree(a, b), [4] * 2, OracleConfig(prime=ALT_PRIME, trials=1)
                )
                assert lhs == rhs

    def test_subscheme_monotonicity(self, fast_oracle):
        rng = random.Random(99)
        for _ in range(25):
            a, b = rng.randrange(1, 8), rng.randrange(1, 8)
            m = rng.randrange(1, 4)
            s = rng.randrange(0, 5)
            base = hf_biproj(BiDegree(a, b), [m] * s, fast_oracle)
            bigger = hf_biproj(BiDegree(a, b), [m] * (s + 1), fast_oracle)
            assert base <= bigger <= base + binom(m + 1, 2)


class TestPlaneModel:
    def test_examples(self, oracle):
        assert hf_plane(9, PlaneScheme(5, 4, (3,) * 5), oracle) == 1
        assert hf_plane(8, PlaneScheme(4, 4, (3,) * 4), oracle) == 1
        assert hf_plane(3, PlaneScheme(2, 1, (1,) * 5), oracle) == 1

    def test_corner_only(self, oracle):
        assert hf_plane(10, PlaneScheme(6, 0), oracle) == binom(12, 2) - binom(7, 2)
        # multiplicity above the degree kills everything
        assert hf_plane(2, PlaneScheme(4, 0), oracle) == 0
        assert hf_plane(2, PlaneScheme(10**5, 0), oracle) == 0
        # the builder clamps every multiplicity to d + 1, so only d has to
        # stay below the prime
        assert hf_plane(5, PlaneScheme(2**31, 0), oracle) == 0
        assert hf_plane(2, PlaneScheme(0, 0, (4,)), oracle) == 0

    def test_negative_degree(self, oracle):
        with pytest.raises(ValueError, match="nonnegative"):
            hf_plane(-1, PlaneScheme(1, 1), oracle)

    def test_collinear_forces_the_line(self, oracle):
        # conics through four collinear points all contain the line
        scheme = PlaneScheme(0, 0, (), (SliceProfile((1,)),) * 4)
        assert hf_plane(2, scheme, oracle) == 3

    def test_semicontinuity_under_specialization(self, fast_oracle):
        rng = random.Random(4242)
        for _ in range(15):
            ca, cb = rng.randrange(0, 4), rng.randrange(0, 4)
            mults = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 5))]
            d = rng.randrange(3, 9)
            moved = rng.randrange(1, len(mults) + 1)
            general = PlaneScheme(ca, cb, tuple(mults))
            special = PlaneScheme(
                ca,
                cb,
                tuple(mults[moved:]),
                tuple(SliceProfile.fat_point(m) for m in mults[:moved]),
            )
            assert hf_plane(d, special, fast_oracle) >= hf_plane(d, general, fast_oracle)


def all_trials_row(a_max, b, mults, cfg):
    """hf_biproj_row's support and ranks, every trial run, max kept."""
    mults = tuple(mults)
    best = [0] * (a_max + 1)
    for trial in range(cfg.trials):
        points = sample_support(derive_seed(cfg.seed, "bi", b, mults, trial),
                                len(mults), cfg.prime)
        M = bi_conditions_matrix(BiDegree(a_max, b), mults, points, cfg.prime)
        pivots = rank_profile_mod_p(M, cfg.prime)
        best = [max(r, bisect_left(pivots, (a + 1) * (b + 1))) for a, r in enumerate(best)]
    return best


def all_trials_plane(d, scheme, cfg):
    """hf_plane's draw and ranks, every trial run, max kept."""
    p = cfg.prime
    n_gen, n_line = len(scheme.general), len(scheme.on_line)
    best = 0
    for trial in range(cfg.trials):
        rng = random.Random(derive_seed(
            cfg.seed, "plane", d, scheme.corner_a, scheme.corner_b,
            scheme.general, tuple(pr.widths for pr in scheme.on_line), trial,
        ))
        xs = _distinct(rng, n_gen + n_line + 2, p)
        ys = _distinct(rng, n_gen + 2, p)
        chart = list(zip(xs[:n_gen] + xs[-2:], ys))
        M = plane_conditions_matrix(d, scheme, chart, xs[n_gen : n_gen + n_line], p)
        best = max(best, len(rank_profile_mod_p(M, p)))
    return binom(d + 2, 2) - best


@pytest.fixture
def eliminations(monkeypatch):
    """Counts the calls of the elimination kernel; rank_mod_p goes through it."""
    calls = []
    kernel = oracle_module.rank_profile_mod_p

    def counted(M, p):
        calls.append(M.shape)
        return kernel(M, p)

    monkeypatch.setattr(oracle_module, "rank_profile_mod_p", counted)
    return calls


class TestEarlyStop:
    """Trials stop once every requested rank reaches min(rows, cols); the
    values must equal the max over every trial."""

    def test_criterion_2_and_3_grids(self, oracle, eliminations):
        rows = 0
        for b in range(1, 13):
            for s in range(1, 13):
                expected = all_trials_row(12, b, [3] * s, oracle)
                assert hf_biproj_row(b, range(13), [3] * s, oracle) == dict(enumerate(expected))
                rows += 1
        for m in range(2, 7):
            for b in range(0, m + 1):
                for s in range(1, 11):
                    expected = all_trials_row(20, b, [m] * s, oracle)
                    row = hf_biproj_row(b, range(b, 21), [m] * s, oracle)
                    assert row == {a: expected[a] for a in range(b, 21)}, (b, m, s)
                    rows += 1
        assert len(eliminations) < rows * oracle.trials  # some rows stopped early

    def test_golden_table_rows(self, oracle, eliminations):
        grid = table_region(5, 5, 25, 18, oracle)
        # 7 of the 13 oracle rows certify every unknown cell on trial 1
        assert len(eliminations) == 7 + 6 * oracle.trials
        resolved = 0
        for b, cells in enumerate(grid):
            expected = all_trials_row(25, b, [5] * 5, oracle)
            for a, hf in enumerate(cells):
                if hf.source is Source.ORACLE:
                    assert hf.value == expected[a], (a, b)
                    resolved += 1
        assert resolved == 13 * 20

    def test_criterion_6_chain(self, oracle):
        a, b, s = 6, 4, 6
        step1 = specialize_triple_step1(a, b, s)
        step2 = specialize_triple_step2(step1)
        d = a + b
        calls = [(d, PlaneScheme(a, b, (3,) * s)), (d - 2, step1.residual),
                 (d - 4, step2.residual), (d, step1.scheme), (d - 2, step2.scheme)]
        for degree, scheme in calls:
            assert hf_plane(degree, scheme, oracle) == all_trials_plane(degree, scheme, oracle)

    def test_criterion_6_chain_stops_early(self, oracle, eliminations):
        # the same chain: at least one of its five plane calls certifies
        verify_chain(6, 4, 6, oracle)
        assert len(eliminations) < 5 * oracle.trials

    def test_certified_cell_takes_one_elimination(self, oracle, eliminations):
        # 5 points of multiplicity 5 give 75 rows, and the rank reaches them
        assert hf_biproj(BiDegree(12, 7), [5] * 5, oracle) == 75
        assert len(eliminations) == 1

    def test_defective_cell_takes_every_trial(self, oracle, eliminations):
        # rank 69 below min(75, 70): never certified
        assert hf_biproj(BiDegree(9, 6), [5] * 5, oracle) == 69
        assert len(eliminations) == oracle.trials

    def test_golden_row_waits_for_its_defective_cell(self, oracle, eliminations):
        grid = table_region(5, 5, 25, 6, oracle)
        assert grid[6][9].value == 69
        # rows 0 to 5 are all closed forms, so row 6 is the only oracle row
        assert len(eliminations) == oracle.trials

    def test_plane_scheme(self, oracle, eliminations):
        # one 6-fold corner imposes its 21 conditions on degree-10 forms
        assert hf_plane(10, PlaneScheme(6, 0), oracle) == binom(12, 2) - binom(7, 2)
        assert len(eliminations) == 1
        # four collinear points impose only three conditions on conics
        scheme = PlaneScheme(0, 0, (), (SliceProfile((1,)),) * 4)
        assert hf_plane(2, scheme, oracle) == 3
        assert len(eliminations) == 1 + oracle.trials

    def test_row_reads_only_its_cells(self, oracle, eliminations):
        # m = 4, s = 9: the closed defective-family cell (14, 5) sits among
        # the unknown cells 5..20 of row b = 5, which certify on trial 1
        grid = table_region(4, 9, 20, 5, oracle)
        assert len(eliminations) == 1
        expected = all_trials_row(20, 5, [4] * 9, oracle)
        oracle_cells = [a for a, hf in enumerate(grid[5]) if hf.source is Source.ORACLE]
        assert oracle_cells == [a for a in range(5, 21) if a != 14]
        for a in oracle_cells:
            assert grid[5][a].value == expected[a], a
        assert grid[5][14].source is Source.FORMULA
        row = hf_biproj_row(5, (20, 6), [4] * 9, oracle)
        assert row == {20: expected[20], 6: expected[6]}

    def test_cells_are_checked(self, oracle):
        for cells in ((), [], (3, -1), (-1,)):
            with pytest.raises(ValueError, match="cells"):
                hf_biproj_row(2, cells, [2], oracle)


class TestTraceLine:
    def test_examples(self, oracle):
        assert hf_trace_line(5, [3, 3], oracle) == 0
        assert hf_trace_line(5, [3, 2], oracle) == 1
        assert hf_trace_line(7, [], oracle) == 8

    def test_overloaded_line(self, oracle):
        assert hf_trace_line(3, [3, 3], oracle) == 0

    def test_refuses_bad_input(self, oracle):
        with pytest.raises(ValueError, match="nonnegative"):
            hf_trace_line(-1, [1], oracle)
        for lengths in ([0], [2, -1]):
            with pytest.raises(ValueError, match="positive"):
                hf_trace_line(5, lengths, oracle)


class TestReduction:
    def test_examples(self, oracle):
        assert check_reduction(BiDegree(5, 4), UniformFatPoints(5, 3), oracle)
        assert check_reduction(BiDegree(4, 4), UniformFatPoints(5, 5), oracle)
        assert check_reduction(BiDegree(1, 1), UniformFatPoints(1, 1), oracle)


class TestConfig:
    def test_rejects_bad_primes(self):
        with pytest.raises(OracleConfigError):
            OracleConfig(prime=2**31 - 2)
        with pytest.raises(OracleConfigError):
            OracleConfig(prime=101)
        with pytest.raises(OracleConfigError):
            OracleConfig(trials=0)
        with pytest.raises(OracleConfigError, match="too large"):
            OracleConfig(prime=2148532231)

    def test_miller_rabin(self):
        # 32707 * 32831: no factor up to 37, so the witness loop decides
        assert not is_prime(1073803517)
        with pytest.raises(OracleConfigError, match="not prime"):
            OracleConfig(prime=1073803517)
        assert is_prime(DEFAULT_PRIME) and is_prime(ALT_PRIME) and is_prime(LARGEST_PRIME)
        assert [n for n in range(2, 60) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_rejects_small_prime_for_degree(self):
        cfg = OracleConfig()
        with pytest.raises(OracleConfigError):
            cfg.require_degree(2**31)

    def test_support_is_distinct_and_reproducible(self):
        points = sample_support(123, 40, 2**31 - 1)
        assert len(points) == 40
        xs = [x for x, _ in points]
        ys = [y for _, y in points]
        assert len(set(xs)) == len(xs)
        assert len(set(ys)) == len(ys)
        assert points == sample_support(123, 40, 2**31 - 1)

    def test_seed_derivation_spreads(self):
        seeds = {derive_seed(0, "bi", a, b, (3, 3), t) for a in range(5)
                 for b in range(5) for t in range(3)}
        assert len(seeds) == 75
