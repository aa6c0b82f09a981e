import hashlib
import random
import re
import tracemalloc
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fatpoints import oracle as oracle_module
from fatpoints.core import BiDegree, Source, UniformFatPoints, binom
from fatpoints.formulas import hf_uniform, table_region
from fatpoints.horace import (
    horace_verify,
    specialize_triple,
    verify_chain,
)
from fatpoints.oracle import (
    ALT_PRIME,
    DEFAULT_PRIME,
    DEFAULT_TRIALS,
    ColumnSource,
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
    hf_uniform_cells,
    is_prime,
    plane_conditions_matrix,
    rank_mod_p,
    rank_profile_mod_p,
    require_plane_fits,
    sample_support,
    _bi_row,
    _panel_width,
    _sub_mul_mod_p,
)
from fatpoints.schemes import PlaneScheme, SliceProfile, reduce_to_plane
from reference_builder import (
    reference_conditions_matrix,
    triangle_conditions,
    triangle_conditions_matrix,
)
from test_corpus import replay


def profile_runs(profiles, on_line=0):
    """The runs of one point per profile, the last on_line of them on the
    line: each stretch of equal profiles on one side of the line is a run."""
    lined = [i >= len(profiles) - on_line for i in range(len(profiles))]
    return [(widths, len(list(run)), line)
            for (widths, line), run in groupby(zip(map(tuple, profiles), lined))]


def chart_runs(mults):
    """The runs of fat points of these multiplicities off the line, every row
    of each built."""
    return profile_runs([fat_profile(m) for m in mults])


def plane_matrix(d, scheme, points, p):
    """plane_conditions_matrix on the scheme's rows that hf_plane builds: a
    level-e row d_u^c d_v^e has order c + e, and is zero on degree-d forms
    above order d."""
    runs = [(fat_profile(min(m, d + 1)), 1, False) for m in scheme.general]
    runs += [(tuple(min(w, d + 1 - e) for e, w in enumerate(pr.widths) if e <= d), 1, True)
             for pr in scheme.on_line]
    return plane_conditions_matrix(d, (scheme.corner_a, scheme.corner_b), runs, points, p)


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
                    M = bi_conditions_matrix(BiDegree(a, b), chart_runs(mults), points, p)
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


def continued_matrices(p):
    """Wide matrices whose first rows + 3 columns leave the rank short of the
    rows after more than 3 pivots, at the ends of [0, p) and random, one
    with zero rows."""
    rng = np.random.default_rng(p)
    short = np.concatenate([low_rank(rng, 10, 13, 7, p), rng.integers(0, p, (10, 20))], axis=1)
    ends = (rng.random((9, 30)) < 0.5) * (p - 1)
    ends[:, 4:12] = ends[:, [0, 1, 2, 3, 3, 2, 1, 0]]  # at most 4 pivots in 0..11
    ends[:, 12:16] = 0
    holes = short.copy()
    holes[[0, 4, 5]] = 0
    return [short, ends, holes]


def unreduced_matrices(p):
    """Matrices with negative entries and entries of p or more, of rank 7
    and 30; the second is wider than a panel."""
    rng = np.random.default_rng(p)
    small = rng.integers(-3 * p, 3 * p, (8, 11))
    small[0, :3] = [-1, p, -p]
    small[1] = small[2] - 5 * p  # congruent rows: the rank stays below 8
    wide = low_rank(rng, 40, 200, 30, p) + p * rng.integers(-2, 3, (40, 200))
    wide[:, 100:150] = -wide[:, :50]
    return [small, wide]


# (a, b, s) of the benchmark's reduce cells, s points of multiplicity 5
REDUCE_CELLS = [(25, 18, 5), (20, 20, 8)]


def triangle_first_trial(a, b, s):
    """The triangle geometry's plane matrix of reduce --a a --b b --m 5
    --s s at seed 0, on the support of its first trial there: the s
    general points, then the two corners."""
    p = DEFAULT_PRIME
    scheme, d = reduce_to_plane(BiDegree(a, b), UniformFatPoints(s, 5))
    points = sample_support(derive_seed(0, *plane_tags(d, scheme), 0), s + 2, p)
    return triangle_conditions_matrix(d, scheme, points, p)


class TestReferenceElimination:
    """The kernel against plain Python-int elimination, on the single panel,
    on the blocked path forced with cutoff 0 and panel width 3, and on the
    single panel going on in panels, forced with panel width 3: a first panel
    of rows + 3 columns, whose pivots outnumber the panel width in the
    matrices of continued_matrices."""

    @pytest.mark.parametrize("path", ["single_panel", "blocked", "continued"])
    @pytest.mark.parametrize("p", [DEFAULT_PRIME, ALT_PRIME, LARGEST_PRIME])
    def test_matches_python_int_elimination(self, p, path, monkeypatch):
        matrices = structured_matrices(random.Random(p), p) + extreme_matrices(p)
        inner = []
        if path == "blocked":
            monkeypatch.setattr("fatpoints.oracle._SINGLE_PANEL_ENTRIES", 0)
        if path != "single_panel":
            monkeypatch.setattr("fatpoints.oracle._panel_width", lambda p: 3)
            monkeypatch.setattr("fatpoints.oracle._sub_mul_mod_p",
                                lambda C, A, B, p: inner.append(len(B)) or _sub_mul_mod_p(C, A, B, p))
            matrices += continued_matrices(p)
        for M in matrices:
            assert rank_profile_mod_p(M, p) == reference_profile(M, p), M.shape
        if path == "continued":
            assert max(inner) > 3  # a first panel's multiplier and catch-ups in slices

    @pytest.mark.parametrize("cutoff", [None, 0], ids=["single_panel", "blocked"])
    @pytest.mark.parametrize("p", [DEFAULT_PRIME, LARGEST_PRIME])
    def test_reduces_entries_outside_the_field(self, p, cutoff, monkeypatch):
        if cutoff is not None:
            monkeypatch.setattr("fatpoints.oracle._SINGLE_PANEL_ENTRIES", cutoff)
        for M, rank in zip(unreduced_matrices(p), (7, 30)):
            before = M.copy()
            pivots = rank_profile_mod_p(M, p)
            assert (M == before).all()
            assert pivots == reference_profile(M, p), M.shape
            assert len(pivots) == rank


class TestLowerFactor:
    """The single-panel loop leaves P A = L U in place: L on and below the
    diagonal, U unit upper triangular above it. On a square matrix that
    takes no swap, P is the identity."""

    @pytest.mark.parametrize("p", [DEFAULT_PRIME, LARGEST_PRIME])
    def test_tril_times_unit_triu_is_the_input(self, p):
        n = 12
        dense = np.random.default_rng(p).integers(1, p, (n, n))
        # -(J + I): every entry p-1 or p-2, leading minors (-1)^k (k+1)
        ends = np.full((n, n), p - 1, dtype=np.int64) - np.eye(n, dtype=np.int64)
        for A in (dense, ends):
            M, pivots = A.copy(), []
            assert oracle_module._eliminate_panel(M, p, 0, 0, n, pivots) == n
            assert pivots == list(range(n))
            L = np.tril(M).astype(object)
            U = (np.triu(M, 1) + np.eye(n, dtype=np.int64)).astype(object)
            assert ((L @ U - A.astype(object)) % p == 0).all()


class TestBlockedElimination:
    """The blocked path against the single panel, forced by patching the
    private cutoff (and, for matrices under 64 columns, the panel width)."""

    @pytest.mark.parametrize("p", [DEFAULT_PRIME, LARGEST_PRIME])
    def test_limb_product_is_exact_at_the_panel_width(self, p):
        k = _panel_width(p)
        assert k == (64 if p == DEFAULT_PRIME else 63)
        # from C = 0 both limb products take C to its least value before the
        # remainder; an inner dimension of 2k + 1 goes in three slices, each
        # taking C lower still
        for inner in (k, 2 * k + 1):
            worst = np.full((5, inner), p - 1, dtype=np.int64)
            C = np.zeros((5, 300), dtype=np.int64)
            _sub_mul_mod_p(C, worst, np.full((inner, 300), p - 1, dtype=np.int64), p)
            assert (C == -inner * (p - 1) ** 2 % p).all()
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
        # the golden table's widest row (60 x 479), the widest verify row
        # (m 6, s 10, 189 x 21), every matrix of the 23 criterion-6 chains
        # of the benchmark (at most 66 x 64) and the plane matrices of the
        # reduce cells (25, 18, 5, 5) and (20, 20, 5, 8) stay on the single
        # panel; the large cell, 684 x 1645, is the only workload matrix in
        # panels. The triangle geometry's matrices of those reduce cells
        # take the blocked path too
        p = DEFAULT_PRIME
        planes = []
        for a, b, s in REDUCE_CELLS:
            scheme, d = reduce_to_plane(BiDegree(a, b), UniformFatPoints(s, 5))
            M = plane_matrix(d, scheme, sample_support(0, s + 1, p), p)
            planes.append(M.shape)
        assert planes == [(75, 494), (120, 441)]
        for rows, cols in [(60, 479), (189, 21), (66, 64)] + planes:
            assert rows * cols <= oracle_module._SINGLE_PANEL_ENTRIES
        triangles = [triangle_first_trial(a, b, s).shape for a, b, s in REDUCE_CELLS]
        assert triangles == [(571, 990), (540, 861)]
        for rows, cols in [(684, 1645)] + triangles:
            assert rows * cols > oracle_module._SINGLE_PANEL_ENTRIES

    def test_reduce_cell_pivots_match_the_single_panel(self, monkeypatch):
        # the triangle geometry's plane matrices of reduce --a 25 --b 18
        # --m 5 --s 5 and reduce --a 20 --b 20 --m 5 --s 8, on the support
        # its first trial drew
        seen = [triangle_first_trial(a, b, s) for a, b, s in REDUCE_CELLS]
        assert [M.shape for M in seen] == [(571, 990), (540, 861)]
        p = DEFAULT_PRIME
        for M in seen:
            assert M.size > oracle_module._SINGLE_PANEL_ENTRIES
            pivots = rank_profile_mod_p(M, p)
            with monkeypatch.context() as single:
                single.setattr("fatpoints.oracle._SINGLE_PANEL_ENTRIES", M.size)
                assert pivots == rank_profile_mod_p(M, p)
            assert len(pivots) == len(M)

    def test_large_row_reads_every_prefix(self, oracle):
        # 20 points of multiplicity 8 at (40, 40): a 684 x 1645 matrix, the
        # rows of the 19 points off the origin
        row = hf_biproj_row(40, range(41), (8,) * 20, oracle)
        assert row[40] == 720
        pts = UniformFatPoints(20, 8)
        for a in range(9):  # min(a, b) <= m has a closed form
            assert row[a] == hf_uniform(BiDegree(a, 40), pts).value, a


def recording_source(M, fetched: list) -> ColumnSource:
    """M as a column source that appends the range of each panel it copies
    out to fetched."""
    def fetch(columns):
        fetched.append(range(*columns.indices(M.shape[1])))
        return M[:, columns].copy()

    return ColumnSource(M.shape, fetch)


class TestLeftLooking:
    """The elimination updates a column only when it reaches it, and only
    the rows whose multiplier row is nonzero."""

    @staticmethod
    def record_updates(monkeypatch, fetched=None) -> list:
        """Patch _sub_mul_mod_p to record, for each call that catches a panel
        up, the columns it writes: those of the panel last fetched, whose
        rows A12 are a view of it, from fetched when a recording_source is
        eliminated. A multiplier's call, whose B is L11^-1, records None."""
        calls = []

        def recording(C, A, B, p):
            calls.append(None if B.base is None else fetched[-1] if fetched else True)
            _sub_mul_mod_p(C, A, B, p)

        monkeypatch.setattr("fatpoints.oracle._sub_mul_mod_p", recording)
        return calls

    def test_no_column_past_the_last_pivot_panel(self, monkeypatch):
        p = DEFAULT_PRIME
        mults = (8,) * 20
        points = sample_support(derive_seed(0, "bi", 40, mults, 0), 20, p)
        M = bi_conditions_matrix(BiDegree(40, 40), chart_runs(mults), points, p)
        assert M.shape == (720, 1681)
        fetched = []
        calls = self.record_updates(monkeypatch, fetched)
        pivots = rank_profile_mod_p(recording_source(M, fetched), p)
        assert pivots == list(range(720))  # the multipliers live in these columns
        written = [cols for cols in calls if cols is not None]
        assert written and max(cols.stop for cols in written) == 768
        # twelve panels: each caught up from every earlier one, and none
        # past them copied out
        assert len(written) == 11 * 12 // 2
        assert fetched == [range(c, c + 64) for c in range(0, 768, 64)]

    def test_golden_row_makes_no_update(self, monkeypatch):
        p = DEFAULT_PRIME
        mults = (5,) * 5
        points = sample_support(derive_seed(0, "bi", 18, mults, 0), 5, p)
        M = bi_conditions_matrix(BiDegree(25, 18), chart_runs(mults), points, p)
        assert M.shape == (75, 494)
        calls = self.record_updates(monkeypatch)
        assert len(rank_profile_mod_p(M, p)) == 75
        assert calls == []

    def test_panels_with_no_live_row_make_no_update(self, monkeypatch):
        # block upper triangular with dense 64 x 64 diagonal blocks: below
        # each panel's pivots every L21 row is zero
        p = DEFAULT_PRIME
        rng = np.random.default_rng(5)
        M = np.triu(rng.integers(0, p, (320, 320)))
        for i in range(0, 320, 64):
            M[i : i + 64, i : i + 64] = rng.integers(0, p, (64, 64))
        M = np.concatenate([M, rng.integers(0, p, (320, 50))], axis=1)
        monkeypatch.setattr("fatpoints.oracle._SINGLE_PANEL_ENTRIES", 0)
        calls = self.record_updates(monkeypatch)
        assert rank_profile_mod_p(M, p) == list(range(320))
        assert calls == []

    def test_only_live_rows_take_the_update(self, monkeypatch):
        # after the first panel, rows 64 on have nonzero L21 in every fourth
        # row only; the catch-up gathers exactly those
        p = DEFAULT_PRIME
        rng = np.random.default_rng(6)
        M = rng.integers(0, p, (200, 400))
        M[64:, :64] = 0
        M[64::4, :64] = rng.integers(1, p, (34, 64))
        expected = rank_profile_mod_p(M, p)
        gathered = []
        monkeypatch.setattr("fatpoints.oracle._SINGLE_PANEL_ENTRIES", 0)
        monkeypatch.setattr("fatpoints.oracle._sub_mul_mod_p",
                            lambda C, A, B, p: gathered.append(len(C)) or _sub_mul_mod_p(C, A, B, p))
        assert rank_profile_mod_p(M, p) == expected
        assert gathered[:2] == [34, 34]  # the first multiplier, then the first catch-up


def traced_peak(call):
    """call()'s result and the tracemalloc peak of its allocations."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


LARGE_CELL_BYTES = 720 * 1681 * 8  # the large cell's int64 matrix on the whole box
REACHED_BYTES = 684 * 704 * 8  # and with one point at the origin, its columns the kernel reaches


class TestOwnership:
    """The kernel fetches each panel as it reaches it. The trial loop hands
    it a ColumnSource that builds those columns on the trial's support, and
    a caller's array is copied a panel at a time and left as it was, so no
    trial builds or holds a column its elimination never reaches."""

    @pytest.mark.parametrize("cutoff", [None, 0], ids=["single_panel", "blocked"])
    def test_source_gives_the_same_pivots(self, cutoff, monkeypatch):
        p = DEFAULT_PRIME
        if cutoff is not None:
            monkeypatch.setattr("fatpoints.oracle._SINGLE_PANEL_ENTRIES", cutoff)
        matrices = (structured_matrices(random.Random(13), p) + blocked_cases(p)
                    + unreduced_matrices(p))
        for M in matrices:
            before = M.copy()
            expected = rank_profile_mod_p(M, p)
            fetched = []
            # the unreduced matrices' panels come out unreduced too
            assert rank_profile_mod_p(recording_source(M, fetched), p) == expected, M.shape
            assert (M == before).all(), M.shape
            # panels in order from column 0, each fetched once
            assert [cols.start for cols in fetched] == [0] + [cols.stop for cols in fetched[:-1]]

    def test_large_cell_peaks_near_its_matrix(self):
        # build and elimination of the 684 x 1645 matrix, which certifies on
        # its first trial at column 704 of 1645: peaks near those columns
        # alone, 1.5 times them with the 684 x 684 array of multipliers (with
        # the whole matrix built and eliminated in place it read 1.2 times
        # 684 x 1645, 2.8 times the columns reached)
        ranks, peak = traced_peak(lambda: hf_biproj_row(40, (40,), (8,) * 20))
        assert ranks == {40: 720}
        assert peak <= 1.6 * REACHED_BYTES, peak / REACHED_BYTES

    def test_wide_cell_peaks_near_its_reached_columns(self):
        # a 684 x 14605 matrix, 80 MB whole, that certifies at column 832
        # (built whole it read 18 times those columns)
        ranks, peak = traced_peak(lambda: hf_biproj_row(120, (120,), (8,) * 20))
        assert ranks == {120: 720}
        assert peak <= 1.6 * 684 * 832 * 8, peak / (684 * 832 * 8)

    def test_no_trial_matrix_outlives_its_elimination(self, eliminations):
        # the large cell's build with its last row a copy of its first: the
        # rank stays below the rows, so every trial runs through every
        # column, and the peak stays near one matrix only if each trial's
        # panels are freed before the next is built (2.0 if they are not)
        p, mults, deg = DEFAULT_PRIME, (8,) * 20, BiDegree(40, 40)

        def build(points, columns):
            M = bi_conditions_matrix(deg, chart_runs(mults), points, p, columns=columns)
            M[-1] = M[0]
            return M

        cfg = OracleConfig()
        ranks, peak = traced_peak(
            lambda: oracle_module._max_ranks(("bi", 40, mults), 20, chart_runs(mults), build,
                                             {deg.cells: 720}, cfg))
        assert ranks == {deg.cells: 719}
        assert eliminations == [(720, 1681)] * cfg.trials
        assert peak <= 1.3 * LARGE_CELL_BYTES, peak / LARGE_CELL_BYTES


class TestConditionsMatrix:
    def test_chart_fat_point_matches_reference(self):
        p = 2**31 - 1
        rng = random.Random(31)
        for a, b in [(2, 2), (4, 1), (0, 3), (5, 4)]:
            u, v = rng.randrange(1, p), rng.randrange(1, p)
            M = conditions_matrix([(u, v)], [(fat_profile(3), 1, False)],
                                  np.arange(a + 1)[:, None], np.arange(b + 1), p)
            reference = [[x % p for x in row] for row in triple_point_rows_at(u, v, a, b)]
            assert sorted(M.tolist()) == sorted(reference)

    def test_on_line_profile_gives_sum_of_widths_rows(self):
        p = 2**31 - 1
        j, k = np.triu_indices(7)
        profiles = [(3, 1), (2,), (4, 2, 1), fat_profile(2)]
        points = [(5, 0), (9, 0), (11, 0), (13, 17)]
        M = conditions_matrix(points, profile_runs(profiles), j, k - j, p)
        assert M.shape == (sum(map(sum, profiles)), binom(8, 2))
        # a row at level e on y = 0 sees only the monomials x^j y^e
        assert not M[:3, k - j != 0].any()
        assert not M[3, k - j != 1].any()

    def test_equals_per_point_reference(self, fast_oracle, monkeypatch):
        shapes = []

        def checked(points, runs, xexp, yexp, p, **line):
            M = conditions_matrix(list(points), runs, xexp, yexp, p, **line)
            # the reference takes one profile per point, those on the line last
            profiles = [widths for widths, n, _ in runs for _ in range(n)]
            lined = [on for _, n, on in runs for _ in range(n)]
            on_line = sum(lined)
            assert not any(lined[: len(lined) - on_line])
            reference = reference_conditions_matrix(list(points), profiles, xexp, yexp, p,
                                                    on_line=on_line, **line)
            assert np.array_equal(M, reference), M.shape
            shapes.append(M.shape)
            return M

        monkeypatch.setattr("fatpoints.oracle.conditions_matrix", checked)
        # each matrix built whole too, not only the panels the kernel reaches
        kernel, eliminated = oracle_module.rank_profile_mod_p, []

        def built_whole(matrix, p):
            eliminated.append(whole(matrix).shape)
            return kernel(matrix, p)

        monkeypatch.setattr(oracle_module, "rank_profile_mod_p", built_whole)
        # the widest matrix of each verify call of the benchmark's scan,
        # m 2..6 and s 1..10 at a 5, b m
        for m in range(2, 7):
            for s in range(1, 11):
                hf_biproj_row(m, (5,), (m,) * s, fast_oracle)
        # at s = 1 the origin's point is alone, and nothing is eliminated
        assert len(eliminated) == 45 and (189, 21) in shapes
        # every golden-table row, at its widest unknown cell
        table_region(5, 5, 25, 18, fast_oracle)
        assert (60, 479) in shapes
        # the plane matrices of the reduce cells (25, 18, 5, 5) and (20, 20, 5, 8)
        for a, b, s in REDUCE_CELLS:
            scheme, d = reduce_to_plane(BiDegree(a, b), UniformFatPoints(s, 5))
            hf_plane(d, scheme, fast_oracle)
        assert {(75, 494), (120, 441)} <= set(shapes)
        # a Horace chain, whose specialized schemes have points on the line
        assert verify_chain(6, 4, 6, fast_oracle).ok
        # mixed plane schemes whose runs of equal profile come back, with an
        # empty profile among them, and with a run cut where the points on
        # the line begin
        p = DEFAULT_PRIME
        rng = random.Random(12)
        j, k = np.triu_indices(9)
        for _ in range(20):
            kinds = [fat_profile(3), (2, 1), (4, 2, 1), (), (1,), (3, 3, 2), (2, 2)]
            profiles = [rng.choice(kinds) for _ in range(rng.randrange(1, 12))]
            profiles[-3:] = [fat_profile(3), (2, 1), fat_profile(3)]
            points = [(rng.randrange(1, p), rng.randrange(p)) for _ in profiles]
            checked(points, profile_runs(profiles, rng.randrange(len(profiles) + 1)), j, k - j,
                    p, slope=rng.randrange(1, p))
        # the line, with a scalar y exponent
        hf_trace_line(12, (3, 1, 4, 2), fast_oracle)
        assert (10, 13) in shapes
        # derivative orders above the degree, whose rows of the tables stay
        # zero: multiplicity 6 at bidegree (2, 1), 6 orders against 3
        # exponents, and a length longer than d + 1 on the line, which the
        # line model itself clamps to d + 1
        bi_conditions_matrix(BiDegree(2, 1), chart_runs((6,) * 3), sample_support(7, 3, p), p)
        checked([(rng.randrange(1, p), 0)], [((5,), 1, False)], np.arange(3), 0, p)
        assert {(63, 6), (5, 3)} <= set(shapes)

    def test_points_and_profiles_must_match(self):
        p = DEFAULT_PRIME
        columns = (np.arange(4)[:, None], np.arange(3))
        for points, profiles in [([(3, 5)], [fat_profile(2), (1,)]),
                                 ([(3, 5), (7, 11)], [fat_profile(2)])]:
            with pytest.raises(ValueError):
                conditions_matrix(points, profile_runs(profiles), *columns, p)

    def test_empty_profile_adds_no_rows(self):
        p = DEFAULT_PRIME
        columns = (np.arange(5)[:, None], np.arange(4))
        points = [(3, 5), (7, 11), (13, 17), (19, 23)]
        profiles = [fat_profile(2), (), fat_profile(2), (3, 1)]
        M = conditions_matrix(points, profile_runs(profiles), *columns, p)
        without = conditions_matrix(points[:1] + points[2:],
                                    profile_runs(profiles[:1] + profiles[2:]),
                                    *columns, p)
        assert M.shape == (10, 20)
        assert np.array_equal(M, without)

    def test_build_peaks_near_the_matrix(self):
        # no temporary as large as the matrix, or as a sizeable part of it:
        # the large_cell matrix, 720 x 1681, is one run of equal profiles,
        # and the triangle geometry's plane matrices of the reduce cells
        # (25, 18, 5, 5) and (20, 20, 5, 8), 571 x 990 and 540 x 861, are a few
        p = DEFAULT_PRIME
        builds = [(partial(conditions_matrix, sample_support(5, 20, p), chart_runs((8,) * 20),
                           np.arange(41)[:, None], np.arange(41), p), (720, 1681), 1.1)]
        for (a, b, s), shape in zip(REDUCE_CELLS, [(571, 990), (540, 861)]):
            scheme, d = reduce_to_plane(BiDegree(a, b), UniformFatPoints(s, 5))
            points, profiles, *columns = triangle_conditions(d, scheme,
                                                             sample_support(5, s + 2, p))
            builds.append((partial(conditions_matrix, points, profile_runs(profiles), *columns, p),
                           shape, 1.3))
        for build, shape, bound in builds:
            tracemalloc.start()
            try:
                M = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert M.shape == shape
            assert peak <= bound * M.nbytes, (shape, peak / M.nbytes)

    def test_tables_span_only_the_exponents_of_the_columns(self):
        # the one column x^300000 that a 300000-fold origin leaves of the
        # (300000, 0) box reads t^300000 of the one point drawn, not the
        # powers t^0 .. t^300000 of both its coordinates (about 7 MB)
        cells, peak = traced_peak(lambda: hf_biproj_row(0, (300000,), (300000, 1)))
        assert cells == {300000: 300001}
        assert peak < 2**20
        # tables that start above t^0 on both axes, off and on the line
        p = DEFAULT_PRIME
        profiles = [fat_profile(3), (2, 1), (3, 2)]
        points = list(sample_support(4, 3, p))
        xexp, yexp = np.arange(40, 46)[:, None], np.arange(30, 33)
        for on_line in (0, 2):
            M = conditions_matrix(points, profile_runs(profiles, on_line), xexp, yexp, p,
                                  slope=7)
            reference = reference_conditions_matrix(points, profiles, xexp, yexp, p,
                                                    on_line=on_line, slope=7)
            assert np.array_equal(M, reference), on_line

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
            conditions_matrix([(3, 5)], [(fat_profile(5), 1, False)],
                              np.arange(n + 1)[:, None], np.arange(n + 1), p)
        # corners of multiplicity 2000 leave 4 million forms of degree 4000,
        # and a general point of multiplicity 2000 has 2 million rows
        with pytest.raises(ValueError, match="^a 2001000 x 4004001 conditions matrix"):
            hf_plane(4000, PlaneScheme(2000, 2000, (2000,)), OracleConfig(trials=1))
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

    def test_plane_refused_before_its_support(self, monkeypatch):
        # the 1 GiB the byte-identity corpus pins refuses 10^5 triple points
        # on the 9 x 8 forms of degree 15 that the corners leave, before a
        # coordinate of them is drawn
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 18}
        monkeypatch.setattr("fatpoints.oracle.os.sysconf", pages.__getitem__)
        scheme = PlaneScheme(8, 7, (3,) * 100000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^a 600000 x 72 conditions matrix"):
                hf_plane(15, scheme, OracleConfig(trials=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_admitted_plane_peaks_near_its_matrix(self, eliminations):
        # corners of multiplicity 9998 leave the 3 x 3 forms of degree 10^4
        # that five triple points fill: the columns come from the box, not
        # from the 50 million forms of degree 10^4
        cfg = OracleConfig()
        tracemalloc.start()
        try:
            assert hf_plane(10**4, PlaneScheme(9998, 9998, (3,) * 5), cfg) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eliminations == [(30, 9)]
        assert peak < 2**20
        # corners of multiplicity 2000 and no other point: no row against
        # 2001 x 2001 forms of degree 4000, so nothing to eliminate
        cols = 2001**2
        tracemalloc.start()
        try:
            assert hf_plane(4000, PlaneScheme(2000, 2000), cfg) == cols
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eliminations[1:] == []
        assert peak <= conditions_bytes(1, cols), peak / conditions_bytes(1, cols)

    def test_horace_verify_refuses_its_conclusion_first(self, monkeypatch, eliminations):
        # at 16 MiB the 1800 x 210 residue and the 20 x 21 trace fit and the
        # conclusion does not: none of the three is eliminated
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 12}
        monkeypatch.setattr("fatpoints.oracle.os.sysconf", pages.__getitem__)
        with pytest.raises(ValueError, match="^a 1820 x 231 conditions matrix"):
            horace_verify(((1, 0),) * 20, PlaneScheme(0, 0, (2,) * 600), 20, OracleConfig())
        assert eliminations == []

    def test_compares_with_physical_memory(self, monkeypatch):
        p = 2**31 - 1
        columns = (np.arange(4)[:, None], np.arange(4))
        M = conditions_matrix([(3, 5)], [(fat_profile(2), 1, False)], *columns, p)
        assert M.shape == (3, 16)
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}  # one 4 KiB page
        monkeypatch.setattr("fatpoints.oracle.os.sysconf", pages.__getitem__)
        with pytest.raises(ValueError, match="physical memory"):
            conditions_matrix([(3, 5)], [(fat_profile(4), 1, False)], *columns, p)  # 6400 bytes


ONE_PAGE = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}


def refused_shape(guard, *args):
    """The shape guard(*args) names when one 4 KiB page of physical memory
    refuses its matrix, or None when it admits it."""
    with mock.patch("fatpoints.oracle.os.sysconf", ONE_PAGE.__getitem__):
        try:
            guard(*args)
        except ValueError as refusal:
            rows, cols = re.match(r"a (\d+) x (\d+) conditions matrix", str(refusal)).groups()
            return int(rows), int(cols)
    return None


def one_page_names(shape):
    """What a guard that counts a matrix of this shape names under one page."""
    rows, cols = shape
    return shape if conditions_bytes(max(rows, 1), max(cols, 1)) > 4096 else None


def whole(matrix):
    """What the kernel is handed, built whole: an array, or every column of
    a ColumnSource."""
    return matrix if isinstance(matrix, np.ndarray) else matrix.fetch(slice(None))


def built_shapes(call, *args):
    """The shapes of the conditions matrices that call(*args) eliminates,
    each built whole."""
    shapes = []
    kernel = oracle_module.rank_profile_mod_p

    def kept(matrix, p):
        shapes.append(whole(matrix).shape)
        return kernel(matrix, p)

    with mock.patch.object(oracle_module, "rank_profile_mod_p", kept):
        call(*args)
    return shapes


line_profiles = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
    lambda widths: SliceProfile(tuple(sorted(widths, reverse=True))))


# profiles on the line as tall and as wide as 12, past d + 1 for every d the
# guard tests draw
tall_line_profiles = st.lists(st.integers(1, 12), min_size=1, max_size=12).map(
    lambda widths: SliceProfile(tuple(sorted(widths, reverse=True))))


# a degree and two corner multiplicities of at most d + 2
plane_corners = st.integers(0, 8).flatmap(
    lambda d: st.tuples(st.just(d), st.integers(0, d + 2), st.integers(0, d + 2)))


class TestGuardCountsItsBuilder:
    """Each size guard refuses by the shape its builder would build: the
    shape a refusal names is the built matrix's, under one page of memory."""

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=3), st.integers(0, 8),
           st.lists(st.integers(0, 6), max_size=5))
    # multiplicities above a + b + 1 keep their rows of order a + b only,
    # and those above b + 1 their rows of level b only
    @example([2], 3, [2_000_000_000, 2_000_000_000, 4])
    @example([20], 0, [10, 10])
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_bidegree_rows(self, cells, b, mults):
        cfg = OracleConfig()
        counts = Counter(mults)
        # every point but the origin's, with its rows of order at most a + b
        # and of level at most b, on the columns the origin leaves; with no
        # row or no column left there is nothing to eliminate, and nothing
        # is built
        a = max(cells)
        origin, others = origin_split(mults)
        shape = (sum(min(m, a + b + 1) - e for m in others for e in range(min(m, b + 1))),
                 (a + 1) * (b + 1) - box_killed(a, b, origin))
        built = built_shapes(hf_biproj_row, b, cells, mults, OracleConfig(trials=1))
        assert built == ([shape] if shape[0] * shape[1] else [])
        assert refused_shape(_bi_row, b, cells, counts.items(), cfg) == one_page_names(shape)

    @given(plane_corners, st.lists(st.integers(0, 10), max_size=3),
           st.lists(tall_line_profiles, max_size=3))
    @example((5, 2, 1), [], [SliceProfile((3, 3, 2))])  # no general point, d != a + b
    @example((4, 6, 0), [9], [])  # corners and a point above d + 1
    @example((6, 3, 3), [2, 2], [SliceProfile((2, 1))])  # d = a + b
    @example((2, 0, 0), [], [SliceProfile.fat_point(10)])  # a point on the line above d + 1
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_plane_schemes(self, degree_corners, general, on_line):
        d, *corners = degree_corners
        scheme = PlaneScheme(*corners, tuple(general), tuple(on_line))
        p = DEFAULT_PRIME
        points = sample_support(0, len(general) + len(on_line) + 1, p)
        M = plane_matrix(d, scheme, points, p)
        got = refused_shape(require_plane_fits, d, corners, Counter(general).items(),
                            [pr.widths for pr in on_line])
        assert got == one_page_names(M.shape)
        # and hf_plane hands its guard that count
        assert refused_shape(hf_plane, d, scheme, OracleConfig(trials=1)) == got

    def test_rows_above_order_d_are_neither_built_nor_counted(self):
        # partials of order above d vanish on every degree-d form, so a point
        # on the line keeps min(w_e, d + 1 - e) rows at each level e <= d and
        # a length on the line min(l, d + 1), as a general point is clamped
        # to multiplicity d + 1; the values stay those of the raw widths
        cfg = OracleConfig()
        tenfold = PlaneScheme(0, 0, (), (SliceProfile.fat_point(10),))
        assert set(built_shapes(hf_plane, 2, tenfold, cfg)) == {(6, 6)}
        assert hf_plane(2, tenfold, cfg) == all_trials_triangle(2, tenfold, cfg) == 0
        assert built_shapes(hf_trace_line, 2, (5,), cfg) == [(3, 3)]
        assert hf_trace_line(2, (5,), cfg) == 0
        # 20000100000 rows unclamped, 4470 GiB to eliminate
        huge = PlaneScheme(0, 0, (), (SliceProfile.fat_point(200000),))
        assert set(built_shapes(hf_plane, 2, huge, cfg)) == {(6, 6)}
        assert hf_plane(2, huge, cfg) == 0

    @given(st.integers(0, 12), st.lists(st.integers(1, 16), max_size=4))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_line_lengths(self, d, lengths):
        cfg = OracleConfig()
        [shape] = built_shapes(hf_trace_line, d, lengths, cfg)
        assert refused_shape(hf_trace_line, d, lengths, cfg) == one_page_names(shape)

    @given(st.integers(0, 8), st.integers(0, 8), st.integers(1, 12), st.integers(0, 4))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_reduction_plane_side_is_no_larger(self, a, b, m, s):
        # than the whole box of the bidegree side; but the bidegree matrix
        # that is built leaves out the origin's rows and the columns they
        # kill, and no column is left where the plane clamps its points to
        # multiplicity d + 1. So the plane side is the larger, and
        # check_reduction refuses by it
        p = DEFAULT_PRIME
        deg = BiDegree(a, b)
        pts = UniformFatPoints(s, m)
        scheme, d = reduce_to_plane(deg, pts)
        plane = plane_matrix(d, scheme, sample_support(0, s + 1, p), p)
        bi = bi_conditions_matrix(deg, chart_runs((m,) * s), sample_support(0, s, p), p)
        assert plane.shape[1] == bi.shape[1]
        assert plane.shape[0] <= bi.shape[0]
        row = deg.normalized
        shapes = built_shapes(hf_biproj_row, row.b, (row.a,), (m,) * s, OracleConfig(trials=1))
        # nothing is built when no other point or no column is left
        assert len(shapes) == (s > 1 and m <= a + b)
        for rows, cols in shapes:
            assert conditions_bytes(max(rows, 1), cols) <= conditions_bytes(max(len(plane), 1),
                                                                             plane.shape[1])
        cfg = OracleConfig(trials=1)
        assert refused_shape(check_reduction, deg, pts, cfg) == one_page_names(plane.shape)


class TestBand:
    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 26), st.integers(-1, 26),
           st.slices(150))
    @example(6, 5, 3, 6, slice(2, 9))  # cut at both ends, as no model cuts
    @example(12, 12, 1, 20, slice(None, None, -3))
    @example(1, 12, 4, 7, slice(None))  # one column of the box
    @example(12, 1, 4, 7, slice(1, None, 2))  # one row
    @example(5, 5, 7, 3, slice(None))  # high below low: no column
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_is_the_masked_box(self, width, height, low, high, columns):
        # the band and its counts against the box masked at both ends, j-major
        j, k = np.divmod(np.arange(width * height), max(height, 1))
        keep = (low <= j + k) & (j + k <= high)
        assert oracle_module._below(width, height, low) == int((j + k < low).sum())
        assert oracle_module._below(width, height, high + 1) == int((j + k <= high).sum())
        got_j, got_k = oracle_module._band(width, height, low, high, columns)
        assert np.array_equal(got_j, j[keep][columns])
        assert np.array_equal(got_k, k[keep][columns])


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

    @given(st.integers(0, 7), st.integers(0, 5), st.lists(st.integers(0, 6), max_size=6),
           st.integers(0, 2))
    @example(3, 2, [], 0)  # s = 0: no point, none at the origin
    @example(4, 3, [4], 0)  # s = 1: the origin's point alone, no draw
    @example(2, 1, [5, 2, 5], 0)  # m0 > a + b: no column left
    @example(6, 0, [3, 5, 5], 0)  # b = 0: cells 0 to 4 share the empty cut
    @example(4, 3, [0, 2, 0, 3], 0)  # points of multiplicity 0
    @example(3, 2, [0, 0], 0)  # one of them at the origin
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_origin_point_equals_the_full_box(self, a_max, b, mults, seed):
        # every cell of the row, also those whose cuts coincide, against
        # every point drawn on the whole box
        cfg = OracleConfig(seed=seed)
        expected = all_trials_row(a_max, b, mults, cfg)
        assert hf_biproj_row(b, range(a_max, -1, -1), mults, cfg) == dict(enumerate(expected))

    def test_columns_are_the_box_less_what_the_origin_kills(self):
        # generated j by j against the mask of the box, j-major, for origins
        # from 0 to past a + b + 1, and each column range its slice of them
        for a in range(8):
            for b in range(8):
                j, l = np.divmod(np.arange((a + 1) * (b + 1)), b + 1)
                for origin in range(a + b + 3):
                    keep = j + l >= origin
                    kept = j[keep], l[keep]
                    n = len(kept[0])
                    for c0, c1 in [(None, None), (0, 1), (1, n), (n // 2, n // 2 + 3), (n, n)]:
                        got = oracle_module._band(a + 1, b + 1, origin, a + b, slice(c0, c1))
                        assert all(np.array_equal(g, k[c0:c1]) for g, k in zip(got, kept)), (
                            a, b, origin, c0, c1)
        # one column left of the (30000000, 0) box costs its own size, not
        # the 30000001 of the box (715 MB when masked off it)
        (j, l), peak = traced_peak(lambda: oracle_module._band(30000001, 1, 30000000, 30000000))
        assert j.tolist() == [30000000] and l.tolist() == [0]
        assert peak < 2**20
        cells, peak = traced_peak(lambda: hf_uniform_cells([(30000000, 0)],
                                                           UniformFatPoints(1, 30000000)))
        assert cells == {(30000000, 0): 30000000}
        assert peak < 2**20
        # and the first 65 columns of that box at origin 1, a first panel of
        # a one-row matrix, cost their own size, not one entry per j of it
        (j, l), peak = traced_peak(lambda: oracle_module._band(30000001, 1, 1, 30000000,
                                                              slice(0, 65)))
        assert j.tolist() == list(range(1, 66)) and l.tolist() == [0] * 65
        assert peak < 2**20

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 30))
    @settings(max_examples=300, derandomize=True, deadline=None)
    def test_killed_in_closed_form(self, a, b, origin):
        # origin up to 30, past a + b + 1 for every box drawn
        assert oracle_module._below(a + 1, b + 1, origin) == box_killed(a, b, origin)

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

    def test_no_column_left_takes_no_draw(self, oracle, eliminations, monkeypatch):
        # a corner of multiplicity d + 1 or more kills every monomial of
        # degree d, whatever else the scheme holds
        monkeypatch.setattr("fatpoints.oracle.sample_support",
                            lambda *args: pytest.fail("a support was drawn"))
        assert hf_plane(3, PlaneScheme(4, 0, (2, 2), (SliceProfile((3, 3, 2)),)), oracle) == 0
        assert hf_plane(3, PlaneScheme(1, 7), oracle) == 0
        assert hf_plane(0, PlaneScheme(0, 1, (1,)), oracle) == 0
        assert eliminations == []

    def test_columns_are_the_triangle_less_what_the_corners_kill(self):
        # the band of the box, j-major, against the degree-d triangle masked
        # by the corners, for every corner up to d + 2, and each column range
        # its slice of them
        for d in range(30):
            j, k = np.triu_indices(d + 1)
            k -= j
            for alpha in range(d + 3):
                for beta in range(d + 3):
                    keep = (j <= d - min(alpha, d + 1)) & (k <= d - min(beta, d + 1))
                    width, height, count = oracle_module._plane_box(d, alpha, beta)
                    n = int(keep.sum())
                    for c0, c1 in [(None, None), (0, 1), (1, n), (n // 2, n // 2 + 3), (n, n)]:
                        got_j, got_k = oracle_module._band(width, height, 0, d, slice(c0, c1))
                        assert np.array_equal(got_j, j[keep][c0:c1]), (d, alpha, beta, c0, c1)
                        assert np.array_equal(got_k, k[keep][c0:c1]), (d, alpha, beta, c0, c1)
                    assert count == n

    def test_a_panel_of_a_wide_plane_costs_its_own_size(self):
        # the first 65 columns at d = 3000, a first panel of a one-row
        # matrix, are built j by j up to their last j, not out of the
        # 4.5 million columns of the triangle (68.8 MB)
        p = DEFAULT_PRIME
        runs = require_plane_fits(3000, (0, 0), [(1, 1)])
        points = list(sample_support(0, 2, p))
        M, peak = traced_peak(lambda: plane_conditions_matrix(3000, (0, 0), runs, points, p,
                                                              columns=slice(0, 65)))
        (x, y), _ = points
        assert M.tolist() == [[pow(y, k, p) for k in range(65)]]
        assert peak < 2**20

    def test_degree_zero_and_multiplicity_zero(self, oracle):
        # the constants: kept by no point, killed by any; a point of
        # multiplicity 0 imposes nothing
        cases = [(0, PlaneScheme(0, 0), 1),
                 (0, PlaneScheme(0, 0, (0, 0)), 1),
                 (0, PlaneScheme(0, 0, (1,)), 0),
                 (0, PlaneScheme(0, 0, (), (SliceProfile((2, 1)),)), 0),
                 (3, PlaneScheme(1, 1, (0, 2, 0)), 10 - 1 - 1 - 3),
                 (3, PlaneScheme(1, 1, (0,), (SliceProfile((1,)),)), 10 - 1 - 1 - 1)]
        for d, scheme, value in cases:
            assert hf_plane(d, scheme, oracle) == all_trials_triangle(d, scheme, oracle) == value

    @given(st.integers(0, 7), st.integers(0, 10), st.integers(0, 10),
           st.lists(st.integers(0, 4), max_size=4), st.lists(line_profiles, max_size=4))
    @example(5, 2, 1, [2], [SliceProfile((3, 3, 2))])  # non-strict, d != a + b
    @example(3, 6, 1, [1], [SliceProfile((2, 2))])  # a corner above d + 1
    @example(4, 3, 3, [1], [SliceProfile((1,))])  # the corners' monomials overlap
    @example(6, 2, 3, [], [SliceProfile((3, 3, 2)), SliceProfile((2, 2))])  # no general point
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_equals_the_triangle_reference(self, d, corner_a, corner_b, general, on_line):
        # the corners as two more random chart points and the line at y = 0,
        # which PGL(3) takes to the coordinate points and a line off them
        scheme = PlaneScheme(corner_a, corner_b, tuple(general), tuple(on_line))
        cfg = OracleConfig()
        assert hf_plane(d, scheme, cfg) == all_trials_triangle(d, scheme, cfg)

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
    """The full-box reference of hf_biproj_row: under its tags every point
    drawn, none at the origin, and the whole box built; every trial run, max
    kept."""
    mults = tuple(mults)
    best = [0] * (a_max + 1)
    for trial in range(cfg.trials):
        points = sample_support(derive_seed(cfg.seed, "bi", b, mults, trial),
                                len(mults), cfg.prime)
        M = bi_conditions_matrix(BiDegree(a_max, b), chart_runs(mults), points, cfg.prime)
        pivots = rank_profile_mod_p(M, cfg.prime)
        best = [max(r, bisect_left(pivots, (a + 1) * (b + 1))) for a, r in enumerate(best)]
    return best


def plane_tags(d, scheme):
    return ("plane", d, scheme.corner_a, scheme.corner_b, scheme.general,
            tuple(pr.widths for pr in scheme.on_line))


def plane_columns(d, scheme):
    """The number of monomials of degree d that the scheme's corners leave."""
    width, height, _ = oracle_module._plane_box(d, scheme.corner_a, scheme.corner_b)
    return len(oracle_module._band(width, height, 0, d)[0])


def all_trials_plane(d, scheme, cfg):
    """hf_plane's draw and ranks, every trial run, max kept."""
    p = cfg.prime
    count = len(scheme.general) + len(scheme.on_line) + 1
    best = 0
    for trial in range(cfg.trials):
        points = sample_support(derive_seed(cfg.seed, *plane_tags(d, scheme), trial), count, p)
        M = plane_matrix(d, scheme, points, p)
        best = max(best, len(rank_profile_mod_p(M, p)))
    return plane_columns(d, scheme) - best


def all_trials_triangle(d, scheme, cfg):
    """The triangle geometry's value: its draw, with the corners as two more
    chart points and the line at y = 0, and its ranks, every trial run, max
    kept."""
    p = cfg.prime
    count = len(scheme.general) + 2 + len(scheme.on_line)
    best = 0
    for trial in range(cfg.trials):
        points = sample_support(derive_seed(cfg.seed, *plane_tags(d, scheme), trial), count, p)
        M = triangle_conditions_matrix(d, scheme, points, p)
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


# five points, one of them 4-fold: at (9, 6) their rank is 67 against 70
# rows. A row of unequal multiplicities keeps its row bounds, so a cell like
# this one stays below its bound and takes every trial
UNEQUAL = (5, 5, 5, 5, 4)


class TestEarlyStop:
    """Trials stop once every requested rank reaches its model's bound: the
    rows that can be nonzero on the cut's columns, capped by the cut, or for
    equal multiplicities the curve bound. The values must equal the max over
    every trial."""

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
        # cell (a, b) is read off row min(a, b), and the rows go from the
        # outside in: 18, whose cells are all 75, the degree, and 6, whose
        # cells from (12, 6) on are too, so every cell around (12, 6) or
        # (6, 12) is 75 and asks for no row. Row 7 is asked for (7..11, 7)
        # and row 8 for (8, 8) and (9, 8); (8, 8) is 75, so rows 9..17 take
        # no call. Each call certifies on trial 1 up to its widest cell a:
        # (a + 1) (b + 1) columns less the 15 the origin kills. The
        # defective cells (9, 6), (10, 6), (11, 6), (8, 7) and (9, 7) stay
        # below their rows and reach their curve bounds
        assert eliminations == [(60, (a + 1) * (b + 1) - 15)
                                for a, b in [(25, 18), (25, 6), (11, 7), (9, 8)]]
        rows = {r: all_trials_row(25, r, [5] * 5, oracle) for r in range(6, 19)}
        resolved = 0
        for b, cells in enumerate(grid):
            for a, hf in enumerate(cells):
                if hf.source is Source.ORACLE:
                    assert hf.value == rows[min(a, b)][max(a, b)], (a, b)
                    resolved += 1
        assert resolved == 13 * 20

    def test_transposed_cell_eliminates_the_same_matrices(self, oracle, monkeypatch):
        drawn = []
        kernel = oracle_module.rank_profile_mod_p

        def kept(M, p):
            drawn.append(whole(M))
            return kernel(M, p)

        monkeypatch.setattr(oracle_module, "rank_profile_mod_p", kept)
        # a defective cell of unequal multiplicities, so every trial runs
        assert hf_biproj(BiDegree(6, 9), UNEQUAL, oracle) == 67
        first, drawn[:] = drawn[:], []
        assert hf_biproj(BiDegree(9, 6), UNEQUAL, oracle) == 67
        assert len(first) == len(drawn) == oracle.trials
        assert all(np.array_equal(M, N) for M, N in zip(first, drawn))

    def test_every_row_is_checked_before_the_first_elimination(self, oracle, eliminations,
                                                                monkeypatch):
        # 1 MiB of physical memory holds the table and the 60-row matrices up
        # to row 16, 60 x (26 * 17 - 15); row 17 is refused before row 6 runs
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
        monkeypatch.setattr("fatpoints.oracle.os.sysconf", pages.__getitem__)
        with pytest.raises(ValueError, match="^a 60 x 453 conditions matrix needs"):
            table_region(5, 5, 25, 18, oracle)
        assert eliminations == []

    def test_criterion_6_chain(self, oracle):
        a, b, s = 6, 4, 6
        step1, step2 = specialize_triple(a, b, s)
        d = a + b
        calls = [(d, PlaneScheme(a, b, (3,) * s)), (d - 2, step1.residual),
                 (d - 4, step2.residual), (d, step1.scheme), (d - 2, step2.scheme)]
        for degree, scheme in calls:
            assert hf_plane(degree, scheme, oracle) == all_trials_plane(degree, scheme, oracle)

    def test_criterion_6_chains_take_one_elimination_per_plane_call(self, oracle, eliminations,
                                                                    monkeypatch):
        # the chains of the plane_chain benchmark: a+b in 10..14, 4 <= b <= a
        # and s next to (a+1)(b+1)/6. The points moved onto the line carry
        # more conditions there than the forms can meet, and the plane bound
        # counts only what they can, so every plane call certifies at once
        chains = [(a, b, s) for a in range(4, 11) for b in range(4, a + 1) if 10 <= a + b <= 14
                  for s in {(a + 1) * (b + 1) // 6, -(-(a + 1) * (b + 1) // 6)}]
        assert len(chains) == 23
        calls = []
        monkeypatch.setattr("fatpoints.horace.hf_plane",
                            lambda d, scheme, cfg: calls.append(d) or hf_plane(d, scheme, cfg))
        for a, b, s in chains:
            assert verify_chain(a, b, s, oracle).ok, (a, b, s)
        assert len(eliminations) == len(calls)

    def test_certified_only_under_the_model_bound(self, oracle, eliminations):
        # one of two 6-fold points sits at the origin and kills 6 + 5 + 4 of
        # the 63 columns of (20, 2); the other has 21 conditions against the
        # 48 left, but only its rows (c, e) with e <= 2 meet them, 6 + 5 + 4,
        # and only those are built. A bound of min(21, 48) over all its
        # conditions would run every trial
        assert hf_biproj_row(2, (20,), (6, 6), oracle) == {20: 30}
        assert eliminations == [(15, 48)]
        # conics double at two points of the line are the line doubled: 6
        # rows, but the 4 at level 0 meet only the 3 columns 1, x, x^2
        scheme = PlaneScheme(0, 0, (), (SliceProfile.fat_point(2),) * 2)
        assert hf_plane(2, scheme, oracle) == 1
        assert eliminations == [(15, 48), (6, 6)]

    def test_certified_cell_takes_one_elimination(self, oracle, eliminations):
        # 5 points of multiplicity 5 give 75 rows, and the rank reaches them
        assert hf_biproj(BiDegree(12, 7), [5] * 5, oracle) == 75
        assert len(eliminations) == 1

    def test_defective_cell_takes_every_trial(self, oracle, eliminations):
        # rank 67 below min(70, 70), and a row of unequal multiplicities has
        # no curve bound: never certified
        assert hf_biproj(BiDegree(9, 6), UNEQUAL, oracle) == 67
        assert len(eliminations) == oracle.trials

    def test_golden_row_waits_for_its_defective_cell(self, oracle, eliminations):
        # the golden table's row 6 with one point a 4-fold one: (9, 6) and
        # (10, 6) stay below their rows, so every trial runs, and after
        # trial 1 the later trials read only up to the cut of (10, 6),
        # 11 * 7 less the 15 columns the origin kills
        row = hf_biproj_row(6, range(6, 26), UNEQUAL, oracle)
        assert (row[9], row[10]) == (67, 69)
        assert eliminations == [(55, 26 * 7 - 15)] + [(55, 11 * 7 - 15)] * (oracle.trials - 1)

    def test_plane_scheme(self, oracle, eliminations):
        # one 6-fold corner imposes its 21 conditions on degree-10 forms,
        # all of them by the monomials it kills: no row is left to eliminate
        assert hf_plane(10, PlaneScheme(6, 0), oracle) == binom(12, 2) - binom(7, 2)
        assert len(eliminations) == 0
        # four collinear points impose only three conditions on conics, and
        # the bound counts only three: their rows at (x, 0) are zero off the
        # three columns 1, x, x^2, so the rank certifies on its first trial
        scheme = PlaneScheme(0, 0, (), (SliceProfile((1,)),) * 4)
        assert hf_plane(2, scheme, oracle) == 3
        assert len(eliminations) == 1

    def test_nothing_to_eliminate_takes_no_draw(self, oracle, eliminations, monkeypatch):
        # every bound is 0 when the origin's point kills every column of the
        # cut or no other point has a row: the values are the columns
        # killed, with no support drawn (199999 points took 0.7 s to draw)
        expected = {0: box_killed(0, 3, 5), 4: box_killed(4, 3, 5)}
        sample = mock.Mock(wraps=sample_support)
        monkeypatch.setattr("fatpoints.oracle.sample_support", sample)
        assert hf_biproj_row(2, (2,), (10,) * 200000, oracle) == {2: 9}
        assert hf_biproj_row(3, (0, 4), (5,), oracle) == expected
        assert hf_biproj_row(2, (3,), (0, 0, 0), oracle) == {3: 0}
        assert hf_plane(4, PlaneScheme(1, 1), oracle) == 13
        sample.assert_not_called()
        assert eliminations == []

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

    def test_bound_is_capped_by_the_cut(self, oracle, eliminations):
        # more rows than the cut: five double points give 15 conditions, and
        # each rank reaches its cut on the first trial; on the box, four of
        # them give 12 rows against the 9 columns the one at the origin leaves
        assert hf_plane(3, PlaneScheme(0, 0, (2,) * 5), oracle) == 0
        assert eliminations == [(15, 10)]
        assert hf_biproj_row(3, (0, 1, 2), (2,) * 5, oracle) == {0: 4, 1: 8, 2: 12}
        assert eliminations == [(15, 10), (12, 9)]

    def test_cells_are_checked(self, oracle):
        for cells in ((), [], (3, -1), (-1,)):
            with pytest.raises(ValueError, match="cells"):
                hf_biproj_row(2, cells, [2], oracle)


def handed(call, *args):
    """call(*args), the row bounds it hands the trial loop, by cut, and
    those bounds tightened by the trial loop's tighten at every cut; with no
    tighten, the row bounds again."""
    bounds, tightened = {}, {}
    loop = oracle_module._max_ranks

    def kept(tags, count, runs, build, cut_bounds, cfg, *, tighten=None):
        bounds.update(cut_bounds)
        tightened.update({c: min(bound, tighten(c)) if tighten else bound
                          for c, bound in cut_bounds.items()})
        return loop(tags, count, runs, build, cut_bounds, cfg, tighten=tighten)

    with mock.patch.object(oracle_module, "_max_ranks", kept):
        return call(*args), bounds, tightened


def origin_split(mults):
    """hf_biproj_row's split of mults: the first largest, whose point sits at
    the origin, and the others in order."""
    mults = tuple(mults)
    at = mults.index(max(mults)) if mults else 0
    return max(mults, default=0), mults[:at] + mults[at + 1 :]


def box_killed(a, b, origin):
    """The monomials x^j y^l of the (a, b) box with j + l < origin."""
    return sum(j + l < origin for j in range(a + 1) for l in range(b + 1))


def box_reference(a, b, mults):
    """min(N(a, b), (a+1)(b+1)): the conditions (c, e) with c <= a and e <= b
    are the rows nonzero on the (a, b) columns, capped by the columns."""
    rows = sum(min(a + 1, m - e) for m in mults for e in range(min(m, b + 1)))
    return min(rows, (a + 1) * (b + 1))


def rows_on_cut(M, cut):
    """The rows of M nonzero on its first cut columns, capped by the cut."""
    return min(int(M[:, :cut].any(axis=1).sum()), cut)


class TestRankBound:
    """The one bound on the rank, over per-level columns: no trial on any
    support passes it, and each model hands the trial loop its own."""

    def test_box_by_hand(self):
        bound = oracle_module._rank_bound
        # a 6-fold point meets the columns of (20, 2) in its rows e <= 2
        assert bound((21,) * 3, [(fat_profile(6), 2, False)]) == 2 * (6 + 5 + 4)
        # at a = 1 a triple point keeps min(2, 3) + min(2, 2) + min(2, 1) of
        # its 6 rows, and a simple point its one
        assert bound((2,) * 6, [(fat_profile(3), 2, False),
                                (fat_profile(1), 1, False)]) == 2 * 5 + 1
        assert bound((6,) * 6, [(fat_profile(3), 4, False)]) == 4 * 6  # every row
        assert bound((1,), [(fat_profile(2), 5, False)]) == 1  # the cut
        assert bound((4,) * 4, [(fat_profile(0), 7, False)]) == 0

    def test_triangle_by_hand(self):
        # on the whole triangle, with the line at y = 0, the line's cap at
        # level e is the triangle's level e itself
        bound = oracle_module._rank_bound
        conics, cubics, quartics = range(3, 0, -1), range(4, 0, -1), range(5, 0, -1)
        # four simple points on the line meet the 3 columns 1, x, x^2 of conics
        assert bound(conics, [((1,), 4, True)], conics) == 3
        # off the line every row counts: double corners on conics, 3 + 3
        assert bound(conics, [(fat_profile(2), 2, False)]) == 6
        # level e meets the 5 - e columns x^j y^e of quartics: 5 + 4 + 3 of
        # the levels' 6 + 6 + 4 rows, plus a simple corner
        assert bound(quartics, [(fat_profile(1), 1, False), ((3, 3, 2), 2, True)], quartics) == 13
        # levels above d meet no column; a 9-fold corner counts its 10 rows
        # of order at most 3
        assert bound(conics, [((1, 1, 1, 1), 1, True)], conics) == 3
        assert bound(cubics, [(fat_profile(9), 1, False)]) == 10

    def test_line_caps_by_hand(self):
        # on y = x the level-e rows of degree-d forms count at most d - e + 1,
        # however few columns of y-degree e the corners leave
        bound = oracle_module._rank_bound
        caps = range(5, 0, -1)  # quartics
        # a double Q1 leaves x^j y^k with j <= 2, levels (3, 3, 3, 2, 1):
        # four simple points on the line impose 4 conditions, where the
        # 3 columns of y-degree 0 would allow only 3
        assert bound((3, 3, 3, 2, 1), [((1,), 4, True)], caps) == 4
        assert hf_plane(4, PlaneScheme(2, 0, (), (SliceProfile((1,)),) * 4)) == 12 - 4
        # simple corners leave levels (4, 4, 3, 2): two points (3, 3, 2) on
        # the line count min(6, 5) + min(6, 4) + min(4, 3), one simple
        # general point one more, 13 in all, the columns
        assert bound((4, 4, 3, 2), [(fat_profile(1), 1, False), ((3, 3, 2), 2, True)], caps) == 13
        # the corners of a plane reduction leave the box, (3, 3, 3) at
        # a = b = 2: a double general point and a double point on the line
        # count 3 each
        assert bound((3, 3, 3), [(fat_profile(2), 1, False), ((2, 1), 1, True)], caps) == 6
        # on conics, levels past the caps count nothing: (1, 1, 1, 1) counts 3
        conics = range(3, 0, -1)
        assert bound((3, 2, 1), [((1, 1, 1, 1), 1, True)], conics) == 3
        # and the columns cap the sum: corners (1, 2) leave 1 and x, and four
        # simple points on the line, 3 by their cap, count 2
        assert bound((2,), [((1,), 4, True)], conics) == 2

    @given(st.integers(0, 6), st.integers(0, 4), st.lists(st.integers(0, 5), max_size=4))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_bidegree_bound_holds(self, a_max, b, mults):
        # each cut's bound and rank drop by the columns the origin kills
        # and a row of equal multiplicities may tighten its bounds by its
        # curve steps, never below a rank, and no other row may
        cfg = OracleConfig()
        ranks = all_trials_row(a_max, b, mults, cfg)
        row, bounds, tightened = handed(hf_biproj_row, b, range(a_max + 1), mults, cfg)
        origin = origin_split(mults)[0]
        for a, rank in enumerate(ranks):
            dead = box_killed(a, b, origin)
            cut = (a + 1) * (b + 1) - dead
            assert bounds[cut] + dead == box_reference(a, b, mults) >= rank, a
            assert bounds[cut] >= tightened[cut] >= rank - dead, a
        if len(set(mults)) != 1:
            assert tightened == bounds
        assert row == dict(enumerate(ranks))

    @given(st.integers(0, 6), st.integers(0, 3), st.integers(0, 3),
           st.lists(st.integers(0, 3), max_size=3), st.lists(line_profiles, max_size=4))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_plane_bound_holds(self, d, corner_a, corner_b, general, on_line):
        cfg = OracleConfig()
        scheme = PlaneScheme(corner_a, corner_b, tuple(general), tuple(on_line))
        value = all_trials_plane(d, scheme, cfg)
        got, bounds, tightened = handed(hf_plane, d, scheme, cfg)
        cols = plane_columns(d, scheme)
        # with no column left there is nothing to bound, and no trial
        assert bounds.keys() == ({cols} if cols else set())
        assert bounds.get(cols, 0) >= cols - value
        assert tightened == bounds  # the plane model has no curve bound
        assert got == value

    @given(st.integers(0, 6), st.integers(0, 4), st.lists(st.integers(0, 5), max_size=4),
           st.integers(0, 7), st.integers(0, 8), st.integers(0, 8),
           st.lists(st.integers(0, 9), max_size=3))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_equals_the_rows_nonzero_on_the_cut(self, a_max, b, mults, d, corner_a,
                                                corner_b, general):
        # off the line every counted row holds c! e! at x^c y^e, so the
        # bound is the count itself: each row of a box cut, and the columns
        # the corners leave of a scheme with no points on the line. On the
        # box, the rows of the points off the origin on the columns it
        # leaves: a counted row is nonzero at x^a y^b, which the origin
        # leaves unless it leaves the cut no column
        cfg = OracleConfig(trials=1)
        p = cfg.prime
        _, bounds, _ = handed(hf_biproj_row, b, range(a_max + 1), mults, cfg)
        origin, others = origin_split(mults)
        M = bi_conditions_matrix(BiDegree(a_max, b), chart_runs(others),
                                 sample_support(1, len(others), p), p, origin=origin)
        assert bounds == {cut: rows_on_cut(M, cut) for cut in bounds}
        scheme = PlaneScheme(corner_a, corner_b, tuple(general))
        _, bounds, _ = handed(hf_plane, d, scheme, cfg)
        M = plane_matrix(d, scheme, sample_support(1, len(general) + 1, p), p)
        cols = M.shape[1]
        assert bounds == ({cols: rows_on_cut(M, cols)} if cols else {})

    @given(st.integers(0, 7), st.integers(0, 3), st.integers(0, 3),
           st.lists(line_profiles, min_size=1, max_size=4))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_line_rows_of_a_level_meet_its_cap(self, d, corner_a, corner_b, on_line):
        # a level-e row d_u^c d_v^e on y = x is d_u^c of the restriction of
        # d_v^e F to the line, of degree d - e: the level-e rows of all the
        # points on the line have rank at most d - e + 1
        p = DEFAULT_PRIME
        scheme = PlaneScheme(corner_a, corner_b, (), tuple(on_line))
        M = plane_matrix(d, scheme, sample_support(2, len(on_line) + 1, p), p)
        # rows run point by point, then by level, then by c
        # those of order c + e <= d, the others vanishing on degree-d forms
        levels = np.array([e for pr in on_line for e, w in enumerate(pr.widths) if e <= d
                           for _ in range(min(w, d + 1 - e))])
        for e in set(levels.tolist()):
            assert rank_mod_p(M[levels == e], p) <= max(d - e + 1, 0), e


class TestCurveBound:
    """_curve_bound, the rank bound of equal multiplicities by curve steps:
    no trial on any support passes it, it meets the defective cells, and the
    trial loop asks for it only when a cut is left below its rows."""

    def test_by_hand(self, oracle, eliminations):
        # five 5-fold points at (9, 6): 70 columns and 75 rows. The (2, 1)
        # forms outnumber the 5 conditions of simple points, so a curve C
        # passes through them, and so does a (1, 2) curve D; C^4 D, of
        # bidegree (9, 6), vanishes to order 5 at every point: one step
        # takes E = (2, 1; 1^5) off, with L.E = 9 + 12 - 25 < 0, down to
        # (7, 5; 4^5), where the same curves give C^3 D. Each ideal has a
        # dimension of at least 1, so the rank is at most 69, and it is 69
        assert oracle_module._curve_bound(9, 6, 5, 5, {}) == 69
        assert oracle_module._curve_bound(7, 5, 4, 5, {}) == 47
        assert hf_biproj(BiDegree(9, 6), [5] * 5, oracle) == 69
        assert len(eliminations) == 1
        # with no curve step the bound is the rows or the columns
        assert oracle_module._curve_bound(12, 7, 5, 5, {}) == 75
        assert oracle_module._curve_bound(3, 2, 5, 5, {}) == 12

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_defective_family(self, m, oracle, eliminations):
        # a = (2m-1)(m-2), b = m+1 and s = 4m-7 general m-fold points: the
        # family's closed form, and its one cell certifies on trial 1
        a, b, s = (2 * m - 1) * (m - 2), m + 1, 4 * m - 7
        value = hf_uniform(BiDegree(a, b), UniformFatPoints(s, m)).value
        assert value < min((a + 1) * (b + 1), s * binom(m + 1, 2))
        assert oracle_module._curve_bound(a, b, m, s, {}) == value
        assert hf_biproj(BiDegree(a, b), [m] * s, oracle) == value
        assert len(eliminations) == 1

    @given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 10), st.integers(0, 14))
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_meets_every_rank_below_the_rows(self, m, s, b, a_max):
        # never below the max over every trial, and equal to it wherever
        # that is below the rows: m 1-6, s 1-12, b <= 10 and a <= 14 hold
        # 142 such cells, and the bound meets each
        ranks = all_trials_row(a_max, b, [m] * s, OracleConfig())
        memo = {}
        for a, rank in enumerate(ranks):
            bound = oracle_module._curve_bound(a, b, m, s, memo)
            assert bound >= rank, a
            if rank < box_reference(a, b, [m] * s):
                assert bound == rank, a

    def test_certified_rows_never_ask_for_it(self, oracle, monkeypatch):
        # the bound is asked for after trial 1, only for cuts still below
        # their rows: a cell and a verify scan that certify on trial 1 take
        # no curve step at all
        curve = mock.Mock(wraps=oracle_module._curve_bound)
        monkeypatch.setattr(oracle_module, "_curve_bound", curve)
        assert hf_biproj(BiDegree(12, 7), [5] * 5, oracle) == 75
        assert replay(["verify", "--m", "6", "--s", "10", "--amax", "5", "--bmax", "6"])["exit"] == 0
        curve.assert_not_called()
        assert hf_biproj(BiDegree(9, 6), [5] * 5, oracle) == 69
        curve.assert_called()


def settled_by(boxes, a, b, degree):
    """How the boxes (x, y, value) returned so far settle the cell (a, b), by
    a plain search over them and their transposes: "independent" around a
    box at the degree, else "free" inside a box at its cells, else None."""
    both = [(x, y, value) for x, y, value in boxes] + [(y, x, value) for x, y, value in boxes]
    if any(value == degree and x <= a and y <= b for x, y, value in both):
        return "independent"
    if any(value == (x + 1) * (y + 1) and x >= a and y >= b for x, y, value in both):
        return "free"
    return None


def asked_rows(call, *args):
    """call(*args), and each hf_biproj_row call it makes, in order, as
    (b, the cells asked, the values returned)."""
    calls = []
    row = oracle_module.hf_biproj_row

    def kept(b, cells, mults, cfg):
        values = row(b, cells, mults, cfg)
        calls.append((b, tuple(cells), values))
        return values

    with mock.patch.object(oracle_module, "hf_biproj_row", kept):
        return call(*args), calls


class TestContainment:
    """hf_uniform_cells asks no row for a cell that a box returned before
    settles: one around a box whose value is the degree, or inside one whose
    value is its cells, in either orientation; cells and boxes are taken as
    a >= b, where one orientation covers both. The settled values are the
    ones each cell's own row gives."""

    @given(st.integers(1, 6), st.integers(0, 12), st.integers(0, 7), st.integers(0, 7),
           st.sampled_from([1, 3]), st.sampled_from([0, 7]))
    @example(5, 5, 7, 7, 3, 0)  # the golden table's corner, inside the free box (7, 7)
    @example(2, 9, 5, 2, 3, 0)  # every cell inside the free box (5, 2)
    @example(1, 3, 7, 7, 1, 0)  # around the independent boxes (2, 0) and (1, 1)
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_equals_each_cell_alone(self, m, s, a_max, b_max, trials, seed):
        cfg = OracleConfig(trials=trials, seed=seed)
        cells = [(a, b) for b in range(b_max + 1) for a in range(a_max + 1)]
        got = hf_uniform_cells(cells, UniformFatPoints(s, m), cfg)
        assert got == {(a, b): hf_biproj(BiDegree(a, b), (m,) * s, cfg) for a, b in cells}

    @pytest.mark.parametrize("negative", [(-1, 2), (2, -1), (-1, -1), (0, -3)])
    def test_a_negative_cell_is_refused_before_any_row(self, negative):
        cells = [(3, 3), (5, 1), negative, (0, 0)]
        with mock.patch.object(oracle_module, "hf_biproj_row") as row, \
             pytest.raises(ValueError, match="nonnegative"):
            hf_uniform_cells(cells, UniformFatPoints(5, 3), OracleConfig())
        row.assert_not_called()

    @pytest.mark.parametrize("call, args, rows, rule", [
        (table_region, (5, 5, 25, 18, OracleConfig()),
         [(18, tuple(range(18, 26))), (6, tuple(range(6, 26))), (7, tuple(range(7, 12))),
          (8, (8, 9))], "independent"),
        (replay, (["verify", "--m", "2", "--s", "9", "--amax", "5", "--bmax", "2"],),
         [(2, (2, 3, 4, 5))], "free"),
    ], ids=["golden_table", "verify"])
    def test_no_asked_cell_is_settled(self, call, args, rows, rule):
        # the golden table's rows 9..17 and the cells of rows 7 and 8 from
        # (12, 7) and (10, 8) on lie around a box of value 75; verify's rows
        # 0 and 1 lie inside (5, 2), whose value is its 18 cells
        degree = 75 if call is table_region else 27
        _, calls = asked_rows(call, *args)
        assert [(b, cells) for b, cells, _ in calls] == rows
        seen = []
        for b, cells, values in calls:
            assert all(settled_by(seen, a, b, degree) is None for a in cells), b
            seen += [(a, b, value) for a, value in values.items()]
        normal = {(a, b) for b in range(6, 19) for a in range(b, 26)} if call is table_region \
            else {(a, b) for b in range(3) for a in range(b, 6)}
        asked = {(a, b) for b, cells, _ in calls for a in cells}
        assert {settled_by(seen, a, b, degree) for a, b in normal - asked} == {rule}

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 3)),
                    max_size=12),
           st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_staircases_agree_with_a_search(self, boxes, rows):
        # values 0 and 1 stand for the degree, 20, and the box's cells; the
        # other two are neither. Boxes are added as a >= b, as
        # hf_uniform_cells adds them, and the search still looks both ways
        rows, seen = sorted(rows), []
        staircases = oracle_module._Boxes(rows, 20)
        for x, y, kind in boxes:
            x, y = max(x, y), min(x, y)
            value = (20, (x + 1) * (y + 1), 7, 0)[kind]
            staircases.add(x, y, value)
            seen.append((x, y, value))
        for i, b in enumerate(rows):
            for a in range(b, 13):
                rule = settled_by(seen, a, b, 20)
                value = {"independent": 20, "free": (a + 1) * (b + 1), None: None}[rule]
                assert staircases.settled(a, i) == value, (a, b)


def record_points(monkeypatch, name, index):
    """Patch the oracle's builder `name` to keep, call by call, the points it
    receives as its argument at `index`."""
    calls = []
    builder = getattr(oracle_module, name)

    def kept(*args, **kw):
        calls.append(list(args[index]))
        return builder(*args, **kw)

    monkeypatch.setattr(oracle_module, name, kept)
    return calls


class TestDraw:
    """Every model's support is sample_support(derive_seed(seed, *tags, t),
    count, p), trial t of the trial loop; the line model draws once."""

    def test_bidegree_row(self, oracle, monkeypatch):
        calls = record_points(monkeypatch, "bi_conditions_matrix", 2)
        mults = UNEQUAL
        # defective cells of unequal multiplicities, so every trial runs;
        # one 5-fold point sits at the origin and the other four are drawn
        assert hf_biproj_row(6, (9, 10), mults, oracle) == {9: 67, 10: 69}
        assert calls == [list(sample_support(derive_seed(oracle.seed, "bi", 6, mults, t),
                                             4, oracle.prime)) for t in range(oracle.trials)]

    @pytest.mark.parametrize("d, scheme, trials", [
        # true defects, never certified, so every trial runs: quartics
        # double at five points, the corners among them and one of them on
        # the line or none, are the conic through them doubled
        (4, PlaneScheme(2, 2, (2, 2, 2)), DEFAULT_TRIALS),
        (4, PlaneScheme(2, 2, (2, 2), (SliceProfile.fat_point(2),)), DEFAULT_TRIALS),
        (10, specialize_triple(6, 4, 6)[0].scheme, 1),
    ])
    def test_plane_scheme_with_points_on_the_line(self, d, scheme, trials, monkeypatch):
        cfg = OracleConfig(seed=3)
        drawn = record_points(monkeypatch, "plane_conditions_matrix", 3)
        built = []
        builder = oracle_module.conditions_matrix
        monkeypatch.setattr(oracle_module, "conditions_matrix", lambda points, runs, *args, **kw:
                            built.append((list(points), sum(n for _, n, on in runs if on), kw))
                            or builder(points, runs, *args, **kw))
        hf_plane(d, scheme, cfg)
        general, on_line = len(scheme.general), len(scheme.on_line)
        supports = [list(sample_support(derive_seed(cfg.seed, *plane_tags(d, scheme), t),
                                        general + on_line + 1, cfg.prime))
                    for t in range(trials)]
        assert drawn == supports
        # the general points in scheme order, then the line's points with
        # their x kept and y = x, and last the x of the slope across the line
        assert built == [(pts[:general] + [(x, x) for x, _ in pts[general:-1]], on_line,
                          {"slope": pts[-1][0]}) for pts in supports]

    def test_trace_line(self, oracle, monkeypatch):
        calls = record_points(monkeypatch, "conditions_matrix", 0)
        assert hf_trace_line(9, (3, 2, 2), oracle) == 3
        support = sample_support(derive_seed(oracle.seed, "line", 9, (3, 2, 2)), 3, oracle.prime)
        assert calls == [[(x, 0) for x, _ in support]]

    def test_reduce_support_is_unchanged(self, monkeypatch):
        # trial 0 of the plane call of reduce --a 25 --b 18 --m 5 --s 5 at
        # seed 0, its one trial: the five general points and the slope's
        calls = record_points(monkeypatch, "plane_conditions_matrix", 3)
        assert check_reduction(BiDegree(25, 18), UniformFatPoints(5, 5), OracleConfig(seed=0))
        assert [len(points) for points in calls] == [6]
        digest = hashlib.sha256(repr(tuple(calls[0])).encode()).hexdigest()
        assert digest == "01c509c86d8094a434044f1d26bba8895fc267ad287ac51956ba8ae33ae02520"


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
