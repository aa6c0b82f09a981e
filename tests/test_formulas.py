import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints.core import BiDegree, Source, UniformFatPoints, binom, hf_value
from fatpoints.formulas import (
    defective_family,
    hf_m_ge_b,
    hf_uniform,
    table_region,
)
from fatpoints.schemes import reduce_to_plane
from reference_dispatch import reference_dispatch


def val(hf):
    assert hf.value is not None
    return hf.value


class TestMGeB:
    def test_example_table_column(self):
        pts = UniformFatPoints(5, 5)
        assert val(hf_m_ge_b(BiDegree(13, 4), pts)) == 69
        assert val(hf_m_ge_b(BiDegree(14, 4), pts)) == 72
        assert val(hf_m_ge_b(BiDegree(15, 4), pts)) == 74
        assert val(hf_m_ge_b(BiDegree(16, 4), pts)) == 75
        assert val(hf_m_ge_b(BiDegree(4, 4), pts)) == 25
        assert val(hf_m_ge_b(BiDegree(10, 5), pts)) == 65

    def test_defect_flags(self):
        pts = UniformFatPoints(5, 5)
        hf = hf_m_ge_b(BiDegree(13, 4), pts)
        assert hf.defective and hf.defect == 1

    def test_empty_scheme(self):
        for m in (1, 3, 6):
            hf = hf_m_ge_b(BiDegree(7, m - 1), UniformFatPoints(0, m))
            assert hf.value == 0
            assert hf.source is Source.FORMULA

    def test_b_zero_column(self):
        # one row of the grid: forms depend on x alone, m conditions per point
        assert val(hf_m_ge_b(BiDegree(9, 0), UniformFatPoints(2, 4))) == 8
        assert val(hf_m_ge_b(BiDegree(5, 0), UniformFatPoints(3, 4))) == 6

    def test_precondition(self):
        with pytest.raises(ValueError):
            hf_m_ge_b(BiDegree(9, 5), UniformFatPoints(2, 4))


class TestTriple:
    def test_theorem_cells(self):
        assert val(hf_uniform(BiDegree(5, 4), UniformFatPoints(5, 3))) == 29
        assert val(hf_uniform(BiDegree(3, 3), UniformFatPoints(3, 3))) == 15
        assert val(hf_uniform(BiDegree(4, 3), UniformFatPoints(3, 3))) == 17
        assert val(hf_uniform(BiDegree(9, 1), UniformFatPoints(3, 3))) == 15
        assert val(hf_uniform(BiDegree(2, 2), UniformFatPoints(1, 3))) == 6

    def test_row_two_family(self):
        # s odd, (a, b) = (2s-1, 2)
        assert val(hf_uniform(BiDegree(9, 2), UniformFatPoints(5, 3))) == 29
        assert val(hf_uniform(BiDegree(13, 2), UniformFatPoints(7, 3))) == 41

    def test_normalizes(self):
        assert val(hf_uniform(BiDegree(4, 5), UniformFatPoints(5, 3))) == 29

    @given(st.integers(0, 100), st.integers(0, 3), st.integers(0, 50))
    @settings(max_examples=400, derandomize=True)
    def test_agrees_with_m_ge_b_low_columns(self, a, b, s):
        deg = BiDegree(max(a, b), min(a, b))
        lhs = hf_uniform(deg, UniformFatPoints(s, 3)).value
        rhs = hf_m_ge_b(deg, UniformFatPoints(s, 3)).value
        assert lhs == rhs


class TestDefectiveFamily:
    def test_members(self):
        hf = defective_family(BiDegree(14, 5), UniformFatPoints(9, 4))
        assert hf is not None and hf.value == 89 and hf.defect == 1
        hf = defective_family(BiDegree(5, 4), UniformFatPoints(5, 3))
        assert hf is not None and hf.value == 29 and hf.defect == 1
        hf = defective_family(BiDegree(27, 6), UniformFatPoints(13, 5))
        assert hf is not None and hf.value == 194 and hf.defect == 1
        assert hf.expected_dim == 1

    def test_non_members(self):
        assert defective_family(BiDegree(14, 5), UniformFatPoints(8, 4)) is None
        assert defective_family(BiDegree(13, 5), UniformFatPoints(9, 4)) is None
        # m = 2 would give a = 0, b = 3: covered by the low-bidegree theorem
        assert defective_family(BiDegree(3, 0), UniformFatPoints(1, 2)) is None


class TestUniformDispatch:
    def test_examples(self):
        assert hf_uniform(BiDegree(8, 7), UniformFatPoints(5, 5)).value is None
        assert val(hf_uniform(BiDegree(14, 5), UniformFatPoints(9, 4))) == 89
        assert val(hf_uniform(BiDegree(7, 3), UniformFatPoints(5, 2))) == 15
        assert val(hf_uniform(BiDegree(23, 1), UniformFatPoints(5, 5))) == 45
        assert val(hf_uniform(BiDegree(2, 2), UniformFatPoints(9, 1))) == 9

    def test_region_classes(self):
        assert hf_uniform(BiDegree(8, 7), UniformFatPoints(5, 5)).known is False
        deg, pts = BiDegree(14, 5), UniformFatPoints(9, 4)
        assert hf_uniform(deg, pts) == defective_family(deg, pts)
        deg = BiDegree(9, 4)
        pts = UniformFatPoints(2, 1)
        assert hf_uniform(BiDegree(4, 9), pts) == hf_value(min(deg.cells, 2), deg, pts)
        pts = UniformFatPoints(2, 4)
        assert hf_uniform(deg, pts) == hf_m_ge_b(deg, pts)
        pts = UniformFatPoints(2, 3)
        assert hf_uniform(deg, pts) == hf_value(min(deg.cells, 6 * 2), deg, pts)
        pts = UniformFatPoints(2, 2)
        assert hf_uniform(deg, pts) == hf_value(min(deg.cells, 3 * 2), deg, pts)

    def test_unknown_only_above_m(self):
        for m in range(1, 7):
            for a in range(0, 16):
                for b in range(0, a + 1):
                    for s in (1, 4, 9):
                        hf = hf_uniform(BiDegree(a, b), UniformFatPoints(s, m))
                        if hf.value is None:
                            assert m >= 4 and b > m

    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 15), st.integers(1, 7))
    @settings(max_examples=500, derandomize=True)
    def test_symmetry(self, a, b, s, m):
        pts = UniformFatPoints(s, m)
        assert hf_uniform(BiDegree(a, b), pts) == hf_uniform(BiDegree(b, a), pts)

    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 15), st.integers(1, 7))
    @settings(max_examples=500, derandomize=True)
    def test_bounds(self, a, b, s, m):
        hf = hf_uniform(BiDegree(a, b), UniformFatPoints(s, m))
        if hf.value is not None:
            assert 0 <= hf.value <= min((a + 1) * (b + 1), s * binom(m + 1, 2))

    @given(st.integers(0, 25), st.integers(0, 25), st.integers(0, 12), st.integers(1, 6))
    @settings(max_examples=500, derandomize=True)
    def test_monotone_in_each_entry(self, a, b, s, m):
        pts = UniformFatPoints(s, m)
        here = hf_uniform(BiDegree(a, b), pts)
        right = hf_uniform(BiDegree(a + 1, b), pts)
        up = hf_uniform(BiDegree(a, b + 1), pts)
        if here.value is not None and right.value is not None:
            assert right.value >= here.value
        if here.value is not None and up.value is not None:
            assert up.value >= here.value

    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            hf_uniform(BiDegree(2, 2), UniformFatPoints(3, 0))


class TestReferenceParity:
    def test_parity_small_grid(self):
        # full acceptance grid runs in the acceptance module; spot a dense corner
        for m in range(1, 7):
            for s in range(0, 13):
                for a in range(0, 16):
                    for b in range(0, 16):
                        try:
                            expected = reference_dispatch(m, s, a, b)
                        except ValueError:
                            deg, pts = BiDegree(a, b), UniformFatPoints(s, m)
                            hf = hf_uniform(deg, pts)
                            assert hf.value is None or hf == defective_family(deg, pts)
                            continue
                        hf = hf_uniform(BiDegree(a, b), UniformFatPoints(s, m))
                        assert hf.value == expected, (m, s, a, b)
        # a taller triple-point strip: the odd-s families past s = 12
        for s in range(0, 31):
            pts = UniformFatPoints(s, 3)
            for a in range(0, 31):
                for b in range(0, 31):
                    hf = hf_uniform(BiDegree(a, b), pts)
                    assert hf.value == reference_dispatch(3, s, a, b), (3, s, a, b)


class TestHighColumnRoutes:
    """Oracle agreement for the routes the acceptance grids do not touch:
    simple points everywhere and double points above the b = 2 column."""

    def test_simple_points_vs_oracle(self, fast_oracle):
        from fatpoints.oracle import hf_biproj

        for a in range(0, 9):
            for b in range(0, a + 1):
                for s in (0, 1, 3, 7, 12):
                    formula = val(hf_uniform(BiDegree(a, b), UniformFatPoints(s, 1)))
                    assert formula == hf_biproj(BiDegree(a, b), [1] * s, fast_oracle)

    def test_double_points_high_columns_vs_oracle(self, fast_oracle):
        from fatpoints.oracle import hf_biproj

        for b in (3, 4, 5):
            for a in range(b, 11):
                for s in range(1, 7):
                    formula = val(hf_uniform(BiDegree(a, b), UniformFatPoints(s, 2)))
                    assert formula == hf_biproj(BiDegree(a, b), [2] * s, fast_oracle)


class TestStabilization:
    def test_constant_beyond_threshold(self):
        # columns b in {m-1, m} are constant at s*C(m+1,2) from
        # a = b(k+1) + s(m-b) - 1, k = floor(s/2)
        for m in (2, 3, 4, 5):
            for s in (1, 2, 5, 6):
                pts = UniformFatPoints(s, m)
                for b in (m - 1, m):
                    if b == 0:
                        continue
                    start = b * (s // 2 + 1) + s * (m - b) - 1
                    for a in range(max(start, b), start + 4):
                        assert val(hf_uniform(BiDegree(a, b), pts)) == pts.degree


class TestReduceToPlane:
    def test_examples(self):
        scheme, d = reduce_to_plane(BiDegree(5, 4), UniformFatPoints(5, 3))
        assert (scheme.corner_a, scheme.corner_b) == (5, 4)
        assert scheme.general == (3, 3, 3, 3, 3)
        assert scheme.on_line == ()
        assert d == 9
        assert scheme.degree == 15 + 10 + 30

        scheme, d = reduce_to_plane(BiDegree(2, 2), UniformFatPoints(1, 2))
        assert (scheme.corner_a, scheme.corner_b, scheme.general, d) == (2, 2, (2,), 4)

        scheme, d = reduce_to_plane(BiDegree(3, 1), UniformFatPoints(2, 1))
        assert (scheme.corner_a, scheme.corner_b, scheme.general, d) == (3, 1, (1, 1), 4)


class TestTableRegion:
    def test_known_grid(self):
        grid = table_region(3, 5, 5, 4)
        assert all(hf.value is not None for row in grid for hf in row)
        assert grid[4][5].value == 29
        assert grid[4][5].defective

    def test_empty_scheme_grid(self):
        grid = table_region(1, 0, 2, 2)
        assert [[hf.value for hf in row] for row in grid] == [[0] * 3] * 3

    def test_unknown_left_unresolved_without_oracle(self):
        grid = table_region(5, 5, 8, 8)
        assert grid[8][8].value is None
        assert grid[4][6].value is not None

    def test_oracle_fallback_fills_and_tags(self, fast_oracle):
        grid = table_region(5, 5, 8, 7, fast_oracle)
        cell = grid[7][8]
        assert cell.value == 71
        assert cell.source is Source.ORACLE
        assert not cell.known
        assert cell.defective

    def test_refused_before_filling(self, monkeypatch):
        # one 4 KiB page of physical memory refuses the golden table's 494
        # cells, and a table of 10^10 cells is refused before its first row
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}
        monkeypatch.setattr("fatpoints.oracle.os.sysconf", pages.__getitem__)
        for a_max, b_max in [(25, 18), (100000, 100000)]:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="physical memory"):
                    table_region(5, 5, a_max, b_max)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**16

    def test_golden_table_is_not_refused(self, monkeypatch):
        # the 1 GiB of physical memory the byte-identity corpus pins
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1 << 18}
        monkeypatch.setattr("fatpoints.oracle.os.sysconf", pages.__getitem__)
        assert len(table_region(5, 5, 25, 18)) == 19
