import random
from itertools import combinations_with_replacement
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints.core import binom
from fatpoints.horace import (
    castelnuovo_check,
    chain_params,
    diff_slice,
    differential_residue,
    horace_verify,
    residue_corner,
    residue_line,
    specialize_triple,
    trace_line,
    verify_chain,
)
from fatpoints.oracle import (
    DEFAULT_PRIME,
    hf_plane,
    plane_conditions_matrix,
    require_plane_fits,
    sample_support,
)
from fatpoints.schemes import PlaneScheme, SliceProfile


def widths(scheme):
    return [list(pr.widths) for pr in scheme.on_line]


def on_line_scheme(a, b, off_line=(), line_mults=()):
    """Corners, general points and full fat points on the line."""
    return PlaneScheme(a, b, tuple(off_line),
                       tuple(SliceProfile.fat_point(m) for m in line_mults))


class TestDiffSlice:
    def test_worked_triple_point(self):
        res, tr = diff_slice(3, 0)
        assert (res.widths, tr) == ((2, 1), 3)
        res, tr = diff_slice(3, 1)
        assert (res.widths, tr) == ((3, 1), 2)
        res, tr = diff_slice(3, 2)
        assert (res.widths, tr) == ((3, 2), 1)

    def test_simple_point_vanishes(self):
        res, tr = diff_slice(1, 0)
        assert res is None and tr == 1

    def test_range_check(self):
        with pytest.raises(ValueError):
            diff_slice(3, 3)
        with pytest.raises(ValueError):
            diff_slice(3, -1)

    def test_degree_conservation(self):
        for m in range(1, 13):
            for t in range(m):
                res, tr = diff_slice(m, t)
                total = (res.degree if res is not None else 0) + tr
                assert total == binom(m + 1, 2)


class TestResidueTrace:
    def test_online_fat_points_decrement(self):
        scheme = on_line_scheme(0, 0, line_mults=(3, 3))
        res = residue_line(scheme)
        assert widths(res) == [[2, 1], [2, 1]]
        assert trace_line(scheme) == [3, 3]

    def test_profile_drops_bottom_row(self):
        # the (3,1)-profile's quotient by the line equation is a simple point
        scheme = PlaneScheme(0, 0, (), (SliceProfile((3, 1)),))
        res = residue_line(scheme)
        assert widths(res) == [[1]]
        assert trace_line(scheme) == [3]

    def test_no_line_points(self):
        scheme = on_line_scheme(2, 1, off_line=(2, 2))
        assert residue_line(scheme) == scheme
        assert trace_line(scheme) == []

    def test_degree_bookkeeping(self):
        rng = random.Random(5)
        for _ in range(50):
            mults = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(0, 4)))
            scheme = on_line_scheme(
                rng.randrange(0, 3), rng.randrange(0, 3),
                off_line=tuple(rng.randrange(1, 4) for _ in range(2)),
                line_mults=mults,
            )
            res = residue_line(scheme)
            assert scheme.degree == res.degree + sum(trace_line(scheme))

    def test_residue_removes_bottom_row(self):
        # every valid profile of up to 5 rows of width up to 5
        profiles = [SliceProfile(w) for k in range(1, 6)
                    for w in combinations_with_replacement(range(5, 0, -1), k)]
        assert len(profiles) == 251
        rests = [pr.widths[1:] for pr in profiles]
        for pr, rest in zip(profiles, rests):
            res = residue_line(PlaneScheme(2, 1, (3,), (pr,)))
            assert res == PlaneScheme(2, 1, (3,), (SliceProfile(rest),) if rest else ())
        res = residue_line(PlaneScheme(0, 0, (), tuple(profiles)))
        assert [pr.widths for pr in res.on_line] == [rest for rest in rests if rest]

    def test_corner_residue(self):
        scheme = PlaneScheme(4, 1, (2,))
        dropped = residue_corner(scheme)
        assert (dropped.corner_a, dropped.corner_b) == (3, 0)
        assert residue_corner(dropped).corner_b == 0

    def test_differential_residue_uses_selectors(self):
        scheme = on_line_scheme(0, 0, line_mults=(3,))
        assert widths(differential_residue(scheme, [2])) == [[3, 1]]
        with pytest.raises(ValueError):
            differential_residue(PlaneScheme(0, 0, (), (SliceProfile((3, 1)),)), [1])
        # a width the profile does not have, and one slice too many or too few
        with pytest.raises(ValueError):
            differential_residue(scheme, [4])
        for slices in ([], [3, 3]):
            with pytest.raises(ValueError):
                differential_residue(scheme, slices)


class TestCastelnuovo:
    def test_two_collinear_double_points(self, oracle):
        scheme = on_line_scheme(0, 0, line_mults=(2, 2))
        result = castelnuovo_check(scheme, 2, oracle)
        assert (result.lhs, result.rhs_residue, result.rhs_trace) == (1, 1, 0)
        assert result.holds

    def test_single_point_slack(self, oracle):
        scheme = on_line_scheme(0, 0, off_line=(1,))
        result = castelnuovo_check(scheme, 1, oracle)
        assert result.lhs == 2
        assert result.holds

    def test_two_step_shape_at_degree_8(self, oracle):
        scheme = on_line_scheme(4, 4, off_line=(3, 3), line_mults=(3, 3))
        assert castelnuovo_check(scheme, 8, oracle).holds

    def test_randomized(self, fast_oracle):
        rng = random.Random(77)
        for _ in range(25):
            scheme = on_line_scheme(
                rng.randrange(0, 4), rng.randrange(0, 4),
                off_line=tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 3))),
                line_mults=tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 4))),
            )
            d = rng.randrange(1, 9)
            assert castelnuovo_check(scheme, d, fast_oracle).holds


class TestHoraceVerify:
    def test_single_triple_point(self, oracle):
        report = horace_verify([(3, 1)], PlaneScheme(0, 0), 2, oracle)
        assert report.conclusion_dim == binom(4, 2) - 6 == 0
        assert report.witnessed

    def test_empty_line_part(self, oracle):
        report = horace_verify([], PlaneScheme(1, 1, (2,)), 4, oracle)
        # degenerates to an independent-conditions check of the ambient part
        assert report.trace_dim == 5
        assert report.witnessed

    def test_specialization_instance(self, oracle):
        report = horace_verify(
            [(3, 0), (3, 0), (3, 0), (3, 1)], PlaneScheme(6, 4), 10, oracle
        )
        assert report.residue_ok and report.trace_ok
        assert report.conclusion_dim == 11
        assert report.witnessed

    @given(st.lists(st.integers(1, 10).flatmap(
               lambda m: st.tuples(st.just(m), st.integers(0, m - 1))), max_size=3),
           st.integers(0, 6), st.integers(0, 6), st.lists(st.integers(0, 8), max_size=3),
           st.integers(1, 8))
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_conclusion_is_the_largest_matrix(self, line_points, corner_a, corner_b,
                                              general, d):
        # horace_verify refuses only the conclusion's matrix before its first
        # elimination, so the residue's at d - 1 must be no larger
        calls = []
        with mock.patch("fatpoints.horace.hf_plane",
                        lambda degree, scheme, cfg: calls.append((degree, scheme)) or 0):
            horace_verify(line_points, PlaneScheme(corner_a, corner_b, tuple(general)), d)
        (_, residue), (_, conclusion) = calls
        p = DEFAULT_PRIME

        def built(degree, scheme):
            points = sample_support(0, len(scheme.general) + len(scheme.on_line) + 1, p)
            corners = (scheme.corner_a, scheme.corner_b)
            runs = require_plane_fits(degree, corners, [(m, 1) for m in scheme.general],
                                      [pr.widths for pr in scheme.on_line])
            return plane_conditions_matrix(degree, corners, runs, points, p).shape

        (res_rows, res_cols), (rows, cols) = built(d - 1, residue), built(d, conclusion)
        assert res_rows <= rows and res_cols <= cols

    def test_rejects_ambient_line_points(self, oracle):
        bad = PlaneScheme(0, 0, (), (SliceProfile((1,)),))
        with pytest.raises(ValueError):
            horace_verify([], bad, 2, oracle)


class TestStepOne:
    def test_c0(self):
        assert chain_params(6, 4) == (2, 0, 3, 1)
        step, _ = specialize_triple(6, 4, 5)
        assert list(step.slices) == [3, 3, 3, 2]
        assert step.scheme.general == (3,)
        assert (step.residual.corner_a, step.residual.corner_b) == (5, 3)
        assert widths(step.residual) == [[2, 1], [2, 1], [2, 1], [3, 1]]

    def test_c1(self):
        assert chain_params(7, 4) == (2, 1, 4, 0)
        step, _ = specialize_triple(7, 4, 6)
        assert list(step.slices) == [3, 3, 3, 3]
        assert widths(step.residual) == [[2, 1]] * 4

    def test_c2(self):
        assert chain_params(6, 6) == (2, 2, 4, 0)
        step, _ = specialize_triple(6, 6, 8)
        assert list(step.slices) == [3, 3, 3, 3, 1]
        assert widths(step.residual) == [[2, 1]] * 4 + [[3, 2]]

    def test_regime_errors(self):
        with pytest.raises(ValueError, match="a >= b >= 4"):
            chain_params(3, 3)
        with pytest.raises(ValueError, match="a >= b >= 4"):
            specialize_triple(3, 3, 2)
        with pytest.raises(ValueError, match="a >= b >= 4"):
            specialize_triple(6, 3, 9)
        with pytest.raises(ValueError, match="need at least 4 points, got s=3"):
            specialize_triple(6, 4, 3)


class TestStepTwo:
    def test_c0(self):
        _, step = specialize_triple(6, 4, 5)
        assert list(step.slices) == [2, 2, 2, 3]
        assert (step.residual.corner_a, step.residual.corner_b) == (4, 2)
        assert widths(step.residual) == [[1]] * 4
        assert step.residual.general == (3,)
        stripped = residue_line(step.residual)
        assert widths(stripped) == []
        assert stripped.general == (3,)

    def test_c1(self):
        _, step = specialize_triple(7, 4, 6)
        assert list(step.slices) == [2, 2, 2, 2, 2]
        assert widths(step.scheme) == [[2, 1]] * 4 + [[3, 2, 1]]
        assert widths(step.residual) == [[1]] * 4 + [[3, 1]]
        assert widths(residue_line(step.residual)) == [[1]]

    def test_c2(self):
        _, step = specialize_triple(6, 6, 8)
        assert list(step.slices) == [2, 2, 2, 2, 3]
        assert widths(step.residual) == [[1]] * 4 + [[2]]
        assert widths(residue_line(step.residual)) == []
        assert residue_line(step.residual).general == (3, 3, 3)

    def test_c3(self):
        _, step = specialize_triple(8, 5, 7)
        assert list(step.slices) == [2, 2, 2, 2, 3, 1]
        assert widths(step.residual) == [[1]] * 5 + [[3, 2]]
        assert widths(residue_line(step.residual)) == [[2]]

    def test_c4(self):
        _, step = specialize_triple(10, 4, 9)
        assert list(step.slices) == [2, 2, 2, 2, 2, 3]
        assert widths(step.residual) == [[1]] * 5 + [[2, 1]]
        assert widths(residue_line(step.residual)) == [[1]]

    def test_starts_from_the_first_residual(self):
        for a, b, s in [(6, 4, 5), (7, 4, 6), (6, 6, 8), (8, 5, 7), (10, 4, 9)]:
            step1, step2 = specialize_triple(a, b, s)
            assert (step1.degree, step2.degree) == (a + b, a + b - 2)
            assert len(step1.scheme.general) + len(step1.scheme.on_line) == s
            # step 2 keeps step 1's residual and moves at most one more point
            kept = len(step1.residual.on_line)
            assert step2.scheme.on_line[:kept] == step1.residual.on_line
            moved = len(step2.scheme.on_line) - kept
            assert moved == len(step1.residual.general) - len(step2.scheme.general) <= 1
            assert step2.scheme.corner_a == step1.residual.corner_a
            assert step2.scheme.corner_b == step1.residual.corner_b

    def test_needs_spare_point(self):
        # step 1 moves all four points onto the line, and step 2 finds no
        # off-line point left to move
        with pytest.raises(ValueError, match="not enough off-line points for step 2 with s=4"):
            specialize_triple(7, 4, 4)


class TestChain:
    def test_plain_and_differential_instances(self, fast_oracle):
        assert verify_chain(6, 4, 5, fast_oracle).ok
        assert verify_chain(7, 4, 6, fast_oracle).ok
        report = verify_chain(12, 4, 10, fast_oracle)
        assert report.ok
        # the first round takes a higher slice there, so the honestly
        # specialized scheme sits strictly above the carried dimension
        assert report.specialized1_dim > report.residual1_dim

    def test_step2_reuses_the_residual_only_when_it_moves_no_point(self, fast_oracle,
                                                                   monkeypatch):
        # step 2 moves one more point when a+b = 1, 3 or 4 mod 5; otherwise its
        # scheme is step 1's residual in the same degree, and its value is
        # the one already taken
        calls = []

        def counted(d, scheme, cfg):
            calls.append((d, scheme))
            return hf_plane(d, scheme, cfg)

        monkeypatch.setattr("fatpoints.horace.hf_plane", counted)
        for total in range(10, 15):
            a, b = total - 4, 4
            calls.clear()
            report = verify_chain(a, b, (a + 1) * (b + 1) // 6, fast_oracle)
            moved = total % 5 in (1, 3, 4)
            assert (report.step2.scheme != report.step1.residual) == moved
            assert len(calls) == 4 + moved
            assert len(set(calls)) == len(calls)
            assert report.specialized2_dim == hf_plane(total - 2, report.step2.scheme,
                                                       fast_oracle)

    def test_empty_side(self, fast_oracle):
        report = verify_chain(6, 4, 7, fast_oracle)
        assert report.ok
        assert report.generic_dim == 0

    def test_full_regime_to_sixteen(self, fast_oracle):
        for total in range(10, 17):
            for b in range(4, total // 2 + 1):
                a = total - b
                if a < b:
                    continue
                s1 = (a + 1) * (b + 1) // 6
                s2 = -((a + 1) * (b + 1) // -6)
                for s in sorted({s1, s2, s2 + 1}):
                    assert verify_chain(a, b, s, fast_oracle).ok, (a, b, s)
