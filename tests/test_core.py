import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatpoints.core import (
    BiDegree,
    Source,
    UniformFatPoints,
    binom,
    critical_counts,
    hf_value,
    virtual_dim_bi,
)
from fatpoints.schemes import reduce_to_plane


def test_binom_known_values():
    assert binom(5, 2) == 10
    assert binom(2, 5) == 0
    assert binom(0, 0) == 1
    assert binom(-1, 0) == 0
    assert binom(3, -1) == 0


@given(st.integers(0, 10**6), st.integers(0, 60))
@settings(max_examples=200, derandomize=True)
def test_binom_exactness(n, k):
    """binom(n,k) * k! equals the falling factorial, exactly."""
    if k > n:
        assert binom(n, k) == 0
        return
    product = 1
    for i in range(k):
        product *= n - i
    assert binom(n, k) * math.factorial(k) == product


def test_bidegree_normalized():
    assert BiDegree(2, 5).normalized == BiDegree(5, 2)
    assert BiDegree(5, 2).normalized == BiDegree(5, 2)
    assert BiDegree(3, 3).cells == 16
    with pytest.raises(ValueError):
        BiDegree(-1, 0)


def test_uniform_fat_points_validation():
    assert UniformFatPoints(4, 3).degree == 24
    assert UniformFatPoints(0, 1).degree == 0
    with pytest.raises(ValueError):
        UniformFatPoints(-1, 2)
    with pytest.raises(ValueError):
        UniformFatPoints(3, 0)


def test_virtual_dim_examples():
    assert virtual_dim_bi(BiDegree(5, 4), UniformFatPoints(5, 3)) == 0
    assert virtual_dim_bi(BiDegree(7, 2), UniformFatPoints(0, 4)) == 24
    assert virtual_dim_bi(BiDegree(14, 5), UniformFatPoints(9, 4)) == 0


@given(st.integers(0, 200), st.integers(0, 200), st.integers(0, 50), st.integers(1, 20))
@settings(max_examples=300, derandomize=True)
def test_virtual_dims_agree(a, b, s, m):
    deg, pts = BiDegree(a, b), UniformFatPoints(s, m)
    scheme, d = reduce_to_plane(deg, pts)
    assert binom(d + 2, 2) - scheme.degree == virtual_dim_bi(deg, pts)


def test_critical_counts_examples():
    assert critical_counts(BiDegree(4, 4), 3) == (4, 5)
    assert critical_counts(BiDegree(5, 4), 3) == (5, 5)
    assert critical_counts(BiDegree(8, 8), 5) == (5, 6)


@given(st.integers(0, 100), st.integers(0, 100), st.integers(1, 12))
@settings(max_examples=300, derandomize=True)
def test_critical_counts_bracket(a, b, m):
    deg = BiDegree(a, b)
    s1, s2 = critical_counts(deg, m)
    per = binom(m + 1, 2)
    assert s1 <= s2 <= s1 + 1
    assert s1 * per <= deg.cells < (s1 + 1) * per


def test_hf_value_bookkeeping():
    deg = BiDegree(5, 4)
    pts = UniformFatPoints(5, 3)
    hf = hf_value(29, deg, pts)
    assert hf.virtual_dim == 0
    assert hf.expected_dim == 0
    assert hf.defect == 1
    assert hf.defective
    assert hf.source is Source.FORMULA

    # negative virtual dimension: defect is measured against max(0, virtual)
    hf2 = hf_value(69, BiDegree(13, 4), UniformFatPoints(5, 5))
    assert hf2.virtual_dim == -5
    assert hf2.expected_dim == 0
    assert hf2.defect == 1

    unknown = hf_value(None, deg, pts, known=False)
    assert unknown.value is None
    assert not unknown.defective


def test_hf_value_rejects_out_of_range():
    deg = BiDegree(2, 2)
    pts = UniformFatPoints(1, 1)
    with pytest.raises(ValueError):
        hf_value(10, deg, pts)
    with pytest.raises(ValueError):
        hf_value(-1, deg, pts)
