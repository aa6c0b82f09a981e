import pytest

from fatpoints.core import BiDegree, UniformFatPoints
from fatpoints.schemes import PlaneScheme, SliceProfile, reduce_to_plane


def test_profile_validation():
    assert SliceProfile.fat_point(3).widths == (3, 2, 1)
    assert SliceProfile((3, 1)).degree == 4
    assert SliceProfile((3, 1)).bottom == 3
    with pytest.raises(ValueError):
        SliceProfile((1, 3))
    with pytest.raises(ValueError):
        SliceProfile((2, 0))
    with pytest.raises(ValueError):
        SliceProfile.fat_point(0)
    # no bottom row, so no residue or trace by the line
    with pytest.raises(ValueError, match="at least one row"):
        SliceProfile(())


def test_profile_residue():
    assert SliceProfile.fat_point(4).is_fat_point()
    assert not SliceProfile((3, 1)).is_fat_point()


def test_scheme_degree():
    scheme = PlaneScheme(5, 4, (3, 3), (SliceProfile((3, 1)), SliceProfile((2,))))
    assert scheme.degree == 15 + 10 + 6 + 6 + 4 + 2
    assert PlaneScheme(0, 0).degree == 0
    with pytest.raises(ValueError):
        PlaneScheme(-1, 0)
    with pytest.raises(ValueError):
        PlaneScheme(0, 0, (-2,))


def test_reduce_matches_scheme_degree():
    scheme, d = reduce_to_plane(BiDegree(4, 7), UniformFatPoints(3, 2))
    assert d == 11
    assert scheme.degree == 10 + 28 + 9
