"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every comparison is exact;
oracle checks use the default prime 2^31 - 1 with 3 trials unless a
criterion pins otherwise.
"""

import io
import random
from contextlib import redirect_stdout
from pathlib import Path

from fatpoints.cli import main
from fatpoints.core import BiDegree, UniformFatPoints, binom
from fatpoints.formulas import hf_uniform
from fatpoints.horace import (
    castelnuovo_check,
    diff_slice,
    verify_chain,
)
from fatpoints.oracle import OracleConfig, check_reduction, hf_biproj, hf_biproj_row
from fatpoints.schemes import PlaneScheme, SliceProfile
from reference_dispatch import reference_dispatch

GOLDEN = Path(__file__).parent / "data" / "table_m5_s5.txt"

ANCHORS = {
    (13, 4): 69,
    (14, 4): 72,
    (15, 4): 74,
    (16, 4): 75,
    (10, 5): 65,
    (8, 7): 71,
    (23, 1): 45,
}


def test_criterion_1_reference_table():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([
            "table", "--m", "5", "--s", "5", "--amax", "25", "--bmax", "18",
            "--mark-defective", "--oracle-unknown",
        ])
    assert code == 0
    text = buf.getvalue()
    assert text == GOLDEN.read_text()
    lines = text.strip().split("\n")[1:]
    for (a, b), expected in ANCHORS.items():
        cell = lines[b].split()[1 + a]
        assert int(cell.rstrip("*?")) == expected, (a, b)
    # eventual value: the far corner carries the degree of the scheme
    assert lines[18].split()[26].rstrip("*?") == "75"
    print("criterion 1 PASS: reference table reproduced (494 cells + anchors)")


def test_criterion_2_triple_points_vs_oracle():
    cfg = OracleConfig(prime=2**31 - 1, trials=3)
    cache = {}
    checked = 0
    for a in range(1, 13):
        for b in range(1, 13):
            for s in range(1, 13):
                formula = hf_uniform(BiDegree(a, b), UniformFatPoints(s, 3)).value
                A, B = max(a, b), min(a, b)
                if (B, s) not in cache:
                    # one row holds every A: hf_biproj(A, B) is its entry A
                    cache[B, s] = hf_biproj_row(B, range(13), [3] * s, cfg)
                assert formula == cache[B, s][A], (a, b, s)
                checked += 1
    print(f"criterion 2 PASS: triple-point formula == oracle on {checked} instances")


def test_criterion_3_m_ge_b_vs_oracle():
    cfg = OracleConfig()
    checked = 0
    for m in range(2, 7):
        for b in range(0, m + 1):
            for s in range(1, 11):
                # one row holds every a: hf_biproj(a, b) is its entry a
                ranks = hf_biproj_row(b, range(21), [m] * s, cfg)
                for a in range(b, 21):
                    formula = hf_uniform(BiDegree(a, b), UniformFatPoints(s, m))
                    assert formula.value == ranks[a], (a, b, m, s)
                    checked += 1
    print(f"criterion 3 PASS: low-bidegree formula == oracle on {checked} instances")


def test_criterion_4_reduction_lemma():
    cfg = OracleConfig()
    rng = random.Random(20240815)
    for i in range(200):
        a = rng.randrange(0, 9)
        b = rng.randrange(0, 9)
        m = rng.randrange(1, 5)
        s = rng.randrange(0, 7)
        assert check_reduction(BiDegree(a, b), UniformFatPoints(s, m), cfg), (a, b, m, s)
    print("criterion 4 PASS: plane reduction confirmed on 200 random instances")


def test_criterion_5_defective_family():
    cfg = OracleConfig()
    for m in (3, 4, 5):
        a, b, s = (2 * m - 1) * (m - 2), m + 1, 4 * m - 7
        deg = BiDegree(a, b)
        ideal_dim = deg.cells - hf_biproj(deg, [m] * s, cfg)
        assert ideal_dim == (m - 3) * (m - 4) // 2 + 1, m
    print("criterion 5 PASS: defective family has defect exactly 1 for m = 3, 4, 5")


def test_criterion_6_horace_calculus():
    # worked slice example
    assert diff_slice(3, 0) == (SliceProfile((2, 1)), 3)
    assert diff_slice(3, 1) == (SliceProfile((3, 1)), 2)
    assert diff_slice(3, 2) == (SliceProfile((3, 2)), 1)

    cfg = OracleConfig()
    rng = random.Random(606)
    for _ in range(100):
        scheme = PlaneScheme(
            rng.randrange(0, 5), rng.randrange(0, 5),
            tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 3))),
            tuple(SliceProfile.fat_point(rng.randrange(1, 4))
                  for _ in range(rng.randrange(0, 4))),
        )
        d = rng.randrange(1, 10)
        result = castelnuovo_check(scheme, d, cfg)
        assert result.holds, (scheme, d)

    chains = 0
    for total in range(10, 15):
        for b in range(4, total // 2 + 1):
            a = total - b
            if a < b:
                continue
            s1 = (a + 1) * (b + 1) // 6
            s2 = -((a + 1) * (b + 1) // -6)
            for s in sorted({s1, s2}):
                assert verify_chain(a, b, s, cfg).ok, (a, b, s)
                chains += 1
    print(f"criterion 6 PASS: slice goldens, 100 Castelnuovo checks, "
          f"{chains} two-step chains")


def test_criterion_7_property_suites():
    # symmetry, bounds, monotonicity on a dense formula grid
    for m in range(1, 9):
        for s in (0, 1, 2, 3, 5, 8, 13, 20):
            pts = UniformFatPoints(s, m)
            grid = {}
            for a in range(0, 21):
                for b in range(0, a + 1):
                    hf = hf_uniform(BiDegree(a, b), pts)
                    grid[(a, b)] = hf.value
                    assert hf_uniform(BiDegree(b, a), pts) == hf
                    if hf.value is not None:
                        assert 0 <= hf.value <= min((a + 1) * (b + 1),
                                                    s * binom(m + 1, 2))
            for (a, b), value in grid.items():
                if value is None:
                    continue
                for na, nb in ((a + 1, b), (a, b + 1)):
                    key = (max(na, nb), min(na, nb))
                    neighbour = grid.get(key)
                    if neighbour is not None:
                        assert neighbour >= value, (a, b, m, s)

    # semicontinuity: moving support onto a line never increases the rank
    cfg = OracleConfig()
    from fatpoints.oracle import hf_plane

    rng = random.Random(1234)
    for _ in range(30):
        ca, cb = rng.randrange(0, 4), rng.randrange(0, 4)
        mults = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 5))]
        moved = rng.randrange(1, len(mults) + 1)
        d = rng.randrange(2, 9)
        general = PlaneScheme(ca, cb, tuple(mults))
        special = PlaneScheme(ca, cb, tuple(mults[moved:]),
                              tuple(SliceProfile.fat_point(m) for m in mults[:moved]))
        assert hf_plane(d, special, cfg) >= hf_plane(d, general, cfg)

    # three distinct seeds agree on every instance of a mixed grid
    for m, s in ((2, 3), (3, 5), (5, 2)):
        for a in range(0, 7):
            for b in range(0, a + 1):
                values = {
                    hf_biproj(BiDegree(a, b), [m] * s, OracleConfig(seed=seed))
                    for seed in (11, 22, 33)
                }
                assert len(values) == 1, (a, b, m, s)

    # reference-dispatch parity on its whole declared domain
    cells = 0
    for m in range(1, 9):
        for s in range(0, 21):
            for a in range(0, 41):
                for b in range(0, a + 1):
                    if m < b and m > 3:
                        continue
                    expected = reference_dispatch(m, s, a, b)
                    pts = UniformFatPoints(s, m)
                    assert hf_uniform(BiDegree(a, b), pts).value == expected, (m, s, a, b)
                    assert hf_uniform(BiDegree(b, a), pts).value == expected
                    cells += 1
    print(f"criterion 7 PASS: symmetry/bounds/monotonicity, semicontinuity, "
          f"seed agreement, dispatch parity on {cells} cells")
