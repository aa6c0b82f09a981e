"""Residue/trace calculus on the distinguished line, and the scripted
two-step specializations used for triple points.

A point on the line is a width profile (see schemes). The plain residue by
the line drops the bottom row of every on-line profile; the differential
variant may instead remove a chosen higher row of a full fat point, trading
a shorter trace on the line for a larger residual scheme. A differential
step is a PlaneScheme plus one row width (its slice) for each on-line
profile. specialize_triple builds both rounds of a triple-point chain from
chain_params, with the slices that make both lines removable, and exposes
every scheme so the rank oracle can confirm the dimension bookkeeping.
"""

from dataclasses import dataclass

from .core import BiDegree, binom, critical_counts
from .oracle import DEFAULT_CONFIG, OracleConfig, hf_plane, hf_trace_line, require_plane_fits
from .schemes import PlaneScheme, SliceProfile


def _split(profile: SliceProfile, width: int) -> SliceProfile | None:
    """Residue of an on-line profile split at the row of the given width: the
    first row of that width goes, the rows above it shift down one level."""
    if width not in profile.widths:
        raise ValueError(f"no row of width {width} in profile {profile.widths}")
    if width != profile.bottom and not profile.is_fat_point():
        raise ValueError(
            "a higher slice can only be taken on a full fat point, "
            f"got {profile.widths} with slice {width}"
        )
    rows = list(profile.widths)
    rows.remove(width)
    return SliceProfile(tuple(rows)) if rows else None


def diff_slice(m: int, t: int) -> tuple[SliceProfile | None, int]:
    """Split a multiplicity-m fat point on the line at slice index t.

    The trace keeps the row of width m - t; the residue is the full triangle
    with that row deleted and the rows above shifted down one level. t = 0 is
    the plain residue/trace pair.
    """
    if not 0 <= t <= m - 1:
        raise ValueError(f"slice index must satisfy 0 <= t <= m-1, got t={t}, m={m}")
    return _split(SliceProfile.fat_point(m), m - t), m - t


def trace_line(scheme: PlaneScheme) -> list[int]:
    """Bottom widths of the on-line points: the lengths cut out on the line."""
    return [pr.bottom for pr in scheme.on_line]


def differential_residue(scheme: PlaneScheme, slices) -> PlaneScheme:
    """Residue with on-line profile i split at the row of width slices[i].

    slices holds one width per on-line profile. Off-line points are
    untouched; the reduced points remain on the line.
    """
    rests = (_split(pr, w) for pr, w in zip(scheme.on_line, slices, strict=True))
    return PlaneScheme(scheme.corner_a, scheme.corner_b, scheme.general,
                       tuple(rest for rest in rests if rest is not None))


def residue_line(scheme: PlaneScheme) -> PlaneScheme:
    """Plain residue by the line: every on-line profile loses its bottom row."""
    return differential_residue(scheme, trace_line(scheme))


def residue_corner(scheme: PlaneScheme) -> PlaneScheme:
    """Residue by the line joining the two corners (both multiplicities drop)."""
    return PlaneScheme(
        max(0, scheme.corner_a - 1),
        max(0, scheme.corner_b - 1),
        scheme.general,
        scheme.on_line,
    )


@dataclass(frozen=True)
class CastelnuovoResult:
    lhs: int
    rhs_residue: int
    rhs_trace: int
    holds: bool


def castelnuovo_check(scheme: PlaneScheme, d: int,
                      oracle: OracleConfig = DEFAULT_CONFIG) -> CastelnuovoResult:
    """Ideal dimension of the scheme vs plain residue at d-1 plus trace at d.

    The inequality lhs <= rhs_res + rhs_tr is a theorem for the plain
    residue/trace pair; a False result signals a bug, not mathematics.
    """
    lhs = hf_plane(d, scheme, oracle)
    rhs_res = hf_plane(d - 1, residue_line(scheme), oracle) if d >= 1 else 0
    rhs_tr = hf_trace_line(d, trace_line(scheme), oracle)
    return CastelnuovoResult(lhs, rhs_res, rhs_tr, lhs <= rhs_res + rhs_tr)


@dataclass(frozen=True)
class HoraceReport:
    residue_dim: int
    residue_expected: int
    trace_dim: int
    trace_expected: int
    conclusion_dim: int
    conclusion_expected: int
    residue_ok: bool
    trace_ok: bool
    witnessed: bool


def horace_verify(line_points, ambient: PlaneScheme, d: int,
                  oracle: OracleConfig = DEFAULT_CONFIG) -> HoraceReport:
    """Witness one application of the differential split at degree d.

    line_points is a sequence of (multiplicity, slice index t) for fat points
    that the method sends onto the line; ambient holds the corners and the
    general points. Hypotheses: the split residue imposes maximal conditions
    in degree d-1, and the chosen traces fit independently on the line in
    degree d. When both hold, the scheme with the same multiplicities in
    general position must impose independent conditions in degree d, and
    that conclusion is verified too. The collinear scheme itself can sit
    strictly higher (the split is a limit argument, not a specialization),
    so no claim is made about it, nor when a hypothesis fails.
    """
    if ambient.on_line:
        raise ValueError("ambient scheme may not carry its own on-line points")
    line_points = tuple(line_points)
    # diff_slice checks 0 <= t <= m-1 and gives the trace width m - t
    traces = [diff_slice(m, t)[1] for m, t in line_points]
    res_scheme = differential_residue(PlaneScheme(
        ambient.corner_a, ambient.corner_b, ambient.general,
        tuple(SliceProfile.fat_point(m) for m, _ in line_points)), traces)
    general_scheme = PlaneScheme(ambient.corner_a, ambient.corner_b,
                                 ambient.general + tuple(m for m, _ in line_points))
    # the conclusion's matrix is the largest: refuse it before any elimination
    require_plane_fits(d, (ambient.corner_a, ambient.corner_b),
                       [(m, 1) for m in general_scheme.general])

    res_dim = hf_plane(d - 1, res_scheme, oracle) if d >= 1 else 0
    res_expected = max(0, binom(d + 1, 2) - res_scheme.degree)
    tr_dim = hf_trace_line(d, traces, oracle)
    tr_expected = d + 1 - sum(traces)

    concl_dim = hf_plane(d, general_scheme, oracle)
    concl_expected = max(0, binom(d + 2, 2) - general_scheme.degree)

    residue_ok = res_dim == res_expected
    trace_ok = tr_dim == tr_expected
    witnessed = residue_ok and trace_ok and concl_dim == concl_expected
    return HoraceReport(
        res_dim, res_expected, tr_dim, max(0, tr_expected),
        concl_dim, concl_expected, residue_ok, trace_ok, witnessed,
    )


# slice widths of the two rounds, by a+b mod 5: step 1 slices x points at width 3 and y at
# width 2, plus one extra point at _STEP1_EXTRA; step 2 swaps the widths on those points,
# slices step 1's extra point at _STEP2_KEPT and may move one more point in at _STEP2_MOVED.
_STEP1_EXTRA = {2: 1, 3: 2, 4: 3}
_STEP2_KEPT = {2: 3, 3: 3, 4: 2}
_STEP2_MOVED = {1: 2, 3: 1, 4: 3}


@dataclass(frozen=True)
class TripleStep:
    """One removal round in degree `degree`: the specialized scheme, the row
    width taken at each of its on-line profiles, and the residual.

    The oracle-checkable claim is that the residual in degree `degree - 2`
    has the ideal dimension of the scheme with all points in general
    position in degree `degree`. A round whose slices are all bottom rows is
    a plain line removal, and `scheme` has that dimension too; a round that
    takes a higher slice is a limit argument, and `scheme` can sit higher.
    """

    degree: int
    scheme: PlaneScheme
    slices: tuple[int, ...]
    residual: PlaneScheme


def chain_params(a: int, b: int) -> tuple[int, int, int, int]:
    """(h, c, x, y) of the chain at (a, b): a+b = 5h + c, and step 1 slices
    x on-line points at width 3 and y at width 2. Raises a ValueError outside
    the regime a >= b >= 4, a + b >= 10."""
    if not (a >= b >= 4 and a + b >= 10):
        raise ValueError(
            f"specialization needs a >= b >= 4 and a + b >= 10, got ({a}, {b})"
        )
    h, c = divmod(a + b, 5)
    x = h + 1 if c == 0 else h + 2
    y = h - 1 if c == 0 else h - 2
    return h, c, x, y


def _round(prior: PlaneScheme, kept, moved, degree: int, too_few: str) -> TripleStep:
    """One removal round in degree `degree`: move len(moved) general triple
    points of prior onto the line, slice prior's on-line profiles at kept and
    the moved points at moved, check that the line cuts out degree + 1, and
    remove the line and then the corner line."""
    widths = tuple(kept) + tuple(moved)
    if sum(widths) != degree + 1:
        raise AssertionError(f"trace degree {sum(widths)} != {degree + 1}")
    left = len(prior.general) - len(moved)
    if left < 0:
        raise ValueError(too_few)
    scheme = PlaneScheme(prior.corner_a, prior.corner_b, prior.general[:left],
                         prior.on_line + (SliceProfile.fat_point(3),) * len(moved))
    return TripleStep(degree, scheme, widths,
                      residue_corner(differential_residue(scheme, widths)))


def specialize_triple(a: int, b: int, s: int) -> tuple[TripleStep, TripleStep]:
    """The two removal rounds for s triple points at (a, b).

    Step 1 moves x + y (+ maybe one) triple points onto the line and slices
    the first x at width 3 and the next y at width 2, so the line cuts out
    degree a+b+1 and the line and then the corner line are forced; its
    residual lives in degree a+b-2. Step 2 swaps those widths to cut out
    degree a+b-1 and force both lines again, and for some a+b mod 5 moves
    one more off-line point on; its residual lives in degree a+b-4.
    """
    _, c, x, y = chain_params(a, b)
    s1 = critical_counts(BiDegree(a, b), 3)[0]
    if x + y + 1 > s1:
        raise AssertionError(f"x + y + 1 = {x + y + 1} exceeds s1 = {s1}")
    extra = [_STEP1_EXTRA[c]] if c in _STEP1_EXTRA else []
    moved = [3] * x + [2] * y + extra
    step1 = _round(PlaneScheme(a, b, (3,) * s), (), moved, a + b,
                   f"need at least {len(moved)} points, got s={s}")
    step2 = _round(step1.residual, [2] * x + [3] * y + [_STEP2_KEPT[c] for _ in extra],
                   [_STEP2_MOVED[c]] if c in _STEP2_MOVED else [], a + b - 2,
                   f"not enough off-line points for step 2 with s={s}")
    if c in (3, 4) and x + y + 2 > s1:
        raise AssertionError(f"x + y + 2 = {x + y + 2} exceeds s1 = {s1}")
    return step1, step2


@dataclass(frozen=True)
class ChainReport:
    """Oracle dimensions along the two-round chain for one (a, b, s)."""

    step1: TripleStep
    step2: TripleStep
    generic_dim: int
    residual1_dim: int
    residual2_dim: int
    specialized1_dim: int
    specialized2_dim: int
    ok: bool


def verify_chain(a: int, b: int, s: int,
                 oracle: OracleConfig = DEFAULT_CONFIG) -> ChainReport:
    """Run both rounds and confirm the dimension is carried down intact.

    Checks dim at a+b of the general-position scheme against the first
    residual at a+b-2 and the second at a+b-4. Rounds whose slices are all
    bottom rows are plain removals, so the specialized scheme is also
    required to match there. The general-position matrix, 6s rows on the
    (a+1)(b+1) columns the corners leave, is the largest and is refused from
    (a, b, s) before any scheme exists. When step 2 moves no point its
    scheme is step 1's residual, so the oracle's value is the one taken.
    """
    chain_params(a, b)  # an input outside the regime is refused first
    d = a + b
    require_plane_fits(d, (a, b), ((3, s),))
    step1, step2 = specialize_triple(a, b, s)
    generic = hf_plane(d, PlaneScheme(a, b, (3,) * s), oracle)
    res1 = hf_plane(d - 2, step1.residual, oracle)
    res2 = hf_plane(d - 4, step2.residual, oracle)
    spec1 = hf_plane(d, step1.scheme, oracle)
    spec2 = (res1 if step2.scheme == step1.residual
             else hf_plane(d - 2, step2.scheme, oracle))
    ok = generic == res1 == res2
    if list(step1.slices) == trace_line(step1.scheme):
        ok = ok and spec1 == res1
    if list(step2.slices) == trace_line(step2.scheme):
        ok = ok and spec2 == res2
    return ChainReport(step1, step2, generic, res1, res2, spec1, spec2, ok)
