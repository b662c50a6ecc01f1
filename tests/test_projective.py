import itertools
import math
import re

import numpy as np
import pytest

from veesys import (
    DEFAULT_RTOL,
    ProjectivePoint,
    catalogue,
    check_harmonic,
    decompose,
    load_script,
    meet,
    parse_script,
    run_reconstruction,
    same_matroid,
    to_projective,
)
from veesys import CovectorConfiguration, matroid
from veesys.tolerances import (BASIS_TRIPLE_DET, DEGENERATE_RATIO_TOL, SIGN_COORDINATE_TOL,
                               harmonic_tol, line_tol, resolve)
from veesys.errors import (
    BranchRequired,
    CoincidentLines,
    NotCollinear,
    ScriptFormatError,
    StepDegenerate,
)


def _affine(z):
    return ProjectivePoint([z, 1.0, 0.0])


def _reference_cross_ratio(points):
    """Cross-ratio (p1, p2; p3, p4) of four distinct collinear points, from
    a basis of two of the points and least-squares line coordinates of each
    point.  In affine line coordinates z it is
    (z1 - z3)(z2 - z4) / ((z1 - z4)(z2 - z3))."""
    for a, b in itertools.combinations(range(4), 2):
        if points[a].angular_error(points[b]) < 1e-12:
            raise ValueError(f"points {a + 1} and {b + 1} coincide")
    a, b = next((a, b) for a, b in ((0, 1), (0, 2), (0, 3), (1, 2))
                if points[a].angular_error(points[b]) > 1e-8)
    basis = np.column_stack([points[a].coordinates, points[b].coordinates])
    coords = []
    for p in points:
        c, *_ = np.linalg.lstsq(basis, p.coordinates, rcond=None)
        err = np.linalg.norm(basis @ c - p.coordinates)
        if err > 1e-8:
            raise ValueError(f"point off the common line by {err:.2e}")
        coords.append(c)
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = coords
    num = (x1 * y3 - x3 * y1) * (x2 * y4 - x4 * y2)
    den = (x1 * y4 - x4 * y1) * (x2 * y3 - x3 * y2)
    return float(num / den)


def test_cross_ratio_affine_oracle():
    assert _reference_cross_ratio([_affine(z) for z in (0, 1, 2, 3)]) == pytest.approx(4 / 3)


def test_cross_ratio_harmonic_oracle():
    points = [_affine(1), _affine(-1), _affine(0), ProjectivePoint([1, 0, 0])]
    assert _reference_cross_ratio(points) == pytest.approx(-1.0)


def test_cross_ratio_swap_last_pair_inverts():
    value = _reference_cross_ratio([_affine(z) for z in (0, 1, 2, 3)])
    swapped = _reference_cross_ratio([_affine(z) for z in (0, 1, 3, 2)])
    assert value * swapped == pytest.approx(1.0)


def test_cross_ratio_rejects_bad_input():
    with pytest.raises(ValueError, match="coincide"):
        _reference_cross_ratio([_affine(0), _affine(0), _affine(1), _affine(2)])
    with pytest.raises(ValueError, match="off the common line"):
        _reference_cross_ratio([_affine(0), _affine(1), _affine(2), ProjectivePoint([0, 0, 1])])


def _quad_configurations():
    """The catalogue grid points, B3-roots, and three images of every
    family's first grid point under GL(3) maps with condition number < 100."""
    for ident in catalogue.ids():
        for params in catalogue.entry(ident).default_grid:
            yield f"{ident}{params}", catalogue.construct(ident, params)
    yield "B3-roots", catalogue.auxiliary_configuration("B3-roots")
    rng = np.random.default_rng(17)
    for ident in catalogue.ids():
        base = catalogue.construct(ident, catalogue.entry(ident).default_grid[0])
        for k in range(3):
            while True:
                C = rng.standard_normal((3, 3))
                if np.linalg.cond(C) < 100:
                    break
            yield f"{ident} image {k}", base.transformed(C)


def test_harmonic_values_match_reference_on_every_four_flat_quad():
    """check_harmonic reads each cross-ratio off P; the reference takes the
    covectors' own line coordinates.  Both give the same value and verdict
    on every (other two members, orthogonal pair) quad of every 4-flat."""
    cut = harmonic_tol(DEFAULT_RTOL)
    checked = 0
    for name, config in _quad_configurations():
        points = to_projective(config)
        records = check_harmonic(config)
        assert len({r.flat for r in records}) == sum(
            f.size == 4 for f in decompose(config).flats), name
        for record in records:
            rest = [label for label in record.flat if label not in record.orthogonal_pair]
            expected = _reference_cross_ratio(
                [points[label] for label in (*rest, *record.orthogonal_pair)])
            assert record.cross_ratio == pytest.approx(expected, rel=1e-12, abs=0), name
            assert record.verdict == (abs(expected + 1.0) < cut), name
            checked += 1
    assert checked > 300


def test_meet_basic():
    p = meet(
        ProjectivePoint([0, 0, 1]),
        ProjectivePoint([1, 0, 1]),  # the line y = 0
        ProjectivePoint([0, 0, 1]),
        ProjectivePoint([0, 1, 1]),  # the line x = 0
    )
    assert p.angular_error(ProjectivePoint([0, 0, 1])) < 1e-14


def test_meet_rejects_coincident_lines():
    with pytest.raises(CoincidentLines):
        meet(_affine(0), _affine(1), _affine(2), _affine(3))


@pytest.mark.parametrize("rtol", [None, 1e-6])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_meet_line_cut_follows_rtol(rtol, factor):
    """Two points span a line, and two lines meet, when their cross product
    is at least line_tol(rtol) long: here both cross products are sin(b)."""
    b = math.asin(factor * line_tol(resolve(rtol)))
    origin, near = ProjectivePoint([1, 0, 0]), ProjectivePoint([math.cos(b), math.sin(b), 0])
    pole, far = ProjectivePoint([0, 0, 1]), ProjectivePoint([0, 1, 0])
    if factor < 1:
        with pytest.raises(CoincidentLines, match="points defining a line"):
            meet(origin, near, pole, far, rtol=rtol)
        with pytest.raises(CoincidentLines, match="the two lines coincide"):
            meet(pole, origin, pole, near, rtol=rtol)
    else:
        assert meet(origin, near, pole, far, rtol=rtol).angular_error(far) < 1e-12
        assert meet(pole, origin, pole, near, rtol=rtol).angular_error(pole) < 1e-12


def test_projective_point_normalization():
    p = ProjectivePoint([-2.0, 4.0, 0.0])
    assert p.coordinates[0] > 0
    assert np.linalg.norm(p.coordinates) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ProjectivePoint([0, 0, 0])


@pytest.mark.parametrize("factor, flipped", [(0.5, False), (2.0, True)])
def test_sign_coordinate_cut(factor, flipped):
    # a first coordinate below the cut is a zero, so the second fixes the sign
    p = ProjectivePoint([-factor * SIGN_COORDINATE_TOL, 1.0, 0.0])
    assert (p.coordinates[0] > 0) == flipped
    assert (p.coordinates[1] < 0) == flipped


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("5 = (1 2) ^ (3 4)", "no basis"),
        ("basis: 1 2 3\n", "4 labels"),
        ("basis: 1 2 3 4\nbasis: 1 2 3 4\n", "duplicate basis"),
        ("basis: 1 2 3 4\n5 = (1 9) ^ (2 3)", "undefined label 9"),
        ("basis: 1 2 3 4\n1 = (2 3) ^ (2 4)", "defined twice"),
        ("basis: 1 2 3 4\n5 = meet(1 2, 3 4)", "cannot parse"),
        ("basis: 1 2 3 4\nbranch: x^3-1 ; 5 on (1 2) at ratio (1 2 : 5 3)",
         "quadratic"),
        ("basis: 1 2 3 4\nbranch: x^2+1 ; 5 on (1 2) at ratio (1 2 : 5 3)",
         "line 2: branch equation 'x^2+1' has no real roots"),
        ("basis: a b c d\nbranch: x^2-x-1 ; e on (a b) at ratio (a e : b c)\n",
         "step 'branch e on (a b)': branch ratio must carry the target in its third"),
        ("basis: a b c d\nbranch: x^2-x-1 ; e on (a b) at ratio (c a : e b)\n"
         "branch: x^2-x-1 ; f on (a b) at ratio (c a : f b)\n",
         "line 3: second branch record"),
    ],
)
def test_script_parse_errors(text, fragment):
    with pytest.raises(ScriptFormatError) as info:
        parse_script(text)
    assert fragment in str(info.value)


def test_script_comments_and_roots():
    script = parse_script(
        "# comment\nbasis: a b c d\n"
        "branch: x^2-x-1 ; e on (a b) at ratio (a b : e c)\n"
    )
    plus, minus = script.branch_step.roots()
    assert plus == pytest.approx((1 + math.sqrt(5)) / 2)
    assert minus == pytest.approx((1 - math.sqrt(5)) / 2)


def test_branch_required():
    script = load_script(catalogue.script_path("h3"))
    config, basis = catalogue.script_reference("h3")
    proj = to_projective(config)
    with pytest.raises(BranchRequired):
        run_reconstruction(script, [proj[l] for l in basis])


def test_basis_must_be_in_general_position():
    script = load_script(catalogue.script_path("b3"))
    pts = [_affine(z) for z in (0, 1, 2)] + [ProjectivePoint([0, 0, 1])]
    with pytest.raises(ValueError, match="collinear"):
        run_reconstruction(script, pts)


@pytest.mark.parametrize("name", ["a3", "b3"])
def test_reconstruction_exact(name):
    config, basis = catalogue.script_reference(name)
    script = load_script(catalogue.script_path(name))
    proj = to_projective(config)
    env = run_reconstruction(script, [proj[l] for l in basis])
    for label in config.labels:
        assert env[label].angular_error(proj[label]) < 1e-12


def test_h3_two_branches_same_matroid():
    config, basis = catalogue.script_reference("h3")
    script = load_script(catalogue.script_path("h3"))
    proj = to_projective(config)
    decomps = []
    for branch in ("plus", "minus"):
        env = run_reconstruction(script, [proj[l] for l in basis], branch=branch)
        points = np.column_stack(
            [env[l].coordinates for l in config.labels]
        )
        decomps.append(decompose(CovectorConfiguration(points, config.labels)))
    assert same_matroid(*decomps) == matroid.YES
    # the minus branch is the catalogue realisation
    env = run_reconstruction(script, [proj[l] for l in basis], branch="minus")
    assert max(env[l].angular_error(proj[l]) for l in config.labels) < 1e-12


def _frame():
    return [ProjectivePoint(v) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1])]


def test_branch_is_plus_or_minus():
    config, basis = catalogue.script_reference("h3")
    script = load_script(catalogue.script_path("h3"))
    proj = to_projective(config)
    for branch in ((1 - math.sqrt(5)) / 2, "-0.618", "Plus"):
        with pytest.raises(ValueError, match="'plus' or 'minus'"):
            run_reconstruction(script, [proj[l] for l in basis], branch=branch)


def test_degenerate_meet_is_step_degenerate():
    script = parse_script("basis: a b c d\ne = (a b) ^ (b a)\n")
    with pytest.raises(StepDegenerate, match=re.escape("'e = (a b) ^ (b a)'")):
        run_reconstruction(script, _frame())


def test_branch_on_coincident_points_is_step_degenerate():
    script = parse_script("basis: p q r u\nbranch: x^2-3x+2 ; t on (p p) at ratio (u p : t q)\n")
    with pytest.raises(StepDegenerate, match=re.escape("'branch t on (p p)'")):
        run_reconstruction(script, _frame(), branch="plus")


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_basis_triple_cut(factor):
    # the triple (a, b, c) has unit determinant z; every other triple is far from 0
    z = factor * BASIS_TRIPLE_DET
    side = math.sqrt((1 - z * z) / 2)
    frame = [ProjectivePoint(v)
             for v in ([1, 0, 0], [0, 1, 0], [side, side, z], [0, 0, 1])]
    script = parse_script("basis: a b c d\ne = (a c) ^ (b d)\n")
    if factor < 1:
        with pytest.raises(ValueError, match="collinear triple"):
            run_reconstruction(script, frame)
    else:
        assert run_reconstruction(script, frame).keys() == {"a", "b", "c", "d", "e"}


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_degenerate_ratio_cut(factor):
    # m = (1, 1, 0) has coordinates (s, s) on the line (p q), s = 1/sqrt(2), and
    # placing t at cross-ratio (m p; t q) = x solves an equation with leading
    # coefficient s (1 - x); x = 1 + delta puts it at factor times the cut
    s = math.sqrt(0.5)
    root = 1 + factor * DEGENERATE_RATIO_TOL / s
    script = parse_script(
        "basis: p q r u\nm = (p q) ^ (r u)\n"
        f"branch: x^2-{root!r}x ; t on (p q) at ratio (m p : t q)\n")
    assert script.branch_step.roots()[0] == root
    if factor < 1:
        with pytest.raises(StepDegenerate, match="ratio equation degenerate"):
            run_reconstruction(script, _frame(), branch="plus")
    else:
        t = run_reconstruction(script, _frame(), branch="plus")["t"]
        assert t.coordinates[2] == 0.0  # on the line (p q)


# the branch script of the off-line ratio point: u must lie on the line (p q)
OFF_LINE_SCRIPT = "basis: p q r u\nbranch: x^2-3x+2 ; t on (p q) at ratio (u p : t q)\n"


@pytest.mark.parametrize("rtol", [1e-9, 1e-6])
@pytest.mark.parametrize("factor", [0.9, 1.1])
def test_branch_ratio_points_must_lie_on_the_line(rtol, factor):
    """u at height factor * collinear_tol above the line (p q), the plane
    z = 0: placed below the cut, NotCollinear above it."""
    height = factor * max(rtol * 1000, 1e-8)
    side = math.sqrt((1 - height * height) / 2)
    frame = _frame()[:3] + [ProjectivePoint([side, side, height])]
    script = parse_script(OFF_LINE_SCRIPT)
    if factor < 1:
        t = run_reconstruction(script, frame, branch="plus", rtol=rtol)["t"]
        assert t.coordinates[2] == 0.0  # on the line (p q)
    else:
        with pytest.raises(NotCollinear, match=r"^step 'branch t on \(p q\)': point u off"):
            run_reconstruction(script, frame, branch="plus", rtol=rtol)

