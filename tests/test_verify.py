import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from plane_reference import pairing, restrict_forms
from veesys import (
    DEFAULT_RTOL,
    CovectorConfiguration,
    catalogue,
    canonical_form,
    check_extension,
    check_harmonic,
    check_vee,
    decompose,
    deform,
    io,
    matroid,
    solve_weights,
    verify,
)
from veesys.errors import BadEmbedding, DegeneratePlane, VeesysError
from veesys.tolerances import (WEIGHT_TOL, common_ratio_tol, embedding_tol,
                               harmonic_tol, orthogonal_pair_tol, resolve)


def test_check_vee_accepts_h3():
    report = check_vee(catalogue.construct("H3", {}))
    assert report.is_vee_system
    assert report.max_residual < 1e-12
    values = sorted(set(round(v, 10) for v in report.nu_function.values()))
    assert values == [pytest.approx(0.3), pytest.approx(0.5)]


def test_check_vee_rejects_perturbed():
    config = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})
    rng = np.random.default_rng(0)
    noisy = CovectorConfiguration(
        config.matrix + 1e-2 * rng.standard_normal(config.matrix.shape)
    )
    assert not check_vee(noisy).is_vee_system


def test_nu_trace_equals_proportionality_factor():
    config = catalogue.construct("G3", {"t": 1.25})
    report = check_vee(config)
    decomp = report.decomposition
    for f in decomp.flats[len(decomp.pair_members):]:  # the multi flats
        labels = config.sublabels(f.members)
        # the report's nu comes from the trace formula; recompute the
        # least-squares factor directly from the restricted forms
        pf = restrict_forms(config, f)
        g, gp = pf.restricted_gram, pf.restricted_plane_gram
        lsq = float(np.tensordot(gp, g) / np.tensordot(g, g))
        assert report.nu_function[labels] == pytest.approx(lsq, rel=1e-10)


def test_weights_a3():
    solution = solve_weights(catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1}))
    assert solution.status == "feasible"
    assert solution.universal_value == pytest.approx(1.5, abs=1e-10)
    assert all(w == pytest.approx(0.5, abs=1e-10) for w in solution.weights.values())


def test_weights_d3_infeasible():
    solution = solve_weights(catalogue.construct("D3", {"t": 1, "s": 1}))
    assert solution.status == "infeasible"


def test_harmonic_b3_flat():
    config = catalogue.auxiliary_configuration("B3-roots")
    records = check_harmonic(config)
    by_flat = {frozenset(r.flat): r for r in records}
    record = by_flat[frozenset(("3", "4", "8", "9"))]
    assert record.verdict
    assert record.cross_ratio == pytest.approx(-1.0, abs=1e-10)
    assert set(record.orthogonal_pair) in ({"3", "4"}, {"8", "9"})


def test_harmonic_empty_without_quads():
    assert check_harmonic(catalogue.construct("H3", {})) == []


@pytest.mark.parametrize("ident", ["A3", "D3"])
def test_harmonic_without_four_flats_computes_no_cross_ratio(ident):
    for params in catalogue.entry(ident).default_grid:
        assert check_harmonic(catalogue.construct(ident, params)) == []
    # the plane check still runs first
    with pytest.raises(DegeneratePlane):
        check_harmonic(catalogue.construct("A3", {"c1": 1e300, "c2": 1, "c3": 1}))


def test_harmonic_all_f3_quads():
    records = check_harmonic(catalogue.construct("F3", {"t": 1}))
    assert records, "F3 has 4-member flats"
    assert all(r.verdict for r in records)


def test_harmonic_f3_records_in_flat_order_with_pair_counts():
    records = check_harmonic(catalogue.construct("F3", {"t": 1}))
    two = "2OrthogonalPairs"
    assert [(" ".join(r.flat), " ".join(r.orthogonal_pair), r.note) for r in records] == [
        ("1 2 4 5", "1 2", two), ("1 2 4 5", "4 5", two),
        ("1 3 6 7", "1 3", two), ("1 3 6 7", "6 7", two),
        ("1 8 10 13", "1 8", ""), ("1 9 11 12", "1 9", ""),
        ("2 3 8 9", "2 3", two), ("2 3 8 9", "8 9", two),
        ("2 6 10 11", "2 6", ""), ("2 7 12 13", "2 7", ""),
        ("3 4 10 12", "3 4", ""), ("3 5 11 13", "3 5", ""),
    ]
    assert all(r.cross_ratio == pytest.approx(-1.0, abs=1e-12) for r in records)


def test_harmonic_records_a_flat_without_an_orthogonal_pair():
    """B3(1,1,1;0) with every covector scaled by 1 + 1e-3 N(0, 1): at the
    default rtol no member pair of a 4-flat reads as orthogonal, so each
    flat gets one NoOrthogonalPair record.  At rtol 1e-4 both pairs of each
    do, and the cross-ratios are still -1, since scaling a covector moves
    no projective point."""
    b3 = catalogue.construct("B3", {"c1": 1, "c2": 1, "c3": 1, "gamma": 0})
    config = b3.scaled(1 + 1e-3 * np.random.default_rng(1).standard_normal(b3.n))
    records = check_harmonic(config)
    assert [(r.flat, r.cross_ratio, r.orthogonal_pair, r.verdict, r.note)
            for r in records] == [
        (flat, None, None, False, "NoOrthogonalPair")
        for flat in (("1", "2", "6", "9"), ("1", "3", "5", "8"), ("2", "3", "4", "7"))]
    records = check_harmonic(config, rtol=1e-4)
    assert [(" ".join(r.flat), " ".join(r.orthogonal_pair)) for r in records] == [
        ("1 2 6 9", "1 2"), ("1 2 6 9", "6 9"), ("1 3 5 8", "1 3"),
        ("1 3 5 8", "5 8"), ("2 3 4 7", "2 3"), ("2 3 4 7", "4 7")]
    assert all(r.verdict and r.note == "2OrthogonalPairs" for r in records)
    assert all(r.cross_ratio == pytest.approx(-1.0, abs=1e-15) for r in records)


def test_harmonic_quad_whose_points_coincide_is_not_harmonic():
    """Members 1, 2 and 3 of the 4-flat {1, 2, 3, 4} lie within 1e-6 of one
    line and member 4 is orthogonal to all three, so its coordinates
    (P_4,1, P_4,2) vanish and so do the quads' minors: each record reads
    the cross-ratio numpy's division gives (nan for 0 / 0), not an error,
    and none is harmonic."""
    config = CovectorConfiguration(np.array(
        [(1, 0, 0), (1, 1e-6, 0), (1, -0.7e-6, 0), (0, 1000, 0),
         (0, 0, 1), (1, 0, 1), (1, 0, -1)], dtype=float).T)
    with np.errstate(divide="ignore", invalid="ignore"):
        records = check_harmonic(config)
    quad = [r for r in records if r.flat == ("1", "2", "3", "4")]
    assert [r.orthogonal_pair for r in quad] == [("1", "4"), ("2", "4"), ("3", "4")]
    assert not any(r.verdict for r in quad)


def test_extension_h3_in_h4a1():
    outer = catalogue.construct("H4A1", {})
    added = {"4", "5", "6", "7"} | {str(i) for i in range(20, 32)}
    idx = [i for i, l in enumerate(outer.labels) if l not in added]
    inner = outer.take(idx)
    report = check_extension(inner, outer, idx)
    assert report.is_extension
    assert report.nu_ratio == pytest.approx(3.0, rel=1e-9)


def test_extension_is_scale_invariant():
    """Inner and outer scaled by 1e155, past where their squared entries
    overflow, give the unscaled verdict and nu-ratio, with no warning."""
    outer = catalogue.construct("H4A1", {})
    added = {"4", "5", "6", "7"} | {str(i) for i in range(20, 32)}
    idx = [i for i, l in enumerate(outer.labels) if l not in added]
    inner = outer.take(idx)
    base = check_extension(inner, outer, idx)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = check_extension(inner.scaled(1e155), outer.scaled(1e155), idx)
    assert scaled.is_extension == base.is_extension
    assert scaled.nu_ratio == pytest.approx(base.nu_ratio, rel=1e-12)


def test_extension_rejects_bad_embedding():
    outer = catalogue.construct("H3", {})
    inner = outer.take([0, 1, 2])
    with pytest.raises(BadEmbedding):
        check_extension(inner, outer, [0, 0, 1])
    with pytest.raises(BadEmbedding):
        check_extension(inner, outer, [0, 1])
    with pytest.raises(BadEmbedding):
        check_extension(inner, outer, [0, 1, 99])


def test_extension_detects_non_embedding():
    outer = catalogue.construct("H3", {})
    rotated = outer.take([0, 1, 2]).transformed(
        np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    )
    report = check_extension(rotated, outer, [0, 1, 2])
    assert not report.is_extension


def test_partial_ratio_reporting():
    # inner flats cut out of larger outer flats are reported but do not
    # block the common ratio
    outer = catalogue.construct("E8A1cubedA2", {})
    added = {"3", "4", "5", "6", "9", "14", "15", "16", "17"}
    idx = [i for i, l in enumerate(outer.labels) if l not in added]
    inner = outer.take(idx)
    report = check_extension(inner, outer, idx)
    assert report.is_extension
    assert report.nu_ratio == pytest.approx(2.5, rel=1e-9)
    values = sorted(set(round(v, 6) for v in report.per_flat_ratios.values()))
    assert values == [pytest.approx(5 / 6), pytest.approx(2.5)]


def _grid_points():
    for ident in catalogue.ids():
        for params in catalogue.entry(ident).default_grid:
            yield f"{ident}{params}", catalogue.construct(ident, params)


def _gl3_images(rng, per_family):
    """Images of every family's first grid point under random GL(3) maps
    with condition number below 100, as in the C11 battery."""
    for ident in catalogue.ids():
        base = catalogue.construct(ident, catalogue.entry(ident).default_grid[0])
        for k in range(per_family):
            while True:
                C = rng.standard_normal((3, 3))
                if np.linalg.cond(C) < 100:
                    break
            yield f"{ident} image {k}", base.transformed(C)


def _reference_planes(config):
    """Per flat (labels, residual, least-squares nu, trace nu, G-metric
    ratio of the first two duals), from restrict_forms and one pairing call per entry,
    without the shared analysis.  Pair flats have neither least-squares nu
    nor ratio."""
    planes = []
    for f in decompose(config).flats:
        i, j = f.members[:2]
        trace = 0.5 * sum(pairing(config, k, k) for k in f.members)
        if f.is_pair:
            scale = np.sqrt(pairing(config, i, i) * pairing(config, j, j))
            planes.append((config.sublabels(f.members),
                           abs(pairing(config, i, j)) / scale, None, trace, None))
            continue
        # the sine of the G-angle between the two duals, times sqrt(2)
        pii_pjj = pairing(config, i, i) * pairing(config, j, j)
        ratio = math.sqrt(2 * (pii_pjj - pairing(config, i, j) ** 2) / pii_pjj)
        pf = restrict_forms(config, f)
        g, gp = pf.restricted_gram, pf.restricted_plane_gram
        lsq = float(np.tensordot(gp, g) / np.tensordot(g, g))
        residual = float(np.linalg.norm(gp - lsq * g) / np.linalg.norm(gp))
        planes.append((config.sublabels(f.members), residual, lsq, trace, ratio))
    return planes


def _assert_planes_match_reference(name, config, vee):
    report = check_vee(config)
    assert report.is_vee_system == vee, name
    reference = _reference_planes(config)
    analysis = config.analysis
    flats = [config.sublabels(f.members) for f in report.decomposition.flats]
    assert flats == [p[0] for p in reference], name
    # one ratio per multi flat, in flat order
    ratios = [p[4] for p in reference if p[2] is not None]
    assert analysis.ratios.tolist() == pytest.approx(ratios, rel=1e-12), name
    traces = [p[3] for p in reference if p[2] is not None]
    assert analysis.multi_nus.tolist() == pytest.approx(traces, rel=1e-12), name
    residuals, nus = analysis.residuals.tolist(), analysis.nus.tolist()
    assert vee == all(r < DEFAULT_RTOL for r in residuals), name
    multi = {flat: nu for flat, nu, p in zip(flats, nus, reference) if p[2] is not None}
    assert report.nu_function == multi, name
    planes = zip(flats, residuals, nus, reference)
    for flat, got_residual, nu, (_, residual, lsq, trace, _) in planes:
        # residuals are relative deviations already
        assert abs(got_residual - residual) <= 1e-12, (name, flat)
        assert nu == pytest.approx(trace, rel=1e-12), (name, flat)
        if lsq is not None and report.is_vee_system:
            assert nu == pytest.approx(lsq, rel=1e-12), (name, flat)


def test_shared_analysis_matches_restrict_forms_reference():
    rng = np.random.default_rng(1234)
    images = list(_gl3_images(rng, 3))
    # per-covector scaling keeps the flats and breaks the plane conditions
    perturbed = [(f"{name} scaled", config.scaled(1 + 1e-2 * rng.standard_normal(config.n)))
                 for name, config in images[::3]]
    points = list(_grid_points()) + images + perturbed
    assert len(points) == 37 + 17 * 3 + 17
    for name, config in points:
        _assert_planes_match_reference(name, config, "scaled" not in name)


def _planted_lines(rng, n):
    """n covectors: random lines of 3 to 6 collinear points, then generic
    ones, so that most flats are pair flats."""
    columns = []
    while len(columns) < n // 3:
        basis = rng.standard_normal((3, 2))
        columns += [basis @ rng.standard_normal(2) for _ in range(rng.integers(3, 7))]
    columns += [rng.standard_normal(3) for _ in range(n - len(columns))]
    return CovectorConfiguration(np.array(columns).T)


def test_shared_analysis_matches_reference_on_pair_heavy_inputs():
    rng = np.random.default_rng(4321)
    points = [(f"planted n={n}", _planted_lines(rng, n)) for n in (32, 40, 48)]
    # entries perturbed at 1e-4 break every coplanar triple of H4A1
    for name, image in _gl3_images(rng, 2):
        if name.startswith("H4A1"):
            noise = 1 + 1e-4 * rng.standard_normal(image.matrix.shape)
            points.append((f"{name} perturbed", CovectorConfiguration(image.matrix * noise)))
    assert len(points) == 5
    for name, config in points:
        decomp = config.analysis.decomposition
        assert len(decomp.pair_members) > 4 * len(decomp.multi), name
        _assert_planes_match_reference(name, config, False)


def _chain(config, rtol=None):
    """The five public calls of the analysis chain, each outcome or the
    name of the error it raised.  ``solve_weights`` takes no rtol: the
    weight system depends on the matroid alone."""
    outcomes = []
    for call in (
        lambda: check_vee(config, rtol=rtol),
        lambda: solve_weights(config),
        lambda: check_harmonic(config, rtol=rtol),
        lambda: deform.build_system(config, deform.FREE_NU, rtol=rtol).corank,
        lambda: deform.rigidity_test(config, rtol=rtol)["corank"],
    ):
        try:
            outcome = call()
        except VeesysError as exc:
            outcome = type(exc).__name__
        if hasattr(outcome, "is_vee_system"):  # a VeeReport: compare its verdicts
            outcome = (outcome.is_vee_system, outcome.max_residual,
                       config.analysis.residuals.tolist(), config.analysis.nus.tolist(),
                       outcome.nu_function)
        elif hasattr(outcome, "status"):  # a WeightSolution, equal by identity
            outcome = vars(outcome)
        elif isinstance(outcome, list):  # HarmonicRecords, equal by identity
            outcome = [vars(record) for record in outcome]
        outcomes.append(outcome)
    return outcomes


def _factors(matrix):
    """Whether an SVD was taken of ``matrix``: the object itself, a copy of
    it, or the copy construction factors, scaled by one power of two to
    its largest entry below 1."""
    scaled = np.ldexp(matrix, -np.frexp(np.abs(matrix).max())[1])
    return lambda a: a is matrix or (a.shape == matrix.shape and (
        np.array_equal(a, matrix) or np.array_equal(a, scaled)))


def test_chain_decomposes_and_forms_once(monkeypatch):
    """One flat enumeration and one SVD of its matrix per configuration:
    construction takes the SVD, and the chain reads what it kept."""
    counts = {"decompose": 0}
    factored = []  # the matrices an SVD is taken of, matrix_rank's included

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def recorded(fn):
        def wrapper(a, *args, **kwargs):
            factored.append(a)
            return fn(a, *args, **kwargs)
        return wrapper

    # the function that enumerates the flats, behind config.decomposition
    monkeypatch.setattr(matroid, "_enumerate_flats",
                        counted("decompose", matroid._enumerate_flats))
    for name in ("svd", "matrix_rank"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
    config = catalogue.construct("H4A1", {})
    outcomes = _chain(config)
    assert not any(isinstance(o, str) for o in outcomes), outcomes
    assert counts == {"decompose": 1}
    assert sum(map(_factors(config.matrix), factored)) == 1

    # the chain of a configuration that fails check_vee: check_vee, then
    # decompose, then fingerprint
    counts.update(dict.fromkeys(counts, 0))
    perturbed = config.scaled(1 + 1e-3 * np.random.default_rng(8).standard_normal(config.n))
    report = check_vee(perturbed)
    assert not report.is_vee_system
    decomp = decompose(perturbed)
    matroid.fingerprint(decomp)
    assert decomp is report.decomposition
    assert counts == {"decompose": 1}
    assert sum(map(_factors(perturbed.matrix), factored)) == 1


def test_check_path_builds_no_flat_objects():
    """The docs-large chain reads the decomposition's arrays: a Flat is built
    only for display, on the first read of ``flats``."""
    # B3 has 4-flats, which H4A1 lacks, for check_harmonic
    vee = [catalogue.construct("H4A1", {}),
           catalogue.construct("B3", {"c1": 1, "c2": 1, "c3": 1, "gamma": 0})]
    for config in vee:
        assert check_vee(config).is_vee_system
        assert solve_weights(config).status != "infeasible"
        check_harmonic(config)
        deform.build_system(config, deform.FREE_NU)
        deform.rigidity_test(config)
    assert check_harmonic(vee[1])
    planted = _planted_lines(np.random.default_rng(48), 48)
    assert not check_vee(planted).is_vee_system
    matroid.fingerprint(decompose(planted))
    for config in vee + [planted]:
        assert "flats" not in vars(config.decomposition)


def test_cached_analysis_holds_no_tolerance():
    def configs():
        h3 = catalogue.construct("H3", {})
        # per-covector scaling keeps the flats but breaks the plane conditions
        # by about 1e-6, so the verdict flips between 1e-3 and the default
        scales = 1.0 + 1e-6 * np.random.default_rng(5).standard_normal(h3.n)
        return h3, h3.scaled(scales)

    cached = configs()
    for rtol in (DEFAULT_RTOL, 1e-30, 1e-3, DEFAULT_RTOL):
        for config, fresh in zip(cached, configs()):
            assert _chain(config, rtol) == _chain(fresh, rtol), rtol
    assert _chain(cached[1], 1e-3)[0][0] and not _chain(cached[1], DEFAULT_RTOL)[0][0]
    assert _chain(cached[0], 1e-30)[3] == "NotAVeeSystem"

    # DegeneratePlane reads each multi flat's stored proportionality ratio
    config = cached[0]
    ratios = config.analysis.ratios
    assert len(ratios) == len(config.analysis.decomposition.multi)
    smallest = ratios.min()
    weights = _chain(config)[1]  # solved on the matroid, with no plane check
    degenerate = ["DegeneratePlane", weights] + ["DegeneratePlane"] * 3
    assert _chain(config, 1.01 * smallest) == degenerate
    assert "DegeneratePlane" not in _chain(config, 0.99 * smallest)
    assert _chain(config) == _chain(configs()[0])

    # it names the first multi flat, in flat order, whose reference ratio
    # falls below the tolerance
    multi = [(labels, ratio) for labels, _, lsq, _, ratio in _reference_planes(config)
             if lsq is not None]
    for rtol in (1.01 * smallest, 1.01 * ratios.max()):
        first = next(labels for labels, ratio in multi if ratio < rtol)
        with pytest.raises(DegeneratePlane) as info:
            verify.plane_analysis(config, rtol)
        assert str(info.value) == f"flat members {first[0]}, {first[1]} are proportional"
    assert verify.plane_analysis(config, 0.99 * smallest) is config.analysis


def test_underflowing_planes_read_as_degenerate():
    """A3 at c1 = 1e300: covectors 2 and 3 sit about 1e-150 below the
    round-off of P, and the whitened dual of covector 3 is 0, so the plane
    data of the multi flats through it are 0/0.  Those flats read as
    degenerate, with no NaN and no numpy warning (a warning fails the test)."""
    config = catalogue.construct("A3", {"c1": 1e300, "c2": 1, "c3": 1})
    analysis = config.analysis
    for values in (analysis.residuals, analysis.nus, analysis.ratios):
        assert np.isfinite(values).all()
    through_3 = [2 in members for members in analysis.decomposition.multi]
    assert (analysis.ratios == 0).tolist() == through_3 == [False, True, True, False]
    with pytest.raises(DegeneratePlane, match="flat members 1, 3 are proportional"):
        check_vee(config)


def test_underflowing_canonical_norms_read_as_degenerate():
    """F3 at t = 1e-170, scaled by 1e100: covectors 10 to 13 sit 1e-170 below
    the others, so their canonical norms P_kk underflow to exactly 0.  Their
    pair flats would pass vacuously and their cross-ratios divide by 0; the
    plane check names the first such covector instead, with no numpy
    warning."""
    config = CovectorConfiguration(np.array(catalogue.entry("F3").matrix_at({"t": 1e-170})) * 1e100)
    assert np.flatnonzero(np.diag(config.analysis.pairings) == 0).tolist() == [9, 10, 11, 12]
    for check in (check_vee, check_harmonic):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegeneratePlane, match="^covector 10 has canonical norm 0$"):
                check(config)


def test_check_harmonic_passes_rtol_to_cross_ratio(monkeypatch):
    """The rtol of a call reaches the plane analysis the cross-ratios are
    read from and both cuts of the cross-ratio step."""
    seen = []

    def recording(real):
        def wrapper(config_or_tol, *args):
            seen.append(args[0] if args else config_or_tol)
            return real(config_or_tol, *args)
        return wrapper

    for name in ("plane_analysis", "orthogonal_pair_tol", "harmonic_tol"):
        monkeypatch.setattr(verify, name, recording(getattr(verify, name)))
    config = catalogue.construct("B3", {"c1": 1, "c2": 1, "c3": 1, "gamma": 0})
    records = check_harmonic(config, rtol=1e-7)
    assert records and all(r.verdict for r in records)
    assert len(seen) == 3 and set(seen) == {1e-7}


def _weights_of(coefficients):
    """The decided weight system (status, weights, residual) of a
    decomposition whose n x m multi incidence is ``coefficients``."""
    n, m = coefficients.shape
    return matroid.FlatDecomposition.weight_system.func(SimpleNamespace(
        n=n, multi=tuple((k,) for k in range(m)), multi_incidence=coefficients))


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_weight_residual_and_rank_cuts(factor):
    """The least-squares residual decides feasibility, and the singular values
    the rank, each against the absolute WEIGHT_TOL."""
    # rows (1) and (1 + d): the least-squares residual is d / 2 to first order
    d = 2 * factor * WEIGHT_TOL
    status, _, residual = _weights_of(np.array([[1.0], [1.0 + d]]))
    assert residual == pytest.approx(factor * WEIGHT_TOL, rel=1e-6)
    assert status == ("feasible" if factor < 1 else "infeasible")
    # diag(1, s) solves exactly; its rank counts s only above the cut
    status, _, residual = _weights_of(np.diag([1.0, factor * WEIGHT_TOL]))
    assert residual < WEIGHT_TOL
    assert status == ("underdetermined" if factor < 1 else "feasible")


# The F3 document of the console-script check: F3 at t = 1e-170 times 1e100,
# written out.  Covectors 10 to 13 sit 1e-170 below the others, so their
# canonical norms underflow to 0.
_R, _T = "1.4142135623730952e+100", "1.4142135623730952e-70"
F3_VANISHING = json.dumps({"dimension": 3, "covectors": [
    [_R, "0.0", "0.0"], ["0.0", _R, "0.0"], ["0.0", "0.0", _R],
    ["1e+100", "1e+100", "0.0"], ["1e+100", "-1e+100", "0.0"], ["1e+100", "0.0", "1e+100"],
    ["1e+100", "0.0", "-1e+100"], ["0.0", "1e+100", "1e+100"], ["0.0", "1e+100", "-1e+100"],
    [_T, _T, _T], [_T, "-" + _T, _T], [_T, _T, "-" + _T], [_T, "-" + _T, "-" + _T]]})


def test_weights_are_a_function_of_the_matroid():
    """The F3 document whose canonical norms underflow shares its
    decomposition with F3 at t = 1, so it gets the same weights, with no
    numpy warning, while its plane check still names covector 10."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vanishing = io.parse_document(F3_VANISHING)
        f3 = catalogue.construct("F3", {"t": 1})
        assert vanishing.decomposition is f3.decomposition
        mine, theirs = solve_weights(vanishing), solve_weights(f3)
        assert mine.status == theirs.status == "feasible"
        assert mine.weights == theirs.weights
        assert mine.residual == theirs.residual
        with pytest.raises(DegeneratePlane, match="^covector 10 has canonical norm 0$"):
            check_harmonic(vanishing)


def _four_flat(third, fourth):
    """Covectors 1..4 in the plane z = 0, given as (x, y) pairs for the
    last two, and 5 = e3: one 4-flat {1 2 3 4} and the pair flats {k 5}."""
    columns = [(1.0, 0.0), (0.0, 1.0), third, fourth]
    return CovectorConfiguration(np.array([[x, y, 0.0] for x, y in columns]
                                          + [[0.0, 0.0, 1.0]]).T)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_harmonic_orthogonal_pair_cut(factor):
    """Covectors 1 and 2 count as an orthogonal pair when their normalized
    pairing is below orthogonal_pair_tol(rtol).  With 3 and 4 at +-45 degrees
    and |4|^2 = 1 + e, the pairing is (e / 2) / (2 + e / 2).  The cut
    follows the rtol a call is given."""
    for rtol in (None, 1e-7):
        cut = orthogonal_pair_tol(resolve(rtol))
        e = 4 * factor * cut / (1 - factor * cut)
        h = math.sqrt(0.5)
        config = _four_flat((h, h), (h * math.sqrt(1 + e), -h * math.sqrt(1 + e)))
        P = config.analysis.pairings
        assert abs(P[0, 1]) / math.sqrt(P[0, 0] * P[1, 1]) == pytest.approx(factor * cut,
                                                                             rel=1e-6)
        pairs = {r.orthogonal_pair for r in check_harmonic(config, rtol=rtol)}
        assert (("1", "2") in pairs) == (factor < 1)
        assert ("3", "4") in pairs


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_harmonic_ratio_cut(factor):
    """A quad is harmonic when its cross-ratio is within harmonic_tol(rtol)
    of -1.  With 3 at 45 degrees and 4 at -phi, scaled so that 1 and 2 stay
    orthogonal, the cross-ratio (3, 4; 1, 2) is -1 / tan(phi).  The cut
    follows the rtol a call is given."""
    for rtol in (None, 1e-7):
        d = factor * harmonic_tol(resolve(rtol))
        phi = math.atan(1 / (1 - d))
        scale = 1 / math.sqrt(math.sin(2 * phi))  # |4|^2 sin(2 phi) = |3|^2 sin(90 degrees)
        h = math.sqrt(0.5)
        config = _four_flat((h, h), (scale * math.cos(phi), -scale * math.sin(phi)))
        [record] = [r for r in check_harmonic(config, rtol=rtol)
                    if r.orthogonal_pair == ("1", "2")]
        assert record.cross_ratio + 1 == pytest.approx(d, rel=1e-6)
        assert record.verdict == (factor < 1)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_extension_embedding_cut(factor):
    """An inner covector is proportional to its outer image when their unit
    2x2 minors stay within embedding_tol(rtol); here the largest is sin(a)."""
    columns = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [1, 0, 1], [0, 1, 1]],
                       dtype=float).T
    outer = CovectorConfiguration(columns)
    a = math.asin(factor * embedding_tol(DEFAULT_RTOL))
    columns[:, 0] = (math.cos(a), math.sin(a), 0.0)
    inner = CovectorConfiguration(columns)
    assert check_extension(inner, outer, range(outer.n)).is_extension == (factor < 1)


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_extension_common_ratio_cut(factor):
    """The nu-ratios of an embedding are common when their spread is below
    common_ratio_tol(rtol, |first ratio|).  Scaling one covector of A3 by
    1 + e spreads the ratios of the identity embedding linearly in e."""
    outer = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})

    def extension(e):
        inner = outer.scaled([1.0 + e] + [1.0] * (outer.n - 1))
        report = check_extension(inner, outer, range(outer.n))
        ratios = list(report.per_flat_ratios.values())
        return report, max(ratios) - min(ratios), abs(ratios[0])

    _, spread, first = extension(1e-4)
    report, spread, first = extension(
        1e-4 * factor * common_ratio_tol(DEFAULT_RTOL, first) / spread)
    assert spread == pytest.approx(factor * common_ratio_tol(DEFAULT_RTOL, first), rel=1e-3)
    assert (report.nu_ratio is not None) == (factor < 1)
