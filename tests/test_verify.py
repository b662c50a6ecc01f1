import numpy as np
import pytest

from plane_reference import dual, pairing, restrict_forms
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
    nu_trace,
    solve_weights,
)
from veesys.core import analyse
from veesys.errors import BadEmbedding, NotMultiFlat, VeesysError
from veesys.verify import FlatVerdict


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
    for k in decomp.multi_flats:
        f = decomp.flats[k]
        labels = config.sublabels(f.members)
        # the report's nu comes from the trace formula; recompute the
        # least-squares factor directly from the restricted forms
        pf = restrict_forms(config, report.form, f)
        g, gp = pf.restricted_gram, pf.restricted_plane_gram
        lsq = float(np.tensordot(gp, g) / np.tensordot(g, g))
        assert report.nu_function[labels] == pytest.approx(lsq, rel=1e-10)


def test_nu_trace_requires_multi_flat():
    config = catalogue.construct("H3", {})
    with pytest.raises(NotMultiFlat):
        nu_trace(config, (0, 1))


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


def test_extension_h3_in_h4a1():
    outer = catalogue.construct("H4A1", {})
    added = {"4", "5", "6", "7"} | {str(i) for i in range(20, 32)}
    idx = [i for i, l in enumerate(outer.labels) if l not in added]
    inner = outer.take(idx)
    report = check_extension(inner, outer, idx)
    assert report.is_extension
    assert report.nu_ratio == pytest.approx(3.0, rel=1e-9)


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
    """Per flat (labels, residual, least-squares nu, trace nu, ratio of the
    first two duals), from restrict_forms and one pairing call per entry,
    without the shared analysis."""
    form = canonical_form(config)
    planes = []
    for f in decompose(config).flats:
        i, j = f.members[:2]
        trace = 0.5 * sum(pairing(config, form, k, k) for k in f.members)
        u, v = dual(config, form, i), dual(config, form, j)
        ratio = np.linalg.norm(np.outer(u, v) - np.outer(v, u)) / (
            np.linalg.norm(u) * np.linalg.norm(v))
        if f.is_pair:
            scale = np.sqrt(pairing(config, form, i, i) * pairing(config, form, j, j))
            planes.append((config.sublabels(f.members),
                           abs(pairing(config, form, i, j)) / scale, None, trace, ratio))
            continue
        pf = restrict_forms(config, form, f)
        g, gp = pf.restricted_gram, pf.restricted_plane_gram
        lsq = float(np.tensordot(gp, g) / np.tensordot(g, g))
        residual = float(np.linalg.norm(gp - lsq * g) / np.linalg.norm(gp))
        planes.append((config.sublabels(f.members), residual, lsq, trace, ratio))
    return planes


def _assert_planes_match_reference(name, config, vee):
    report = check_vee(config)
    assert report.is_vee_system == vee, name
    reference = _reference_planes(config)
    assert [v.flat for v in report.per_flat] == [p[0] for p in reference], name
    for k, (verdict, (_, residual, lsq, trace, ratio)) in enumerate(
            zip(report.per_flat, reference)):
        # residuals are relative deviations already
        assert abs(verdict.residual - residual) <= 1e-12, (name, verdict)
        assert config.analysis.ratios[k] == pytest.approx(ratio, rel=1e-12)
        if lsq is None:
            assert verdict.nu is None
            continue
        assert verdict.nu == pytest.approx(trace, rel=1e-12), (name, verdict)
        if report.is_vee_system:
            assert verdict.nu == pytest.approx(lsq, rel=1e-12), (name, verdict)


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
        assert len(decomp.pair_flats) > 4 * len(decomp.multi_flats), name
        _assert_planes_match_reference(name, config, False)


def _eager_per_flat(config):
    """The per-flat verdicts built eagerly from a fresh analysis."""
    analysis = analyse(config)
    verdicts = []
    for f, residual, nu in zip(analysis.decomposition.flats,
                               analysis.residuals.tolist(), analysis.nus.tolist()):
        labels = config.sublabels(f.members)
        if f.is_pair:
            verdicts.append(FlatVerdict(labels, "pair", residual))
        else:
            verdicts.append(FlatVerdict(labels, "multi", residual, nu))
    return tuple(verdicts)


def test_per_flat_matches_eager_reference():
    rng = np.random.default_rng(99)
    points = [catalogue.construct("H4A1", {}), catalogue.construct("F3", {"t": 1}),
              _planted_lines(rng, 40)]
    for config in points:
        report = check_vee(config)
        assert "per_flat" not in vars(report)  # built on first read only
        nu_function, vee = report.nu_function, report.is_vee_system
        verdicts = report.per_flat
        assert verdicts is report.per_flat
        assert verdicts == _eager_per_flat(config)
        assert {v.flat: v.nu for v in verdicts if v.kind == "multi"} == nu_function
        assert vee == all(v.residual < DEFAULT_RTOL for v in verdicts)


def _chain(config, rtol=None):
    """The five public calls of the analysis chain, each outcome or the
    name of the error it raised."""
    outcomes = []
    for call in (
        lambda: check_vee(config, rtol=rtol),
        lambda: solve_weights(config, rtol=rtol),
        lambda: check_harmonic(config, rtol=rtol),
        lambda: deform.build_system(config, deform.FREE_NU, rtol=rtol).corank,
        lambda: deform.rigidity_test(config, rtol=rtol)["corank"],
    ):
        try:
            outcome = call()
        except VeesysError as exc:
            outcome = type(exc).__name__
        if hasattr(outcome, "form"):  # a VeeReport: compare its verdicts
            outcome = (outcome.is_vee_system, outcome.max_residual,
                       outcome.per_flat, outcome.nu_function)
        outcomes.append(outcome)
    return outcomes


def test_chain_decomposes_and_forms_once(monkeypatch):
    from veesys import core, matroid

    counts = {"decompose": 0, "canonical_form": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(matroid, "decompose", counted("decompose", matroid.decompose))
    monkeypatch.setattr(core, "canonical_form",
                        counted("canonical_form", core.canonical_form))
    config = catalogue.construct("H4A1", {})
    outcomes = _chain(config)
    assert not any(isinstance(o, str) for o in outcomes), outcomes
    assert counts == {"decompose": 1, "canonical_form": 1}


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
    analysis = config.analysis
    smallest = min(analysis.ratios[k] for k in analysis.decomposition.multi_flats)
    assert _chain(config, 1.01 * smallest) == ["DegeneratePlane"] * 5
    assert "DegeneratePlane" not in _chain(config, 0.99 * smallest)
    assert _chain(config) == _chain(configs()[0])


def test_check_harmonic_passes_rtol_to_cross_ratio(monkeypatch):
    from veesys import verify

    seen = []

    def recording(quads, rtol=None):
        seen.append(rtol)
        return real(quads, rtol=rtol)

    real = verify.cross_ratios
    monkeypatch.setattr(verify, "cross_ratios", recording)
    config = catalogue.construct("B3", {"c1": 1, "c2": 1, "c3": 1, "gamma": 0})
    records = check_harmonic(config, rtol=1e-7)
    assert records and all(r.verdict for r in records)
    assert set(seen) == {1e-7}
