"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The printed lines go to the real stdout so they survive pytest's capture:

    [PASS] C1 catalogue entries verify on their default grids
    ...

Every numeric threshold below is pinned; no test loosens a tolerance to
accommodate an observed value.
"""

import math
import sys

import numpy as np
import pytest

import conftest
from plane_reference import restrict_forms
from veesys import (
    CovectorConfiguration,
    catalogue,
    check_harmonic,
    check_vee,
    decompose,
    deform,
    load_script,
    run_reconstruction,
    same_matroid,
    solve_weights,
    to_projective,
)
from veesys.matroid import YES

ALL_IDS = sorted(catalogue.ids())

EXPECTED_FREE_CORANK = {
    "A3": 4,
    "B3": 4,
    "D3": 3,
    "E6A3": 3,
    "E6A1cubed": 1,
    "F3": 2,
    "G3": 2,
    "AB4A1_1": 2,
    "AB4A1_2": 2,
    "E7A1sqA2": 1,
    "E8A2A3": 1,
    "E8A2sqA1": 1,
    "E8A1cubedA2": 1,
    "E8A1sqA3": 1,
    "E8A1A4": 1,
    "H4A1": 1,
    "H3": 1,
}


def _report(name, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.acceptance_lines.append(line)


def _grid(ident):
    return catalogue.entry(ident).default_grid or ({},)


def test_c1_catalogue_entries_verify():
    ok = True
    try:
        assert len(ALL_IDS) == 17
        for ident in ALL_IDS:
            for params in _grid(ident):
                check = catalogue.verify_entry(ident, params)
                assert check.passed, (ident, params, check.failures)
        # pinned nu spot values
        h3 = sorted(set(round(v, 12) for v in
                        check_vee(catalogue.construct("H3", {})).nu_function.values()))
        assert h3 == pytest.approx([3 / 10, 1 / 2], abs=1e-10)
        h4 = sorted(set(round(v, 12) for v in
                        check_vee(catalogue.construct("H4A1", {})).nu_function.values()))
        assert h4 == pytest.approx(sorted([2 / 15, 1 / 10, 1 / 6, 1 / 3]), abs=1e-10)
        # the G3 nu formulas are exercised on a 4-point grid
        assert len(_grid("G3")) >= 4
    except BaseException:
        ok = False
        raise
    finally:
        _report("C1 catalogue entries verify on their default grids", ok)


def test_c2_nu_trace_matches_least_squares():
    ok = True
    try:
        for ident in ALL_IDS:
            for params in _grid(ident):
                config = catalogue.construct(ident, params)
                report = check_vee(config)
                decomp = report.decomposition
                for f in decomp.flats[len(decomp.pair_members):]:  # the multi flats
                    pf = restrict_forms(config, f)
                    g, gp = pf.restricted_gram, pf.restricted_plane_gram
                    lsq = float(np.tensordot(gp, g) / np.tensordot(g, g))
                    trace = report.nu_function[config.sublabels(f.members)]
                    assert abs(trace - lsq) <= 1e-8 * abs(lsq), (ident, params)
    except BaseException:
        ok = False
        raise
    finally:
        _report("C2 trace and least-squares nu agree to 1e-8 everywhere", ok)


def test_c3_universal_weight_identity():
    ok = True
    try:
        feasible = 0
        for ident in ALL_IDS:
            solution = solve_weights(catalogue.construct(ident, _grid(ident)[0]))
            if solution.status == "infeasible":
                continue
            feasible += 1
            assert solution.universal_value == pytest.approx(1.5, abs=1e-8), ident
        assert feasible >= 10
        a3 = solve_weights(catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1}))
        assert a3.status == "feasible"
        assert all(w == pytest.approx(0.5, abs=1e-8) for w in a3.weights.values())
        d3 = solve_weights(catalogue.construct("D3", {"t": 1, "s": 1}))
        assert d3.status == "infeasible"
    except BaseException:
        ok = False
        raise
    finally:
        _report("C3 universal value 3/2 whenever the weight system is feasible", ok)


def test_c4_free_nu_corank_table():
    ok = True
    try:
        assert len(_grid("D3")) >= 5
        for ident in ALL_IDS:
            expected = EXPECTED_FREE_CORANK[ident]
            if expected == 2:
                assert len(_grid(ident)) >= 3, ident
            for params in _grid(ident):
                config = catalogue.construct(ident, params)
                system = deform.build_system(config, deform.FREE_NU)
                assert system.corank == expected, (ident, params, system.corank)
                assert system.spectral_gap > 1e4, (ident, params, system.spectral_gap)
    except BaseException:
        ok = False
        raise
    finally:
        _report("C4 free-nu coranks match the table on every grid point", ok)


def test_c5_fixed_nu_rigidity():
    ok = True
    try:
        for ident in ALL_IDS:
            for params in _grid(ident):
                config = catalogue.construct(ident, params)
                result = deform.rigidity_test(config)
                assert result["corank"] == 1, (ident, params, result)
                assert result["scalingOnly"], (ident, params)
                assert result["onesResidual"] < 1e-9, (ident, params, result)
    except BaseException:
        ok = False
        raise
    finally:
        _report("C5 fixed-nu corank 1 (uniform scaling only) for all entries", ok)


def test_c6_finite_difference_velocities():
    ok = True
    try:
        base = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})
        system = deform.build_system(base, deform.FREE_NU)
        base_norms = np.linalg.norm(base.matrix, axis=0)
        expected = np.array([0.5, 0.0, 0.0, 0.5, 0.5, 0.0])
        errors = {}
        for eps in (1e-3, 1e-4):
            pert = catalogue.construct("A3", {"c1": 1 + eps, "c2": 1, "c3": 1})
            s = np.linalg.norm(pert.matrix, axis=0) / base_norms
            xi = (s - 1.0) / eps
            assert np.allclose(xi, expected, atol=5e-4), (eps, xi)
            # the finite-difference direction solves the linearised system
            assert np.linalg.norm(system.matrix @ xi) < 1e-9, eps
            errors[eps] = float(np.linalg.norm(xi - expected))
        # the velocity converges at first order: error ~ eps
        ratio = errors[1e-3] / errors[1e-4]
        assert 8.0 < ratio < 12.0, errors
    except BaseException:
        ok = False
        raise
    finally:
        _report("C6 family direction is a first-order deformation (O(eps) residual)", ok)


def test_c7_reconstruction_scripts():
    ok = True
    try:
        branch_choice = {"a3": None, "b3": None, "h3": "minus", "h4a1": "plus"}
        for name in ("a3", "b3", "h3", "h4a1"):
            config, basis = catalogue.script_reference(name)
            script = load_script(catalogue.script_path(name))
            proj = to_projective(config)
            env = run_reconstruction(
                script, [proj[l] for l in basis], branch=branch_choice[name]
            )
            worst = max(env[l].angular_error(proj[l]) for l in config.labels)
            assert worst < 1e-8, (name, worst)
        # the quadratic branch equation x^2 - x - 1 has the two golden roots
        h3 = load_script(catalogue.script_path("h3"))
        plus, minus = h3.branch_step.roots()
        assert plus == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
        assert minus == pytest.approx((1 - math.sqrt(5)) / 2, abs=1e-12)
        # both branches realise the same matroid
        config, basis = catalogue.script_reference("h3")
        proj = to_projective(config)
        decomps = []
        for branch in ("plus", "minus"):
            env = run_reconstruction(h3, [proj[l] for l in basis], branch=branch)
            pts = np.column_stack([env[l].coordinates for l in config.labels])
            decomps.append(decompose(CovectorConfiguration(pts, config.labels)))
        assert same_matroid(*decomps) == YES
    except BaseException:
        ok = False
        raise
    finally:
        _report("C7 all four reconstruction scripts reproduce their references", ok)


def test_c8_harmonic_ranges():
    ok = True
    try:
        quads = 0
        for ident in ALL_IDS:
            config = catalogue.construct(ident, _grid(ident)[0])
            records = check_harmonic(config)
            quads += len(records)
            assert all(r.verdict for r in records), ident
        assert quads > 0
        roots = catalogue.auxiliary_configuration("B3-roots")
        records = check_harmonic(roots)
        by_flat = {frozenset(r.flat): r for r in records}
        record = by_flat[frozenset(("3", "4", "9", "8"))]
        assert record.verdict
        assert record.cross_ratio == pytest.approx(-1.0, abs=1e-10)
    except BaseException:
        ok = False
        raise
    finally:
        _report("C8 every 4-member flat is a harmonic range (cross-ratio -1)", ok)


def test_c9_extension_rows():
    ok = True
    try:
        rows = catalogue.relations("extension")
        assert len(rows) == 5
        for rel in rows:
            check = catalogue.verify_relation(rel)
            assert check.passed, (rel.description, check.failures)
            assert check.details["nuRatio"] is not None, rel.description
        h3_row = next(r for r in rows if r.source == "H3")
        check = catalogue.verify_relation(h3_row)
        assert check.details["nuRatio"] == pytest.approx(3.0, abs=1e-8)
    except BaseException:
        ok = False
        raise
    finally:
        _report("C9 all five extension rows pass with a single common nu-ratio", ok)


def test_c10_degeneration_rows():
    ok = True
    try:
        rows = catalogue.relations("degeneration")
        assert len(rows) == 11
        for rel in rows:
            check = catalogue.verify_relation(rel)
            assert check.passed, (rel.description, check.failures)
        flagged = [rel for rel in rows if rel.flagged]
        assert len(flagged) == 2
        assert all(rel.note for rel in flagged)
    except BaseException:
        ok = False
        raise
    finally:
        _report("C10 all eleven degeneration rows pass; flagged rows documented", ok)


def test_c11_randomized_property_battery():
    ok = True
    try:
        rng = np.random.default_rng(1234)
        trials = 0

        h3_base = check_vee(catalogue.construct("H3", {}))
        for _ in range(60):
            while True:
                C = rng.standard_normal((3, 3))
                if np.linalg.cond(C) < 100:
                    break
            report = check_vee(catalogue.construct("H3", {}).transformed(C))
            assert report.is_vee_system
            for labels, nu in h3_base.nu_function.items():
                assert report.nu_function[labels] == pytest.approx(nu, rel=1e-7)
            trials += 1

        g3_base = check_vee(catalogue.construct("G3", {"t": 1}))
        for _ in range(60):
            scale = float(10.0 ** rng.uniform(-3, 3))
            report = check_vee(catalogue.construct("G3", {"t": 1}).scaled(scale))
            assert report.is_vee_system
            for labels, nu in g3_base.nu_function.items():
                assert report.nu_function[labels] == pytest.approx(nu, rel=1e-9)
            trials += 1

        for _ in range(80):
            n = int(rng.integers(4, 12))
            A = rng.standard_normal((3, n))
            if np.linalg.matrix_rank(A) < 3:
                continue
            decomp = decompose(CovectorConfiguration(A))
            assert sum(math.comb(f.size, 2) for f in decomp.flats) == math.comb(n, 2)
            trials += 1

        assert trials >= 195
    except BaseException:
        ok = False
        raise
    finally:
        _report("C11 randomized invariance battery (~200 trials) holds", ok)
