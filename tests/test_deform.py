import numpy as np
import pytest

from veesys import (
    CovectorConfiguration,
    FIXED_NU,
    FREE_NU,
    build_system,
    catalogue,
    deform,
    rigidity_test,
    scan_family,
    verify,
)
from veesys.errors import NotAVeeSystem, Reducible
from veesys.tolerances import RANK_RTOL, ROW_DROP_RTOL


def test_global_scaling_always_in_kernel():
    for ident in ("A3", "D3", "F3", "H3"):
        ent = catalogue.entry(ident)
        params = ent.default_grid[0] if ent.default_grid else {}
        config = catalogue.construct(ident, params)
        system = build_system(config, FREE_NU)
        ones = np.ones(config.n) / np.sqrt(config.n)
        assert np.linalg.norm(system.matrix @ ones) < 1e-9, ident
        assert system.corank >= 1


def test_corank_spot_checks():
    def corank(config):
        return build_system(config, FREE_NU).corank

    assert corank(catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})) == 4
    assert corank(catalogue.construct("D3", {"t": 1.5, "s": 1})) == 3
    assert corank(catalogue.construct("G3", {"t": 0.9})) == 2
    assert corank(catalogue.construct("H3", {})) == 1


def test_fixed_nu_mode_is_stricter():
    config = catalogue.construct("B3", {"c1": 1, "c2": 1, "c3": 1, "gamma": 0})
    free = build_system(config, FREE_NU)
    fixed = build_system(config, FIXED_NU)
    assert free.corank == 4
    assert fixed.corank == 1
    assert fixed.rank >= free.rank


def test_unknown_mode_rejected():
    config = catalogue.construct("H3", {})
    with pytest.raises(ValueError, match="mode"):
        build_system(config, "both")


def test_requires_vee_system():
    rng = np.random.default_rng(5)
    config = CovectorConfiguration(rng.standard_normal((3, 6)))
    with pytest.raises(NotAVeeSystem):
        build_system(config)


def test_rigidity_report():
    result = rigidity_test(catalogue.construct("H4A1", {}))
    assert result["corank"] == 1
    assert result["scalingOnly"]
    assert result["onesResidual"] < 1e-9
    assert result["spectralGap"] > 1e4


def test_rigidity_rejects_reducible():
    # three orthogonal covectors: no multi flats, so components deform freely
    config = CovectorConfiguration(np.eye(3))
    with pytest.raises(Reducible):
        rigidity_test(config)


def test_scan_family_collects_errors():
    rows = scan_family("D3", grid=[{"t": 1, "s": 1}, {"t": 50, "s": 1}])
    assert rows[0]["freeNuCorank"] == 3
    assert "error" in rows[1]  # far outside the admissible region


def test_kernel_is_orthonormal():
    system = build_system(catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1}))
    K = system.kernel_basis
    assert K.shape == (4, 6)
    assert np.allclose(K @ K.T, np.eye(4), atol=1e-10)


def test_spectral_gap_is_margin_over_rank_threshold(monkeypatch):
    """The gap is the smallest kept singular value over the rank threshold
    RANK_RTOL * max(m, n) * sigma_0; a value below the threshold is dropped."""
    config = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})
    hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2
    basis = np.linalg.qr(np.random.default_rng(4).standard_normal((config.n, 4)))[0]
    threshold = RANK_RTOL * max(4, config.n)  # relative to sigma_0 = 1
    for factor, rank, gap in ((1.1, 4, 1.1), (0.9, 3, 1 / threshold)):
        # rows of equal norm, so scaling rows to unit norm keeps the ratios
        rows = hadamard @ np.diag([1.0, 1.0, 1.0, factor * threshold]) @ basis.T
        monkeypatch.setattr(deform, "_assemble_rows", lambda analysis, mode: rows)
        system = build_system(config, FREE_NU)
        assert (system.rank, system.corank) == (rank, config.n - rank), factor
        assert system.spectral_gap == pytest.approx(gap, rel=1e-6), factor


@pytest.mark.parametrize("factor, rank", [(0.5, 3), (2.0, 4)])
def test_row_drop_cut(monkeypatch, factor, rank):
    """A row shorter than ROW_DROP_RTOL times the longest row is dropped; a
    longer one is scaled to unit norm like the others and adds to the rank."""
    config = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})
    rows = np.eye(config.n)[:4] * np.array([[1.0], [1.0], [1.0], [factor * ROW_DROP_RTOL]])
    monkeypatch.setattr(deform, "_assemble_rows", lambda analysis, mode: rows)
    system = build_system(config, FREE_NU)
    assert len(system.matrix) == rank
    assert system.rank == rank


@pytest.mark.parametrize("factor, rank", [(0.5, 3), (2.0, 4)])
def test_row_drop_cut_has_a_floor_of_one(monkeypatch, factor, rank):
    """When every row is shorter than 1, the bound on P's entries, a row is
    dropped below ROW_DROP_RTOL itself rather than below that fraction of
    the longest row."""
    config = catalogue.construct("A3", {"c1": 1, "c2": 1, "c3": 1})
    rows = np.eye(config.n)[:4] * np.array([[1e-3], [1e-3], [1e-3], [factor * ROW_DROP_RTOL]])
    monkeypatch.setattr(deform, "_assemble_rows", lambda analysis, mode: rows)
    assert build_system(config, FREE_NU).rank == rank


# covector 2 is orthogonal to the plane of the other three: every equation is round-off
REDUCIBLE = np.array([[-2.0, 0.0, 0.0, 1.0], [0.0, -1.0, 0.0, 0.0], [1.0, 0.0, -1.0, 0.0]])


@pytest.mark.parametrize("mode", [FREE_NU, FIXED_NU])
@pytest.mark.parametrize("matrix", [REDUCIBLE, np.array([[2.0]])], ids=["reducible", "single"])
def test_system_whose_rows_are_all_round_off_has_rank_0(mode, matrix):
    """Rows of round-off are dropped, all of them here, and the empty
    system has rank 0: every scaling is a first-order deformation."""
    config = CovectorConfiguration(matrix)
    system = build_system(config, mode)
    assert system.matrix.shape == (0, config.n)
    assert (system.rank, system.corank, system.spectral_gap) == (0, config.n, float("inf"))
    assert system.kernel_basis.shape == (config.n, config.n)


def _full_svd_reference(matrix):
    """Rank, corank, spectral gap, singular values and kernel basis of a
    deformation matrix from one full SVD, as build_system computed them
    before it read the singular values alone."""
    n = matrix.shape[1]
    _, svals, vt = np.linalg.svd(matrix, full_matrices=len(matrix) < n)
    threshold = svals[0] * RANK_RTOL * max(matrix.shape)
    rank = int(np.sum(svals > threshold))
    gap = float(svals[rank - 1] / threshold) if rank else float("inf")
    return rank, n - rank, gap, svals, vt[rank:]


def _systems():
    """(name, system) of both modes at the 37 grid points and at two images
    of every family's first grid point under GL(3) maps with condition
    number < 100."""
    configs = [(f"{ident}{params}", catalogue.construct(ident, params))
               for ident in catalogue.ids() for params in catalogue.entry(ident).default_grid]
    assert len(configs) == 37
    rng = np.random.default_rng(23)
    for ident in catalogue.ids():
        base = catalogue.construct(ident, catalogue.entry(ident).default_grid[0])
        for k in range(2):
            C = rng.standard_normal((3, 3))
            while np.linalg.cond(C) >= 100:
                C = rng.standard_normal((3, 3))
            configs.append((f"{ident} image {k}", base.transformed(C)))
    for name, config in configs:
        for mode in (FREE_NU, FIXED_NU):
            yield f"{name} {mode}", build_system(config, mode)


def test_rank_from_singular_values_matches_full_svd():
    for name, system in _systems():
        rank, corank, gap, svals, _ = _full_svd_reference(system.matrix)
        assert (system.rank, system.corank) == (rank, corank), name
        assert f"{system.spectral_gap:.3e}" == f"{gap:.3e}", name
        assert np.abs(system.singular_values - svals).max() <= 1e-13 * svals[0], name


def test_kernel_basis_is_computed_on_first_read():
    for name, system in _systems():
        assert "kernel_basis" not in vars(system), name
        K = system.kernel_basis
        assert K is system.kernel_basis
        assert K.shape == (system.corank, system.matrix.shape[1]), name
        assert np.allclose(K @ K.T, np.eye(system.corank), atol=1e-10), name
        assert np.abs(system.matrix @ K.T).max() < 1e-10, name
        reference = _full_svd_reference(system.matrix)[4]
        np.testing.assert_allclose(K.T @ K, reference.T @ reference, atol=1e-10,
                                   err_msg=name)


def test_callers_leave_the_kernel_basis_unread(monkeypatch):
    """build_system, rigidity_test, scan_family and the analysis chain of a
    document never compute the singular vectors."""
    built = []
    real = deform.build_system

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(deform, "build_system", recording)
    b3 = catalogue.construct("B3", {"c1": 1, "c2": 1, "c3": 1, "gamma": 0})
    for config in (b3, catalogue.construct("H4A1", {}).transformed(np.diag([1.0, 2.0, 3.0]))):
        assert verify.check_vee(config).is_vee_system
        verify.solve_weights(config)
        verify.check_harmonic(config)
        deform.build_system(config, FREE_NU)
        rigidity_test(config)
    scan_family("D3")
    assert len(built) == 4 + 2 * len(catalogue.entry("D3").default_grid)
    assert not [system for system in built if "kernel_basis" in vars(system)]


def _reference_analysis(config):
    """The row basis V^T of A's reduced SVD and every PlaneAnalysis array
    assembled from scratch: P, the residuals, the nus and the ratios, in the
    arithmetic order of the per-flat formulas."""
    A = config.matrix
    Vt = np.linalg.svd(A, full_matrices=False)[2]
    P = Vt.T @ Vt
    assert (P == P.T).all()  # exactly symmetric, with no symmetrisation
    decomp = config.decomposition
    pair_i, pair_j = decomp.pair_members.T
    i, j = decomp.multi_leads.T
    incidence = decomp.multi_incidence
    g = np.stack([P[i, i], P[i, j], P[j, j]])
    weight = np.array([[1.0], [2.0], [1.0]])
    gp = np.stack([(incidence * P[:, a] * P[:, b]).sum(0) for a, b in ((i, i), (i, j), (j, j))])
    num, den = (weight * gp * g).sum(0), (weight * g * g).sum(0)
    nu_lsq = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    num, den = (weight * (gp - nu_lsq * g) ** 2).sum(0), (weight * gp * gp).sum(0)
    g11, g22 = P[pair_i, pair_i], P[pair_j, pair_j]
    pair_num, pair_den = np.abs(P[pair_i, pair_j]), np.sqrt(g11) * np.sqrt(g22)
    residuals = np.concatenate([
        np.divide(pair_num, pair_den, out=np.zeros_like(pair_num), where=pair_den > 0),
        np.sqrt(np.divide(num, den, out=np.zeros_like(num), where=den > 0))])
    nus = 0.5 * np.concatenate([g11 + g22, np.diag(P) @ incidence])
    u, v = Vt[:, i], Vt[:, j]
    wedge = u[:, None] * v[None] - v[:, None] * u[None]
    num = np.sqrt((wedge ** 2).sum((0, 1)))
    den = np.linalg.norm(u, axis=0) * np.linalg.norm(v, axis=0)
    ratios = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
    return {"basis": Vt, "pairings": P, "residuals": residuals,
            "nus": nus, "ratios": ratios}


def _reference_rows(config, mode):
    """The deformation equations of ``mode`` assembled from scratch."""
    analysis = config.analysis
    decomp, P = analysis.decomposition, analysis.pairings
    pair_i, pair_j = decomp.pair_members.T
    i, j = decomp.multi_leads.T
    weight = decomp.multi_incidence - analysis.multi_nus
    m11, m12, m22 = (weight * P[:, a] * P[:, b] for a, b in ((i, i), (i, j), (j, j)))
    if mode == FREE_NU:
        g11, g12, g22 = P[i, i], P[i, j], P[j, j]
        equations = (m11 * g12 - m12 * g11, m11 * g22 - m22 * g11)
    else:
        equations = (m11, m12, m22)
    rows = np.stack(equations, axis=2).reshape(decomp.n, -1)
    return np.hstack([P[:, pair_i] * P[:, pair_j], rows]).T


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_analysis_and_deformation_matrices_match_a_from_scratch_assembly():
    """At the 37 grid points the canonical form's basis, every PlaneAnalysis
    array and both modes' deformation matrices equal the reference bit for
    bit, whichever mode is built first from the shared products."""
    grid = [(ident, params) for ident in catalogue.ids()
            for params in catalogue.entry(ident).default_grid]
    assert len(grid) == 37
    for k, (ident, params) in enumerate(grid):
        config = catalogue.construct(ident, params)
        analysis = config.analysis
        for name, expected in _reference_analysis(config).items():
            got = getattr(config.form if name == "basis" else analysis, name)
            assert _bitwise_equal(got, expected), (ident, params, name)
        assert analysis.max_residual == analysis.residuals.max(initial=0.0)
        modes = (FREE_NU, FIXED_NU) if k % 2 else (FIXED_NU, FREE_NU)
        for mode in modes:
            rows = _reference_rows(config, mode)
            assert _bitwise_equal(deform._assemble_rows(analysis, mode), rows), (ident, mode)
            norms = np.sqrt((rows * rows).sum(axis=1))
            keep = norms > max(norms.max(), 1.0) * ROW_DROP_RTOL
            expected = rows[keep] / norms[keep, None]
            assert _bitwise_equal(build_system(config, mode).matrix, expected), (ident, mode)
