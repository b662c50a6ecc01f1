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
)
from veesys.errors import NotAVeeSystem, Reducible
from veesys.tolerances import RANK_RTOL


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
