"""Every threshold has one source, and no verdict of the catalogue depends on
the decade of ``--rtol``."""

import pathlib
import tokenize

import numpy as np

import veesys
from veesys import catalogue, check_vee

SWEEP = [10.0 ** -k for k in range(12, 3, -1)]  # 1e-12 ... 1e-4


def _verdicts(rtol):
    entries = {
        (ident, repr(params)): catalogue.verify_entry(ident, params, rtol=rtol).passed
        for ident in catalogue.ids()
        for params in catalogue.entry(ident).default_grid or ({},)
    }
    relations = {rel.description: catalogue.verify_relation(rel, rtol=rtol).passed
                 for rel in catalogue.relations()}
    return entries, relations


def test_rtol_sweep_keeps_every_catalogue_verdict():
    default = _verdicts(None)
    assert len(default[0]) == 37 and len(default[1]) == 16
    for rtol in SWEEP:
        assert _verdicts(rtol) == default, rtol


def test_rtol_sweep_keeps_every_h3_image_verdict():
    """60 GL(3) images of H3 with cond < 100, drawn as C11 draws them, are
    ∨-systems at every decade, and a copy of each with every covector
    scaled by 1 + 1e-3 N(0, 1) is not; no plane reads as degenerate.  The
    images' residuals are at most 5.5e-15, the copies' at least 4.4e-4,
    and the smallest dual ratio is 0.83."""
    rng, jitter = np.random.default_rng(1234), np.random.default_rng(1)
    h3 = catalogue.construct("H3", {})
    images, copies = [], []
    for _ in range(60):
        while True:
            C = rng.standard_normal((3, 3))
            if np.linalg.cond(C) < 100:
                break
        image = h3.transformed(C)
        images.append(image)
        copies.append(image.scaled(1 + 1e-3 * jitter.standard_normal(h3.n)))
    for rtol in SWEEP:
        assert all(check_vee(image, rtol=rtol).is_vee_system for image in images), rtol
        assert not any(check_vee(copy, rtol=rtol).is_vee_system for copy in copies), rtol


def test_rtol_sweep_keeps_every_g3_scaling_verdict():
    """C11's 60 scalings 10^U(-3, 3) of G3(t=1), drawn after its H3 images
    from the same stream, are ∨-systems with the base's nu (rel 1e-9) at
    every decade, and a copy of each with every covector scaled by
    1 + 1e-3 N(0, 1) is not.  The worst nu deviation is 6.7e-16 and the
    copies' smallest residual 5.2e-4."""
    rng, jitter = np.random.default_rng(1234), np.random.default_rng(5)
    for _ in range(60):  # C11's H3 images
        while np.linalg.cond(rng.standard_normal((3, 3))) >= 100:
            pass
    g3 = catalogue.construct("G3", {"t": 1})
    base = check_vee(g3).nu_function
    scalings = [g3.scaled(float(10.0 ** rng.uniform(-3, 3))) for _ in range(60)]
    copies = [s.scaled(1 + 1e-3 * jitter.standard_normal(g3.n)) for s in scalings]
    for rtol in SWEEP:
        for scaling in scalings:
            report = check_vee(scaling, rtol=rtol)
            assert report.is_vee_system, rtol
            for labels, nu in base.items():
                assert abs(report.nu_function[labels] - nu) <= 1e-9 * abs(nu), rtol
        assert not any(check_vee(copy, rtol=rtol).is_vee_system for copy in copies), rtol


def test_threshold_literals_live_in_tolerances_only():
    package = pathlib.Path(veesys.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "tolerances.py":
            continue
        with tokenize.open(path) as handle:
            for token in tokenize.generate_tokens(handle.readline):
                if token.type == tokenize.NUMBER and "e-" in token.string.lower():
                    found.append(f"{path.name}:{token.start[0]}: {token.string}")
    assert not found
