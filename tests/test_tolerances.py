"""Every threshold has one source, and no verdict of the catalogue depends on
the decade of ``--rtol``."""

import pathlib
import tokenize

import veesys
from veesys import catalogue

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
