"""veesys: verification and deformation analysis of covector configurations.

The library checks the plane-by-plane orthogonality/proportionality
conditions of finite covector systems, computes their nu-functions and
weight relations, analyses linearised scaling deformations, reconstructs
configurations projectively from scripts, and ships a verified catalogue
of three-dimensional systems with their extension/degeneration relations.

The public names below and the submodules are imported on first access
(PEP 562), so a process loads only the modules it uses: ``import
veesys.cli`` loads neither numpy nor any module a command does not run.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, in __all__ order
_HOMES = {
    "CanonicalForm": "core",
    "CovectorConfiguration": "core",
    "DeformationSystem": "deform",
    "ExtensionReport": "verify",
    "FIXED_NU": "deform",
    "FREE_NU": "deform",
    "FlatDecomposition": "matroid",
    "ProjectivePoint": "projective",
    "VeeReport": "verify",
    "VeesysError": "errors",
    "DEFAULT_RTOL": "tolerances",
    "build_system": "deform",
    "canonical_form": "core",
    "check_extension": "verify",
    "check_harmonic": "verify",
    "check_vee": "verify",
    "decompose": "matroid",
    "fingerprint": "matroid",
    "load_document": "io",
    "load_script": "projective",
    "meet": "projective",
    "parse_document": "io",
    "parse_script": "projective",
    "rigidity_test": "deform",
    "run_reconstruction": "projective",
    "same_matroid": "matroid",
    "save_document": "io",
    "scan_family": "deform",
    "solve_weights": "verify",
    "to_projective": "projective",
}

_SUBMODULES = frozenset({
    "catalogue", "cli", "core", "deform", "digests", "errors", "expressions",
    "io", "matroid", "oracles", "projective", "tolerances", "verify",
})

__all__ = list(_HOMES)


def __getattr__(name):
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
        globals()[name] = value  # later reads skip this hook
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
