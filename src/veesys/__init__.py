"""veesys: verification and deformation analysis of covector configurations.

The library checks the plane-by-plane orthogonality/proportionality
conditions of finite covector systems, computes their nu-functions and
weight relations, analyses linearised scaling deformations, reconstructs
configurations projectively from scripts, and ships a verified catalogue
of three-dimensional systems with their extension/degeneration relations.
"""

__version__ = "0.1.0"

from .core import (
    CanonicalForm,
    CovectorConfiguration,
    canonical_form,
)
from .deform import (
    FIXED_NU,
    FREE_NU,
    DeformationSystem,
    build_system,
    rigidity_test,
    scan_family,
)
from .errors import VeesysError
from .io import load_document, parse_document, save_document
from .matroid import (
    FlatDecomposition,
    decompose,
    fingerprint,
    same_matroid,
)
from .projective import (
    ProjectivePoint,
    cross_ratio,
    load_script,
    meet,
    parse_script,
    run_reconstruction,
    to_projective,
)
from .tolerances import DEFAULT_RTOL
from .verify import (
    ExtensionReport,
    VeeReport,
    check_extension,
    check_harmonic,
    check_vee,
    nu_trace,
    solve_weights,
)

__all__ = [
    "CanonicalForm",
    "CovectorConfiguration",
    "DeformationSystem",
    "ExtensionReport",
    "FIXED_NU",
    "FREE_NU",
    "FlatDecomposition",
    "ProjectivePoint",
    "VeeReport",
    "VeesysError",
    "DEFAULT_RTOL",
    "build_system",
    "canonical_form",
    "check_extension",
    "check_harmonic",
    "check_vee",
    "cross_ratio",
    "decompose",
    "fingerprint",
    "load_document",
    "load_script",
    "meet",
    "nu_trace",
    "parse_document",
    "parse_script",
    "rigidity_test",
    "run_reconstruction",
    "same_matroid",
    "save_document",
    "scan_family",
    "solve_weights",
    "to_projective",
]
