"""Global numerical tolerance settings.

The verification checks go through the relative tolerance below (default
1e-9).  It can be overridden globally (the CLI's --rtol flag) or per call,
since most operations accept an explicit rtol.  Flat enumeration does not
use it; it tests coplanarity against the fixed COPLANAR_TOL.
"""

DEFAULT_RTOL = 1e-9

# Threshold on the normalized 3x3 determinant used to decide coplanarity of
# covector triples.  Covectors are normalized to unit length first, so the
# test is scale-invariant.
COPLANAR_TOL = 1e-9

# Singular values below smax * RANK_RTOL * max(m, n) are treated as zero when
# computing numerical ranks of deformation systems.
RANK_RTOL = 1e-8

# Covector norms below this trigger a near-degeneracy flag during flat
# enumeration (relevant close to parametric limits).
TINY_NORM = 1e-7

_rtol = DEFAULT_RTOL


def set_rtol(value):
    """Set the global relative tolerance; returns the previous value."""
    global _rtol
    if not (value > 0):
        raise ValueError(f"rtol must be positive, got {value}")
    previous = _rtol
    _rtol = float(value)
    return previous


def resolve(rtol=None):
    """Return the explicit tolerance if given, else the global one."""
    return _rtol if rtol is None else float(rtol)
