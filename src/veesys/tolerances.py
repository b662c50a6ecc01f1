"""Numerical tolerance constants.

The verification checks take a relative tolerance ``rtol`` per call
(default DEFAULT_RTOL = 1e-9); the CLI passes its --rtol to each call it
makes.  Nothing here is mutable.  Construction rejects proportional
covectors against the fixed DEFAULT_RTOL, and flat enumeration tests
coplanarity against the fixed COPLANAR_TOL, whatever rtol a check uses.
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


def resolve(rtol=None):
    """The explicit tolerance if given, else DEFAULT_RTOL."""
    return DEFAULT_RTOL if rtol is None else float(rtol)
