"""Numerical tolerance constants.

The verification checks take a relative tolerance ``rtol`` per call
(default DEFAULT_RTOL = 1e-9); the CLI passes its --rtol to each call it
makes.  Nothing here is mutable.  Construction rejects proportional
covectors against the fixed DEFAULT_RTOL, and flat enumeration tests
coplanarity against the fixed COPLANAR_TOL, whatever rtol a check uses.
COPLANAR_TOL is the only coplanarity threshold: when its decisions on the
triples contradict each other, flat enumeration raises AmbiguousFlats
rather than choosing among them.
"""

DEFAULT_RTOL = 1e-9

# Threshold on the normalized 3x3 determinant used to decide coplanarity of
# covector triples.  Covectors are normalized to unit length first, so the
# test is scale-invariant.
COPLANAR_TOL = 1e-9

# Singular values below smax * RANK_RTOL * max(m, n) are treated as zero when
# computing numerical ranks of deformation systems.
RANK_RTOL = 1e-8


def resolve(rtol=None):
    """The explicit tolerance if given, else DEFAULT_RTOL."""
    return DEFAULT_RTOL if rtol is None else float(rtol)
