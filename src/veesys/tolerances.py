"""Every numerical threshold of veesys, each with the reason for its value.

Each verdict veesys gives is a threshold decision on floating-point data:
which covectors share a rank-2 flat, whether a flat is orthogonal or
proportional, what rank a deformation system has.  No other module holds a
threshold literal; a test tokenizes the package to keep it so.

A threshold is one of two kinds:

* a named constant, which no setting moves;
* a function of the resolved relative tolerance ``tol = resolve(rtol)``,
  which follows the ``rtol`` a check is given, above a fixed floor.

``rtol`` is the only tolerance setting.  The checks take it per call
(default DEFAULT_RTOL); the CLI passes its --rtol to each call it makes.
Nothing here is mutable, and no constant is a parameter of any function.
Construction rejects proportional covectors against the fixed DEFAULT_RTOL,
and flat enumeration tests coplanarity against the fixed COPLANAR_TOL,
whatever rtol a check uses.  COPLANAR_TOL is the only coplanarity
threshold: when its decisions on the triples contradict each other, flat
enumeration raises AmbiguousFlats rather than choosing among them.

Two numpy defaults also cut singular values outside this module, and no
setting moves them: ``np.linalg.lstsq`` with ``rcond=None`` (the largest
singular value times max(m, n) times machine epsilon) fixes the rank of the
least-squares solves in ``matroid.FlatDecomposition.weight_system`` and
``projective._place_by_ratio``.  Whether the covectors span is decided once,
at construction, against SINGULAR_FORM_RTOL.
"""

DEFAULT_RTOL = 1e-9


def resolve(rtol=None):
    """The explicit tolerance if given, else DEFAULT_RTOL."""
    return DEFAULT_RTOL if rtol is None else float(rtol)


# --- configurations and flats (core, matroid) -------------------------------

# Threshold on the normalized 3x3 determinant used to decide coplanarity of
# covector triples.  Covectors are normalized to unit length first, so the
# test is scale-invariant.
COPLANAR_TOL = 1e-9

# G = A A^T is singular when (s_min / s_max)^2, over the singular values s of A, is at most
# this: G's eigenvalue ratio, at a singular-value ratio of A near 3e-7.  Construction rejects
# covectors that do not span by this cut.
SINGULAR_FORM_RTOL = 1e-13

# --- deformation systems (deform) -------------------------------------------

# Rows no longer than this times the longest row, or than this itself, are round-off: P is an
# orthogonal projector, so |P_ij| <= 1 fixes the scale of its round-off.  Scaled to unit norm
# such rows would be noise; a system whose rows are all round-off has rank 0.
ROW_DROP_RTOL = 1e-9

# Singular values below smax * RANK_RTOL * max(m, n) are treated as zero when
# computing numerical ranks of deformation systems.
RANK_RTOL = 1e-8

# --- weights (matroid), harmonic ranges and extensions (verify) -------------

# The weight system is 0/1, so a residual or singular value below this absolute cut is round-off.
WEIGHT_TOL = 1e-9


def orthogonal_pair_tol(tol):
    """A 4-flat member pair is orthogonal when its normalized pairing is
    below this: ten times the plane-condition tolerance, so that the
    orthogonal pairs of a configuration that passes are found."""
    return max(tol, 1e-9) * 10


def harmonic_tol(tol):
    """A cross-ratio closer than this to -1 is harmonic: ten times rtol,
    and never below 1e-7."""
    return max(tol, 1e-8) * 10


def embedding_tol(tol):
    """An inner covector is proportional to its outer image when no 2x2
    minor of the two unit covectors exceeds this."""
    return max(tol, 1e-9) * 100


def common_ratio_tol(tol, scale):
    """Inner/outer nu-ratios are common when their spread is below this;
    ``scale`` is the modulus of the first ratio."""
    return max(tol, 1e-8) * scale * 10


# --- projective plane (projective, cli reconstruct) -------------------------

# The first coordinate of a unit point above this in modulus fixes its sign; below, it is a zero.
SIGN_COORDINATE_TOL = 1e-12


def line_tol(tol):
    """Two unit points span a line, and two unit lines meet in a point,
    when their cross product is at least this long."""
    return max(tol, 1e-12) * 10


def collinear_tol(tol):
    """A point of a branch step's cross-ratio whose unit vector lies farther
    than this from the plane of the step's line is off the line."""
    return max(max(tol, 1e-12) * 1000, 1e-8)

# A branch step's linear equation with a leading coefficient below this has no unique root.
DEGENERATE_RATIO_TOL = 1e-14

# Four basis points are a projective frame when each triple's unit determinant reaches this.
BASIS_TRIPLE_DET = 1e-10

# A reconstructed point matches its reference below this angular error (sine of the angle).
RECONSTRUCTION_TOL = 1e-8

# --- catalogue data and oracles (expressions, catalogue) --------------------

# sqrt reads a value above -SQRT_CLAMP as 0: limits such as 2*t**2 - 1 at t = 1/sqrt(2) dip below.
SQRT_CLAMP = 1e-12

# Relative tolerance for Gram, nu and nu-ratio comparisons against oracles.
ORACLE_RTOL = 1e-8

# A degeneration path is sampled at these offsets eps, the larger first.
DEGENERATION_OFFSETS = (1e-3, 1e-4)

# The vanishing covectors shrink at least like eps ** this: a sqrt-type path gives 0.5.
MIN_VANISHING_EXPONENT = 0.45

# The survivors' residual at the smaller offset tends to 0: at most the cap, and below the
# floor or below the larger offset's residual divided by the decay factor.
SURVIVOR_RESIDUAL_CAP = 1e-2
SURVIVOR_RESIDUAL_FLOOR = 1e-9
SURVIVOR_RESIDUAL_DECAY = 3

# Survivor nu-values at the smaller offset lie this close to the target's (limits: ORACLE_RTOL).
LIMIT_NU_TOL = 1e-6

# Vanished at an exact limit, relative to the matrix norm: sqrt paths leave O(sqrt(machine eps)).
LIMIT_VANISH_RTOL = 1e-7
