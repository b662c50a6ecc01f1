"""Core value types: covector configurations and the canonical bilinear form.

A configuration is a labelled list of n covectors spanning an r-dimensional
space, stored as the columns of an r x n matrix.  The canonical form is

    G(x, y) = sum_alpha  alpha(x) * alpha(y),

i.e. G = A A^T for the column matrix A.  It identifies the space with its
dual; the dual of a covector alpha is  alpha_dual = G^{-1} alpha, and the
induced scalar product of two covectors is  alpha^T G^{-1} beta, the entry
of P = A^T G^{-1} A.  With the reduced SVD A = U S V^T, P = V V^T: the
orthonormal rows of V^T span the row space of A, and their columns are the
covectors whitened by G, so P is read off them without forming G^{-1}.
P is unchanged by A -> L A for any invertible L, a global scale included.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import matroid
from .tolerances import DEFAULT_RTOL, SINGULAR_FORM_RTOL


def _as_readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _quotient(num, den):
    """num / den, and 0 where den is 0: a flat whose plane data underflow
    reads as degenerate instead of as NaN."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def max_minors(a, b):
    """The largest |2x2 minor| of each column pair (a[:, k], b[:, k]): zero
    exactly when the two columns are proportional."""
    minors = a[:, None] * b[None] - b[:, None] * a[None]
    return np.abs(minors).max((0, 1))


class CovectorConfiguration:
    """A labelled, ordered set of covectors (columns of ``matrix``).

    Invariants enforced at construction: every entry is finite, none is
    zero, the covectors span the full r-dimensional space (G's smallest
    eigenvalue over its largest above SINGULAR_FORM_RTOL), and no two are
    proportional (2x2 minors below the fixed DEFAULT_RTOL).  Construction
    keeps the read-only unit covectors ``unit`` and the CanonicalForm
    ``form`` that every check reads.  Configurations compare and hash by
    identity.
    """

    def __init__(self, matrix, labels=()):
        matrix = _as_readonly(np.atleast_2d(matrix))
        self.matrix = matrix  # r x n, covectors as columns
        r, n = matrix.shape
        if n < r:
            raise ValueError(f"need at least r={r} covectors, got {n}")
        labels = tuple(labels) if labels else tuple(str(i + 1) for i in range(n))
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} covectors")
        if len(set(labels)) != n:
            raise ValueError("labels must be distinct")
        self.labels = labels

        if not np.isfinite(matrix).all():
            raise ValueError("covector entries must be finite")

        zero = np.flatnonzero(~matrix.any(0))
        if len(zero):
            raise ValueError(f"zero covector(s) at label(s) {list(self.sublabels(zero))}")

        # Unit covectors, each column scaled by a power of two before it is
        # squared: exact in the normal range, and no entry over- or underflows.
        exponents = np.frexp(np.abs(matrix).max(0))[1]
        scaled = np.ldexp(matrix, -exponents)
        unit = self.unit = _as_readonly(scaled / np.sqrt((scaled * scaled).sum(0)))

        # The one reduced SVD, A = U S V^T, decides the span: G = A A^T has
        # the eigenvalues S^2, and its rank is the count above the cut.  It is
        # taken of A scaled by one power of two, its largest entry below 1, so
        # S does not overflow at any scale; V^T and the ratios of S are those of A.
        s, basis = np.linalg.svd(np.ldexp(matrix, -exponents.max()), full_matrices=False)[1:]
        eigvals = (s / s[0]) ** 2  # G's eigenvalues over the largest, descending
        if eigvals[-1] <= SINGULAR_FORM_RTOL:
            rank = np.count_nonzero(eigvals > SINGULAR_FORM_RTOL)
            raise ValueError(f"covectors do not span the ambient space: "
                             f"numerical rank {rank} < dimension {r}")
        self.form = CanonicalForm(basis, float(1 / eigvals[-1]))

        # Reject proportional pairs via normalized 2x2 minors.  For unit
        # covectors the largest minor of the pair (u, v) shrinks with the
        # angle between them, so it suffices to test the pair with the
        # largest |cos|.
        gramlike = np.abs(unit.T @ unit)
        np.fill_diagonal(gramlike, 0.0)
        i, j = divmod(int(gramlike.argmax()), n)
        # argmax hits the diagonal only when all pairs are orthogonal
        if i != j and max_minors(unit[:, i:i + 1], unit[:, j:j + 1])[0] < DEFAULT_RTOL:
            raise ValueError(f"covectors {labels[i]} and {labels[j]} are proportional")

    @property
    def dimension(self):
        return self.matrix.shape[0]

    @property
    def n(self):
        return self.matrix.shape[1]

    def covector(self, index):
        """The covector at 0-based ``index`` as a 1-d array."""
        return self.matrix[:, index]

    def sublabels(self, indices):
        return tuple(map(self.labels.__getitem__, indices))

    def take(self, indices):
        """Sub-configuration of the covectors at the given 0-based indices."""
        indices = list(indices)
        return CovectorConfiguration(self.matrix[:, indices], self.sublabels(indices))

    def transformed(self, linear_map):
        """Apply an invertible linear map to every covector."""
        return CovectorConfiguration(np.asarray(linear_map) @ self.matrix,
                                     self.labels)

    def scaled(self, factors):
        """Scale covector i by factors[i] (scalar broadcast allowed)."""
        return CovectorConfiguration(self.matrix * np.asarray(factors),
                                     self.labels)

    @cached_property
    def decomposition(self):
        """The FlatDecomposition, enumerated on first use and kept with the object."""
        return matroid._enumerate_flats(self)

    @cached_property
    def analysis(self):
        """The PlaneAnalysis, computed on first use and kept with the object."""
        return PlaneAnalysis(self)


class CanonicalForm:
    """What construction decides of the form G = A A^T = sum alpha alpha^T:
    an orthonormal basis of the row space of A, and the condition number of
    G.  G itself is formed only by the Gram oracle."""

    def __init__(self, basis, condition_number):
        self.basis = _as_readonly(basis)  # r x n V^T: column k is covector k whitened by G
        self.condition_number = condition_number


class PlaneAnalysis:
    """The tolerance-free plane data of a configuration, which every check
    reads (``config.analysis`` keeps it).  ``residuals`` and ``nus`` hold one
    entry per flat of ``decomposition``, in its order (pair flats, then
    multi flats); ``ratios`` holds one per multi flat, in
    ``decomposition.multi`` order.  ``decomposition`` is the configuration's
    own, so its covector x flat ``incidence`` serves the checks too.
    Thresholds are applied by the callers, so one analysis serves every
    tolerance.

    Every plane quantity is an entry of P = basis^T basis, since
    gamma(G^{-1} alpha) = P[gamma, alpha].  For a flat with first members
    i, j the restriction of G to the dual plane is (P_ii, P_ij, P_jj) and
    that of the plane form is the sum over members k of (P_ki P_ki, P_ki P_kj,
    P_kj P_kj).  ``norms`` keeps the canonical norms sqrt(P_kk), whose
    products, unlike the products P_ii P_jj, do not underflow to 0 while
    both norms are positive.  A pair flat's residual is
    |P_ij| / (sqrt(P_ii) sqrt(P_jj)).
    A multi flat's residual is the relative deviation of the plane form from
    nu * G restricted, with nu the least-squares factor, and its ratio
    measures how far its first two duals are from proportional in the
    G-metric, read off their whitened duals, the basis columns.  Every flat
    is read from P as arrays; the m multi flats pay n x m work.
    """

    def __init__(self, config):
        basis = config.form.basis
        P = basis.T @ basis  # exactly symmetric: numpy takes it as a syrk product
        decomp = config.decomposition
        pair_i, pair_j = decomp.pair_members.T
        i, j = decomp.multi_leads.T
        Pi, Pj, diag = P[:, i], P[:, j], np.diag(P)
        norms = np.sqrt(diag)

        # entries (11, 12, 22) of the symmetric 2x2 restrictions to the multi
        # flats; the off-diagonal entry counts twice in Frobenius products
        g = np.array([diag[i], P[i, j], diag[j]])
        weight = np.array([[1.0], [2.0], [1.0]])
        gp = np.array([(decomp.multi_incidence * a * b).sum(0)
                       for a, b in ((Pi, Pi), (Pi, Pj), (Pj, Pj))])
        nu_lsq = _quotient((weight * gp * g).sum(0), (weight * g * g).sum(0))
        residuals = np.concatenate([
            _quotient(np.abs(P[pair_i, pair_j]), norms[pair_i] * norms[pair_j]),
            np.sqrt(_quotient((weight * (gp - nu_lsq * g) ** 2).sum(0),
                              (weight * gp * gp).sum(0))),
        ])
        nus = 0.5 * np.concatenate([diag[pair_i] + diag[pair_j], diag @ decomp.multi_incidence])

        u, v = basis[:, i], basis[:, j]
        wedge = u[:, None] * v[None] - v[:, None] * u[None]
        ratios = _quotient(np.sqrt((wedge ** 2).sum((0, 1))),
                           np.sqrt((u * u).sum(0)) * np.sqrt((v * v).sum(0)))
        for shared in (P, norms, residuals, nus, ratios):
            shared.setflags(write=False)
        self.pairings = P  # P = A^T G^{-1} A = basis^T basis
        self.norms = norms  # the canonical norms sqrt(P_kk)
        self.decomposition = decomp  # the configuration's matroid.FlatDecomposition
        self.residuals = residuals  # pair: |P_ij| / (sqrt(P_ii) sqrt(P_jj)); multi: see above
        self.nus = nus  # 1/2 sum of P_kk over the members
        self.ratios = ratios  # multi flats: |u ^ v| / (|u| |v|) of the first two whitened duals
        self.max_residual = float(residuals.max(initial=0.0))

    @property
    def multi_nus(self):
        """The nu of each multi flat, in ``decomposition.multi`` order, a view."""
        return self.nus[len(self.decomposition.pair_members):]

    @cached_property
    def deformation_products(self):
        """The pairing products both deformation modes read, computed on
        first read: the n x p columns P_ki P_kj of the pair flats {i, j}, and
        per multi flat with leads a, b the n x m coefficients
        (delta_k - nu) P_ka P_kb of xi_k in the entries (aa, ab, bb) of
        X^Pi - nu X restricted to its dual plane."""
        decomp, P = self.decomposition, self.pairings
        (pair_i, pair_j), (i, j) = decomp.pair_members.T, decomp.multi_leads.T
        weight = decomp.multi_incidence - self.multi_nus
        Pi, Pj = P[:, i], P[:, j]
        return P[:, pair_i] * P[:, pair_j], (weight * Pi * Pi, weight * Pi * Pj,
                                             weight * Pj * Pj)


def canonical_form(config):
    """The canonical form of a configuration, ``config.form``: construction
    takes it from one reduced SVD of the r x n matrix, A = U S V^T, whose
    squared singular values are G's eigenvalues."""
    return config.form
