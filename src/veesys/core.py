"""Core value types: covector configurations and the canonical bilinear form.

A configuration is a labelled list of n covectors spanning an r-dimensional
space, stored as the columns of an r x n matrix.  The canonical form is

    G(x, y) = sum_alpha  alpha(x) * alpha(y),

i.e. G = A A^T for the column matrix A.  It identifies the space with its
dual; the dual of a covector alpha is  alpha_dual = G^{-1} alpha, and the
induced scalar product of two covectors is  alpha^T G^{-1} beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matroid
from .errors import SingularForm
from .tolerances import DEFAULT_RTOL


def _as_readonly(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CovectorConfiguration:
    """A labelled, ordered set of covectors (columns of ``matrix``).

    Invariants enforced at construction: every entry is finite, the
    covectors span the full r-dimensional space, none is zero, and no two
    are proportional (2x2 minors below the fixed DEFAULT_RTOL).
    """

    matrix: np.ndarray  # r x n, covectors as columns
    labels: tuple = ()

    def __post_init__(self):
        matrix = _as_readonly(np.atleast_2d(self.matrix))
        object.__setattr__(self, "matrix", matrix)
        r, n = matrix.shape
        if n < r:
            raise ValueError(f"need at least r={r} covectors, got {n}")
        labels = tuple(self.labels) if self.labels else tuple(
            str(i + 1) for i in range(n)
        )
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} covectors")
        if len(set(labels)) != n:
            raise ValueError("labels must be distinct")
        object.__setattr__(self, "labels", labels)

        if not np.isfinite(matrix).all():
            raise ValueError("covector entries must be finite")

        norms = np.linalg.norm(matrix, axis=0)
        if np.any(norms == 0.0):
            zero = [labels[i] for i in np.flatnonzero(norms == 0.0)]
            raise ValueError(f"zero covector(s) at label(s) {zero}")

        if np.linalg.matrix_rank(matrix) < r:
            raise ValueError("covectors do not span the ambient space")

        # Reject proportional pairs via normalized 2x2 minors.  For unit
        # covectors the largest minor of the pair (u, v) shrinks with the
        # angle between them, so it suffices to test the pair with the
        # largest |cos|.
        unit = matrix / norms
        gramlike = np.abs(unit.T @ unit)
        np.fill_diagonal(gramlike, 0.0)
        i, j = np.unravel_index(np.argmax(gramlike), gramlike.shape)
        if i != j:  # argmax hits the diagonal only when all pairs are orthogonal
            minors = (
                np.outer(unit[:, i], unit[:, j]) - np.outer(unit[:, j], unit[:, i])
            )
            if np.abs(minors).max() < DEFAULT_RTOL:
                raise ValueError(
                    f"covectors {labels[i]} and {labels[j]} are proportional"
                )

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
        return tuple(self.labels[i] for i in indices)

    def take(self, indices, labels=None):
        """Sub-configuration of the covectors at the given 0-based indices."""
        indices = list(indices)
        return CovectorConfiguration(
            self.matrix[:, indices],
            labels or tuple(self.labels[i] for i in indices),
        )

    def transformed(self, linear_map):
        """Apply an invertible linear map to every covector."""
        return CovectorConfiguration(np.asarray(linear_map) @ self.matrix,
                                     self.labels)

    def scaled(self, factors):
        """Scale covector i by factors[i] (scalar broadcast allowed)."""
        return CovectorConfiguration(self.matrix * np.asarray(factors),
                                     self.labels)

    @cached_property
    def analysis(self):
        """The PlaneAnalysis, computed on first use and kept with the object."""
        return analyse(self)


@dataclass(frozen=True)
class CanonicalForm:
    """The form G = sum alpha alpha^T, its inverse, and its condition number."""

    gram: np.ndarray
    gram_inverse: np.ndarray
    condition_number: float

    def __post_init__(self):
        object.__setattr__(self, "gram", _as_readonly(self.gram))
        object.__setattr__(self, "gram_inverse", _as_readonly(self.gram_inverse))


@dataclass(frozen=True)
class PlaneAnalysis:
    """The tolerance-free plane data every check reads, one entry per flat
    of ``decomposition`` (in its order: pair flats, then multi flats).
    Thresholds are applied by the callers, so one analysis serves every
    tolerance.  Only the multi flats go through Python loops."""

    form: CanonicalForm
    pairings: np.ndarray  # P = A^T G^{-1} A
    decomposition: object  # matroid.FlatDecomposition
    incidence: np.ndarray  # n x flats, True where covector k lies in the flat
    residuals: np.ndarray  # pair: |P_ij| / sqrt(P_ii P_jj); multi: see analyse
    nus: np.ndarray  # 1/2 sum of P_kk over the members
    ratios: np.ndarray  # |u ^ v| / (|u| |v|) of the first two member duals
    max_residual: float


def canonical_form(config):
    """Compute the canonical form G of a configuration.

    Raises SingularForm when the covectors fail to span (should not happen
    for configurations built through CovectorConfiguration, which enforces
    the span invariant, but loaded/constructed matrices are re-checked here).
    """
    A = config.matrix
    r = config.dimension
    G = A @ A.T
    G = 0.5 * (G + G.T)  # symmetrize against round-off
    eigvals = np.linalg.eigvalsh(G)
    smallest, largest = eigvals[0], eigvals[-1]
    if largest <= 0 or smallest <= largest * 1e-13:
        rank = int(np.sum(eigvals > largest * 1e-13))
        raise SingularForm(rank, r)
    G_inv = np.linalg.inv(G)
    G_inv = 0.5 * (G_inv + G_inv.T)
    return CanonicalForm(G, G_inv, float(largest / smallest))


def pairing_matrix(config, form):
    """All pairwise canonical products as an n x n symmetric matrix."""
    M = config.matrix.T @ form.gram_inverse @ config.matrix
    return 0.5 * (M + M.T)


def analyse(config):
    """The PlaneAnalysis of a configuration (``config.analysis`` caches it).

    Every plane quantity is an entry of P, since gamma(G^{-1} alpha) =
    P[gamma, alpha].  For a flat with first members i, j the restriction of
    G to the dual plane is (P_ii, P_ij, P_jj) and that of the plane form is
    the sum over members k of (P_ki P_ki, P_ki P_kj, P_kj P_kj).  A multi
    flat's residual is the relative deviation of the plane form from nu * G
    restricted, with nu the least-squares factor.  Pair flats are read from P
    as arrays; only the m multi flats are looped over and pay n x m work.
    """
    form = canonical_form(config)
    P = pairing_matrix(config, form)
    decomp = matroid.decompose(config)
    p = len(decomp.pair_flats)
    multi = [decomp.flats[k].members for k in decomp.multi_flats]
    ends = np.concatenate([decomp.pair_members,
                           np.array([m[:2] for m in multi], dtype=int).reshape(-1, 2)])
    first, second = ends.T
    member = np.zeros((config.n, len(ends)), dtype=bool)
    member[decomp.pair_members, np.arange(p)[:, None]] = True
    for col, members in enumerate(multi, p):
        member[list(members), col] = True

    # entries (11, 12, 22) of the symmetric 2x2 restrictions; the
    # off-diagonal entry counts twice in Frobenius products
    g = np.stack([P[first, first], P[first, second], P[second, second]])
    weight = np.array([[1.0], [2.0], [1.0]])
    i, j, g_multi, in_multi = first[p:], second[p:], g[:, p:], member[:, p:]
    gp = np.stack([(in_multi * P[:, a] * P[:, b]).sum(0)
                   for a, b in ((i, i), (i, j), (j, j))])
    nu_lsq = (weight * gp * g_multi).sum(0) / (weight * g_multi * g_multi).sum(0)
    residuals = np.concatenate([
        np.abs(g[1, :p]) / np.sqrt(g[0, :p] * g[2, :p]),
        np.sqrt((weight * (gp - nu_lsq * g_multi) ** 2).sum(0)
                / (weight * gp * gp).sum(0)),
    ])
    nus = 0.5 * np.concatenate([g[0, :p] + g[2, :p], np.diag(P) @ in_multi])

    duals = form.gram_inverse @ config.matrix
    u, v = duals[:, first], duals[:, second]
    wedge = u[:, None] * v[None] - v[:, None] * u[None]
    ratios = (np.sqrt((wedge ** 2).sum((0, 1)))
              / (np.linalg.norm(u, axis=0) * np.linalg.norm(v, axis=0)))
    for shared in (P, member, residuals, nus, ratios):
        shared.setflags(write=False)
    return PlaneAnalysis(form, P, decomp, member, residuals, nus, ratios,
                         float(residuals.max(initial=0.0)))
