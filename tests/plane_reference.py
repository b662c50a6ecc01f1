"""Independent references for the shared plane analysis: the dual vectors,
pairings and restricted forms of one flat at a time, computed from G^{-1}
directly rather than read from the pairing matrix P."""

from dataclasses import dataclass

import numpy as np

from veesys.errors import DegeneratePlane
from veesys.tolerances import resolve


@dataclass(frozen=True)
class PlaneForm:
    """Restrictions of G and of the plane form G^Pi to a 2-flat's dual plane.

    Both 2x2 matrices are expressed in the basis (alpha_dual, beta_dual) of
    the first two member covectors of the flat.
    """

    restricted_gram: np.ndarray
    restricted_plane_gram: np.ndarray


def gram_inverse(config):
    """G^{-1}, inverted from G = A A^T."""
    return np.linalg.inv(config.matrix @ config.matrix.T)


def dual(config, index):
    """The dual vector G^{-1} alpha of covector ``index`` (0-based)."""
    return gram_inverse(config) @ config.covector(index)


def pairing(config, i, j):
    """The canonical scalar product alpha_i^T G^{-1} alpha_j."""
    return float(config.covector(i) @ gram_inverse(config) @ config.covector(j))


def restrict_forms(config, flat, rtol=None):
    """Restrict G and the plane form G^Pi of a flat to the flat's dual plane.

    The basis is (alpha_dual, beta_dual) for the flat's first two members.
    Raises DegeneratePlane if those two members are numerically proportional.
    """
    members = list(flat.members) if hasattr(flat, "members") else list(flat)
    i, j = members[0], members[1]
    u = dual(config, i)
    v = dual(config, j)
    nu_ = np.linalg.norm(u)
    nv_ = np.linalg.norm(v)
    tol = resolve(rtol)
    if np.linalg.norm(np.outer(u, v) - np.outer(v, u)) < tol * nu_ * nv_:
        raise DegeneratePlane(
            f"flat members {config.labels[i]}, {config.labels[j]} are proportional"
        )
    # G(x, y) evaluated on dual vectors equals the canonical pairing.
    g = np.array(
        [
            [pairing(config, i, i), pairing(config, i, j)],
            [pairing(config, i, j), pairing(config, j, j)],
        ]
    )
    # G^Pi(x, y) = sum over flat members gamma of gamma(x) gamma(y).
    vals_u = np.array([config.covector(k) @ u for k in members])
    vals_v = np.array([config.covector(k) @ v for k in members])
    gp = np.array(
        [
            [vals_u @ vals_u, vals_u @ vals_v],
            [vals_u @ vals_v, vals_v @ vals_v],
        ]
    )
    return PlaneForm(g, gp)
