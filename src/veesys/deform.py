"""Linearised scaling deformations.

A scaling deformation multiplies each covector alpha by mu_alpha(t) with
mu_alpha(0) = 1; its velocity vector xi_alpha = mu'_alpha(0) enters the
symmetric form X = sum_alpha xi_alpha alpha (x) alpha.  First-order
preservation of the plane conditions is linear in xi:

  * pair flat {i, j}:  X(alpha_i_dual, alpha_j_dual) = 0;
  * multi flat Pi:     (X^Pi - nu X) restricted to the dual plane is
        proportional to the restriction of G ("freeNu" mode: the nu-velocity
        is free and eliminated by cross-multiplication) or zero ("fixedNu"
        mode: the nu-function is frozen).

The uniform vector xi = 1 (global scaling, X = G) always lies in the kernel,
so the corank is at least 1; corank 1 certifies an isolated system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotAVeeSystem, Reducible, VeesysError
from .tolerances import RANK_RTOL, ROW_DROP_RTOL, resolve
from .verify import plane_analysis

FREE_NU = "freeNu"
FIXED_NU = "fixedNu"


@dataclass(frozen=True, eq=False)
class DeformationSystem:
    """The linearised system of one mode and its rank.

    The rank, corank and spectral gap come from the singular values alone;
    the kernel basis needs the singular vectors, so it is computed on first
    read."""

    mode: str
    matrix: np.ndarray  # m x n in the unknowns xi
    rank: int
    corank: int
    singular_values: np.ndarray  # descending
    spectral_gap: float  # smallest kept singular value / the rank threshold

    @cached_property
    def kernel_basis(self):
        """Orthonormal rows spanning the kernel, a corank x n array."""
        # the reduced V already holds the kernel unless there are fewer rows than n
        full = len(self.matrix) < self.matrix.shape[1]
        return np.linalg.svd(self.matrix, full_matrices=full)[2][self.rank:]


def _assemble_rows(analysis, mode):
    """The equations of ``mode``, one row per equation in the unknowns xi.

    A pair flat {i, j} gives X(alpha_i_dual, alpha_j_dual) = sum_a xi_a
    P_ai P_aj.  A multi flat gives the entries (M11, M12, M22) of
    (X^Pi - nu X) restricted to its dual plane: all three in fixedNu mode,
    their proportionality to the restricted G (g11, g12, g22) in freeNu mode.
    """
    pair_rows, (m11, m12, m22) = analysis.deformation_products  # shared by the modes
    if mode == FREE_NU:
        # proportionality to (g11, g12, g22), free factor eliminated
        P = analysis.pairings
        i, j = analysis.decomposition.multi_leads.T
        g11, g12, g22 = P[i, i], P[i, j], P[j, j]
        equations = (m11 * g12 - m12 * g11, m11 * g22 - m22 * g11)
    else:
        equations = (m11, m12, m22)
    # flat by flat: each covector's coefficients in a multi flat's equations side by side
    rows = np.array(equations).transpose(1, 2, 0).reshape(len(pair_rows), -1)
    return np.concatenate([pair_rows, rows], axis=1).T


def build_system(config, mode=FREE_NU, rtol=None):
    """Assemble the linearised system in the unknowns xi and analyse it."""
    if mode not in (FREE_NU, FIXED_NU):
        raise ValueError(f"unknown mode {mode!r}")
    tol = resolve(rtol)
    analysis = plane_analysis(config, tol)
    if not analysis.max_residual < tol:
        raise NotAVeeSystem(
            f"max residual {analysis.max_residual:.3e} exceeds tolerance {tol:.1e}"
        )

    matrix = _assemble_rows(analysis, mode)
    # drop rows that vanish to round-off before scaling rows to unit norm
    norms = np.sqrt((matrix * matrix).sum(axis=1))
    keep = norms > norms.max(initial=1.0) * ROW_DROP_RTOL
    matrix = matrix[keep] / norms[keep, None]

    svals = np.linalg.svd(matrix, compute_uv=False)  # empty when every row is dropped
    threshold = svals.max(initial=0.0) * RANK_RTOL * max(matrix.shape)
    rank = int(np.count_nonzero(svals > threshold))
    # the kept margin: how far the smallest kept value clears the threshold
    gap = float(svals[rank - 1] / threshold) if rank else float("inf")
    return DeformationSystem(mode, matrix, rank, config.n - rank, svals, gap)


def rigidity_test(config, rtol=None):
    """Fixed-nu rigidity check for an irreducible configuration.

    Returns {"corank", "scalingOnly", "onesResidual", "spectralGap"}.
    Raises Reducible when the covectors fall apart into components that
    share no multi flat (direct sums deform componentwise).
    """
    tol = resolve(rtol)
    if not plane_analysis(config, tol).decomposition.connected:
        raise Reducible("configuration is disconnected across multi flats")
    system = build_system(config, FIXED_NU, rtol=tol)
    ones = np.ones(config.n) / np.sqrt(config.n)
    residual = float(np.linalg.norm(system.matrix @ ones))
    return {
        "corank": system.corank,
        "scalingOnly": system.corank == 1,
        "onesResidual": residual,
        "spectralGap": system.spectral_gap,
    }


def scan_family(family_id, grid=None, rtol=None):
    """Coranks of both modes over a parameter grid of a catalogue family.

    ``grid`` is a list of parameter dicts; defaults to the family's shipped
    grid.  Construction and check failures (VeesysError, ValueError) are
    collected per point, not raised.
    """
    from . import catalogue  # local import: catalogue depends on this package

    entry = catalogue.entry(family_id)
    rows = []
    for params in grid if grid is not None else entry.default_grid:
        row = {"parameters": dict(params)}
        try:
            config = catalogue.construct(family_id, params)
            row["freeNuCorank"] = build_system(config, FREE_NU, rtol=rtol).corank
            row["fixedNuCorank"] = build_system(config, FIXED_NU, rtol=rtol).corank
        except (VeesysError, ValueError) as exc:  # collected, not fatal
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows
