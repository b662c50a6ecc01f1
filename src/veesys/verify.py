"""Orthogonality/proportionality verification, the nu-function, weights,
harmonic ranges and extension checks.

A configuration passes verification when on every rank-2 flat:

  * pair flat {alpha, beta}:   alpha^T G^{-1} beta = 0;
  * multi flat Pi:             the plane form restricted to the dual plane is
                               proportional to the restriction of G, with
                               factor nu(Pi).

The factor satisfies nu(Pi) = 1/2 * sum over flat members of |alpha|^2
(squared canonical norm).  ``PlaneAnalysis.nus`` computes this trace for
every flat, and all reports display it; the least-squares factor from the
proportionality fit is kept internal and must agree with the trace value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import max_minors
from .errors import BadEmbedding, DegeneratePlane
from .tolerances import (common_ratio_tol, embedding_tol, harmonic_tol, orthogonal_pair_tol,
                         resolve)


@dataclass(frozen=True, eq=False)
class VeeReport:
    """The verdict of ``check_vee``, its largest residual, and the nu of each
    multi flat."""

    is_vee_system: bool
    max_residual: float
    nu_function: dict  # member-label tuple -> nu (multi flats only)
    decomposition: object


@dataclass(frozen=True, eq=False)
class WeightSolution:
    """The result of ``solve_weights``: its status, its residual and, unless
    infeasible, the weights and their universal value."""

    status: str  # "feasible" | "infeasible" | "underdetermined"
    weights: dict = None  # member-label tuple -> weight, when feasible
    universal_value: float = None
    residual: float = None


class HarmonicRecord:
    """The cross-ratio of a 4-flat with one orthogonal pair in the last two
    slots and whether it is harmonic, or a flat without an orthogonal pair."""

    def __init__(self, flat, cross_ratio, orthogonal_pair, verdict, note=""):
        self.flat = flat  # member labels
        self.cross_ratio = cross_ratio  # None when no orthogonal pair exists
        self.orthogonal_pair = orthogonal_pair  # labels, None when missing
        self.verdict = verdict
        self.note = note


class ExtensionReport:
    """The result of ``check_extension``."""

    def __init__(self, is_extension, nu_ratio, per_flat_ratios):
        self.is_extension = is_extension
        self.nu_ratio = nu_ratio  # common inner/outer ratio, None when not common
        self.per_flat_ratios = per_flat_ratios  # inner member labels -> ratio


def plane_analysis(config, tol):
    """The configuration's shared PlaneAnalysis, checked at the resolved
    tolerance ``tol``.

    Raises DegeneratePlane, naming the first such flat in
    ``decomposition.multi`` order, when the first two members of a multi
    flat have numerically proportional duals: its ``ratios`` entry is below
    ``tol``.  Raises it next, naming the first such covector, when a
    covector's canonical norm P_kk underflows to 0, which would pass its
    pair flats vacuously.
    """
    analysis = config.analysis
    degenerate = (analysis.ratios < tol).nonzero()[0]
    if len(degenerate):
        i, j = analysis.decomposition.multi[degenerate[0]][:2]
        raise DegeneratePlane(
            f"flat members {config.labels[i]}, {config.labels[j]} are proportional"
        )
    vanishing = (analysis.norms == 0).nonzero()[0]
    if len(vanishing):
        raise DegeneratePlane(f"covector {config.labels[vanishing[0]]} has canonical norm 0")
    return analysis


def check_vee(config, rtol=None):
    """Verify the plane-by-plane conditions; returns a VeeReport.

    Pair-flat residual: |<alpha, beta>| normalized by the canonical norms.
    Multi-flat residual: relative deviation of the plane form from
    nu * (restricted G), with nu the least-squares factor.
    """
    tol = resolve(rtol)
    analysis = plane_analysis(config, tol)
    decomp = analysis.decomposition
    nu_function = dict(zip(map(config.sublabels, decomp.multi), analysis.multi_nus.tolist()))
    return VeeReport(
        is_vee_system=bool(analysis.max_residual < tol),
        max_residual=analysis.max_residual,
        nu_function=nu_function,
        decomposition=decomp,
    )


def solve_weights(config):
    """Solve the admissibility system: per covector, the weights of the
    multi flats through it must sum to 1.

    A covector lying in no multi flat makes the system infeasible (its row
    reads 0 = 1).  When the solution space has positive dimension the
    minimum-norm solution is returned with status "underdetermined".

    The system depends on the matroid alone and is decided once per
    matroid, by the decomposition's ``weight_system``, with no plane check
    and no ``rtol``; this labels its weights and pairs them with the
    configuration's own nu for the universal value.
    """
    decomp = config.decomposition
    status, x, residual = decomp.weight_system
    if x is None:
        return WeightSolution(status, residual=residual)
    weights = dict(zip(map(config.sublabels, decomp.multi), x.tolist()))
    return WeightSolution(status, weights, float(x @ config.analysis.multi_nus), residual)


def check_harmonic(config, rtol=None):
    """Cross-ratio check on every 4-member flat.

    For each 4-flat, locate the orthogonal pair(s) and evaluate the
    cross-ratio with the orthogonal pair in the last two slots; the expected
    value is -1 (harmonic range).  One record per (flat, orthogonal pair).
    In a harmonic range one orthogonal pair forces the complementary pair to
    be orthogonal as well, so quads normally carry two orthogonal pairs
    ("two orthogonals"); the count is noted, the verdict only requires the
    cross-ratio.  Without a 4-flat there are no records.

    The cross-ratio is read off P divided by the products of the canonical
    norms ``analysis.norms``, one array division, in one loop over the
    4-flats.  With a and b the flat's first two members, alpha ->
    (P_alpha_a, P_alpha_b) maps the flat's plane linearly onto R^2,
    one-to-one once ``plane_analysis`` has passed the flat's ratio check,
    and a cross-ratio is invariant under linear maps: it is
    [13][24] / ([23][14]), where [xy] is the 2x2 minor of the coordinates
    of members x and y.  Where a minor in the denominator rounds to 0, the
    value is numpy's quotient, inf or nan, and not harmonic.
    """
    tol = resolve(rtol)
    analysis = plane_analysis(config, tol)
    quads = [members for members in analysis.decomposition.multi if len(members) == 4]
    if not quads:
        return []
    norms = analysis.norms
    scaled = (analysis.pairings / np.outer(norms, norms)).tolist()
    orthogonal, cut = orthogonal_pair_tol(tol), harmonic_tol(tol)
    records = []
    for quad in quads:
        labels = config.sublabels(quad)
        pairs = [(a, b) for a, b in itertools.combinations(quad, 2)
                 if abs(scaled[a][b]) < orthogonal]
        if not pairs:
            records.append(HarmonicRecord(labels, None, None, False, "NoOrthogonalPair"))
            continue
        note = "" if len(pairs) == 1 else f"{len(pairs)}OrthogonalPairs"
        for pair in pairs:
            (x1, y1), (x2, y2), (x3, y3), (x4, y4) = (
                (scaled[k][quad[0]], scaled[k][quad[1]])
                for k in [m for m in quad if m not in pair] + list(pair))
            num = (x1 * y3 - x3 * y1) * (x2 * y4 - x4 * y2)
            den = (x2 * y3 - x3 * y2) * (x1 * y4 - x4 * y1)
            value = num / den if den else np.divide(num, den).item()
            records.append(HarmonicRecord(labels, value, config.sublabels(pair),
                                          abs(value + 1.0) < cut, note))
    return records


def check_extension(inner, outer, embedding, rtol=None):
    """Check that ``inner`` embeds into ``outer`` covector-by-covector.

    ``embedding`` maps each inner covector index (0-based) to an outer
    index.  The embedding qualifies when every inner covector is
    proportional to its outer image.  When it does, the ratio
    nu_inner(flat) / nu_outer(corresponding outer flat) is computed for
    every inner multi flat.  ``nu_ratio`` is the common value over the
    inner flats whose outer flat lies entirely inside the embedded image
    (an inner flat carved out of a larger outer flat compares nu values
    of planes with different member sets, so it is reported in
    ``per_flat_ratios`` but excluded from the common value); None when
    the retained ratios disagree or none remain.
    """
    tol = resolve(rtol)
    emb = list(embedding)
    if len(emb) != inner.n:
        raise BadEmbedding(f"embedding has {len(emb)} entries for {inner.n} covectors")
    if len(set(emb)) != len(emb):
        raise BadEmbedding("embedding is not injective")
    if any(not (0 <= k < outer.n) for k in emb):
        raise BadEmbedding("embedding maps outside the outer configuration")

    if (max_minors(inner.unit, outer.unit[:, emb]) > embedding_tol(tol)).any():
        return ExtensionReport(False, None, {})

    in_plan, out_plan = plane_analysis(inner, tol), plane_analysis(outer, tol)
    in_dec, on_outer = in_plan.decomposition, out_plan.decomposition.incidence
    outside = np.ones(outer.n, dtype=bool)
    outside[emb] = False
    ratios = {}
    values = []
    for members, nu in zip(in_dec.multi, in_plan.multi_nus):
        labels = inner.sublabels(members)
        # the one outer flat through the images of the first two members
        m = np.argmax(on_outer[emb[members[0]]] & on_outer[emb[members[1]]])
        ratios[labels] = float(nu / out_plan.nus[m])
        if not on_outer[outside, m].any():
            values.append(ratios[labels])

    if values and (max(values) - min(values)) < common_ratio_tol(tol, abs(values[0])):
        common = float(np.mean(values))
    else:
        common = None
    return ExtensionReport(True, common, ratios)
