"""Verification of catalogue entries and relations against their stored
oracle data.

``verify_entry`` checks one family at given parameters and
``verify_relation`` one extension or degeneration row; ``veesys catalogue
verify-all`` runs both over the shipped data.  The catalogue module forwards
both names and ``CheckReport`` here, so only the callers of the checks load
this module.  The checks read the catalogue's ``construct``, ``entry`` and
oracle evaluations through that module, so a replacement there reaches them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import catalogue, matroid
from .core import CovectorConfiguration
from .errors import VeesysError
from .tolerances import (DEGENERATION_OFFSETS, LIMIT_NU_TOL, LIMIT_VANISH_RTOL,
                         MIN_VANISHING_EXPONENT, ORACLE_RTOL, SURVIVOR_RESIDUAL_CAP,
                         SURVIVOR_RESIDUAL_DECAY, SURVIVOR_RESIDUAL_FLOOR, resolve)
from .verify import check_extension, check_vee


class CheckReport:
    """The failures and details one check recorded."""

    def __init__(self):
        self.failures = []
        self.details = {}

    @property
    def passed(self):
        """The verdict: the check passed when it recorded no failure."""
        return not self.failures


def verify_entry(entry_id, params=None, rtol=None):
    """Verify one entry against its stored oracle data.

    Checks, in this order: the configuration constructs; its Gram matrix
    G = A A^T, which only this check forms, matches the stored one
    (relative ORACLE_RTOL on the largest entry); the plane conditions pass
    at ``rtol``; the flat lists match exactly as label sets; the nu-values
    (trace formula) match the stored formulas (relative ORACLE_RTOL).  An
    error from construction (covectors that do not span, say) or from the
    plane check (a degenerate plane) is a failed row, not raised.
    """
    ent = catalogue.entry(entry_id)
    params = dict(params or {})
    report = CheckReport()
    try:
        config = catalogue.construct(entry_id, params)
    except (VeesysError, ValueError) as exc:
        report.failures.append(f"construction failed: {exc}")
        return report

    names = ent.names(params)  # the oracles share one evaluation of the constants
    try:
        vee = check_vee(config, rtol=rtol)
    except VeesysError as exc:
        report.failures.append(f"plane check failed: {exc}")
        return report
    expected_gram = catalogue._evaluated(ent.gram, names)
    scale = np.abs(expected_gram).max()
    gram_err = np.abs(config.matrix @ config.matrix.T - expected_gram).max() / scale
    report.details["gramError"] = float(gram_err)
    if gram_err > ORACLE_RTOL:
        report.failures.append(f"gram mismatch, relative error {gram_err:.3e}")

    report.details["maxResidual"] = vee.max_residual
    if not vee.is_vee_system:
        report.failures.append(
            f"plane conditions fail, max residual {vee.max_residual:.3e}"
        )

    decomp = vee.decomposition
    computed_flats = {
        frozenset(config.sublabels(members))
        for members in itertools.chain(decomp.pair_members.tolist(), decomp.multi)
    }
    oracle_flats = {frozenset(f["members"]) for f in ent.flats}
    if computed_flats != oracle_flats:
        missing = [sorted(s, key=int) for s in oracle_flats - computed_flats]
        extra = [sorted(s, key=int) for s in computed_flats - oracle_flats]
        report.failures.append(f"flat lists differ: missing {missing}, extra {extra}")

    for members, expected in catalogue._nus(ent.flats, names).items():
        got = vee.nu_function.get(tuple(sorted(members, key=int)))
        # nu_function keys are sorted member tuples; oracle keys keep print order
        if got is None:
            continue  # flat mismatch already reported
        if abs(got - expected) > ORACLE_RTOL * max(1.0, abs(expected)):
            report.failures.append(
                f"nu mismatch on flat {members}: computed {got!r}, oracle {expected!r}"
            )
    report.details["nuValues"] = {
        "/".join(k): v for k, v in sorted(vee.nu_function.items())
    }
    return report


def _verify_extension(rel, rtol):
    report = CheckReport()
    outer = catalogue.construct(rel.target, rel.target_params)
    added = set(rel.covectors)
    unknown = added - set(outer.labels)
    if unknown:
        report.failures.append(f"added labels {sorted(unknown)} not in {rel.target}")
        return report
    inner_indices = [i for i, lab in enumerate(outer.labels) if lab not in added]
    inner = outer.take(inner_indices)

    ext = check_extension(inner, outer, inner_indices, rtol=rtol)
    report.details["nuRatio"] = ext.nu_ratio
    report.details["perFlatRatios"] = {
        "/".join(k): v for k, v in sorted(ext.per_flat_ratios.items())
    }
    if not ext.is_extension:
        report.failures.append("inner covectors not proportional to outer images")
    if ext.nu_ratio is None:
        report.failures.append(
            f"nu-ratios not common: {sorted(set(round(v, 6) for v in ext.per_flat_ratios.values()))}"
        )
    elif rel.nu_ratio is not None and abs(ext.nu_ratio - rel.nu_ratio) > ORACLE_RTOL * rel.nu_ratio:
        report.failures.append(
            f"nu-ratio {ext.nu_ratio!r} differs from published {rel.nu_ratio!r}"
        )

    reference = catalogue.construct(rel.source, rel.source_params)
    if reference.n != inner.n:
        report.failures.append(
            f"sub-configuration has {inner.n} covectors, {rel.source} has {reference.n}"
        )
    else:
        verdict = matroid.same_matroid(inner.decomposition, reference.decomposition)
        report.details["matroidVerdict"] = verdict
        if verdict == matroid.NO:
            report.failures.append(
                f"sub-configuration matroid differs from {rel.source}"
            )
    inner_vee = check_vee(inner, rtol=rtol)
    if not inner_vee.is_vee_system:
        report.failures.append(
            f"sub-configuration fails plane conditions ({inner_vee.max_residual:.3e})"
        )
    return report


def _verify_degeneration(rel, rtol):
    report = CheckReport()
    ent = catalogue.entry(rel.source)
    labels = tuple(str(i + 1) for i in range(ent.n))
    vanish_idx = [labels.index(c) for c in rel.covectors]
    survive_idx = [i for i in range(ent.n) if labels[i] not in rel.covectors]
    target = catalogue.construct(rel.target, rel.target_params)
    target_nus = sorted(check_vee(target, rtol=rtol).nu_function.values())

    def survivors_at(eps):
        """The source matrix at eps, the check_vee report of its surviving
        covectors, whether same_matroid does not rule out the target's
        matroid for them (its verdict is recorded), and their sorted
        nu-values."""
        A = catalogue._source_at(rel, eps)
        survivors = CovectorConfiguration(A[:, survive_idx],
                                          tuple(labels[i] for i in survive_idx))
        vee = check_vee(survivors, rtol=rtol)
        verdict = matroid.same_matroid(survivors.decomposition, target.decomposition)
        report.details["matroidVerdict"] = verdict
        return A, vee, verdict != matroid.NO, sorted(vee.nu_function.values())

    # finite-offset checks: vanishing-norm decay and survivor residual decay
    decay_norms = []
    residuals = []
    nu_errors = []
    large, small = DEGENERATION_OFFSETS
    for eps in (large, small):
        A, vee, same, nus = survivors_at(eps)
        norms = np.linalg.norm(A, axis=0)
        decay_norms.append((norms / norms.max())[vanish_idx].max())
        residuals.append(vee.max_residual)
        if not same:
            report.failures.append(
                f"survivor matroid at eps={eps} differs from {rel.target}"
            )
        if len(nus) == len(target_nus):
            nu_errors.append(max(abs(a - b) for a, b in zip(nus, target_nus)))
        else:
            report.failures.append("survivor flat structure differs from target")

    ratio = math.log(decay_norms[0] / decay_norms[1]) / math.log(large / small)
    report.details["vanishingNormExponent"] = ratio
    report.details["survivorResiduals"] = residuals
    report.details["nuErrors"] = nu_errors
    if ratio < MIN_VANISHING_EXPONENT:
        report.failures.append(f"vanishing norms decay too slowly (exponent {ratio:.3f})")
    if residuals[1] > SURVIVOR_RESIDUAL_CAP or not (
        residuals[1] < SURVIVOR_RESIDUAL_FLOOR
        or residuals[1] < residuals[0] / SURVIVOR_RESIDUAL_DECAY
    ):
        report.failures.append(
            f"survivor residuals do not vanish in the limit: {residuals}"
        )
    if nu_errors and nu_errors[-1] > LIMIT_NU_TOL and not rel.exact_limit:
        report.failures.append(f"nu-values do not approach target: {nu_errors}")

    # exact limit, when the path reaches it inside the parameter domain
    if rel.exact_limit:
        A, vee, same, nus = survivors_at(0.0)
        vanished = np.linalg.norm(A[:, vanish_idx], axis=0).max()
        if vanished > LIMIT_VANISH_RTOL * np.linalg.norm(A):
            report.failures.append(
                f"covectors {rel.covectors} do not vanish at the limit"
            )
        report.details["limitResidual"] = vee.max_residual
        if not vee.is_vee_system:
            report.failures.append(
                f"limit configuration fails plane conditions ({vee.max_residual:.3e})"
            )
        if not same:
            report.failures.append(f"limit matroid differs from {rel.target}")
        error = max((abs(a - b) for a, b in zip(nus, target_nus)), default=0.0)
        report.details["limitNuError"] = error
        if len(nus) != len(target_nus) or error > ORACLE_RTOL:
            report.failures.append(
                f"limit nu-values {nus} differ from target {target_nus}"
            )
    return report


def verify_relation(rel, rtol=None):
    """Verify one extension/degeneration relation; returns a CheckReport.

    An error the check raises (a degenerate plane at a large ``rtol``, say)
    is a failed row carrying its message, not raised; an unknown relation
    kind raises ValueError.
    """
    checks = {"extension": _verify_extension, "degeneration": _verify_degeneration}
    if rel.kind not in checks:
        raise ValueError(f"unknown relation kind {rel.kind!r}")
    try:
        return checks[rel.kind](rel, resolve(rtol))
    except VeesysError as exc:
        report = CheckReport()
        report.failures.append(f"check failed: {exc}")
        return report
