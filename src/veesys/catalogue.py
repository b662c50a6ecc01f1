"""Catalogue of the 17 known rank-3 systems with oracle data and relations.

All data lives in the shipped ``data/catalogue.json`` file; this module
loads it, constructs configurations at given parameters, and verifies
entries and relations against the stored oracles.

Matrices are stored row-wise as arithmetic expressions in the entry's
parameters and constants (evaluated by ``veesys.expressions``).  Each entry
also records its expected Gram matrix, the rank-2 flats and the nu-values
as independent oracles.  Known misprints in the published source tables are
corrected in the data; every correction carries a note.  Each JSON record
becomes its dataclass (CatalogueEntry, RelationEntry, AuxiliaryEntry) by
field name; the dataclass declares each field's default and conversion, and
a missing or unknown field fails the load with CatalogueDataError.

The file keeps one matrix row, Gram row, flat record, grid point or
relation path per line, so that a change reads line by line.  Its
``"checksum"`` line holds the SHA-256 of the file with that line left out.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache, partial
from importlib import resources

import numpy as np

from . import digests, matroid
from .core import CovectorConfiguration
from .errors import InadmissibleParameters, InvalidConfiguration, UnknownEntry, VeesysError
from .expressions import evaluate
from .tolerances import (DEGENERATION_OFFSETS, LIMIT_NU_TOL, LIMIT_VANISH_RTOL,
                         MIN_VANISHING_EXPONENT, ORACLE_RTOL, SURVIVOR_RESIDUAL_CAP,
                         SURVIVOR_RESIDUAL_DECAY, SURVIVOR_RESIDUAL_FLOOR, resolve)
from .verify import check_extension, check_vee

# the one line the checksum leaves out; it must hold nothing but the checksum
CHECKSUM_LINE = re.compile(r'"checksum": "[^"]*",?')


class CatalogueDataError(VeesysError):
    pass


def _set(record, **values):
    """Store converted field values on a frozen record."""
    for name, value in values.items():
        object.__setattr__(record, name, value)


def _labels(labels):
    return tuple(map(str, labels))


@dataclass(frozen=True, kw_only=True)
class CatalogueEntry:
    """One family, built from its JSON record by field name.  Flat records
    keep their JSON member labels; readers convert them."""

    id: str
    name: str = None  # the id when absent
    parameters: tuple = ()
    admissible: str = "True"  # boolean expression in the parameters
    default_grid: tuple = ({},)  # parameter dicts
    constants: dict = field(default_factory=dict)  # name -> expression (may use parameters)
    matrix: tuple  # r rows of n expression strings
    gram: tuple  # r rows of r expression strings
    flats: tuple  # records {"members": [labels], "nu": expression, when a multi flat}
    notes: tuple = ()

    def __post_init__(self):
        _set(self, name=self.name or self.id, parameters=tuple(self.parameters),
             default_grid=tuple(self.default_grid), matrix=tuple(map(tuple, self.matrix)),
             gram=tuple(map(tuple, self.gram)), flats=tuple(self.flats),
             notes=tuple(self.notes))

    @property
    def n(self):
        return len(self.matrix[0])

    def names(self, params):
        values = dict(params)
        for key, expr in self.constants.items():
            values[key] = evaluate(expr, values)
        return values

    def check_admissible(self, params):
        for kind, names in (("missing", [p for p in self.parameters if p not in params]),
                            ("unknown", [p for p in params if p not in self.parameters])):
            if names:
                raise InadmissibleParameters(self.id, f"{kind} parameters {names}", params)
        if not evaluate(self.admissible, dict(params)):
            raise InadmissibleParameters(self.id, self.admissible, params)

    def matrix_at(self, params, check=True):
        if check:
            self.check_admissible(params)
        return _evaluated(self.matrix, self.names(params))

    def nu_by_members(self, params):
        return _nus(self.flats, self.names(params))


def _evaluated(rows, names):
    return np.array([[evaluate(e, names) for e in row] for row in rows])


def _nus(flats, names):
    """The oracle nu of each multi flat, keyed by its labels in print order."""
    return {_labels(f["members"]): evaluate(f["nu"], names)
            for f in flats if f.get("nu") is not None}


@dataclass(frozen=True, kw_only=True)
class RelationEntry:
    kind: str  # "extension" | "degeneration"
    description: str
    source: str
    source_params: dict = field(default_factory=dict)
    target: str
    target_params: dict = field(default_factory=dict)
    covectors: tuple  # added (extension) or vanishing (degeneration) labels
    printed_covectors: tuple = None  # as published; the covectors when absent
    path: dict = None  # degenerations: parameter -> expression in eps, or a number
    scale: str = "1"  # overall factor applied along the path
    exact_limit: bool = False
    flagged: bool = False
    note: str = ""
    nu_ratio: float = None  # expected common nu-ratio, when published

    def __post_init__(self):
        covectors = _labels(self.covectors)
        printed = self.printed_covectors
        _set(self, covectors=covectors,
             printed_covectors=covectors if printed is None else _labels(printed))


@dataclass(frozen=True, kw_only=True)
class AuxiliaryEntry:
    """A reference configuration that is not a catalogue family."""

    id: str
    matrix: tuple  # r rows of n numbers
    note: str = ""


# the loaded data: entries and auxiliary records by id, in file order, the
# relation rows, and the verified SHA-256 of the data
_Catalogue = namedtuple("_Catalogue", "entries auxiliary relations checksum")


@dataclass
class CheckReport:
    subject: str
    failures: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        """The verdict: the check passed when it recorded no failure."""
        return not self.failures


def _data_text():
    return (
        resources.files("veesys").joinpath("data/catalogue.json").read_text("utf-8")
    )


def data_checksum(text=None):
    """SHA-256 of the catalogue data with its own checksum line left out."""
    text = text if text is not None else _data_text()
    body = "\n".join(
        line for line in text.splitlines()
        if not CHECKSUM_LINE.fullmatch(line.strip())
    )
    return digests.sha256(body.encode("utf-8")).hexdigest()


def _records(cls, data, section):
    """The records of one section of the data, each built by field name."""
    records = []
    for index, raw in enumerate(data.get(section, ())):
        try:
            records.append(cls(**raw))
        except TypeError as exc:  # a missing or unknown field, or not an object
            raise CatalogueDataError(f"catalogue record {section}[{index}]: {exc}") from None
    return records


@lru_cache(maxsize=1)
def _load():
    text = _data_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogueDataError(
            f"catalogue data is not valid JSON (line {exc.lineno}, "
            f"column {exc.colno}): {exc.msg}"
        ) from None
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt != "veesys-catalogue/1":
        raise CatalogueDataError(f"unsupported data format {fmt!r}")
    recorded = data.get("checksum")
    actual = data_checksum(text)
    if recorded != actual:
        raise CatalogueDataError(
            f"catalogue data checksum mismatch: recorded {recorded}, actual {actual}"
        )
    return _Catalogue(
        entries={e.id: e for e in _records(CatalogueEntry, data, "entries")},
        auxiliary={a.id: a for a in _records(AuxiliaryEntry, data, "auxiliary")},
        relations=_records(RelationEntry, data, "relations"),
        checksum=actual,
    )


def checksum():
    """SHA-256 of the catalogue data, the digest verified when it was loaded."""
    return _load().checksum


def ids():
    return list(_load().entries)


def entry(entry_id):
    entries = _load().entries
    if entry_id not in entries:
        raise UnknownEntry(f"unknown catalogue id {entry_id!r}; known: {sorted(entries)}")
    return entries[entry_id]


def relations(kind=None):
    return [r for r in _load().relations if kind is None or r.kind == kind]


def auxiliary_configuration(aux_id):
    aux = _load().auxiliary
    if aux_id not in aux:
        raise UnknownEntry(f"unknown auxiliary configuration {aux_id!r}")
    return CovectorConfiguration(aux[aux_id].matrix)


def construct(entry_id, params=None):
    """Build the configuration of a catalogue entry at given parameters.

    Parameters outside the family's predicate raise InadmissibleParameters;
    admissible ones whose values give no valid configuration (a zero,
    proportional or non-spanning covector, or an expression that overflows)
    raise InvalidConfiguration.
    """
    ent = entry(entry_id)
    params = dict(params or {})
    try:
        return CovectorConfiguration(ent.matrix_at(params))
    except ValueError as exc:
        raise InvalidConfiguration(
            f"{entry_id}: parameters {params} give no valid configuration: {exc}") from None


def verify_entry(entry_id, params=None, rtol=None):
    """Verify one entry against its stored oracle data.

    Checks, in this order: the configuration constructs; its Gram matrix
    matches the stored one (relative ORACLE_RTOL on the largest entry); the
    plane conditions pass at ``rtol``; the flat lists match exactly as label
    sets; the nu-values (trace formula) match the stored formulas (relative
    ORACLE_RTOL).  An error from construction or from the plane check (a
    singular form, a degenerate plane) is a failed row, not raised.
    """
    ent = entry(entry_id)
    params = dict(params or {})
    report = CheckReport(subject=f"{entry_id} {params}" if params else entry_id)
    report.notes.extend(ent.notes)
    try:
        config = construct(entry_id, params)
    except (VeesysError, ValueError) as exc:
        report.failures.append(f"construction failed: {exc}")
        return report

    names = ent.names(params)  # the oracles share one evaluation of the constants
    try:
        vee = check_vee(config, rtol=rtol)
    except VeesysError as exc:
        report.failures.append(f"plane check failed: {exc}")
        return report
    expected_gram = _evaluated(ent.gram, names)
    scale = np.abs(expected_gram).max()
    gram_err = np.abs(vee.form.gram - expected_gram).max() / scale
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
    oracle_flats = {frozenset(_labels(f["members"])) for f in ent.flats}
    if computed_flats != oracle_flats:
        missing = [sorted(s, key=int) for s in oracle_flats - computed_flats]
        extra = [sorted(s, key=int) for s in computed_flats - oracle_flats]
        report.failures.append(f"flat lists differ: missing {missing}, extra {extra}")

    for members, expected in _nus(ent.flats, names).items():
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
    report = CheckReport(subject=rel.description)
    if rel.note:
        report.notes.append(rel.note)
    outer = construct(rel.target, rel.target_params)
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

    reference = construct(rel.source, rel.source_params)
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


def _source_at(rel, eps):
    params = {k: evaluate(v, {"eps": eps}) for k, v in rel.path.items()}
    ent = entry(rel.source)
    return evaluate(rel.scale, {"eps": eps}) * ent.matrix_at(params, check=False)


def _verify_degeneration(rel, rtol):
    report = CheckReport(subject=rel.description)
    if rel.note:
        report.notes.append(rel.note)
    if rel.printed_covectors != rel.covectors:
        report.notes.append(
            f"published vanishing set {sorted(rel.printed_covectors, key=int)} "
            f"corrected to {sorted(rel.covectors, key=int)}"
        )
    ent = entry(rel.source)
    labels = tuple(str(i + 1) for i in range(ent.n))
    vanish_idx = [labels.index(c) for c in rel.covectors]
    survive_idx = [i for i in range(ent.n) if labels[i] not in rel.covectors]
    target = construct(rel.target, rel.target_params)
    target_nus = sorted(check_vee(target, rtol=rtol).nu_function.values())

    def survivors_at(eps):
        """The source matrix at eps, the check_vee report of its surviving
        covectors, whether same_matroid does not rule out the target's
        matroid for them (its verdict is recorded), and their sorted
        nu-values."""
        A = _source_at(rel, eps)
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
        if len(nus) != len(target_nus) or any(
            abs(a - b) > ORACLE_RTOL for a, b in zip(nus, target_nus)
        ):
            report.failures.append(
                f"limit nu-values {nus} differ from target {target_nus}"
            )
    return report


def verify_relation(rel, rtol=None):
    """Verify one extension/degeneration relation; returns a CheckReport."""
    tol = resolve(rtol)
    if rel.kind == "extension":
        return _verify_extension(rel, tol)
    if rel.kind == "degeneration":
        return _verify_degeneration(rel, tol)
    raise ValueError(f"unknown relation kind {rel.kind!r}")


# Shipped reconstruction scripts: script name -> (reference configuration
# builder, basis labels).
SCRIPT_REFERENCES = {
    "a3": (partial(construct, "A3", {"c1": 1, "c2": 1, "c3": 1}), ("1", "2", "5", "6")),
    "b3": (partial(auxiliary_configuration, "B3-roots"), ("1", "2", "3", "4")),
    "h3": (partial(construct, "H3"), ("4", "5", "6", "7")),
    "h4a1": (partial(construct, "H4A1"), ("6", "25", "27", "30")),
}


def script_reference(name):
    """The reference configuration and basis labels for a shipped script."""
    build, basis = SCRIPT_REFERENCES[name]
    return build(), basis


def script_path(name):
    return resources.files("veesys").joinpath(f"data/scripts/{name}.script")
