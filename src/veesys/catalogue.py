"""Catalogue of the 17 known rank-3 systems with oracle data and relations.

All data lives in the shipped ``data/catalogue.json`` file; this module
loads it and constructs configurations at given parameters.  The checks of
entries and relations against the stored oracles live in
``veesys.oracles``; ``verify_entry``, ``verify_relation`` and
``CheckReport`` read here load that module on first access.

Matrices are stored row-wise as arithmetic expressions in the entry's
parameters and constants (evaluated by ``veesys.expressions``).  Each entry
also records its expected Gram matrix, the rank-2 flats and the nu-values
as independent oracles.  Known misprints in the published source tables are
corrected in the data; every correction carries a note.  Each JSON record
is passed by field name to its class (CatalogueEntry, RelationEntry,
AuxiliaryEntry), whose keyword-only constructor declares each field's
default and conversion, so a missing or unknown field fails the load with
CatalogueDataError.

The file keeps one matrix row, Gram row, flat record, grid point or
relation path per line, so that a change reads line by line.  Its
``"checksum"`` line holds the SHA-256 of the file with that line left out.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from functools import lru_cache, partial
from importlib import resources

import numpy as np

from . import digests
from .core import CovectorConfiguration
from .errors import InadmissibleParameters, InvalidConfiguration, UnknownEntry, VeesysError
from .expressions import evaluate

# the one line the checksum leaves out; it must hold nothing but the checksum
CHECKSUM_LINE = re.compile(r'"checksum": "[^"]*",?')


class CatalogueDataError(VeesysError):
    pass


def _labels(labels):
    return tuple(map(str, labels))


class CatalogueEntry:
    """One family, built from its JSON record by field name."""

    def __init__(self, *, id, matrix, gram, flats, name=None, parameters=(),
                 admissible="True", default_grid=({},), constants=None, notes=()):
        self.id = id
        self.name = name or id
        self.parameters = tuple(parameters)
        self.admissible = admissible  # boolean expression in the parameters
        self.default_grid = tuple(default_grid)  # parameter dicts
        self.constants = {} if constants is None else constants  # name -> expression
        self.matrix = tuple(map(tuple, matrix))  # r rows of n expression strings
        self.gram = tuple(map(tuple, gram))  # r rows of r expression strings
        # records {"members": label strings, "nu": expr, when multi}, their
        # labels converted once, so the nu dicts of ``nu_by_members`` share them
        self.flats = tuple({**f, "members": _labels(f["members"])} for f in flats)
        self.notes = tuple(notes)

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
    return {f["members"]: evaluate(f["nu"], names)
            for f in flats if f.get("nu") is not None}


class RelationEntry:
    """One extension or degeneration row, built from its JSON record by field
    name."""

    def __init__(self, *, kind, description, source, target, covectors, source_params=None,
                 target_params=None, printed_covectors=None, path=None, scale="1",
                 exact_limit=False, flagged=False, note="", nu_ratio=None):
        self.kind = kind  # "extension" | "degeneration"
        self.description = description
        self.source = source
        self.source_params = {} if source_params is None else source_params
        self.target = target
        self.target_params = {} if target_params is None else target_params
        self.covectors = _labels(covectors)  # added (extension) or vanishing (degeneration)
        # as published; the covectors when absent
        self.printed_covectors = (self.covectors if printed_covectors is None
                                  else _labels(printed_covectors))
        self.path = path  # degenerations: parameter -> expression in eps, or a number
        self.scale = scale  # overall factor applied along the path
        self.exact_limit = exact_limit
        self.flagged = flagged
        self.note = note
        self.nu_ratio = nu_ratio  # expected common nu-ratio, when published


class AuxiliaryEntry:
    """A reference configuration that is not a catalogue family."""

    def __init__(self, *, id, matrix, note=""):
        self.id = id
        self.matrix = matrix  # r rows of n numbers
        self.note = note


# the loaded data: entries and auxiliary records by id, in file order, the
# relation rows, and the verified SHA-256 of the data
_Catalogue = namedtuple("_Catalogue", "entries auxiliary relations checksum")


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


def _source_at(rel, eps):
    params = {k: evaluate(v, {"eps": eps}) for k, v in rel.path.items()}
    ent = entry(rel.source)
    return evaluate(rel.scale, {"eps": eps}) * ent.matrix_at(params, check=False)


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


def __getattr__(name):
    if name in ("CheckReport", "verify_entry", "verify_relation"):
        from . import oracles

        return getattr(oracles, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
