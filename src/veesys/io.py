"""Reading and writing configuration documents.

A configuration document is a JSON object:

    {
      "format": "veesys-config/1",
      "dimension": 3,
      "covectors": [["1", "0", "0"], ["0.5", "-0.5", "1"], ...],
      "labels": ["1", "2", ...],            # optional
      "parameters": {"t": "1.5"}            # optional, read and ignored
    }

Each covector is a column given as decimal strings.  Strings (rather than
JSON numbers) keep the round-trip bit-identical: values are written with
``repr(float)``, the shortest decimal that parses back to the same double.
A ``parameters`` field is read and ignored, and never written.
"""

from __future__ import annotations

import json

import numpy as np

from .core import CovectorConfiguration
from .errors import DocumentFormatError

FORMAT = "veesys-config/1"


def _fail(message):
    raise DocumentFormatError(message)


def parse_document(text):
    """Parse a JSON configuration document (text or UTF-8 bytes)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            _fail(f"not UTF-8 (byte {exc.start}): {exc.reason}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(f"not valid JSON (line {exc.lineno}, column {exc.colno}): {exc.msg}")
    except ValueError as exc:  # an integer literal past Python's digit limit
        _fail(f"not valid JSON: {exc}")
    if not isinstance(doc, dict):
        _fail("document must be a JSON object")
    if doc.get("format", FORMAT) != FORMAT:
        _fail(f"field 'format': expected {FORMAT!r}, got {doc['format']!r}")

    dimension = doc.get("dimension")
    # bool is an int subclass: JSON true would read as dimension 1
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        _fail("field 'dimension': a positive integer is required")

    columns = doc.get("covectors")
    if not isinstance(columns, list) or not columns:
        _fail("field 'covectors': a non-empty list of columns is required")
    matrix = np.empty((dimension, len(columns)))
    for j, col in enumerate(columns):
        if not isinstance(col, list) or len(col) != dimension:
            _fail(
                f"field 'covectors[{j}]': expected a list of {dimension} entries"
            )
        for i, value in enumerate(col):
            if not isinstance(value, (str, int, float)) or isinstance(value, bool):
                _fail(f"field 'covectors[{j}][{i}]': expected a decimal string")
            try:
                matrix[i, j] = float(value)
            except (ValueError, OverflowError):  # OverflowError: an int beyond double range
                _fail(f"field 'covectors[{j}][{i}]': cannot parse {value!r} as a double")
    nonfinite = np.argwhere(~np.isfinite(matrix.T))  # (j, i), column by column
    if len(nonfinite):
        j, i = nonfinite[0]
        _fail(f"field 'covectors[{j}][{i}]': {columns[j][i]!r} is not finite")

    labels = doc.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        _fail("field 'labels': expected a list of strings")

    try:
        return CovectorConfiguration(matrix, tuple(labels))
    except ValueError as exc:
        _fail(f"invalid configuration: {exc}")


def read_document(path):
    """The bytes of a document file; an unreadable path is a format error."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        _fail(f"cannot read {path}: {exc.strerror or exc}")


def load_document(path):
    """Load a configuration document from a file path."""
    return parse_document(read_document(path))


def format_document(config):
    """Serialize a configuration to document text (decimal-string columns)."""
    doc = {
        "format": FORMAT,
        "dimension": config.dimension,
        "covectors": [
            [repr(float(x)) for x in config.covector(j)]
            for j in range(config.n)
        ],
        "labels": list(config.labels),
    }
    return json.dumps(doc, indent=2) + "\n"


def save_document(config, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_document(config))
