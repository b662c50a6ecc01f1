import json

import numpy as np
import pytest

from veesys import catalogue, io, parse_document
from veesys.errors import DocumentFormatError


def test_round_trip_bit_identical(tmp_path):
    config = catalogue.construct("G3", {"t": 1.7})
    path = tmp_path / "g3.json"
    io.save_document(config, path)
    loaded = io.load_document(path)
    assert loaded.labels == config.labels
    # bit-identical, not merely close
    assert (loaded.matrix == config.matrix).all()


def test_round_trip_awkward_floats(tmp_path):
    matrix = np.array(
        [[0.1, 1e-8, 2.0], [3.0, 0.2 + 0.1, 1 / 3], [123456.789, 1.0, -0.0001]]
    )
    config = parse_document(io.format_document(
        __import__("veesys").CovectorConfiguration(matrix)
    ))
    assert (config.matrix == matrix).all()


def test_document_fields():
    doc = json.loads(io.format_document(catalogue.construct("H3", {})))
    assert doc["format"] == io.FORMAT
    assert doc["dimension"] == 3
    assert len(doc["covectors"]) == 15
    assert all(isinstance(x, str) for col in doc["covectors"] for x in col)
    assert "parameters" not in doc


def test_parameters_field_is_read_and_ignored():
    text = '{"dimension": 1, "covectors": [["2"]], "labels": ["a"]}'
    with_parameters = text[:-1] + ', "parameters": {"t": "1.5"}}'
    plain, extra = parse_document(text), parse_document(with_parameters)
    assert extra.labels == plain.labels == ("a",)
    assert (extra.matrix == plain.matrix).all()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{", "not valid JSON"),
        ("[]", "JSON object"),
        ('{"format": "other/1"}', "format"),
        ('{"dimension": "three"}', "dimension"),
        ('{"dimension": true, "covectors": [["1"]]}', "field 'dimension'"),
        ('{"dimension": 3, "covectors": []}', "covectors"),
        ('{"dimension": 3, "covectors": [["1", "0"]]}', "covectors[0]"),
        (
            '{"dimension": 2, "covectors": [["1", "x"], ["0", "1"]]}',
            "covectors[0][1]",
        ),
        (
            '{"dimension": 2, "covectors": [["1", "0"], [true, "1"]]}',
            "field 'covectors[1][0]': expected a decimal string",
        ),
        (
            '{"dimension": 2, "covectors": [["1", "0"], ["0", "1"]], "labels": [1, 2]}',
            "labels",
        ),
        (
            '{"dimension": 2, "covectors": [["1", "0"], ["2", "0"]]}',
            "invalid configuration",
        ),
        *(
            (
                f'{{"dimension": 2, "covectors": [["1", "0"], ["0", "{value}"]]}}',
                f"field 'covectors[1][1]': '{value}' is not finite",
            )
            for value in ("nan", "inf", "-inf")
        ),
        pytest.param(
            '{"dimension": 1, "covectors": [["1"], [%s]]}' % ("9" * 400),
            "field 'covectors[1][0]': cannot parse",
            id="integer-beyond-double",
        ),
        pytest.param(
            '{"dimension": 1, "covectors": [[1%s]]}' % ("0" * 5000),
            "not valid JSON",
            id="integer-beyond-digit-limit",
        ),
        *(
            pytest.param(
                '{"dimension": 1, "covectors": [["1"]], "labels": %s}' % value,
                "field 'labels': expected a list of strings",
                id=f"labels-{value}",
            )
            for value in ("0", "false", '""', "{}", "null")
        ),
    ],
)
def test_parse_diagnostics(text, fragment):
    with pytest.raises(DocumentFormatError) as info:
        parse_document(text)
    assert fragment in str(info.value)


def test_load_missing_file():
    with pytest.raises(DocumentFormatError, match="cannot read"):
        io.load_document("/nonexistent/nowhere.json")


def test_non_utf8_document_is_format_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(DocumentFormatError, match=r"not UTF-8 \(byte 0\)"):
        io.load_document(path)
    with pytest.raises(DocumentFormatError, match="not UTF-8"):
        parse_document(b'{"dimension": 1, "covectors": [["\xe9"]]}')


def test_bytes_and_text_documents_parse_alike(tmp_path):
    config = catalogue.construct("H3", {})
    path = tmp_path / "h3.json"
    io.save_document(config, path)
    data = io.read_document(path)
    assert data == path.read_bytes()
    from_bytes, from_text = parse_document(data), parse_document(data.decode())
    assert (from_bytes.matrix == config.matrix).all()
    assert (from_text.matrix == config.matrix).all()
    assert from_bytes.labels == from_text.labels == config.labels
