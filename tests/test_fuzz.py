"""The input contract, fuzzed: every configuration command ends any document
in a report or a named error.

Exit 0 is a pass, exit 1 comes with its verdict line, and exit 2 with one
``error: ...`` message on stderr; no document ends in a traceback or writes
to stderr otherwise.  Documents have dimension 1-4 and at most 13 columns of
Gaussian, integer or extreme-exponent decimal strings, one column possibly
proportional to another.  A numpy warning fails the test, as the test
configuration makes every RuntimeWarning an error.
"""

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veesys.cli import main

COMMANDS = ("verify", "matroid", "nu", "weights", "harmonic", "deform")

# the line each command prints with exit 1; matroid and deform never exit 1
VERDICTS = {"verify": "isVeeSystem: False", "nu": "isVeeSystem: False",
            "weights": "status: infeasible", "harmonic": "allHarmonic: False"}


def _entries(kind, rng, shape):
    if kind == "gaussian":
        return [[repr(x) for x in column] for column in rng.standard_normal(shape).tolist()]
    if kind == "integer":
        return [[str(x) for x in column] for column in rng.integers(-3, 4, shape).tolist()]
    # a Gaussian mantissa times 10 ** (g + e), g one exponent for the document
    # and e one per column: entries reach 1e+-300, and in half the documents
    # columns differ by up to 1e+-160
    spread = 160 * int(rng.integers(2))
    exponents = rng.integers(-300, 301) + rng.integers(-spread, spread + 1, shape[0])
    return [[f"{m:.6f}e{e}" for m in column]
            for column, e in zip(rng.standard_normal(shape).tolist(), exponents.tolist())]


@st.composite
def documents(draw):
    kind = draw(st.sampled_from(("gaussian", "integer", "extreme")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # drawn by the seed, not by hypothesis, which favours the smallest values
    dimension = int(rng.integers(1, 5))
    n = int(rng.integers(dimension - 1, 14))  # from one column too few
    columns = _entries(kind, rng, (n, dimension))
    if n > 1 and draw(st.integers(0, 3)) == 0:  # column j a multiple of column i
        i, j = rng.choice(n, 2, replace=False).tolist()
        factor = draw(st.sampled_from((-2.0, 0.5, 3.0)))
        columns[j] = [repr(factor * float(x)) for x in columns[i]]
    return json.dumps({"dimension": dimension, "covectors": columns})


def _run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()
    pytest.fail(f"main returned without an exit: {argv}")


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "document.json"


@settings(max_examples=100, derandomize=True, deadline=None)
@given(text=documents())
def test_every_document_ends_in_a_report_or_a_named_error(document_path, text):
    document_path.write_text(text)
    for command in COMMANDS:
        code, out, err = _run([command, str(document_path)])
        where = (command, text, code, out, err)
        assert code in (0, 1, 2), where
        assert "Traceback" not in out + err, where
        if code == 1:
            assert VERDICTS[command] in out.splitlines(), where
        if code == 2:
            assert err.startswith("error: ") and not out, where
        else:
            assert not err, where
