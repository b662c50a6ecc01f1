"""The compiled catalogue formulas against the tree-walking reference
evaluator in ``expression_reference``: values bit for bit, errors text for
text."""

import numpy as np
import pytest

import expression_reference as reference
from veesys import catalogue, expressions
from veesys.expressions import ExpressionError, evaluate
from veesys.tolerances import DEGENERATION_OFFSETS

# the unsafe forms of test_catalogue.TestExpressions.test_rejects_unsafe_syntax
UNSAFE = ("__import__('os')", "().__class__", "[1,2]", "'text'", "exp(1)",
          "sqrt(x=2)", "lambda: 1")


def _outcome(evaluator, text, names):
    """The value's type and bits (float.hex tells -0.0 from 0.0), or the
    error's text."""
    try:
        value = evaluator(text, names)
    except ExpressionError as exc:
        return "error", str(exc)
    return type(value).__name__, value.hex() if isinstance(value, float) else repr(value)


def _entry_formulas(ent, params):
    """(text, names) of every formula of an entry at ``params``: the
    admissible predicate, the constants in order, the matrix, the Gram
    matrix and the nu of each multi flat; the names come from the reference."""
    yield ent.admissible, dict(params)
    names = dict(params)
    for key, text in ent.constants.items():
        yield text, dict(names)
        try:
            names[key] = reference.evaluate(text, names)
        except ExpressionError:
            return  # the formulas after it need the constant
    for row in (*ent.matrix, *ent.gram):
        for text in row:
            yield text, names
    for flat in ent.flats:
        if flat.get("nu") is not None:
            yield flat["nu"], names


def _relation_formulas(rng):
    """(text, names) of every degeneration path and scale at the two
    offsets, at the limit and at two jittered offsets."""
    offsets = (*DEGENERATION_OFFSETS, 0.0,
               *(eps * (1 + 0.1 * rng.standard_normal()) for eps in DEGENERATION_OFFSETS))
    for rel in catalogue.relations("degeneration"):
        for eps in offsets:
            for text in (*rel.path.values(), rel.scale):
                yield text, {"eps": eps}


def test_catalogue_formulas_match_the_reference_bitwise():
    rng = np.random.default_rng(18)
    grid = [(ident, params) for ident in catalogue.ids()
            for params in catalogue.entry(ident).default_grid]
    assert len(grid) == 37
    jittered = [(ident, {k: v * (1 + 0.1 * rng.standard_normal()) for k, v in params.items()})
                for ident, params in grid for _ in range(3)]
    cases = [(ident, text, names) for ident, params in grid + jittered
             for text, names in _entry_formulas(catalogue.entry(ident), params)]
    cases += [("relations", text, names) for text, names in _relation_formulas(rng)]
    assert len(cases) > 8_000
    for ident, text, names in cases:
        assert _outcome(evaluate, text, names) == _outcome(reference.evaluate, text, names), (
            ident, text, names)


@pytest.mark.parametrize("text, names", [
    ("t + u", {"t": 1}),
    *((bad, None) for bad in UNSAFE),
    ("t**2", {"t": 1e155}),
    ("1/t", {"t": 0.0}),
    ("sqrt(-1)", None),
    ("1 +", None),
    ("not 1", None),
    ("1 // 2", None),
    ("1 in 2", None),
    ("sqrt", None),
    ("bool(1)", None),
    ("__builtins__", None),
])
def test_errors_match_the_reference(text, names):
    with pytest.raises(ExpressionError) as compiled:
        evaluate(text, names)
    with pytest.raises(ExpressionError) as walked:
        reference.evaluate(text, names)
    assert str(compiled.value) == str(walked.value)


@pytest.mark.parametrize("text, expected", [
    ("1 and 2", True), ("1 and 0", False), ("0 or 2", True), ("0 or 0", False),
    ("(1 and 2) + 1", 2.0), ("t > 0 or u", True),
])
def test_and_or_return_bools(text, expected):
    for evaluator in (evaluate, reference.evaluate):
        value = evaluator(text, {"t": 1.0})
        assert (type(value), value) == (type(expected), expected), evaluator


def test_each_string_compiles_once_and_reads_the_callers_names():
    code = expressions._compile("t * (t + 1)")
    assert expressions._compile("t * (t + 1)") is code
    names = {"t": 2.0}
    assert evaluate("t * (t + 1)", names) == 6.0
    assert names == {"t": 2.0}
    assert evaluate("pi", {"pi": 3.0}) == 3.0  # names shadow pi, as in the reference
