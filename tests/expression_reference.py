"""Independent reference for ``veesys.expressions``: a tree-walking evaluator
that checks and evaluates an expression's syntax tree node by node on every
call, with the same whitelist and the same error texts."""

import ast
import functools
import math
import operator

from veesys.expressions import ExpressionError
from veesys.tolerances import SQRT_CLAMP

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_CMPOPS = {
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
}


def _sqrt(x):
    # clamp round-off below zero, reject real negatives
    if x < 0.0:
        if x > -SQRT_CLAMP:
            return 0.0
        raise ExpressionError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


_FUNCTIONS = {"sqrt": _sqrt, "abs": abs}
_CONSTANTS = {"pi": math.pi}


def _eval(node, names):
    if isinstance(node, ast.Expression):
        return _eval(node.body, names)
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float)):
            return float(node.value)
        raise ExpressionError(f"literal {node.value!r} not allowed")
    if isinstance(node, ast.Name):
        if node.id in names:
            return names[node.id]
        if node.id in _CONSTANTS:
            return _CONSTANTS[node.id]
        raise ExpressionError(f"unknown name '{node.id}'")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_eval(node.left, names), _eval(node.right, names))
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        return _UNARY[type(node.op)](_eval(node.operand, names))
    if isinstance(node, ast.BoolOp):
        op = all if isinstance(node.op, ast.And) else any
        return op(bool(_eval(v, names)) for v in node.values)
    if isinstance(node, ast.Compare):
        left = _eval(node.left, names)
        for cmp_op, comparator in zip(node.ops, node.comparators):
            if type(cmp_op) not in _CMPOPS:
                raise ExpressionError("comparison operator not allowed")
            right = _eval(comparator, names)
            if not _CMPOPS[type(cmp_op)](left, right):
                return False
            left = right
        return True
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only sqrt() and abs() calls are allowed")
        if node.keywords:
            raise ExpressionError("keyword arguments not allowed")
        return _FUNCTIONS[node.func.id](*(_eval(a, names) for a in node.args))
    raise ExpressionError(f"disallowed syntax: {ast.dump(node)}")


@functools.lru_cache(maxsize=None)
def _parse(text):
    try:
        return ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse '{text}': {exc}") from exc


def evaluate(expression, names=None):
    """Evaluate an expression string by walking its tree; an arithmetic
    fault raises ExpressionError naming the expression."""
    if isinstance(expression, (int, float)):
        return float(expression)
    try:
        return _eval(_parse(str(expression)), dict(names or {}))
    except ArithmeticError as exc:
        raise ExpressionError(f"cannot evaluate '{expression}': {exc.args[-1]}") from None
