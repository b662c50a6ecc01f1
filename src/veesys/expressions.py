"""Tiny safe arithmetic-expression evaluator for catalogue data.

Catalogue matrices and nu-formulas are stored as text expressions in the
data file (entries contain surds and parameter-dependent values).  Only
arithmetic, comparisons, boolean combinations, a few math functions and
named values are allowed; nothing else compiles.  Each distinct string is
checked against that whitelist in one walk of its syntax tree and compiled
once per process; every evaluation runs the compiled code on the caller's
names, with no builtins.
"""

from __future__ import annotations

import ast
import functools
import math

from .tolerances import SQRT_CLAMP

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_UNARY = (ast.UAdd, ast.USub)
_CMPOPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)


def _sqrt(x):
    # clamp round-off below zero, reject real negatives
    if x < 0.0:
        if x > -SQRT_CLAMP:
            return 0.0
        raise ExpressionError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


_FUNCTIONS = {"sqrt": _sqrt, "abs": abs}
# the evaluation globals: the functions, pi, and bool, which each and/or
# is wrapped in; the callables are not names an expression may read
_GLOBALS = {"__builtins__": {}, "pi": math.pi, "bool": bool, **_FUNCTIONS}


class ExpressionError(ValueError):
    pass


def _check(node):
    """Check ``node`` against the whitelist, children in evaluation order,
    and return the node to compile in its place: number literals become
    floats in place, and an and/or becomes bool(and/or)."""
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError(f"literal {node.value!r} not allowed")
        node.value = float(node.value)
    elif isinstance(node, ast.Name):
        if node.id in _GLOBALS and node.id != "pi":
            raise ExpressionError(f"unknown name '{node.id}'")
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        node.left, node.right = _check(node.left), _check(node.right)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, _UNARY):
        node.operand = _check(node.operand)
    elif isinstance(node, ast.BoolOp):
        node.values = list(map(_check, node.values))
        return ast.Call(ast.Name("bool", ast.Load()), [node], [])
    elif isinstance(node, ast.Compare):
        node.left = _check(node.left)
        for k, (op, comparator) in enumerate(zip(node.ops, node.comparators)):
            if not isinstance(op, _CMPOPS):
                raise ExpressionError("comparison operator not allowed")
            node.comparators[k] = _check(comparator)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            raise ExpressionError("only sqrt() and abs() calls are allowed")
        if node.keywords:
            raise ExpressionError("keyword arguments not allowed")
        node.args = list(map(_check, node.args))
    else:
        raise ExpressionError(f"disallowed syntax: {ast.dump(node)}")
    return node


@functools.lru_cache(maxsize=None)
def _compile(text):
    """The code object of an expression string, checked and compiled once
    per distinct string (the catalogue's strings are a finite set); a
    string that fails the check is not cached."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse '{text}': {exc}") from exc
    tree.body = _check(tree.body)
    return compile(ast.fix_missing_locations(tree), "<expression>", "eval")


def evaluate(expression, names=None):
    """Evaluate an arithmetic/boolean expression string with given names.

    Names shadow ``pi``.  An unknown name raises ExpressionError, and so
    does an arithmetic fault (an overflowing power, a division by zero),
    naming the expression.
    """
    if isinstance(expression, (int, float)):
        return float(expression)
    code = _compile(str(expression))
    try:
        return eval(code, _GLOBALS, {} if names is None else names)
    except NameError as exc:
        raise ExpressionError(f"unknown name '{exc.name}'") from None
    except ArithmeticError as exc:
        raise ExpressionError(f"cannot evaluate '{expression}': {exc.args[-1]}") from None
