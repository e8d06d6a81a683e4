"""The tests' oracle for ``expressions.compile_callable``: a syntax tree's value,
walked node by node in Python arithmetic.  It shares no code with the
compiled callable's generated source."""

import math

from mpsl.errors import ParseError
from mpsl.expressions import FUNCTIONS, Call, Neg, Num, Var

_FUNCTIONS = {fn: abs if fn == "abs" else getattr(math, fn) for fn in FUNCTIONS}


def evaluate(node, **values: float) -> float:
    """The value of the tree ``node`` at the variable values given."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in values:
            raise ParseError(f"unbound variable {node.name!r}")
        return values[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.child, **values)
    if isinstance(node, Call):
        return _FUNCTIONS[node.fn](evaluate(node.arg, **values))
    a = evaluate(node.left, **values)
    b = evaluate(node.right, **values)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return a ** b
