"""Expression language for nonlinearities f(xi) and forcing terms h(x).

Grammar (whitespace-insensitive):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' factor)?          -- power is right-associative
    unary   := '-' unary | primary          -- unary minus binds tighter than '^'
    primary := NUMBER | IDENT | FUNC '(' expr ')' | '(' expr ')'

Identifiers: the variables ``xi`` and ``x``, the constant ``pi``, and the
functions sin, cos, atan, exp, log, abs, sqrt.  ``**`` is accepted as an
alias for ``^`` on input; the canonical printer emits ``^``.  Note the
unary-minus rule: ``-x^2`` parses as ``(-x)^2``.

Beyond parsing, this module certifies the structural hypotheses placed on a
nonlinearity: the sign condition xi*f(xi) > 0 off 0, the limits
f0 = lim_{xi->0} f(xi)/xi and finf = lim_{|xi|->inf} f(xi)/xi, and the
quadratic envelopes F(xi) <= gamma*xi^2 / >= gamma*xi^2 for the
antiderivative F(xi) = 2*int_0^xi f.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ParseError, QuadratureError

FUNCTIONS = ("sin", "cos", "atan", "exp", "log", "abs", "sqrt")
VARIABLES = ("xi", "x")
CONSTANTS = {"pi": math.pi}
# Nesting levels an expression may use (parentheses, calls, unary minus and
# operators); from about 195 on, Python's recursion limit or compiler fails.
MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    child: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Num | Var | Neg | BinOp | Call


# ---------------------------------------------------------------------------
# lexer


_TOK_NUM = "num"
_TOK_IDENT = "ident"
_TOK_OP = "op"
_TOK_LPAREN = "("
_TOK_RPAREN = ")"
_TOK_COMMA = ","
_TOK_EOF = "eof"


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-/^(),":
            kind = {"(": _TOK_LPAREN, ")": _TOK_RPAREN, ",": _TOK_COMMA}.get(ch, _TOK_OP)
            tokens.append((kind, ch, i))
            i += 1
            continue
        if ch == "*":
            if i + 1 < n and text[i + 1] == "*":
                tokens.append((_TOK_OP, "^", i))
                i += 2
            else:
                tokens.append((_TOK_OP, "*", i))
                i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            tokens.append((_TOK_NUM, text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((_TOK_IDENT, text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append((_TOK_EOF, "", n))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nested(self, parse) -> Expr:
        """``parse()`` one nesting level deeper."""
        if self.depth == MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", self.peek()[2])
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self) -> Expr:
        node = self.expr()
        kind, val, at = self.peek()
        if kind != _TOK_EOF:
            raise ParseError(f"unexpected {val!r}", at)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[0] == _TOK_OP and self.peek()[1] in "+-":
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[0] == _TOK_OP and self.peek()[1] in "*/":
            op = self.advance()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        node = self.unary()
        if self.peek()[0] == _TOK_OP and self.peek()[1] == "^":
            self.advance()
            node = BinOp("^", node, self.nested(self.factor))
        return node

    def unary(self) -> Expr:
        kind, val, at = self.peek()
        if kind == _TOK_OP and val == "-":
            self.advance()
            return Neg(self.nested(self.unary))
        return self.primary()

    def primary(self) -> Expr:
        kind, val, at = self.advance()
        if kind == _TOK_NUM:
            return Num(float(val))
        if kind == _TOK_IDENT:
            if val in FUNCTIONS:
                k2, v2, a2 = self.advance()
                if k2 != _TOK_LPAREN:
                    raise ParseError(f"function {val!r} needs an argument list", a2)
                arg = self.nested(self.expr)
                k3, v3, a3 = self.advance()
                if k3 == _TOK_COMMA:
                    raise ParseError(f"function {val!r} takes exactly one argument", a3)
                if k3 != _TOK_RPAREN:
                    raise ParseError("expected ')'", a3)
                return Call(val, arg)
            if val in VARIABLES:
                return Var(val)
            if val in CONSTANTS:
                return Num(CONSTANTS[val])
            raise ParseError(f"unknown identifier {val!r}", at)
        if kind == _TOK_LPAREN:
            node = self.nested(self.expr)
            k2, v2, a2 = self.advance()
            if k2 != _TOK_RPAREN:
                raise ParseError("expected ')'", a2)
            return node
        raise ParseError(f"expected an operand, found {val!r}" if val else "unexpected end of input", at)


def parse_expr(text: str) -> Expr:
    """Parse an expression; raises ParseError with a 0-based position."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    node = _Parser(text).parse()
    if max(level for _, level in _walk(node)) > MAX_DEPTH:  # a long chain of + - * /
        raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", 0)
    return node


# ---------------------------------------------------------------------------
# canonical printer

_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}
_UNARY_LEVEL = 4
_ATOM_LEVEL = 5


def _level(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _LEVEL[node.op]
    if isinstance(node, Neg):
        return _UNARY_LEVEL
    return _ATOM_LEVEL


def to_source(node: Expr) -> str:
    """Canonical minimal-parenthesis rendering; parse(to_source(t)) == t."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_source(node.arg)})"
    if isinstance(node, Neg):
        inner = to_source(node.child)
        if _level(node.child) < _UNARY_LEVEL:
            inner = f"({inner})"
        return f"-{inner}"
    lv = _LEVEL[node.op]
    left, right = to_source(node.left), to_source(node.right)
    if node.op == "^":
        # right-associative: parenthesize an equal-level left child
        if _level(node.left) <= lv:
            left = f"({left})"
        if _level(node.right) < lv:
            right = f"({right})"
    else:
        if _level(node.left) < lv:
            left = f"({left})"
        if _level(node.right) <= lv:
            right = f"({right})"
    return f"{left}{node.op}{right}"


# ---------------------------------------------------------------------------
# evaluation


def _to_python(node: Expr) -> str:
    """Fully parenthesized Python source (evaluation namespace is ours)."""
    if isinstance(node, Num):
        return f"({node.value!r})"
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"_{node.fn}({_to_python(node.arg)})"
    if isinstance(node, Neg):
        return f"(-{_to_python(node.child)})"
    py_op = "**" if node.op == "^" else node.op
    return f"({_to_python(node.left)}{py_op}{_to_python(node.right)})"


_EVAL_NS = {
    "_sin": math.sin,
    "_cos": math.cos,
    "_atan": math.atan,
    "_exp": math.exp,
    "_log": math.log,
    "_abs": abs,
    "_sqrt": math.sqrt,
}

# The same functions as numpy ufuncs: a domain error or overflow gives a
# non-finite value instead of an exception.
_ARRAY_NS = {
    "_sin": np.sin,
    "_cos": np.cos,
    "_atan": np.arctan,
    "_exp": np.exp,
    "_log": np.log,
    "_abs": np.abs,
    "_sqrt": np.sqrt,
}


def compile_callable(node: Expr, varname: str, namespace: dict = _EVAL_NS) -> Callable:
    """Compile to a fast callable of one variable: scalar by default, or
    elementwise over numpy arrays with ``namespace=_ARRAY_NS``."""
    free = free_variables(node)
    if not free <= {varname}:
        raise ParseError(f"expression uses variables {sorted(free - {varname})}", 0)
    src = f"lambda {varname}: {_to_python(node)}"
    return eval(src, dict(namespace))  # noqa: S307 - our own AST, closed namespace


def evaluate(node: Expr, **values: float) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in values:
            raise ParseError(f"unbound variable {node.name!r}", 0)
        return values[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.child, **values)
    if isinstance(node, Call):
        return _EVAL_NS[f"_{node.fn}"](evaluate(node.arg, **values))
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


def _walk(node: Expr):
    """Every (node, level) of a syntax tree, the root at level 1, without recursion."""
    stack = [(node, 1)]
    while stack:
        node, level = stack.pop()
        yield node, level
        if isinstance(node, BinOp):
            stack += [(node.left, level + 1), (node.right, level + 1)]
        elif isinstance(node, (Neg, Call)):
            stack.append((node.child if isinstance(node, Neg) else node.arg, level + 1))


def free_variables(node: Expr) -> set[str]:
    return {n.name for n, _ in _walk(node) if isinstance(n, Var)}


# ---------------------------------------------------------------------------
# nonlinearity / forcing wrappers


def _quad(*args, **kwargs):
    # scipy.integrate would be most of mpsl's import time: import it on the first
    # call, which rebinds _quad to scipy's quad, so the hot F pays nothing.
    global _quad
    from scipy.integrate import quad as _quad
    return _quad(*args, **kwargs)


GAUSS_ORDERS = (10, 20)  # the two Gauss-Legendre rules compared on every gap
GAUSS_RTOL = 1e-12  # they must agree to this fraction of int |f| over the gap
GAUSS_BLOCK = 256  # gaps per numpy evaluation of f: keeps each temporary near 60 kB


@functools.cache
def _gauss_rules() -> tuple[np.ndarray, np.ndarray, int]:
    """The GAUSS_ORDERS rules side by side: (t, w, n) with the positive nodes
    t and weights w of the low rule in [:n] and of the high rule in [n:].
    Computed on first use, so importing mpsl computes nothing.  leggauss's
    nodes ascend and are exactly symmetric: [n:] is the positive half."""
    from numpy.polynomial.legendre import leggauss

    (t_low, w_low), (t_high, w_high) = map(leggauss, GAUSS_ORDERS)
    n, m = len(t_low) // 2, len(t_high) // 2
    return np.concatenate([t_low[n:], t_high[m:]]), np.concatenate([w_low[n:], w_high[m:]]), n


def _richardson_limit(g: Callable[[float], float], scales: list[float]) -> float:
    """Richardson-extrapolated limit of g along a geometric sequence."""
    vals = [g(s) for s in scales]
    # one extrapolation level with ratio 10: g(s) ~ L + c*s
    extr = [(10.0 * vals[i + 1] - vals[i]) / 9.0 for i in range(len(vals) - 1)]
    return extr[-1]


@dataclass
class NonlinearitySpec:
    """A parsed nonlinearity f(xi) with its structural data.

    f0 and finf may be declared in the problem file; estimation from samples
    is a fallback and is flagged, since limits are analytic facts a sampler
    can only approximate.
    """

    expr: Expr
    f0: float
    finf: float
    warnings: list[str] = field(default_factory=list)

    @classmethod
    def from_text(cls, text: str, f0: float | None = None, finf: float | None = None):
        expr = parse_expr(text)
        free = free_variables(expr)
        if not free <= {"xi"}:
            raise ParseError(f"nonlinearity may only use 'xi', found {sorted(free)}", 0)
        f = compile_callable(expr, "xi")
        warnings: list[str] = []
        if f0 is None:
            f0 = cls._estimate_f0(f)
            warnings.append("f0 estimated from samples (declare it for exactness)")
        if finf is None:
            finf = cls._estimate_finf(f)
            warnings.append("finf estimated from samples (declare it for exactness)")
        return cls(expr, float(f0), float(finf), warnings)

    @staticmethod
    def _estimate_f0(f: Callable[[float], float]) -> float:
        scales = [1e-3, 1e-4, 1e-5, 1e-6]
        plus = _richardson_limit(lambda s: f(s) / s, scales)
        minus = _richardson_limit(lambda s: f(-s) / (-s), scales)
        return 0.5 * (plus + minus)

    @staticmethod
    def _estimate_finf(f: Callable[[float], float]) -> float:
        scales = [1e4, 1e5, 1e6, 1e7]
        try:
            plus = _richardson_limit(lambda s: f(s) / s, scales)
            minus = _richardson_limit(lambda s: f(-s) / (-s), scales)
        except OverflowError:
            return math.inf
        val = 0.5 * (plus + minus)
        return val if abs(val) < 1e12 else math.inf

    def __post_init__(self):
        self._f = compile_callable(self.expr, "xi")
        self._f_array = compile_callable(self.expr, "xi", _ARRAY_NS)

    def f(self, xi: float) -> float:
        return self._f(xi)

    def F(self, xi: float) -> float:
        """F(xi) = 2*int_0^xi f(s) ds: the one-value view of ``F_many``."""
        return float(self.F_many(xi))

    def F_many(self, xs) -> np.ndarray:
        """F(xi) = 2*int_0^xi f(s) ds at every value of ``xs``, in one pass.

        The values are sorted together with 0.  Each gap between neighbours
        is integrated with the 10- and 20-node Gauss-Legendre rules, with one
        numpy evaluation of f per GAUSS_BLOCK gaps, and F is the cumulative
        sum outward from 0.
        Where the two rules differ, on int f or on int |f|, by more than
        GAUSS_RTOL of int |f| over the gap, or a value of f is not finite,
        the gap is integrated again by adaptive quadrature on the scalar f:
        that raises QuadratureError when it fails, and an error of the
        scalar f itself (a math domain error, a complex power) propagates.
        """
        xs = np.asarray(xs, dtype=float)
        values = np.append(xs, 0.0)
        order = np.argsort(values, kind="stable")
        nodes = values[order]  # a repeated value leaves a gap of width 0
        lo, hi = nodes[:-1], nodes[1:]
        gaps = np.zeros(len(lo))
        for i in range(0, len(lo), GAUSS_BLOCK):
            gaps[i:i + GAUSS_BLOCK] = self._gap_integrals(lo[i:i + GAUSS_BLOCK], hi[i:i + GAUSS_BLOCK])
        zero = int(np.searchsorted(nodes, 0.0))
        integral = np.zeros(len(nodes))
        integral[zero + 1:] = np.cumsum(gaps[zero:])
        integral[:zero] = -np.cumsum(gaps[:zero][::-1])[::-1]
        values[order] = integral
        return 2.0 * values[:-1].reshape(xs.shape)

    def _gap_integrals(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """int_lo^hi f on each gap; f is summed in mirrored node pairs, so an
        odd f gives exactly opposite integrals on mirrored gaps."""
        t, w, n = _gauss_rules()
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        with np.errstate(all="ignore"):
            pts = mid[:, None] + half[:, None] * np.concatenate([t, -t])
            fx = self._f_array(pts)
            if np.shape(fx) != pts.shape:  # f does not depend on xi
                fx = np.broadcast_to(fx, pts.shape)
            plus, minus = fx[:, :len(t)], fx[:, len(t):]
            signed = (plus + minus) * w
            absolute = (np.abs(plus) + np.abs(minus)) * w
            low, high = half * signed[:, :n].sum(axis=1), half * signed[:, n:].sum(axis=1)
            size_low, size = half * absolute[:, :n].sum(axis=1), half * absolute[:, n:].sum(axis=1)
            agree = (np.abs(high - low) <= GAUSS_RTOL * size) & (np.abs(size - size_low) <= GAUSS_RTOL * size)
        for i in np.flatnonzero(~agree):
            a, b = float(lo[i]), float(hi[i])
            val, err = _quad(self._f, a, b, epsabs=1e-12, epsrel=1e-12, limit=200, full_output=1)[:2]
            if not math.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
                raise QuadratureError(f"antiderivative quadrature failed on [{a:.6g}, {b:.6g}]")
            high[i] = val
        return high


@dataclass
class ForcingTerm:
    """A parsed forcing term h(x), continuous and finite on [-1, 1]."""

    expr: Expr

    @classmethod
    def from_text(cls, text: str):
        expr = parse_expr(text)
        free = free_variables(expr)
        if not free <= {"x"}:
            raise ParseError(f"forcing term may only use 'x', found {sorted(free)}", 0)
        term = cls(expr)
        for xv in np.linspace(-1.0, 1.0, 101):
            if not math.isfinite(term.h(float(xv))):
                raise ParseError(f"forcing term not finite at x={xv:.3g}", 0)
        return term

    def __post_init__(self):
        self._h = compile_callable(self.expr, "x")

    def h(self, x: float) -> float:
        return self._h(x)


F_SMALL = "F_small"  # F(xi) <= gamma*xi^2
F_BIG = "F_big"  # F(xi) >= gamma*xi^2
CERT_XI_MAX = 1e4  # certificate grid covers [-CERT_XI_MAX, CERT_XI_MAX]
CERT_GRID = 10000  # certificate grid points


@dataclass
class Certificate:
    passed: bool
    reason: str
    direction: str
    gamma: float
    xi_max: float
    worst_ratio: float
    worst_xi: float
    sign_ok: bool
    sufficient_sign: str | None  # '<=0', '>=0' or None (sign of f(xi)/xi - f0)


def certify_hypotheses(
    nl: NonlinearitySpec,
    gamma: float,
    direction: str,
) -> Certificate:
    """Grid certificate for the sign condition and a quadratic F-envelope.

    Checks xi*f(xi) > 0 and F(xi) <= gamma*xi^2 (direction F_small) or
    F(xi) >= gamma*xi^2 (F_big) on a log-spaced grid of CERT_GRID points in
    [-CERT_XI_MAX, CERT_XI_MAX], with f at every grid point from one numpy
    evaluation and F from one ``NonlinearitySpec.F_many`` call.  Also applies
    the sufficient sign test on g(xi) = f(xi)/xi - f0 (g <= 0 certifies the
    small envelope with gamma = f0; g >= 0 the big one).  This is a desk-
    scale certificate: the envelopes are only verified on the grid.  An f
    that is not a finite real at a grid point raises, naming that xi.
    """
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if direction not in (F_SMALL, F_BIG):
        raise ValueError(f"direction must be {F_SMALL!r} or {F_BIG!r}")
    if not (math.isfinite(nl.f0) and nl.f0 > 0.0):
        return Certificate(False, "f0 not positive", direction, gamma, CERT_XI_MAX,
                           math.nan, math.nan, False, None)

    pos = np.logspace(math.log10(CERT_XI_MAX) - 8.0, math.log10(CERT_XI_MAX), CERT_GRID // 2)
    grid = np.concatenate([-pos[::-1], pos])

    g_tol = 1e-12 * max(1.0, abs(nl.f0))
    with np.errstate(all="ignore"):
        fx = np.array(np.broadcast_to(nl._f_array(grid), grid.shape), dtype=float)
        # numpy turns the errors of the scalar f (a math domain error, an
        # overflow, a complex power) into inf or nan: raise them as f does,
        # naming the grid point; a value that stays non-finite is a ValueError.
        for i in np.flatnonzero(~np.isfinite(fx)):
            xi = float(grid[i])
            try:
                fx[i] = nl.f(xi)  # a complex value raises TypeError here
            except (ArithmeticError, ValueError, TypeError) as exc:
                raise type(exc)(f"f is not a finite real at xi={xi:.6g}") from exc
            if not math.isfinite(fx[i]):
                raise ValueError(f"f is not a finite real at xi={xi:.6g}")
        sign_ok = not np.any(grid * fx <= 0.0)
        g = fx / grid - nl.f0
    sufficient = None
    if not np.any(g > g_tol):
        sufficient = "<=0"
    elif not np.any(g < -g_tol):
        sufficient = ">=0"

    if not sign_ok:
        return Certificate(False, "sign condition xi*f(xi) > 0 failed", direction,
                           gamma, CERT_XI_MAX, math.nan, math.nan, False, sufficient)

    # Scan the positive branch outward, then the negative one: argmax keeps
    # the first maximum, so a tie resolves to the earlier point of the scan.
    xs = np.concatenate([pos, -pos])
    Fx = nl.F_many(xs)
    denom = gamma * xs * xs
    with np.errstate(divide="ignore"):
        ratios = Fx / denom if direction == F_SMALL else denom / Fx
    worst = int(np.argmax(ratios))
    worst_ratio, worst_xi = float(ratios[worst]), float(xs[worst])

    passed = worst_ratio <= 1.0 + 1e-9
    reason = "" if passed else f"envelope violated by ratio {worst_ratio:.6g} at xi={worst_xi:.6g}"
    return Certificate(passed, reason, direction, gamma, CERT_XI_MAX,
                       worst_ratio, worst_xi, sign_ok, sufficient)
