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
antiderivative F(xi) = 2*int_0^xi f, which one numpy kernel integrates
(``NonlinearitySpec.F_many``).
"""

from __future__ import annotations

import functools
import math
import re
import warnings
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
# ASCII digits only: str.isdigit also takes '²' and '٣', which float() rejects
_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


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
        number = _NUMBER.match(text, i)
        if number:
            tokens.append((_TOK_NUM, number.group(), i))
            i = number.end()
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
            if not math.isfinite(float(val)):  # its repr, inf, would not parse back
                raise ParseError("number too large for a float", at)
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


_EVAL_NS = {f"_{fn}": abs if fn == "abs" else getattr(math, fn) for fn in FUNCTIONS}
# The same functions as numpy ufuncs: a domain error or overflow gives a
# non-finite value instead of an exception.
_ARRAY_NS = {f"_{fn}": np.arctan if fn == "atan" else getattr(np, fn) for fn in FUNCTIONS}


def compile_callable(node: Expr, varname: str, namespace: dict = _EVAL_NS) -> Callable:
    """Compile to a fast callable of one variable: scalar by default, or
    elementwise over numpy arrays with ``namespace=_ARRAY_NS``."""
    free = free_variables(node)
    if not free <= {varname}:
        raise ParseError(f"expression uses variables {sorted(free - {varname})}")
    src = f"lambda {varname}: {_to_python(node)}"
    return eval(src, dict(namespace))  # noqa: S307 - our own AST, closed namespace


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


_EVEN, _ODD, _NONE = 1, -1, 0  # parities multiply as these signs do
_EVEN_FUNCTIONS = ("abs", "cos")  # even of any argument with a parity
_ODD_FUNCTIONS = ("sin", "atan")  # odd of an odd argument


def _parity(node: Expr) -> int:
    """_EVEN, _ODD or _NONE: a parity in the variable that the tree has by
    construction, decided conservatively.  The variable is odd, numbers are
    even; + and - keep a parity both sides share, * and / multiply
    parities; an odd base to an integer literal power has that integer's
    parity, and an even base to an even power is even; abs and cos of any
    argument with a parity are even, sin and atan of an odd one odd, and
    every function of an even argument is even.  Each rule holds in float
    arithmetic too: negation is exact, rounding is symmetric, Python's **
    negates an odd integer power of a negative base, and libm's sin, cos
    and atan are symmetric."""
    if isinstance(node, Num):
        return _EVEN
    if isinstance(node, Var):
        return _ODD
    if isinstance(node, Neg):
        return _parity(node.child)
    if isinstance(node, Call):
        arg = _parity(node.arg)
        if arg == _EVEN or (arg == _ODD and node.fn in _EVEN_FUNCTIONS):
            return _EVEN
        return _ODD if arg == _ODD and node.fn in _ODD_FUNCTIONS else _NONE
    left, right = _parity(node.left), _parity(node.right)
    if node.op in "+-":
        return left if left == right else _NONE
    if node.op in "*/":
        return left * right
    if left == _ODD and isinstance(node.right, Num) and node.right.value.is_integer():
        return _EVEN if node.right.value % 2.0 == 0.0 else _ODD
    return _EVEN if left == right == _EVEN else _NONE


# ---------------------------------------------------------------------------
# finite real values, the only values of f and h that are used


def _on_floats(fn):
    """fn of a Python float as a float, for the integrator.  Where Python
    raises and numpy's scalars give inf or NaN (``**`` overflows, x/0), fn
    is evaluated again on np.float64, so such a value is a rejected step
    rather than divergence.  A complex value is NaN, also where numpy would
    pass its real part to a math function with a ComplexWarning."""
    def value(v):
        try:
            try:
                return float(fn(v))
            except (ArithmeticError, ValueError):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)  # ComplexWarning is one
                    w = fn(np.float64(v))
                return float(w) if isinstance(w, float) else math.nan
        except (TypeError, RuntimeWarning):  # a complex value, or a math function given one
            return math.nan
    return value


def _on_arrays(fn):
    """fn of a numpy array, NaN throughout where a part of fn without its
    variable raises on Python floats (pi^1e300), for the scalar fn to explain."""
    def values(xs):
        try:
            return fn(xs)
        except (ArithmeticError, ValueError, TypeError):
            return np.full(np.shape(xs), math.nan)
    return values


def _finite_reals(fn, points, name: str, var: str, values=None) -> np.ndarray:
    """fn at ``points`` as floats: ``values``, fn's numpy evaluation there,
    where they are finite reals, and the scalar fn elsewhere (everywhere
    without ``values``).  The scalar fn raises its own error at the first
    point where it is not a finite real, a TypeError for a complex value,
    OverflowError for inf and ValueError for NaN, naming var there."""
    points = np.asarray(points, dtype=float)
    values = np.full(points.shape, math.nan) if values is None else np.broadcast_to(values, points.shape)
    out = values.real.astype(float)
    for i in np.flatnonzero(~np.isfinite(values) | np.iscomplexobj(values)):
        at = float(points.flat[i])
        what = f"{name} is not a finite real at {var}={at:.6g}"
        try:
            out.flat[i] = value = float(fn(at))  # a complex value raises TypeError here
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise type(exc)(what) from exc
        if not math.isfinite(value):
            raise (OverflowError if math.isinf(value) else ValueError)(what)
    return out


# ---------------------------------------------------------------------------
# nonlinearity / forcing wrappers


GAUSS_ORDERS = (10, 20)  # the two Gauss-Legendre rules compared on every gap and piece
GAUSS_RTOL = 1e-12  # they must agree to this fraction of int |f| (see _gap_integrals)
GAUSS_BLOCK = 256  # pieces per numpy evaluation of f: keeps each temporary near 60 kB
HALVING_PASSES = 60  # a gap is halved at most this often before QuadratureError
HALVING_PIECES = 1 << 15  # at most this many halved pieces may disagree in one pass
HALVING_WIDTH = 1e-10  # relative to |xi|: a disagreeing piece this narrow holds a singularity
# An estimated f0 is refused unless its Richardson levels agree to this
# fraction (absolute where f0 is 0, as for xi^3): xi + 1e300*xi^3 gave -1e289.
SLOPE_SETTLE_TOL = 1e-6


@functools.cache
def _gauss_rules() -> tuple[np.ndarray, np.ndarray, int]:
    """The GAUSS_ORDERS rules side by side: (t, w, n), the weights w of the
    positive nodes of the low rule in [:n] and of the high rule in [n:], t
    those nodes and then their negatives.  Computed on first use.  leggauss's
    nodes ascend and are exactly symmetric: [n:] is the positive half."""
    from numpy.polynomial.legendre import leggauss

    (t_low, w_low), (t_high, w_high) = map(leggauss, GAUSS_ORDERS)
    n, m = len(t_low) // 2, len(t_high) // 2
    t = np.concatenate([t_low[n:], t_high[m:]])
    return np.concatenate([t, -t]), np.concatenate([w_low[n:], w_high[m:]]), n


def _slope_levels(f: Callable[[float], float], scales: list[float]) -> tuple[list[float], list[float]]:
    """f(xi)/xi along xi = +s and along xi = -s, s in ``scales`` (ratio 10):
    Richardson's extrapolation of each sign's last three ratios, one level
    with f(s)/s ~ L + c*s, as ([p1, p2], [m1, m2]).  Raises as
    ``_finite_reals`` does."""
    xs = [sign * s for sign in (1.0, -1.0) for s in scales]
    r = [v / x for v, x in zip(_finite_reals(f, xs, "f", "xi").tolist(), xs)]
    n = len(scales)
    return [[(10.0 * rs[i] - rs[i - 1]) / 9.0 for i in (n - 2, n - 1)] for rs in (r[:n], r[n:])]


def _settled(spread: float, *levels: float) -> bool:
    """spread <= SLOPE_SETTLE_TOL * max(1, |level|); a level past the float range never settles."""
    return spread <= SLOPE_SETTLE_TOL * max(1.0, *map(abs, levels)) < math.inf


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
            raise ParseError(f"nonlinearity may only use 'xi', found {sorted(free)}")
        f = compile_callable(expr, "xi")
        warnings: list[str] = []
        try:
            if f0 is None:
                limit = "f0"
                f0 = cls._estimate_f0(f)
                warnings.append("f0 estimated from samples (declare it for exactness)")
            if finf is None:
                limit = "finf"
                finf = cls._estimate_finf(f)
                warnings.append("finf estimated from samples (declare it for exactness)")
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise ParseError(f"cannot estimate {limit} ({exc}): declare {limit}") from None
        return cls(expr, float(f0), float(finf), warnings)

    @staticmethod
    def _estimate_f0(f: Callable[[float], float]) -> float:
        """The mean of both signs' last levels, refused (ValueError) unless
        each sign's last two levels and the two signs' agree."""
        (p1, p2), (m1, m2) = _slope_levels(f, [1e-3, 1e-4, 1e-5, 1e-6])
        spread = max(abs(p2 - p1), abs(m2 - m1), abs(p2 - m2))
        if not _settled(spread, p1, p2, m1, m2):
            raise ValueError(f"f(xi)/xi does not settle: its extrapolations differ by {spread:.3g}")
        return 0.5 * (p2 + m2)

    @staticmethod
    def _estimate_finf(f: Callable[[float], float]) -> float:
        """inf where f overflows or both signs' last levels are beyond 1e12
        in the same direction, else the mean of those levels, refused
        (ValueError) unless they agree: xi^2 would give 0.0, the mean of
        two opposite levels.  Whether each sign's levels settle is not
        checked: xi*abs(xi)^0.5, whose limit is inf, gives 3402.5."""
        try:
            (_, plus), (_, minus) = _slope_levels(f, [1e4, 1e5, 1e6, 1e7])
        except OverflowError:
            return math.inf
        if abs(plus) >= 1e12 and abs(minus) >= 1e12 and (plus > 0.0) == (minus > 0.0):
            return math.inf
        if not _settled(abs(plus - minus), plus, minus):
            raise ValueError(f"f(xi)/xi has the levels {plus:.6g} as xi -> +inf and {minus:.6g} as xi -> -inf")
        val = 0.5 * (plus + minus)
        return val if abs(val) < 1e12 else math.inf

    def __post_init__(self):
        self._f = compile_callable(self.expr, "xi")
        self._f_array = _on_arrays(compile_callable(self.expr, "xi", _ARRAY_NS))

    @functools.cached_property
    def odd(self) -> bool:
        """Whether f(-xi) = -f(xi) holds by construction of the expression,
        as ``_parity`` decides it from the tree: exactly, in floats too.
        Then -u'' = lam*f(u) is invariant under u -> -u, so ``branching``
        derives each '-' continuum and solution from the '+' one.  False
        when the walk proves no parity, even for an f that is odd in fact."""
        return _parity(self.expr) == _ODD

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
        sum outward from 0.  A gap where the two rules differ, on int f or
        on int |f|, by more than GAUSS_RTOL of int |f| over it is halved,
        pass after pass, until every piece agrees (see ``_gap_integrals``).
        QuadratureError ends a run of more than HALVING_PASSES passes, a pass
        with more than HALVING_PIECES disagreeing halved pieces or one
        narrower than HALVING_WIDTH of its |xi| (a pole), and an f that is
        not finite, unless the scalar f raises its own error there.
        """
        xs = np.asarray(xs, dtype=float)
        values = np.append(xs, 0.0)
        order = np.argsort(values, kind="stable")
        nodes = values[order]  # a repeated value leaves a gap of width 0
        zero = int(np.searchsorted(nodes, 0.0))
        gaps = self._gap_integrals(nodes[:-1], nodes[1:], zero)
        integral = np.zeros(len(nodes))
        integral[zero + 1:] = np.cumsum(gaps[zero:])
        integral[:zero] = -np.cumsum(gaps[:zero][::-1])[::-1]
        values[order] = integral
        return 2.0 * values[:-1].reshape(xs.shape)

    def _gap_integrals(self, lo: np.ndarray, hi: np.ndarray, zero: int) -> np.ndarray:
        """int_lo^hi f on each gap, the gaps below 0 being [:zero].  A piece
        of a halved gap agrees to GAUSS_RTOL of int |f| from 0 to the gap's
        far end, the smallest int |f| of an F that its error reaches, so a
        piece next to a power law such as abs(xi)^0.1 at 0, or where f's
        rounding outweighs its Gauss error, stops once its share is
        negligible.  A halved gap is the math.fsum of its pieces, in any
        order: an odd f stays odd."""
        total, size, agree = self._gauss_pair(lo, hi)
        if agree.all():
            return total
        reach = np.concatenate([np.cumsum(size[:zero][::-1])[::-1], np.cumsum(size[zero:])])
        owner, owners, parts, passes = np.arange(len(lo)), [], [], 0
        while not agree.all():
            lo, hi, owner = lo[~agree], hi[~agree], owner[~agree]
            narrow = hi - lo < HALVING_WIDTH * np.maximum(np.abs(lo), np.abs(hi))
            if passes == HALVING_PASSES or narrow.any() or (passes and len(owner) > HALVING_PIECES):
                i = int(np.argmax(narrow))
                raise QuadratureError(f"antiderivative quadrature failed on [{lo[i]:.6g}, {hi[i]:.6g}] "
                                      f"after {passes} halvings (disagreeing pieces: {len(owner)})")
            passes += 1
            mid = 0.5 * (lo + hi)
            lo, hi, owner = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.concatenate([owner, owner])
            value, _, agree = self._gauss_pair(lo, hi, GAUSS_RTOL * reach[owner])
            owners.append(owner[agree])
            parts.append(value[agree])
        owners, parts = np.concatenate(owners), np.concatenate(parts)
        order = np.argsort(owners)
        gaps, starts = np.unique(owners[order], return_index=True)
        for gap, pieces in zip(gaps, np.split(parts[order], starts[1:])):
            total[gap] = math.fsum(pieces)
        return total

    def _gauss_pair(self, lo: np.ndarray, hi: np.ndarray, tol: np.ndarray | None = None):
        """(value, size, agree) on each piece [lo, hi]: the 20-node integrals
        of f and of |f|, and whether the 10-node rule agrees with both to
        within tol, by default GAUSS_RTOL of the piece's own size.  f is
        summed in mirrored node pairs, so an odd f gives exactly opposite
        integrals on mirrored pieces."""
        t, w, n = _gauss_rules()
        value, size, agree = np.empty(len(lo)), np.empty(len(lo)), np.empty(len(lo), bool)
        with np.errstate(all="ignore"):
            for i in range(0, len(lo), GAUSS_BLOCK):
                a, b, block = lo[i:i + GAUSS_BLOCK], hi[i:i + GAUSS_BLOCK], slice(i, i + GAUSS_BLOCK)
                mid, half = 0.5 * (a + b), 0.5 * (b - a)
                pts = mid[:, None] + half[:, None] * t
                fx = self._f_array(pts)
                fx = fx if np.shape(fx) == pts.shape else np.broadcast_to(fx, pts.shape)  # f may be constant
                plus, minus = fx[:, :len(w)], fx[:, len(w):]
                signed = (plus + minus) * w
                absolute = (np.abs(plus) + np.abs(minus)) * w
                low, high = half * signed[:, :n].sum(axis=1), half * signed[:, n:].sum(axis=1)
                size_low, size[block] = half * absolute[:, :n].sum(axis=1), half * absolute[:, n:].sum(axis=1)
                finite = np.isfinite(size_low + size[block])
                if np.iscomplexobj(fx) or not finite.all():
                    _finite_reals(self._f, pts, "f", "xi", fx)  # raises the scalar f's own error where it has one
                    i = int(np.argmin(finite))
                    raise QuadratureError(f"f is not integrable on [{a[i]:.6g}, {b[i]:.6g}]: "
                                          "not finite, or its integral overflows")
                value[block] = high
                bound = GAUSS_RTOL * size[block] if tol is None else tol[block]
                agree[block] = (np.abs(high - low) <= bound) & (np.abs(size[block] - size_low) <= bound)
        return value, size, agree


@dataclass
class ForcingTerm:
    """A parsed forcing term h(x), continuous and finite on [-1, 1]."""

    expr: Expr

    @classmethod
    def from_text(cls, text: str):
        expr = parse_expr(text)
        free = free_variables(expr)
        if not free <= {"x"}:
            raise ParseError(f"forcing term may only use 'x', found {sorted(free)}")
        term = cls(expr)
        try:
            _finite_reals(term.h, np.linspace(-1.0, 1.0, 101), "forcing term", "x")
        except (ArithmeticError, ValueError, TypeError) as exc:
            raise ParseError(str(exc)) from None
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
        fx = _finite_reals(nl._f, grid, "f", "xi", nl._f_array(grid))
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
