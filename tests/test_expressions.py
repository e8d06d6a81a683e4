import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expr_oracle import evaluate
from mpsl.errors import NumericError, ParseError, QuadratureError
from mpsl.expressions import (
    F_BIG,
    F_SMALL,
    FUNCTIONS,
    HALVING_PASSES,
    HALVING_PIECES,
    MAX_DEPTH,
    BinOp,
    Call,
    ForcingTerm,
    Neg,
    NonlinearitySpec,
    Num,
    Var,
    certify_hypotheses,
    compile_callable,
    parse_expr,
    to_source,
)
from mpsl.shooting import integrate_ivp

PRECEDENCE_FIXTURES = [
    ("1+2*3", 7.0),
    ("(1+2)*3", 9.0),
    ("2^3^2", 512.0),           # power is right-associative
    ("-2^2", 4.0),              # unary minus binds tighter than power
    ("-(2^2)", -4.0),
    ("2-3-4", -5.0),            # left associativity
    ("12/4/3", 1.0),
    ("2*-3", -6.0),             # unary minus as an operand
    ("2^-1", 0.5),
    ("sin(0)+cos(0)+sqrt(abs(-9))+atan(1)*0+exp(0)*0+log(1)", 4.0),
]


@pytest.mark.parametrize("text,expected", PRECEDENCE_FIXTURES)
def test_precedence_fixtures(text, expected):
    assert evaluate(parse_expr(text)) == pytest.approx(expected, rel=1e-14)


def test_parse_example_slope_at_zero():
    tree = parse_expr("xi*(1 + 3/(1+xi^2))")
    assert evaluate(tree, xi=0.0) == 0.0
    slope = (evaluate(tree, xi=1e-6) - evaluate(tree, xi=-1e-6)) / 2e-6
    assert slope == pytest.approx(4.0, abs=1e-6)


def test_parse_example_rational():
    assert evaluate(parse_expr("xi/(1+abs(xi))"), xi=3.0) == pytest.approx(0.75)


def test_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_expr("2*+3")
    assert exc.value.position == 2


def test_unknown_identifier():
    with pytest.raises(ParseError):
        parse_expr("xi + bogus")


def test_arity_mismatch():
    with pytest.raises(ParseError):
        parse_expr("sin(xi, 1)")
    with pytest.raises(ParseError):
        parse_expr("sin")


def test_empty_expression():
    with pytest.raises(ParseError):
        parse_expr("   ")


def test_double_star_alias():
    assert to_source(parse_expr("xi**2")) == to_source(parse_expr("xi^2"))


def test_whitespace_insensitive():
    assert parse_expr(" xi * ( 1 + 2 ) ") == parse_expr("xi*(1+2)")


def random_tree(rng: np.random.Generator, depth: int):
    roll = rng.uniform()
    if depth <= 0 or roll < 0.25:
        if rng.uniform() < 0.5:
            return Num(float(round(rng.uniform(0.0, 9.5), 2)))
        return Var("xi")
    if roll < 0.4:
        return Neg(random_tree(rng, depth - 1))
    if roll < 0.55:
        fn = str(rng.choice(["sin", "cos", "atan", "exp", "abs", "sqrt"]))
        return Call(fn, random_tree(rng, depth - 1))
    op = str(rng.choice(["+", "-", "*", "/", "^"]))
    return BinOp(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def test_round_trip_random_trees():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        tree = random_tree(rng, int(rng.integers(1, 7)))
        text = to_source(tree)
        reparsed = parse_expr(text)
        assert reparsed == tree
        assert to_source(reparsed) == text


@pytest.mark.parametrize("text, position", [
    ("xi*2\u00b2", 4),       # superscript two: str.isdigit, but not a float digit
    ("\u0663", 0),           # Arabic-Indic three
    ("xi+\uff11", 3),        # fullwidth one
    ("1.5\u00b2", 3),
])
def test_lexer_reads_ascii_digits_only(text, position):
    with pytest.raises(ParseError) as exc:
        parse_expr(text)
    assert exc.value.position == position


@pytest.mark.parametrize("text, position", [
    ("1e400", 0),
    ("xi*11e400", 3),
    pytest.param("2+" + "1" * 400, 2, id="400-digit-integer"),
])
def test_literal_that_overflows_is_a_parse_error(text, position):
    with pytest.raises(ParseError, match="too large") as exc:
        parse_expr(text)
    assert exc.value.position == position


EXPRESSION_ALPHABET = [
    "xi", "x", "pi", "y", *FUNCTIONS, "(", ")", ",", "+", "-", "*", "/", "^", "**", " ",
    "0", "1", "9", ".", "e", "E", "2.5", ".5", "1e3", "1e-3", "1e308", "1e-400", "1e400",
    "\u00b2", "\u0663", "\uff11",
]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(EXPRESSION_ALPHABET), max_size=16).map("".join))
def test_arbitrary_text_parses_or_raises_parse_error(text):
    try:
        tree = parse_expr(text)
    except ParseError:
        return
    assert parse_expr(to_source(tree)) == tree


FUZZ_LEAVES = ["xi", "x", "0", "-1", "0.5", "pi", "1e300", "1e-300"]


def _expression_strings(depth: int):
    """Expression strings from the grammar, nested up to ``depth`` levels:
    both variables, a few constants, every function and every operator."""
    leaf = st.sampled_from(FUZZ_LEAVES)
    if depth == 1:
        return leaf
    sub = _expression_strings(depth - 1)
    return st.one_of(
        leaf,
        st.builds("{}({})".format, st.sampled_from(FUNCTIONS), sub),
        sub.map("-({})".format),
        st.builds("({1}){0}({2})".format, st.sampled_from("+-*/^"), sub, sub),
    )


def _raised_by_f_or_quadrature(call) -> None:
    """call() returns, raises QuadratureError, or raises the scalar f's own
    error naming the xi where f is not a finite real."""
    try:
        call()
    except QuadratureError:
        pass
    except (ArithmeticError, ValueError, TypeError) as exc:
        assert "f is not a finite real at xi=" in str(exc)


# Every value of f or h that is not a finite real (a domain error, an
# overflow, a complex power or constant) ends in a documented error, and
# numpy warns of none of them.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(_expression_strings(4))
@example("pi^1e300 + xi")  # raises on Python floats, without xi
@example("xi^-1e300 + sin(xi + (-1)^0.5)")  # numpy's retry of the overflow meets a complex
def test_expression_layer_raises_only_documented_errors(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for limits in ({"f0": 1.0, "finf": 1.0}, {}):
            try:
                nl = NonlinearitySpec.from_text(text, **limits)
            except ParseError:
                continue
            _raised_by_f_or_quadrature(lambda: nl.F_many(np.array([-3.0, -0.5, 0.25, 2.0])))
            _raised_by_f_or_quadrature(lambda: certify_hypotheses(nl, 1.0, F_SMALL))
            try:
                integrate_ivp(nl, None, 1.0, 0.1, 0.5)
            except NumericError:
                pass
        try:
            ForcingTerm.from_text(text)
        except ParseError:
            pass


def test_compile_matches_evaluate():
    rng = np.random.default_rng(77)
    tree = parse_expr("xi*(1 + 3/(1+xi^2)) - sin(xi)/2")
    f = compile_callable(tree, "xi")
    for _ in range(50):
        x = float(rng.uniform(-5, 5))
        assert f(x) == pytest.approx(evaluate(tree, xi=x), rel=1e-14)


def test_nonlinearity_requires_xi_only():
    with pytest.raises(ParseError):
        NonlinearitySpec.from_text("x + 1")


def test_forcing_requires_x_only():
    with pytest.raises(ParseError):
        ForcingTerm.from_text("xi")
    h = ForcingTerm.from_text("x")
    assert h.h(0.25) == 0.25


def test_estimated_limits_match_declared():
    nl_est = NonlinearitySpec.from_text("xi*(1+3/(1+xi^2))")
    assert nl_est.warnings == ["f0 estimated from samples (declare it for exactness)",
                               "finf estimated from samples (declare it for exactness)"]
    assert nl_est.f0 == pytest.approx(4.0, rel=1e-4)
    assert nl_est.finf == pytest.approx(1.0, rel=1e-4)


# f0 is estimated only where f(xi)/xi settles near 0: each sign's last two
# Richardson levels and the two signs must agree.  The cubic term of
# xi + 1e300*xi^3 dominates at every sample (the estimate was -1e289), and a
# nonzero f(0) makes the ratios grow like 1/xi (both signs cancelled to 1,
# or, once a level overflowed, to NaN).
@pytest.mark.parametrize("f", ["xi + 1e300*xi^3", "1 + xi", "xi + abs(xi)", "1e302 + xi"])
def test_unsettled_f0_estimate_is_refused(f):
    with pytest.raises(ParseError, match=r"^cannot estimate f0 \(f\(xi\)/xi does not settle: .*\): declare f0$"):
        NonlinearitySpec.from_text(f, finf=1.0)


@pytest.mark.parametrize("f, f0", [("xi^3", 0.0), ("sin(xi)", 1.0), ("xi*(1+59/(1+xi^2))", 60.0),
                                   ("xi + 1000*xi^3", 1.0)])
def test_settled_f0_estimate_is_kept(f, f0):
    assert NonlinearitySpec.from_text(f, finf=1.0).f0 == pytest.approx(f0, rel=1e-7, abs=1e-8)


# finf is estimated only where both signs of xi give one level: xi^2 gave
# 0.0, the mean of its levels +-1.1e7.  Levels beyond 1e12 in the same
# direction still give inf.
def test_finf_estimate_with_opposite_levels_is_refused():
    with pytest.raises(ParseError, match=r"^cannot estimate finf \(f\(xi\)/xi has the levels .*\): declare finf$"):
        NonlinearitySpec.from_text("xi^2", f0=1.0)


def test_superlinear_finf_estimate_is_inf():
    assert NonlinearitySpec.from_text("xi*(1+xi^2)", f0=1.0).finf == math.inf


@pytest.mark.parametrize("f, odd", [
    ("xi", True), ("-xi^3", True), ("xi/(1+abs(xi))", True), ("xi*(1+3/(1+xi^2))", True),
    ("sin(xi)*cos(xi)^2", True),
    ("xi^2", False), ("xi*(2+sin(xi))", False), ("exp(xi)", False), ("xi+1", False), ("xi^0.5", False),
])
def test_odd_is_decided_from_the_tree(f, odd):
    assert NonlinearitySpec.from_text(f, f0=1.0, finf=1.0).odd is odd


PARITY_XI = (0.0, 1e-300, 0.1, 0.5, 1.0, 2.0, 3.0, 1e3, 1e300)


# Wherever the parity walk calls f odd, the compiled f is odd in floats.
# The variable x becomes xi, so that every expression is a nonlinearity.
@settings(derandomize=True, max_examples=300, deadline=None)
@given(_expression_strings(4).map(lambda text: re.sub(r"\bx\b", "xi", text)))
@example("sin(xi)*cos(xi)^2 - atan(-xi)^3/(pi + abs(xi))")
def test_odd_f_is_odd_in_floats(text):
    try:
        nl = NonlinearitySpec.from_text(text, f0=1.0, finf=1.0)
    except ParseError:
        return
    if not nl.odd:
        return
    for xi in PARITY_XI:
        try:
            plus, minus = nl.f(xi), nl.f(-xi)
        except (ArithmeticError, ValueError):
            continue
        if all(isinstance(v, float) and math.isfinite(v) for v in (plus, minus)):
            assert minus == -plus


def test_F_values():
    nl = NonlinearitySpec.from_text("xi*(1+3/(1+xi^2))", f0=4.0, finf=1.0)
    # F(xi) = xi^2 + 3*log(1+xi^2)
    for xi in (0.5, 1.0, -2.0):
        assert nl.F(xi) == pytest.approx(xi**2 + 3 * math.log(1 + xi**2), rel=1e-9)
    assert nl.F(0.0) == 0.0


def test_F_monotone_and_positive_under_sign_condition():
    nl = NonlinearitySpec.from_text("xi/(1+abs(xi))", f0=1.0, finf=0.0)
    xs = np.logspace(-3, 3, 25)
    prev = 0.0
    for x in xs:
        val = nl.F(float(x))
        assert val > prev
        prev = val
    assert nl.F(-2.0) > 0.0


def test_certificate_small_envelope():
    nl = NonlinearitySpec.from_text("xi*(1+3/(1+xi^2))", f0=4.0, finf=1.0)
    cert = certify_hypotheses(nl, 4.0, F_SMALL)
    assert cert.passed and cert.sign_ok
    assert cert.sufficient_sign == "<=0"
    assert cert.worst_ratio <= 1.0 + 1e-9
    # gamma below f0 must fail: F/xi^2 -> 4 near zero
    assert not certify_hypotheses(nl, 3.5, F_SMALL).passed


def test_certificate_linear_case():
    nl = NonlinearitySpec.from_text("xi", f0=1.0, finf=1.0)
    assert certify_hypotheses(nl, 1.0, F_SMALL).passed
    assert certify_hypotheses(nl, 1.0, F_BIG).passed


def test_certificate_cubic_fails_on_f0():
    nl = NonlinearitySpec.from_text("xi^3")
    cert = certify_hypotheses(nl, 1.0, F_BIG)
    assert not cert.passed
    assert "f0" in cert.reason


def test_certificate_sign_failure():
    nl = NonlinearitySpec.from_text("xi - 2", f0=1.0, finf=1.0)
    cert = certify_hypotheses(nl, 1.0, F_SMALL)
    assert not cert.passed and not cert.sign_ok


# --- F_many: the vectorised antiderivative kernel -------------------------

def _sympy_F(text):
    """F(X) = 2*int_0^X f from sympy, evaluated at 30 digits (test oracle)."""
    import sympy as sp

    s, X = sp.symbols("s X", real=True)
    f = sp.sympify(text.replace("^", "**"), locals={"xi": s, "abs": sp.Abs}, rational=True)
    F = sp.lambdify(X, sp.integrate(2 * f, (s, 0, X)), "mpmath")

    def exact(xs):
        with mpmath.workdps(30):
            return np.array([float(F(mpmath.mpf(float(x)))) for x in xs])

    return exact


@pytest.fixture()
def halvings(monkeypatch):
    """The halving passes of the antiderivative kernel: each entry lists the
    (lo, hi) of the pieces that one pass halves, gaps in a call's first."""
    import mpsl.expressions as expressions

    passes = []
    gauss_pair = expressions.NonlinearitySpec._gauss_pair

    def recording(self, lo, hi, tol=None):
        value, size, agree = gauss_pair(self, lo, hi, tol)
        if not agree.all():
            passes.append(list(zip(lo[~agree].tolist(), hi[~agree].tolist())))
        return value, size, agree

    monkeypatch.setattr(expressions.NonlinearitySpec, "_gauss_pair", recording)
    return passes


KERNEL_FS = ["xi", "xi*(1+3/(1+xi^2))", "sin(xi)+xi^3", "xi + abs(xi - 1.3)"]


@pytest.mark.parametrize("text", KERNEL_FS)
def test_F_many_matches_exact_antiderivative(text):
    nl = NonlinearitySpec.from_text(text, f0=1.0, finf=1.0)
    xs = np.concatenate([np.linspace(-10.4, 10.4, 26), [10.4, -1e-6, 2e-9, 0.7]])
    got = nl.F_many(xs)
    exact = _sympy_F(text)(xs)
    assert got.shape == xs.shape
    assert np.all(np.abs(got - exact) <= 1e-12 * np.abs(exact))
    # the scalar F is the one-value view of the same kernel
    for x in xs[:5]:
        assert nl.F(float(x)) == nl.F_many([x])[0]
    assert nl.F(0.0) == 0.0 and nl.F_many([]).shape == (0,)


def test_F_many_falls_back_to_quadrature_across_a_kink(halvings):
    nl = NonlinearitySpec.from_text("xi + abs(xi - 1.3)", f0=1.0, finf=1.0)
    assert nl.F(10.4) == pytest.approx(10.4**2 + 1.3**2 + 9.1**2, rel=1e-12)
    # the kink gap is the only gap halved, and its pieces stay inside it
    assert halvings[0] == [(0.0, 10.4)]
    assert all(0.0 <= a < 1.3 < b <= 10.4 for pieces in halvings for a, b in pieces)
    # a smooth f, and a kink that falls on a sample, are never halved
    halvings.clear()
    nl.F_many([-2.0, 1.3, 5.0])
    NonlinearitySpec.from_text("sin(xi)+xi^3").F_many(np.linspace(-20.0, 20.0, 101))
    assert halvings == []


def test_energy_certificate_makes_no_quadrature_call_on_a_smooth_f(halvings):
    from mpsl.shooting import integrate_ivp, nonlinear_energy_deviation

    nl = NonlinearitySpec.from_text("xi*(1+3/(1+xi^2))", f0=4.0, finf=1.0)
    tr = integrate_ivp(nl, None, 0.5, 0.0, 3.0)
    assert nonlinear_energy_deviation(tr, nl, 0.5) <= 1e-8
    assert halvings == []


@pytest.mark.parametrize("text, xi, error", [
    ("1/xi", 1.0, QuadratureError),      # non-integrable at 0
    ("1/xi", -1.0, QuadratureError),
    ("log(xi)", -1.0, ValueError),       # math domain error
    ("sqrt(xi)", -1.0, ValueError),
    ("xi^0.5", -1.0, TypeError),         # Python's complex power
    ("1/(xi-1)", 2.0, QuadratureError),  # poles: no principal value
    ("1/(xi-0.7)", 2.0, QuadratureError),
])
def test_F_errors_match_the_scalar_quadrature(text, xi, error, halvings):
    nl = NonlinearitySpec.from_text(text, f0=1.0, finf=1.0)
    for xs in ([xi], [0.5 * xi, xi]):
        halvings.clear()
        with pytest.raises(error):
            nl.F_many(xs)
        # a singularity ends the run within HALVING_PASSES passes of a few
        # pieces each, long before the piece cap
        assert len(halvings) <= HALVING_PASSES + 1 and sum(map(len, halvings)) <= 512
    with pytest.raises(error):
        nl.F(xi)


def test_F_many_halves_kinks_to_the_exact_antiderivative():
    # kinks at non-dyadic points of their gaps; f is odd, so F is even
    nl = NonlinearitySpec.from_text("xi*(1 + abs(abs(xi) - 1.3))", f0=1.0, finf=1.0)
    xs = np.array([-3.7, -2.0, -1.0, 1.0, 2.0, 3.7])
    got = nl.F_many(xs)
    assert np.all(got == got[::-1])
    exact = 2.0 * np.array([x * x / 2 + (1.3 * x * x / 2 - x**3 / 3 if x <= 1.3
                                         else 1.3**3 / 3 + x**3 / 3 - 1.3 * x * x / 2)
                            for x in np.abs(xs)])
    assert np.all(np.abs(got - exact) <= 1e-12 * exact)


POWER_LAWS_AT_ZERO = {  # f, and F(xi) in closed form in u = |xi| (every f is odd)
    "xi + xi*abs(xi)^0.1": lambda u: u**2 + 2 * u ** mpmath.mpf("2.1") / mpmath.mpf("2.1"),
    "xi + xi/sqrt(abs(xi))": lambda u: u**2 + 4 * u ** mpmath.mpf("1.5") / 3,
    "xi*abs(xi)^0.5/(1+abs(xi)^0.5)": lambda u: 4 * (u**2 / 4 - u ** mpmath.mpf("1.5") / 3 + u / 2
                                                     - mpmath.sqrt(u) + mpmath.log1p(mpmath.sqrt(u))),
}


@pytest.mark.parametrize("text", POWER_LAWS_AT_ZERO)
def test_F_many_integrates_power_laws_at_zero(text):
    # no Gauss rule converges fast on a piece [0, h] here; pieces next to 0
    # stop being halved once their share of int |f| is negligible
    nl = NonlinearitySpec.from_text(text, f0=1.0, finf=1.0)
    xs = np.array([-1e4, -2.0, -1e-4, 1e-8, 1e-4, 0.3, 2.0, 1e4])
    got = nl.F_many(xs)
    with mpmath.workdps(40):
        exact = np.array([float(POWER_LAWS_AT_ZERO[text](mpmath.mpf(abs(float(x))))) for x in xs])
    assert np.all(np.abs(got - exact) <= 1e-12 * exact)


def test_F_many_stops_halving_an_oscillation_it_cannot_resolve(halvings):
    nl = NonlinearitySpec.from_text("xi*(2 + sin(1e6*xi))", f0=2.0, finf=2.0)
    with pytest.raises(QuadratureError, match="disagreeing pieces"):
        nl.F(1000.0)
    # the run ends at the first pass where more than HALVING_PIECES halved
    # pieces disagree; the gaps of the first pass do not count
    assert len(halvings[-1]) > HALVING_PIECES >= max(map(len, halvings[1:-1]))


# (passed, sign_ok, sufficient_sign, worst_xi) from the per-segment quadrature
# scan that F_many replaced.
CERT_BEFORE = [
    ("xi*(1+3/(1+xi^2))", 4.0, 1.0, 4.0, F_SMALL, (True, True, "<=0", 1e-4)),
    ("xi*(1+3/(1+xi^2))", 4.0, 1.0, 4.0, F_BIG, (False, True, "<=0", 1e4)),
    ("xi*(1+3/(1+xi^2))", 4.0, 1.0, 1.0, F_SMALL, (False, True, "<=0", 1e-4)),
    ("xi*(1+3/(1+xi^2))", 4.0, 1.0, 1.0, F_BIG, (True, True, "<=0", 1e4)),
    ("xi/(1+abs(xi))", 1.0, 0.0, 1.0, F_SMALL, (True, True, "<=0", 1e-4)),
    ("xi/(1+abs(xi))", 1.0, 0.0, 1.0, F_BIG, (False, True, "<=0", 1e4)),
    ("xi^3", None, None, 1.0, F_BIG, (False, False, None, math.nan)),
    ("xi - 2", 1.0, 1.0, 1.0, F_SMALL, (False, False, None, math.nan)),
    # oscillations and kinks inside the wide outer grid gaps: the verdicts
    # of scipy's quad, which F_many once fell back to on such gaps
    ("xi*(2+sin(10*xi))", 2.0, 2.0, 2.0, F_SMALL, (False, True, None, 0.20847971888418423)),
    ("xi*(2+sin(10*xi))", 2.0, 2.0, 2.0, F_BIG, (False, True, None, -0.20847971888418423)),
    ("xi + abs(sin(xi))", 2.0, 2.0, 2.0, F_SMALL, (True, True, "<=0", 1e-4)),
]


@pytest.mark.parametrize("text, f0, finf, gamma, direction, before", CERT_BEFORE)
def test_certificate_verdicts_unchanged(text, f0, finf, gamma, direction, before):
    cert = certify_hypotheses(NonlinearitySpec.from_text(text, f0=f0, finf=finf), gamma, direction)
    got = (cert.passed, cert.sign_ok, cert.sufficient_sign, cert.worst_xi)
    assert got[:3] == before[:3]
    assert got[3] == before[3] or (math.isnan(got[3]) and math.isnan(before[3]))


@pytest.mark.parametrize("text, error", [
    ("log(xi)", ValueError),        # math domain error
    ("sqrt(xi)", ValueError),
    ("xi^0.5", TypeError),          # Python's complex power
    ("xi/0", ZeroDivisionError),
    ("exp(xi)", OverflowError),
])
def test_certificate_raises_the_scalar_error_of_f(text, error):
    nl = NonlinearitySpec.from_text(text, f0=1.0, finf=1.0)
    with pytest.raises(error):
        certify_hypotheses(nl, 1.0, F_SMALL)


def test_certificate_linear_ratio_is_one_everywhere():
    # F = xi^2 exactly, so every grid point ties at ratio 1 and worst_xi is
    # decided by rounding; only the ratio is a property of f.
    nl = NonlinearitySpec.from_text("xi", f0=1.0, finf=1.0)
    for direction in (F_SMALL, F_BIG):
        cert = certify_hypotheses(nl, 1.0, direction)
        assert cert.passed and cert.sufficient_sign == "<=0"
        assert abs(cert.worst_ratio - 1.0) <= 1e-14


DEEP_SHAPES = {
    "parentheses": lambda n: "(" * n + "xi" + ")" * n,
    "sum": lambda n: "+".join(["xi"] * n),
    "power-chain": lambda n: "^".join(["xi"] * n),
}


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_expression_at_the_depth_cap_compiles(shape):
    node = parse_expr(DEEP_SHAPES[shape](MAX_DEPTH))
    assert compile_callable(node, "xi")(0.5) == evaluate(node, xi=0.5)
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse_expr(DEEP_SHAPES[shape](MAX_DEPTH + 1))
