import math

import numpy as np
import pytest

from mpsl.errors import ParseError, QuadratureError
from mpsl.expressions import (
    F_BIG,
    F_SMALL,
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
    evaluate,
    parse_expr,
    to_source,
)

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
    import mpmath
    import sympy as sp

    s, X = sp.symbols("s X", real=True)
    f = sp.sympify(text.replace("^", "**"), locals={"xi": s, "abs": sp.Abs}, rational=True)
    F = sp.lambdify(X, sp.integrate(2 * f, (s, 0, X)), "mpmath")

    def exact(xs):
        with mpmath.workdps(30):
            return np.array([float(F(mpmath.mpf(float(x)))) for x in xs])

    return exact


@pytest.fixture()
def quad_calls(monkeypatch):
    """Count the adaptive-quadrature fallbacks of the antiderivative kernel."""
    from scipy.integrate import quad

    import mpsl.expressions as expressions

    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(expressions, "_quad", counting)
    return calls


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


def test_F_many_falls_back_to_quadrature_across_a_kink(quad_calls):
    nl = NonlinearitySpec.from_text("xi + abs(xi - 1.3)", f0=1.0, finf=1.0)
    assert nl.F(10.4) == pytest.approx(10.4**2 + 1.3**2 + 9.1**2, rel=1e-12)
    assert quad_calls == [(0.0, 10.4)]
    # a smooth f, and a kink that falls on a sample, need no fallback
    quad_calls.clear()
    nl.F_many([-2.0, 1.3, 5.0])
    NonlinearitySpec.from_text("sin(xi)+xi^3").F_many(np.linspace(-20.0, 20.0, 101))
    assert quad_calls == []


def test_energy_certificate_makes_no_quadrature_call_on_a_smooth_f(quad_calls):
    from mpsl.shooting import integrate_ivp, nonlinear_energy_deviation

    nl = NonlinearitySpec.from_text("xi*(1+3/(1+xi^2))", f0=4.0, finf=1.0)
    tr = integrate_ivp(nl, None, 0.5, 0.0, 3.0)
    assert nonlinear_energy_deviation(tr, nl, 0.5) <= 1e-8
    assert quad_calls == []


@pytest.mark.parametrize("text, xi, error", [
    ("1/xi", 1.0, QuadratureError),      # non-integrable at 0
    ("1/xi", -1.0, QuadratureError),
    ("log(xi)", -1.0, ValueError),       # math domain error
    ("sqrt(xi)", -1.0, ValueError),
    ("xi^0.5", -1.0, TypeError),         # Python's complex power
    ("1/(xi-1)", 2.0, ZeroDivisionError),  # quadrature lands on the pole
])
def test_F_errors_match_the_scalar_quadrature(text, xi, error):
    nl = NonlinearitySpec.from_text(text, f0=1.0, finf=1.0)
    with pytest.raises(error):
        nl.F(xi)
    with pytest.raises(error):
        nl.F_many([0.5 * xi, xi])


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
