import functools
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hermite_oracle
from mpsl import nodal, trig
from mpsl.errors import UnresolvableZeros
from mpsl.nodal import (
    CLUSTER_TOL,
    DEFAULT_TOL,
    ClosedTrace,
    SampledTrace,
    _bernstein_zeros,
    _t_obstruction,
    classify,
    energy_deviation,
    reflected_trace,
    zeros_of,
)
from mpsl.expressions import NonlinearitySpec
from mpsl.reference import reference_eigenfunction
from mpsl.shooting import integrate_ivp
from mpsl.trig import TrigSolution, eval_solution, sup_norms


def closed(lam, A, B) -> ClosedTrace:
    return ClosedTrace(TrigSolution(lam, A, B))


def sampled_from_solution(sol: TrigSolution, n=2001) -> SampledTrace:
    xs = np.linspace(-1.0, 1.0, n)
    u = np.empty(n)
    up = np.empty(n)
    for i, x in enumerate(xs):
        u[i], up[i] = eval_solution(sol, float(x))
    return SampledTrace(xs, u, up)


def test_zeros_of_half_period_cosine():
    z = zeros_of(closed(math.pi**2 / 4, 1.0, 0.0), "u")
    assert len(z) == 1
    assert z[0][0] == pytest.approx(0.0, abs=1e-12)
    assert z[0][1] is True


def test_zeros_of_full_period_sine():
    tr = closed(math.pi**2, 0.0, 1.0)
    zu = zeros_of(tr, "u")
    assert [x for x, _ in zu] == pytest.approx([0.0], abs=1e-12)
    zup = zeros_of(tr, "uprime")
    assert [x for x, _ in zup] == pytest.approx([-0.5, 0.5], abs=1e-12)


def test_zeros_of_subcritical_sine_has_none():
    # omega ~ 1.318: first zero of sin(omega(x+1)) is at x = pi/omega - 1 > 1.
    w0 = 1.318
    z = zeros_of(closed(w0 * w0, 0.0, 1.0), "u")
    assert z == []


def test_zeros_sampled_matches_closed():
    rng = np.random.default_rng(41)
    for _ in range(20):
        lam = float(rng.uniform(0.5, 70.0))
        A, B = rng.normal(size=2)
        sol = TrigSolution(lam, A, B)
        z_closed = [x for x, _ in zeros_of(ClosedTrace(sol), "u")]
        z_sampled = [x for x, _ in zeros_of(sampled_from_solution(sol), "u")]
        assert len(z_closed) == len(z_sampled)
        for a, b in zip(z_closed, z_sampled):
            assert b == pytest.approx(a, abs=1e-10)


def test_zeros_negative_lambda():
    # u = cosh -sinh-type combination with a single interior zero.
    sol = TrigSolution(-1.0, 1.0, -1.5)
    z = zeros_of(ClosedTrace(sol), "u")
    assert len(z) == 1
    x0 = z[0][0]
    assert eval_solution(sol, x0)[0] == pytest.approx(0.0, abs=1e-12)


def test_cluster_raises():
    xs = np.linspace(-1.0, 1.0, 2001)
    # two zeros 5e-9 apart at x = 0.3: below the resolvable separation
    gap = 5e-9
    u = (xs - 0.3) * (xs - 0.3 - gap)
    up = 2 * (xs - 0.3) - gap
    with pytest.raises(UnresolvableZeros):
        zeros_of(SampledTrace(xs, u, up), "u")


def test_classify_cos_half_period():
    result = classify(closed(math.pi**2 / 4, 1.0, 0.0))
    assert result.has("S", 1, "+")
    assert result.status["T"] == ("unclassified", "boundary-degenerate")
    assert result.status["R"] == ("unclassified", "boundary-degenerate")


def test_classify_sin_half_period():
    result = classify(closed(math.pi**2 / 4, 0.0, 1.0))
    assert result.has("T", 1, "+")
    assert result.status["S"] == ("unclassified", "boundary-degenerate")


def test_classify_R_example_from_eigenfunction():
    # psi_1^0: u'(-1) > 0, u(1) < 0, one simple interior zero -> R_1^+
    # (the count rule admits k or k+1 zeros).
    psi = reference_eigenfunction(
        "robin-robin", 1, robin_minus=(1.0, -1.0), robin_plus=(1.0, 1.0)
    )
    result = classify(ClosedTrace(psi))
    u1 = eval_solution(psi, 1.0)[0]
    assert eval_solution(psi, -1.0)[1] > 0 and u1 < 0
    assert len(result.zeros_u) in (1, 2)
    assert result.has("R", 1, "+")


def test_classify_R_example_two_zeros():
    # A hand-made trace with u'(-1) > 0, u(1) < 0 and exactly two simple
    # interior zeros: the odd-parity count rule puts it in R_1^+.
    a, b, c = -0.4, 0.3, 1.5
    xs = np.linspace(-1.0, 1.0, 2001)
    u = (xs - a) * (xs - b) * (xs - c)
    up = 3 * xs**2 - 2 * (a + b + c) * xs + (a * b + a * c + b * c)
    tr = SampledTrace(xs, u, up)
    assert tr.eval(-1.0)[1] > 0 and tr.eval(1.0)[0] < 0
    result = classify(tr)
    assert len(result.zeros_u) == 2
    assert result.has("R", 1, "+")
    assert result.has("S", 2, "-")  # u(-1) < 0 with two simple zeros


def test_classify_sign_flip():
    result = classify(closed(math.pi**2 / 4, -1.0, 0.0))
    assert result.has("S", 1, "-")


def test_classify_R_nonstandard_minus_one():
    # u'(-1) > 0, u(1) < 0, no interior zeros -> R_{-1}^+ (flagged).
    xs = np.linspace(-1.0, 1.0, 2001)
    u = -2.0 + (1.0 - xs**2) / 2.0  # stays negative, rising at x = -1
    up = -xs
    tr = SampledTrace(xs, u, up)
    assert tr.eval(1.0)[0] < 0 and tr.eval(-1.0)[1] > 0
    result = classify(tr)
    m = result.member("R")
    assert m is not None and m.k == -1 and m.note == "nonstandard"


def test_T_interleaving_condition():
    # sin over two full periods: u' zeros interleaved by u zeros.
    result = classify(closed((2 * math.pi) ** 2, 0.0, 1.0))
    m = result.member("T")
    assert m is not None and m.k == 4


def test_disjointness_within_family():
    rng = np.random.default_rng(42)
    for _ in range(100):
        lam = float(rng.uniform(0.3, 90.0))
        A, B = rng.normal(size=2)
        result = classify(closed(lam, A, B))
        for fam in ("S", "T", "R"):
            assert sum(1 for m in result.memberships if m.family == fam) <= 1


def test_openness_under_perturbation():
    rng = np.random.default_rng(43)
    base = TrigSolution(11.0, 0.8, 1.1)
    tr = sampled_from_solution(base)
    verdict = {(m.family, m.k, m.sign) for m in classify(tr).memberships}
    for _ in range(5):
        delta = 1e-9 * rng.normal(size=3)
        pert = SampledTrace(
            tr.x,
            tr.u + delta[0] + delta[1] * np.sin(3 * tr.x),
            tr.up + delta[2] + 3 * delta[1] * np.cos(3 * tr.x),
        )
        assert {(m.family, m.k, m.sign) for m in classify(pert).memberships} == verdict


def _ref(kind, k):
    if k < 0:
        return 0.0
    from mpsl.reference import reference_eigenvalue

    return reference_eigenvalue(kind, k)


def test_membership_implies_lambda_bounds():
    # For any solution of the equation (no boundary conditions imposed):
    # T_{k+1} forces lam in (lam_k^N, lam_{k+2}^N), S_k in (lam_{k-2}^D, lam_k^D),
    # R_k in (lam_{k-1}^M, lam_{k+1}^M).
    rng = np.random.default_rng(44)
    checked = {"S": 0, "T": 0, "R": 0}
    for _ in range(400):
        lam = float(rng.uniform(0.2, 80.0))
        A, B = rng.normal(size=2)
        result = classify(closed(lam, A, B))
        m = result.member("T")
        if m is not None:
            k = m.k - 1  # T_{k+1} with k = m.k - 1
            assert _ref("neumann", k) < lam < _ref("neumann", k + 2)
            checked["T"] += 1
        m = result.member("S")
        if m is not None:
            k = m.k
            assert _ref("dirichlet", k - 2) < lam < _ref("dirichlet", k)
            checked["S"] += 1
        m = result.member("R")
        if m is not None and m.k >= 0:
            k = m.k
            assert _ref("mixed", k - 1) < lam < _ref("mixed", k + 1)
            checked["R"] += 1
    assert all(v > 50 for v in checked.values())


def test_membership_single_bc_bounds():
    # With the minus-side Robin condition imposed, the Robin reference
    # families bracket the parameter.
    from mpsl.reference import separated_eigenvalue

    robin = (1.0, -1.0)
    rng = np.random.default_rng(45)
    for _ in range(200):
        lam = float(rng.uniform(0.2, 70.0))
        sol = TrigSolution(lam, -robin[1], robin[0])  # satisfies the Robin BC
        result = classify(ClosedTrace(sol))
        m = result.member("T")
        if m is not None:
            k = m.k - 1
            lo = separated_eigenvalue(robin, (0.0, 1.0), k) if k >= 0 else None
            hi = separated_eigenvalue(robin, (0.0, 1.0), k + 1)
            if lo is not None:
                assert lo < lam
            assert lam < hi
        m = result.member("S")
        if m is not None:
            k = m.k
            lo = separated_eigenvalue(robin, (1.0, 0.0), k - 1) if k >= 1 else 0.0
            hi = separated_eigenvalue(robin, (1.0, 0.0), k)
            assert lo < lam < hi


def test_energy_deviation_exact_solution():
    assert energy_deviation(math.pi**2 / 4, closed(math.pi**2 / 4, 1.0, 0.0)) <= 1e-12


def test_energy_deviation_flags_nonsolution():
    xs = np.linspace(-1.0, 1.0, 2001)
    tr = SampledTrace(xs, xs**2, 2 * xs)
    assert energy_deviation(1.0, tr) > 0.5


def test_energy_deviation_requires_positive_lambda():
    with pytest.raises(ValueError):
        energy_deviation(0.0, closed(1.0, 1.0, 0.0))


def test_closed_grid_is_numpy_linspace_bit_for_bit():
    grid = closed(1.0, 1.0, 0.0).grid()
    assert [x.hex() for x in grid] == [float(x).hex() for x in np.linspace(-1.0, 1.0, 2001)]


def _numpy_energy_deviation(lam, trace) -> float:
    """The energy deviation written with numpy's median and max."""
    xs = trace.grid()
    profile = np.empty(len(xs))
    for i, xv in enumerate(xs):
        u, upv = trace.eval(float(xv))
        profile[i] = lam * u * u + upv * upv
    med = float(np.median(profile))
    return float(np.max(np.abs(profile - med)) / med)


@pytest.mark.parametrize("lam, trace", [
    (math.pi**2 / 4, closed(math.pi**2 / 4, 1.0, 0.0)),
    (1.0, closed(1.0, 0.3, -2.0)),
    (1.0, SampledTrace(np.linspace(-1.0, 1.0, 2001), np.linspace(-1.0, 1.0, 2001) ** 2,
                       2 * np.linspace(-1.0, 1.0, 2001))),
    (math.pi**2, sampled_from_solution(TrigSolution(math.pi**2, 0.0, 1.0), n=2002)),  # even length
], ids=["cosine", "closed-nonsolution", "sampled-nonsolution", "sampled-even"])
def test_energy_deviation_equals_the_numpy_formula(lam, trace):
    value = energy_deviation(lam, trace)
    assert type(value) is float
    assert value == _numpy_energy_deviation(lam, trace)


def test_median_spread_is_the_numpy_formula():
    profile = np.random.default_rng(3).uniform(0.5, 2.0, size=100).tolist()  # even length
    med = float(np.median(profile))
    spread = float(np.max(np.abs(np.array(profile) - med)) / med)
    assert [v.hex() for v in nodal._median_spread(profile)] == [med.hex(), spread.hex()]
    med, spread = nodal._median_spread([0.0, 0.0, 1.0])
    assert med == 0.0 and math.isnan(spread)
    assert all(math.isnan(v) for v in nodal._median_spread([1.0, math.nan, 2.0, 3.0]))


def test_bc_satisfaction_flags(half_u0_spec):
    psi = TrigSolution(math.pi**2, 0.0, 1.0)
    result = classify(ClosedTrace(psi), spec=half_u0_spec)
    assert result.satisfies_minus_bc is True
    assert result.satisfies_plus_bc is True
    off = TrigSolution(2.0, 0.3, 1.0)
    result = classify(ClosedTrace(off), spec=half_u0_spec)
    assert result.satisfies_minus_bc is False


def test_reflected_trace():
    sol = TrigSolution(7.3, 0.6, -0.9)
    refl = reflected_trace(ClosedTrace(sol))
    for x in (-0.8, -0.1, 0.5):
        u, up = eval_solution(sol, -x)
        ru, rup = refl.eval(x)
        assert ru == pytest.approx(u, rel=1e-12)
        assert rup == pytest.approx(-up, rel=1e-12)


def test_sampled_trace_validation():
    xs = np.linspace(-1.0, 1.0, 101)  # step 0.02 > 1e-3
    with pytest.raises(ValueError):
        SampledTrace(xs, xs, np.ones_like(xs))


def test_sampled_trace_rejects_non_finite_samples():
    # u = cos(pi*(x+1)/2) is S_1^+; with u = NaN at x = 0 it used to
    # classify as S_0^+ without an error.
    xs = np.linspace(-1.0, 1.0, 2001)
    u = np.cos(math.pi * (xs + 1) / 2)
    up = -math.pi / 2 * np.sin(math.pi * (xs + 1) / 2)
    assert "S_1^+" in [m.label() for m in classify(SampledTrace(xs, u, up)).memberships]
    bad_u = u.copy()
    bad_u[1000] = math.nan
    with pytest.raises(ValueError, match="row 1000 is not finite"):
        SampledTrace(xs, bad_u, up)
    bad_up = up.copy()
    bad_up[7] = math.inf
    with pytest.raises(ValueError, match="row 7 is not finite"):
        SampledTrace(xs, u, bad_up)


def _quadratic_t_obstruction(ds, zs):
    for d in ds:
        if any(abs(z - d) <= CLUSTER_TOL for z in zs):
            return "zero-coincidence"
    for d1, d2 in zip(ds, ds[1:]):
        if not any(d1 < z < d2 for z in zs):
            return "no-interleaving-zero"
    return None


_unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def _zero_lists(draw):
    zs = sorted(draw(st.lists(_unit, max_size=10)))
    ds = draw(st.lists(_unit, max_size=8))
    # u'-zeros placed at, or exactly CLUSTER_TOL (and one ulp more or less)
    # away from, u-zeros: the edge of the coincidence test.
    for z in draw(st.lists(st.sampled_from(zs), max_size=4)) if zs else ():
        d = z + draw(st.sampled_from((-CLUSTER_TOL, 0.0, CLUSTER_TOL)))
        ds.append(draw(st.sampled_from((d, math.nextafter(d, -2.0), math.nextafter(d, 2.0)))))
    return sorted(ds), zs


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_zero_lists())
def test_t_obstruction_matches_quadratic_scan(lists):
    ds, zs = lists
    assert _t_obstruction(ds, zs) == _quadratic_t_obstruction(ds, zs)


def test_t_obstruction_at_cluster_tolerance():
    zs = [0.0, 0.5]
    assert _t_obstruction([CLUSTER_TOL], zs) == "zero-coincidence"
    assert _t_obstruction([math.nextafter(CLUSTER_TOL, 1.0)], zs) is None
    assert _t_obstruction([0.1, 0.4], zs) == "no-interleaving-zero"
    assert _t_obstruction([-0.1, 0.1], zs) is None


def _per_cell_sampled_zeros(trace, which, slope_bound):
    """Reference: one np.roots call per candidate cell, in a Python loop."""
    x, dx = trace.x, np.diff(trace.x)
    vals = trace.u if which == "u" else trace.up
    v0, v1 = vals[:-1], vals[1:]
    near = np.minimum(np.abs(v0), np.abs(v1)) <= dx * slope_bound * 1.5 + 1e-300
    cells = hermite_oracle.cells(trace.x, trace.u, trace.up)
    zeros = []
    for i in np.nonzero((v0 * v1 < 0.0) | near)[0]:
        a, b, c, d, h = (v[i] for v in cells)
        poly = np.array([a, b, c, d] if which == "u" else [3.0 * a, 2.0 * b, c])
        lead = np.max(np.abs(poly))
        if lead == 0.0:
            continue
        poly = poly[np.nonzero(np.abs(poly) > 1e-14 * lead)[0][0]:]
        if len(poly) < 2:
            continue
        hi = 1.0 + 1e-12 if i == len(dx) - 1 else 1.0
        roots = [r for r in np.roots(poly) if abs(r.imag) <= 1e-9 and -1e-12 <= r.real < hi]
        if not roots and v0[i] * v1[i] < 0.0:  # a sign change yields the root nearest its cell
            roots = [min(np.roots(poly), key=lambda r: abs(r - 0.5))]
        for r in roots:
            zeros.append(float(x[i] + min(max(r.real, 0.0), 1.0) * h))
    return _merged(zeros)


def _merged(zeros):
    merged = []
    for z in sorted(zeros):
        if not merged or z - merged[-1] >= 1e-10:
            merged.append(z)
    return [z for z in merged if -1.0 + 1e-12 < z < 1.0 - 1e-12]


def _step_poly(trace, k, which):
    """Step k's interpolant of u (of u') in s as a numpy polynomial, expanded
    from the record's Horner form in numpy's polynomial arithmetic."""
    P = np.polynomial.Polynomial
    s, r = P([0.0, 1.0]), P([1.0, -1.0])
    rows = trace._rows[2:, k].reshape(8, 2)[:, int(which == "uprime")].tolist()
    p = P([0.0])
    for i, f in enumerate(rows[:7]):
        p = (p + f) * (r if i % 2 else s)
    return p + rows[7]


def _per_step_np_roots(trace, which):
    """Reference for an IntegratedTrace: np.roots of every step's degree-7
    polynomial, its real roots in [0, 1]."""
    zeros = []
    for k, (t0, h) in enumerate(trace._rows[:2].T.tolist()):
        roots = _step_poly(trace, k, which).roots()
        zeros += [t0 + r.real * h for r in roots if abs(r.imag) <= 1e-9 and 0.0 <= r.real <= 1.0]
    return _merged(zeros)


def _channels(trace):
    return ("u", trace.sup_uprime()), ("uprime", hermite_oracle.sup_usecond(trace.x, trace.u, trace.up))


def _finder_zeros(trace, which):
    return [z for z, _ in _bernstein_zeros(trace, which, DEFAULT_TOL)]


def _assert_zeros_near_np_roots(trace):
    for which, bound in _channels(trace):
        got = _finder_zeros(trace, which)
        if type(trace) is SampledTrace:
            want = _per_cell_sampled_zeros(trace, which, bound)
        else:
            want = _per_step_np_roots(trace, which)
        assert len(got) == len(want)
        assert all(abs(g - w) <= 1e-15 for g, w in zip(got, want))


_X = np.linspace(-1.0, 1.0, 2001)


@st.composite
def _traces(draw):
    """Sampled oscillations with a window rounded to a coarse grid (exact
    zeros and flat cells), a window of exactly linear u (vanishing leading
    coefficients) and scattered exact zeros in both channels."""
    k = draw(st.floats(0.5, 60.0))
    phase = draw(st.floats(-math.pi, math.pi))
    amp = draw(st.sampled_from((1e-7, 1e-2, 1.0, 1e4)))
    u = amp * np.sin(k * _X + phase)
    up = amp * k * np.cos(k * _X + phase)
    start, width = draw(st.integers(0, 2000)), draw(st.integers(0, 80))
    step = draw(st.sampled_from((0.05, 0.3)))
    window = slice(start, start + width)
    u[window] = np.round(u[window] / (amp * step)) * (amp * step)
    up[window] = np.round(up[window] / (amp * k * step)) * (amp * k * step)
    start, width = draw(st.integers(0, 2000)), draw(st.integers(0, 60))
    slope, offset = draw(st.floats(-5.0, 5.0)), draw(st.sampled_from((0.0, 0.25)))
    u[start:start + width] = slope * (_X[start:start + width] - _X[start]) + offset
    up[start:start + width] = slope
    u[draw(st.lists(st.integers(0, 2000), max_size=30))] = 0.0
    up[draw(st.lists(st.integers(0, 2000), max_size=30))] = 0.0
    return SampledTrace(_X, u, up)


_NL = NonlinearitySpec.from_text("xi*(1+3/(1+xi^2))", f0=4.0, finf=1.0)


@st.composite
def _smooth_traces(draw):
    """Sampled oscillations as in ``_traces``, without exact zeros or flat
    windows, or an IntegratedTrace of the worked example's nonlinearity."""
    if draw(st.booleans()):
        return integrate_ivp(_NL, None, draw(st.floats(0.5, 60.0)), draw(st.floats(-1.0, 1.0)),
                             draw(st.floats(0.5, 5.0)))
    k = draw(st.floats(0.5, 60.0))
    phase = draw(st.floats(-math.pi, math.pi))
    amp = draw(st.sampled_from((1e-7, 1e-2, 1.0, 1e4)))
    return SampledTrace(_X, amp * np.sin(k * _X + phase), amp * k * np.cos(k * _X + phase))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_smooth_traces())
def test_batched_cell_roots_equal_per_cell_np_roots(trace):
    """On smooth traces np.roots per piece (the oracle: per candidate Hermite
    cell of a user trace, per DOP853 step of an integrated one) and the
    Bernstein zero finder find as many zeros, each within 1e-15."""
    _assert_zeros_near_np_roots(trace)


# X_k^- := -X_k^+: the negated trace has every membership of the trace, each
# sign flipped, which is what mirrors the nodal labels of a '-' branch.
@settings(derandomize=True, max_examples=40, deadline=None)
@given(_traces())
def test_negated_trace_flips_every_membership_sign(trace):
    negated = SampledTrace(trace.x, 0.0 - trace.u, 0.0 - trace.up)
    try:
        want = [m.negated() for m in classify(trace).memberships]
    except UnresolvableZeros as exc:
        with pytest.raises(UnresolvableZeros, match=re.escape(str(exc))):
            classify(negated)
        return
    assert classify(negated).memberships == want


def _cell_poly(trace, which, i):
    a, b, c, d, _ = (float(v[i]) for v in hermite_oracle.cells(trace.x, trace.u, trace.up))
    return (a, b, c, d) if which == "u" else (0.0, 3.0 * a, 2.0 * b, c)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_traces())
def test_sampled_zeros_are_node_zeros_or_cell_roots(trace):
    """Every cell whose node values change sign holds a reported zero (but the
    end cells, whose zero may lie within ENDPOINT_GUARD of +-1), and every
    reported zero is a node zero or a point of a cell whose Bernstein hull
    meets 0 where that cell's polynomial is 0 up to rounding."""
    x = trace.x.tolist()
    for which, _ in _channels(trace):
        zeros = _finder_zeros(trace, which)
        vals = (trace.u if which == "u" else trace.up).tolist()
        kept = set(nodal._straddling(trace._pieces[2][which == "uprime"]).tolist())
        for i in range(1, len(x) - 2):
            if vals[i] < 0.0 < vals[i + 1] or vals[i + 1] < 0.0 < vals[i]:
                assert any(x[i] - 1e-10 <= z <= x[i + 1] + 1e-10 for z in zeros)
        for z in zeros:
            k = min(int(trace.x.searchsorted(z, side="right")) - 1, len(x) - 2)
            assert any(_cell_holds(trace, which, i, z) for i in (k - 1, k) if i in kept and x[i] <= z <= x[i + 1])


def _cell_holds(trace, which, i, z):
    """z is a zero node of cell i, or a point of cell i where the cell's
    polynomial is 0 up to rounding (of z as well)."""
    x0, x1 = trace.x[i:i + 2].tolist()
    v0, v1 = (trace.u if which == "u" else trace.up)[i:i + 2].tolist()
    if (z == x0 and v0 == 0.0) or (z == x1 and v1 == 0.0):
        return True
    p3, p2, p1, p0 = _cell_poly(trace, which, i)
    s = (z - x0) / (x1 - x0)
    return abs(((p3 * s + p2) * s + p1) * s + p0) <= 1e-11 * (abs(p3) + abs(p2) + abs(p1) + abs(p0))


# A zero within 3e-14 of a node.  For u' the left cell's quadratic has the
# sign change but a far second root, so rounding moves the computed near root
# past the cell's edge, and the right cell's root lies just below its own edge.
@pytest.mark.parametrize("which", ["u", "uprime"])
@pytest.mark.parametrize("w", [2.0, 4.5, 6.0])
@pytest.mark.parametrize("d", [-3e-14, -9e-15, -3e-15, -1e-15, 1e-15, 3e-15, 9e-15, 3e-14])
def test_zero_beside_a_node_is_found(which, w, d):
    x0 = -0.5 + d  # -0.5 is a node of _X
    phase = w * (_X - x0)
    if which == "u":
        trace = SampledTrace(_X, np.sin(phase), w * np.cos(phase))
    else:
        trace = SampledTrace(_X, np.cos(phase), -w * np.sin(phase))
    want = [x0 + n * math.pi / w for n in range(-10, 11) if -1.0 < x0 + n * math.pi / w < 1.0]
    got = [z for z, _ in zeros_of(trace, which)]
    assert got == pytest.approx(want, abs=1e-9)


def test_batched_cell_roots_on_degenerate_cells():
    """The zero search's rules on degenerate cells, channel by channel: a node
    zero is reported at its node, once; a flat zero run gives its edge nodes
    only; a node sign change gives one zero in its cell even where the
    cubic's value at s = 1 rounds to the other sign; a touching critical
    point is one zero."""
    u = np.sin(3.0 * _X)
    up = 3.0 * np.cos(3.0 * _X)
    u[100:140] = 0.5 * (_X[100:140] - _X[100])  # linear: a, b ~ 0, d == 0 at node 100
    up[100:140] = 0.5
    u[600:620] = 0.0  # flat at zero in both channels
    up[600:620] = 0.0
    u[900:960] = 0.0
    up[900:960] = np.linspace(-1e-3, 1e-3, 60)
    u[1000], up[1000] = 1e-30, 0.074  # sign change at node 1000, and p(1) of cell 999 rounds below 0
    h = _X[1501] - _X[1500]  # u = 4 (s - 1/2)^2 on cell 1500: p0 = -4, p1 = 4 exactly
    u[1500:1502], up[1500], up[1501] = 1.0, -4.0 / h, 4.0 / h
    trace = SampledTrace(_X, u, up)
    a, b, c, d, _ = hermite_oracle.cells(trace.x, trace.u, trace.up)
    assert np.any(d == 0.0) and np.any((a == 0.0) & (b != 0.0))
    assert np.any((a == 0.0) & (b == 0.0) & (c != 0.0))  # u: 2 coefficients
    assert np.any((a == 0.0) & (b != 0.0) & (c != 0.0))  # u': 2 coefficients
    a, b, c, d = _cell_poly(trace, "u", 999)
    assert ((a + b) + c) + d < 0.0 < u[1000]
    assert _cell_poly(trace, "u", 1500) == (0.0, 4.0, -4.0, 1.0)
    zeros = {which: _finder_zeros(trace, which) for which in ("u", "uprime")}

    def between(which, lo, hi):
        return [z for z in zeros[which] if _X[lo] <= z <= _X[hi]]

    assert between("u", 99, 101) == [_X[100]]
    for which in ("u", "uprime"):
        assert between(which, 599, 619) == [_X[600], _X[619]]
    beside = between("u", 998, 1001)
    assert len(beside) == 1 and _X[999] <= beside[0] <= _X[1000]
    assert between("u", 1499, 1502) == [_X[1500] + 0.5 * h]


@pytest.mark.parametrize("c", [-3.0, 1e-4, 2.0])
@pytest.mark.parametrize("shift", [0.5, 0.3])
def test_touching_window_gives_the_oracle_s_zeros(c, shift):
    """u = c (x - x0)^2 on a window of cells, x0 inside one of them: the
    Hermite cubics reproduce the parabola up to rounding, and the finder
    reports its double root once where the oracle's critical-point rule sees
    one, within the 1e-10 at which zeros merge: rounding of the samples
    (about 1e-22 for c = 2) may split it into two roots 1e-12 apart."""
    u, up = np.sin(3.0 * _X) + 2.0, 3.0 * np.cos(3.0 * _X)
    x0 = _X[1200] + shift * (_X[1201] - _X[1200])
    window = slice(1195, 1207)
    u[window], up[window] = c * (_X[window] - x0) ** 2, 2.0 * c * (_X[window] - x0)
    trace = SampledTrace(_X, u, up)
    got = [z for z in _finder_zeros(trace, "u") if _X[1195] <= z <= _X[1206]]
    want = [z for z in hermite_oracle.hermite_zeros(_X, u, up, "u") if _X[1195] <= z <= _X[1206]]
    assert len(got) == len(want)
    assert all(abs(g - x0) <= 1e-10 for g in got)


def test_zeros_of_estimates_the_second_derivative_once(monkeypatch):
    """The Bernstein coefficients that bound |u''| (and screen both channels)
    are computed once per trace, however often its zeros are asked for."""
    trace = sampled_from_solution(TrigSolution(30.0, 0.3, 1.0))
    calls = []
    real = SampledTrace._pieces.func
    counted = functools.cached_property(lambda self: calls.append(1) or real(self))
    counted.__set_name__(SampledTrace, "_pieces")
    monkeypatch.setattr(SampledTrace, "_pieces", counted)
    zeros_of(trace, "uprime")
    zeros_of(trace, "u")
    classify(trace)
    assert len(calls) == 1


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, 1.0, -1e-8])
def test_tol_outside_unit_interval_raises(tol):
    trace = closed(math.pi**2, 1.0, 0.4)
    with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
        classify(trace, tol=tol)
    for which in ("u", "uprime"):
        with pytest.raises(ValueError, match=r"tol must lie in \(0, 1\)"):
            zeros_of(trace, which, tol)


def test_valid_tol_classifies():
    result = classify(closed(math.pi**2 / 4, 1.0, 0.0), tol=0.5)
    assert result.status["S"] == ("member", result.member("S"))
    assert [simple for _, simple in result.zeros_u] == [True]


# Zero simplicity from the phase-amplitude form against the rule it stands
# for, evaluated at each zero: lam from the zero cutoff to the scan ceiling,
# including 2w < pi, where |u'|_0 sits at an endpoint.
@st.composite
def _closed_solutions(draw):
    lam = draw(st.one_of(st.just(trig.ZERO_LAMBDA_CUTOFF), st.just(math.pi**2 / 4),
                         st.floats(-10.0, math.log10(3.9e6)).map(lambda e: 10.0**e)))
    w = math.sqrt(lam)
    theta = draw(st.one_of(st.sampled_from((0.0, 0.5 * math.pi, math.pi)), st.floats(-math.pi, math.pi)))
    amp = draw(st.sampled_from((1e-7, 1.0, 1e4)))
    return TrigSolution(lam, amp * math.cos(theta), amp * w * math.sin(theta))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_closed_solutions(), st.sampled_from((1e-14, DEFAULT_TOL, 1e-2, 0.5)))
def test_phase_form_flags_equal_evaluated_flags(sol, tol):
    trace = ClosedTrace(sol)
    sup_u, sup_up = sup_norms(sol)
    for z, simple in zeros_of(trace, "u", tol):
        assert simple == (abs(eval_solution(sol, z)[1]) > tol * sup_up)
    for z, simple in zeros_of(trace, "uprime", tol):
        assert simple == (abs(sol.lam * eval_solution(sol, z)[0]) > tol * abs(sol.lam) * sup_u)


# Work counts that do not depend on the hardware: one classify of a closed
# form costs the same trig evaluations however many zeros it has, and its
# end values, phase form and sup norms are evaluated once, with the trace.
def test_closed_classify_work_does_not_grow_with_zeros(monkeypatch):
    counts = {"fundamental": 0, "closed_values": 0}
    fundamental, closed_values = trig._fundamental, trig._closed_values

    def counting_fundamental(*args):
        counts["fundamental"] += 1
        return fundamental(*args)

    def counting_closed_values(*args):
        counts["closed_values"] += 1
        return closed_values(*args)

    monkeypatch.setattr(trig, "_fundamental", counting_fundamental)
    monkeypatch.setattr(trig, "_closed_values", counting_closed_values)
    monkeypatch.setattr(nodal, "_closed_values", counting_closed_values)
    seen = []
    for k in (0, 40, 400):
        w = (k + 0.3) * math.pi / 2.0  # about k zeros of u and of u' on [-1, 1]
        counts.update(fundamental=0, closed_values=0)
        result = classify(ClosedTrace(TrigSolution(w * w, 1.0, 0.5)))
        assert len(result.zeros_u) == k and len(result.zeros_uprime) in (k, k + 1)
        assert len(result.memberships) == 3
        seen.append(dict(counts))
    assert seen[0] == seen[1] == seen[2] == {"fundamental": 2, "closed_values": 1}


# The count rule against the list rule it replaces, written out here: zero
# lists from a phase walk that starts at the first candidate and stops at
# the right end, S/R from len() and all() over the flags, and T from the
# merge of both lists (which the count rule never runs).
def _walked_zeros(sol: TrigSolution, which: str, tol: float) -> list[tuple[float, bool]]:
    if sol.lam < trig.ZERO_LAMBDA_CUTOFF:
        return zeros_of(ClosedTrace(sol), which, tol)
    w = math.sqrt(sol.lam)
    R = math.hypot(sol.A, sol.B / w)
    offset = math.atan2(sol.B / w, sol.A) + (0.5 * math.pi if which == "u" else 0.0)
    sup_u, sup_up = sup_norms(sol)
    simple = R * w > tol * sup_up if which == "u" else sol.lam * R > tol * sol.lam * sup_u
    zeros, n = [], math.ceil(-offset / math.pi)
    while (y := (offset + n * math.pi) / w) < 2.0 - nodal.ENDPOINT_GUARD:
        if y > nodal.ENDPOINT_GUARD:
            zeros.append((y - 1.0, simple))
        n += 1
    return zeros


def _list_rule(sol: TrigSolution, tol: float) -> dict:
    trace = ClosedTrace(sol)
    (u_m, up_m), (u_p, up_p) = trace.eval(-1.0), trace.eval(1.0)
    sup_u, sup_up = trace.sup_u(), trace.sup_uprime()
    lists = {"zeros_u": [], "zeros_uprime": []}

    def read(name):
        lists[name] = _walked_zeros(sol, "u" if name == "zeros_u" else "uprime", tol)
        return lists[name]

    status = {}
    sign = lambda v: "+" if v > 0.0 else "-"
    if min(abs(u_m), abs(u_p)) <= tol * sup_u:
        status["S"] = ("unclassified", "boundary-degenerate")
    else:
        zu = read("zeros_u")
        ok = all(s for _, s in zu)
        status["S"] = ("member", nodal.NodalClass("S", len(zu), sign(u_m))) if ok else ("unclassified", "nonsimple-zero")
    if sup_up == 0.0 or min(abs(up_m), abs(up_p)) <= tol * sup_up:
        status["T"] = ("unclassified", "boundary-degenerate")
    else:
        zup = read("zeros_uprime")
        if not all(s for _, s in zup):
            status["T"] = ("unclassified", "nonsimple-zero")
        else:
            reason = _t_obstruction([d for d, _ in zup], [z for z, _ in read("zeros_u")])
            status["T"] = ("unclassified", reason) if reason else ("member", nodal.NodalClass("T", len(zup), sign(up_m)))
    if sup_up == 0.0 or abs(up_m) <= tol * sup_up or abs(u_p) <= tol * sup_u:
        status["R"] = ("unclassified", "boundary-degenerate")
    else:
        zu = read("zeros_u")
        if not all(s for _, s in zu):
            status["R"] = ("unclassified", "nonsimple-zero")
        else:
            s, z = sign(up_m), len(zu)
            k = z if (z % 2 == 0) == ((u_p > 0.0) == (s == "+")) else z - 1
            status["R"] = ("member", nodal.NodalClass("R", k, s, note="nonstandard" if k == -1 else ""))
    return {"memberships": [e[1] for e in status.values() if e[0] == "member"], "status": status,
            "boundary": {"u(-1)": u_m, "u(1)": u_p, "uprime(-1)": up_m, "uprime(1)": up_p}, **lists}


def _as_dict(result) -> dict:
    names = ("memberships", "status", "boundary", "zeros_u", "zeros_uprime")
    return {name: getattr(result, name) for name in names}


@st.composite
def _phase_placed_solutions(draw):
    """lam of both signs over 1e-10..3.9e6, with phases that put a zero of u
    or u' on an endpoint or ENDPOINT_GUARD inside it (to rounding, or a few
    ulps off), or anywhere."""
    mag = draw(st.one_of(st.just(trig.ZERO_LAMBDA_CUTOFF),
                         st.floats(-10.0, math.log10(3.9e6)).map(lambda e: 10.0**e)))
    lam = mag if draw(st.booleans()) else -mag
    w = math.sqrt(mag)
    n = draw(st.integers(-2, 2))
    quarter = draw(st.sampled_from((0.0, 0.5 * math.pi)))  # a zero of u' or of u
    y = draw(st.sampled_from((0.0, nodal.ENDPOINT_GUARD, 2.0 - nodal.ENDPOINT_GUARD, 2.0)))
    theta = draw(st.one_of(st.just(w * y - quarter - n * math.pi), st.floats(-math.pi, math.pi)))
    for _ in range(draw(st.integers(0, 3))):
        theta = math.nextafter(theta, draw(st.sampled_from((-math.inf, math.inf))))
    amp = draw(st.sampled_from((1e-7, 1.0, 1e4)))
    return TrigSolution(lam, amp * math.cos(theta), amp * w * math.sin(theta))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_phase_placed_solutions(), st.sampled_from((1e-14, DEFAULT_TOL, 1e-2, 0.5)))
def test_count_rule_equals_list_rule(sol, tol):
    try:
        want = _list_rule(sol, tol)
    except OverflowError:  # cosh(2w) past the float range: no trace to classify
        with pytest.raises(OverflowError):
            classify(ClosedTrace(sol), tol)
        return
    assert _as_dict(classify(ClosedTrace(sol), tol)) == want


# Zero counts replace zero lists up to PHASE_COUNT_W_MAX; beyond it the
# lists decide, and the verdicts are the list rule's.
@pytest.mark.parametrize("w", [nodal.PHASE_COUNT_W_MAX * (1 + 1e-9), 2e4])
def test_lists_decide_beyond_the_count_bound(w, monkeypatch):
    calls = []
    closed_zeros = nodal._closed_zeros
    monkeypatch.setattr(nodal, "_closed_zeros", lambda *a: calls.append(a[1]) or closed_zeros(*a))
    for theta in (0.3, 1.9):
        sol = TrigSolution(w * w, math.cos(theta), w * math.sin(theta))
        calls.clear()
        result = classify(ClosedTrace(sol))
        assert sorted(calls) == ["u", "uprime"]
        assert len(result.zeros_u) > 6000 and _as_dict(result) == _list_rule(sol, DEFAULT_TOL)


# The work count: classifying a closed form builds no zero list; a list is
# built when it is read, and == does not depend on whether it has been read.
@pytest.mark.parametrize("k", [0, 40, 400])
def test_closed_classify_builds_no_zero_list(k, monkeypatch):
    calls = []
    closed_zeros = nodal._closed_zeros
    monkeypatch.setattr(nodal, "_closed_zeros", lambda *a: calls.append(a[1]) or closed_zeros(*a))
    w = (k + 0.3) * math.pi / 2.0
    trace = ClosedTrace(TrigSolution(w * w, 1.0, 0.5))
    read, unread, fresh, other = (classify(trace) for _ in range(4))
    assert calls == [] and len(read.memberships) == 3
    assert read.zeros_u == zeros_of(trace, "u", DEFAULT_TOL) and len(read.zeros_u) == k
    assert calls == ["u", "u"]
    assert read == unread and fresh == other and repr(read) == repr(fresh)
    assert classify(trace, 1e-14) == classify(trace, 1e-14) != classify(trace, 0.5)


_XI = NonlinearitySpec.from_text("xi", f0=1.0, finf=1.0)


# u'(-1) away from 0: a trace whose amplitude nears IVP_ATOL (a = b = 1e-13,
# say) is integrated to an absolute 1e-12, so its zeros are noise in either
# interpolant (ROADMAP item 2), and they differ.
_SLOPES = st.floats(0.1, 5.0).flatmap(lambda b: st.sampled_from((b, -b)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from([_XI, _NL]), st.floats(0.5, 60.0), st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), _SLOPES)
def test_step_zeros_agree_with_the_hermite_finder(nl, lam, a, b):
    """Integrated traces of f = xi and of the worked f: the hull screen keeps
    a step at every GRID sign change of u and of u'; the step polynomials'
    zeros give the Hermite oracle's memberships wherever no family is
    boundary-degenerate (and raise where it raises), its zeros of u within
    1e-9, and zeros of u' within 1e-9 of an rtol 1e-13 integration's."""
    trace = integrate_ivp(nl, None, lam, a, b)
    starts, _, coeffs = trace._pieces
    for channel, y in enumerate((trace.u, trace.up)):
        kept = set(nodal._straddling(coeffs[channel]).tolist())
        for i in np.flatnonzero(y[:-1] * y[1:] < 0.0).tolist():
            first, last = (max(int(starts.searchsorted(x)) - 1, 0) for x in trace.x[i:i + 2])
            assert kept.intersection(range(first, last + 1))
    results = []
    for finder in (zeros_of, hermite_oracle.zeros_of):
        with mock.patch.object(nodal, "zeros_of", finder):
            try:
                results.append(classify(trace))
            except UnresolvableZeros:
                results.append(None)
    got, want = results
    assert (got is None) == (want is None)
    if got is None:
        return
    if ("unclassified", "boundary-degenerate") not in got.status.values():
        assert got.memberships == want.memberships
    mine, theirs = zeros_of(trace, "u"), hermite_oracle.zeros_of(trace, "u")
    assert len(mine) == len(theirs) and all(abs(z - w) <= 1e-9 for (z, _), (w, _) in zip(mine, theirs))
    tight = integrate_ivp(nl, None, lam, a, b, rtol=1e-13, atol=1e-15)
    mine, theirs = zeros_of(trace, "uprime"), zeros_of(tight, "uprime")
    assert len(mine) == len(theirs) and all(abs(z - w) <= 1e-9 for (z, _), (w, _) in zip(mine, theirs))
