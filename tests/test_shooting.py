import functools
import math
import operator
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpsl.errors import DivergenceError, NoConvergence, SingularSystem
from mpsl.expressions import ForcingTerm, NonlinearitySpec, parse_expr
from mpsl.problem import BoundarySide, ProblemSpec
from mpsl import shooting
from mpsl.shooting import (
    IVP_ATOL,
    IVP_RTOL,
    IntegratedTrace,
    SampledSolution,
    bvp_jacobian,
    bvp_residual,
    collocation_residual,
    damped_newton,
    integrate_ivp,
    nonlinear_energy_deviation,
    nonresonance_check,
    solve_bvp,
    solve_bvp_multistart,
)
from mpsl.nodal import SampledTrace
from mpsl.spectrum import continuation_spectrum
from mpsl.trig import TrigSolution, eval_solution

LIN = NonlinearitySpec.from_text("xi", f0=1.0, finf=1.0)


def test_integrate_linear_reduction():
    lam = math.pi**2 / 4
    tr = integrate_ivp(LIN, None, lam, 0.0, 1.0)
    exact = TrigSolution(lam, 0.0, 1.0)
    for x in np.linspace(-1.0, 1.0, 81):
        u, up = tr.eval(float(x))
        eu, eup = eval_solution(exact, float(x))
        assert u == pytest.approx(eu, abs=1e-9)
        assert up == pytest.approx(eup, abs=1e-9)
    assert collocation_residual(tr, LIN, None, lam) <= 1e-7


def test_integrate_trivial_solution():
    nl = NonlinearitySpec.from_text("xi^3", f0=1.0, finf=math.inf)
    tr = integrate_ivp(nl, None, 1.0, 0.0, 0.0)
    assert tr.sup_u() == 0.0


def test_integrate_dense_output_step():
    tr = integrate_ivp(LIN, None, 1.0, 0.3, -0.2)
    assert np.max(np.diff(tr.x)) <= 1e-3 * (1 + 1e-9)
    assert tr.x[0] == -1.0 and tr.x[-1] == 1.0


def test_trace_nodes_cannot_be_corrupted():
    # Every IntegratedTrace samples the one shared node array.
    first = integrate_ivp(LIN, None, 2.0, 0.3, -0.2)
    assert not first.x.flags.writeable
    with pytest.raises(ValueError):
        first.x[1000] = 0.5
    with pytest.raises(ValueError):
        first.x.flags.writeable = True
    second = integrate_ivp(LIN, None, 2.0, 0.3, -0.2)
    assert np.array_equal(second.x, np.linspace(-1.0, 1.0, 2001))
    assert np.array_equal(second.u, first.u) and np.array_equal(second.up, first.up)


def test_shared_passes_classify_as_a_plain_sampled_trace(half_u0_spec, monkeypatch):
    # An IntegratedTrace takes its nodes, sup norms and cell data from passes
    # shared with its construction; a SampledTrace on copies of its samples
    # recomputes each.  Both classify every accepted point of the worked
    # example's branches and nodal pair alike, bit for bit.
    from mpsl import branching
    from mpsl.nodal import SampledTrace, classify

    traces = []
    monkeypatch.setattr(branching, "classify", lambda trace: traces.append(trace) or classify(trace))
    nl = NonlinearitySpec.from_text("xi*(1+3/(1+xi^2))", f0=4.0, finf=1.0)
    for sign in "+-":
        branching.branch_from_zero(half_u0_spec, nl, 0, sign)
    branching.nodal_solutions_at_one(half_u0_spec, nl, 0)
    assert len(traces) > 200 and all(type(t) is IntegratedTrace for t in traces)
    for trace in traces:
        plain = SampledTrace(trace.x.copy(), trace.u.copy(), trace.up.copy())
        got, want = classify(trace), classify(plain)
        assert got.memberships == want.memberships and got.status == want.status
        for name in ("zeros_u", "zeros_uprime"):
            assert [(z.hex(), simple) for z, simple in getattr(got, name)] == \
                [(z.hex(), simple) for z, simple in getattr(want, name)]
        for sup in ("sup_u", "sup_uprime", "sup_usecond"):
            assert getattr(trace, sup)().hex() == getattr(plain, sup)().hex()


WORKED = NonlinearitySpec.from_text("xi*(1+3/(1+xi^2))", f0=4.0, finf=1.0)


def _per_node_samples(trace):
    """A trace's samples as the per-node formula gives them: each node's step
    by searchsorted, every per-step array gathered by take, then the Horner
    loop of ``IntegratedTrace._dense``."""
    t_old, h, F, y_old = (np.array(v, dtype=float) for v in zip(*trace._steps))
    F, y_old = F.transpose(1, 2, 0), y_old.T  # (power, state, step), (state, step)
    seg = np.clip(np.searchsorted(t_old, shooting.GRID, side="left") - 1, 0, len(h) - 1)
    s = (shooting.GRID - t_old.take(seg)) / h.take(seg)
    r = 1 - s
    y = np.zeros((y_old.shape[0], len(seg)))
    for i, rows in enumerate(F.take(seg, axis=2)):
        y += rows
        y *= r if i % 2 else s
    return y + y_old.take(seg, axis=1)


def _per_channel_candidates(trace):
    """The zero search's candidate cells and exact-zero nodes, channel by
    channel, and |u''|_0's estimate, each by the formula on the samples."""
    x, u, up = trace.x, trace.u, trace.up
    h = x[1:] - x[:-1]
    p0, p1 = h * up[:-1], h * up[1:]
    a = 2.0 * u[:-1] + p0 - 2.0 * u[1:] + p1
    b = -3.0 * u[:-1] - 2.0 * p0 + 3.0 * u[1:] - p1
    usecond = float(np.max(np.maximum(np.abs(2.0 * b), np.abs(6.0 * a + 2.0 * b)) / (h * h)))
    cells, nodes = [], []
    for vals, bound in ((u, trace.sup_uprime()), (up, usecond)):
        v0, v1 = vals[:-1], vals[1:]
        near = np.minimum(np.abs(v0), np.abs(v1)) <= h * bound * 1.5 + 1e-300
        cells.append(np.nonzero((v0 * v1 < 0.0) | near)[0].tolist())
        nodes.append(np.flatnonzero(vals == 0.0).tolist())
    return cells, nodes, usecond


@st.composite
def _drawn_traces(draw):
    """An IntegratedTrace of f = xi or of the worked f, u(-1) = 0 among the
    starts, or a SampledTrace on its samples with exact zeros at drawn nodes
    and a window where u = c*(x - x0)^2, whose cell cubic touches zero at its
    critical point x0 inside a cell; or an IntegratedTrace on made-up steps
    that start at nodes, which belong to the step below."""
    if draw(st.integers(0, 4)) == 0:
        starts = [0, *sorted(set(draw(st.lists(st.integers(1, 1999), min_size=1, max_size=12))))]
        t_old = shooting.GRID[starts].tolist()
        h = [b - a for a, b in zip(t_old, t_old[1:] + [1.0])]
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return IntegratedTrace(t_old, h, rng.uniform(-1.0, 1.0, (len(h), 7, 2)).tolist(),
                               rng.uniform(-1.0, 1.0, (len(h), 2)).tolist())
    nl = draw(st.sampled_from([LIN, WORKED]))
    a = draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)))
    trace = integrate_ivp(nl, None, draw(st.floats(0.1, 400.0)), a, draw(st.floats(-3.0, 3.0)))
    if draw(st.booleans()):
        return trace
    x, u, up = trace.x, trace.u.copy(), trace.up.copy()
    u[draw(st.lists(st.integers(0, 2000), max_size=20))] = 0.0
    up[draw(st.lists(st.integers(0, 2000), max_size=20))] = 0.0
    i, width = draw(st.integers(10, 1990)), draw(st.integers(1, 10))
    x0, c = 0.5 * (x[i] + x[i + 1]), draw(st.sampled_from((-3.0, 1e-4, 2.0)))
    window = slice(i - width + 1, i + width + 1)
    u[window], up[window] = c * (x[window] - x0) ** 2, 2.0 * c * (x[window] - x0)
    return SampledTrace(x, u, up)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_drawn_traces())
def test_resample_and_candidate_pass_are_the_per_node_and_per_channel_formulas(trace):
    # The samples of an IntegratedTrace come from its steps located in GRID
    # once and expanded by np.repeat, and the zero search's candidates of u
    # and u' from one pass over both channels; each is the same, bit for
    # bit, as the formula it replaces.
    if type(trace) is IntegratedTrace:
        assert trace._y.tobytes() == _per_node_samples(trace).tobytes()
    cells, nodes, usecond = _per_channel_candidates(trace)
    assert trace.sup_usecond().hex() == usecond.hex()
    assert [c.tolist() for c, _, _ in trace._candidates] == cells
    assert [n.tolist() for _, n, _ in trace._candidates] == nodes
    assert [b.hex() for _, _, b in trace._candidates] == [trace.sup_uprime().hex(), usecond.hex()]


def test_linear_energy_identity_on_integrated_trace():
    from mpsl.nodal import energy_deviation

    lam = 7.3
    tr = integrate_ivp(LIN, None, lam, 0.4, -0.9)
    assert energy_deviation(lam, tr) <= 1e-8


def test_nonlinear_energy_identity():
    nl = NonlinearitySpec.from_text("xi*(1+3/(1+xi^2))", f0=4.0, finf=1.0)
    tr = integrate_ivp(nl, None, 0.5, 0.0, 0.1)
    assert nonlinear_energy_deviation(tr, nl, 0.5) <= 1e-8


@pytest.mark.parametrize("nl, lam, a, b", [
    (LIN, 7.3, 0.4, -0.9),
    (NonlinearitySpec.from_text("xi*(1+3/(1+xi^2))", f0=4.0, finf=1.0), 0.5, 0.0, 3.0),
], ids=["linear", "worked-example"])
def test_nonlinear_energy_deviation_equals_the_numpy_formula(nl, lam, a, b):
    tr = integrate_ivp(nl, None, lam, a, b)
    idx = shooting._energy_nodes(len(tr.x))
    up = tr.up[idx]
    vals = lam * nl.F_many(tr.u[idx]) + up * up
    med = float(np.median(vals))
    want = float(np.max(np.abs(vals - med)) / med)
    assert nonlinear_energy_deviation(tr, nl, lam).hex() == want.hex()


def test_blowup_detection():
    # -u'' = lam*(-u) with lam large: pure exponential growth past 1e12
    # well before x = 1.
    nl = NonlinearitySpec.from_text("-xi", f0=1.0, finf=1.0)
    with pytest.raises(DivergenceError) as exc:
        integrate_ivp(nl, None, 3600.0, 1.0, 60.0)
    assert -1.0 <= exc.value.x <= 1.0
    # The reported x is the end of the integrator's first step with
    # |u| > 1e12: the first of its step ends at or after the root of
    # |u| = 1e12 that a terminal event of scipy's solve_ivp locates.
    from scipy.integrate import solve_ivp

    def blowup(x, y):
        return abs(y[0]) - shooting.BLOWUP_LIMIT

    blowup.terminal = True
    sol = solve_ivp(lambda x, y: (y[1], -3600.0 * nl.f(y[0])), (-1.0, 1.0), (1.0, 60.0),
                    method="DOP853", rtol=IVP_RTOL, atol=IVP_ATOL, events=blowup)
    root = sol.t_events[0][0]
    ends = []
    with pytest.raises(DivergenceError):
        for t, _, _ in shooting._march(nl, None, (3600.0,), [1.0, 60.0], IVP_RTOL, IVP_ATOL,
                                       lambda t: False):
            ends.append(t)
    assert ends[-1] < root <= exc.value.x


def test_solve_bvp_criterion_six_config(half_u0_spec):
    nl = NonlinearitySpec.from_text("xi/(1+abs(xi))", f0=1.0, finf=0.0)
    h = ForcingTerm.from_text("x")
    sol = solve_bvp_multistart(half_u0_spec, nl, h, 1.0)
    assert sol.accepted()
    assert sol.collocation_residual <= 1e-7
    # independent re-integration at tighter tolerance
    tr2 = integrate_ivp(nl, h, 1.0, sol.shooting.a, sol.shooting.b,
                        rtol=1e-12, atol=1e-13)
    for x in np.linspace(-1.0, 1.0, 41):
        assert tr2.eval(float(x))[0] == pytest.approx(sol.trace.eval(float(x))[0], abs=1e-8)


def test_solve_bvp_linear_nonresonant_homogeneous(half_u0_spec):
    sol = solve_bvp(half_u0_spec, LIN, None, 1.0, (0.1, 0.1))
    assert sol.amplitude <= 1e-9


def test_solve_bvp_at_exact_resonance(half_u0_spec):
    # At lam = lam_0 with h = 0 the problem is resonant: the Jacobian is
    # singular up to finite-difference noise.  Either the guard fires or
    # Newton lands somewhere on the eigenline (every multiple of psi_0
    # solves the problem there) -- never on a spurious answer.
    ep = continuation_spectrum(half_u0_spec, 0)[0]
    try:
        sol = solve_bvp(half_u0_spec, LIN, None, ep.lam, (ep.psi.A + 0.1, ep.psi.B - 0.05))
    except (SingularSystem, NoConvergence):
        return
    ratio = sol.shooting.b / ep.psi.B
    assert sol.shooting.a == pytest.approx(ratio * ep.psi.A, abs=1e-8)


def test_solve_bvp_forced_resonance_fails(half_u0_spec):
    # Forcing with a component along the eigenfunction leaves no solution at
    # resonance: the solver must fail rather than fabricate one.
    ep = continuation_spectrum(half_u0_spec, 0)[0]
    h = ForcingTerm.from_text("1")
    with pytest.raises((SingularSystem, NoConvergence)):
        solve_bvp(half_u0_spec, LIN, h, ep.lam, (0.3, 0.4))


def test_bvp_residual_returns_the_solution_record(half_u0_spec):
    F, err, sol = bvp_residual(half_u0_spec, LIN, None, np.array([2.0, 0.3, 0.4]))
    assert isinstance(sol, SampledSolution)
    assert (sol.shooting.lam, sol.shooting.a, sol.shooting.b) == (2.0, 0.3, 0.4)
    assert sol.shooting.residuals == tuple(F)
    assert err == max(abs(r) / s for r, s in zip(F, sol.scales))
    assert sol.scales == tuple(side.scale(sol.trace.sup_u(), sol.trace.sup_uprime())
                               for side in half_u0_spec.sides)


def test_shooting_jacobian_conditioning_near_spectrum(half_u0_spec):
    # For f = xi the shooting Jacobian degenerates exactly on the spectrum:
    # near lam_0 its condition number dwarfs the mid-gap value.
    def jac_cond(lam):
        base = bvp_residual(half_u0_spec, LIN, None, (lam, 0.3, 0.4))[0]
        J = np.empty((2, 2))
        for col, d in enumerate(((1e-6, 0.0), (0.0, 1e-6))):
            r = bvp_residual(half_u0_spec, LIN, None, (lam, 0.3 + d[0], 0.4 + d[1]))[0]
            J[:, col] = [(r[0] - base[0]) / 1e-6, (r[1] - base[1]) / 1e-6]
        return np.linalg.cond(J)

    lam0 = continuation_spectrum(half_u0_spec, 0)[0].lam
    mid = 0.5 * (lam0 + math.pi**2)
    assert jac_cond(lam0 + 0.01) > 1e3 * 0.001
    assert jac_cond(lam0 + 0.01) / jac_cond(mid) > 1e3 * 1e-3
    assert jac_cond(lam0 + 1e-7) > 1e3 * jac_cond(mid)


@pytest.mark.parametrize("z", [(0.5, 0.0, 1.5), (0.3, 0.0, 4.0), (0.25, 0.0, 10.0)])
def test_bvp_jacobian_is_the_forward_difference_of_bvp_residual(half_u0_spec, z):
    nl = NonlinearitySpec.from_text("xi*(1+3.7/(1+xi^2))", f0=4.7, finf=1.0)
    z = np.array(z)
    J = bvp_jacobian(half_u0_spec, nl, None, z, (0, 1, 2))
    F = bvp_residual(half_u0_spec, nl, None, z)[0]

    def tight(z):
        trace = integrate_ivp(nl, None, *z, rtol=1e-13, atol=1e-15)
        return np.array([side.residual(trace.eval) for side in half_u0_spec.sides])

    sequential, central = np.empty((2, 3)), np.empty((2, 3))
    for j in range(3):
        e = np.eye(3)[j]
        dz = 1e-6 * abs(z[j]) or 1e-6  # the kernel's probe
        sequential[:, j] = (bvp_residual(half_u0_spec, nl, None, z + dz * e)[0] - F) / dz
        c = 1e-4 * (1.0 + abs(z[j]))
        central[:, j] = (tight(z + c * e) - tight(z - c * e)) / (2.0 * c)
    assert np.max(np.abs(J - sequential)) <= 1e-8 * np.max(np.abs(sequential))
    assert np.max(np.abs(J - central)) <= 1e-5 * np.max(np.abs(central))
    # Columns follow the order of free; another batch takes other steps.
    J21 = bvp_jacobian(half_u0_spec, nl, None, z, (2, 1))
    assert np.max(np.abs(J21 - J[:, [2, 1]])) <= 1e-8 * np.max(np.abs(J))


def test_corrector_asks_for_no_jacobian_at_an_accepted_prediction(half_u0_spec, monkeypatch):
    # For f = xi every predicted point of the branch lies on the eigenline,
    # so the corrector accepts it with no Newton iteration.
    from mpsl import branching

    def no_jacobian(*args):
        raise AssertionError("Jacobian computed at an accepted point")

    monkeypatch.setattr(branching, "bvp_jacobian", no_jacobian)
    br = branching.branch_from_zero(half_u0_spec, LIN, 0, "+", amplitude_cap=1e2)
    assert br.termination == branching.TERM_AMPLITUDE


def _toy(fun):
    """A damped_newton residual from F(z): err is max |F_i|, payload is F."""
    def residual(z):
        F = np.asarray(fun(z), dtype=float)
        return F, float(np.max(np.abs(F))), F
    return residual


def test_damped_newton_converges_on_free_coordinates():
    # Circle x^2 + y^2 = 4 meets the diagonal at (sqrt 2, sqrt 2); the middle
    # coordinate is a passenger the kernel must leave alone.
    res = _toy(lambda z: [z[0] ** 2 + z[2] ** 2 - 4.0, z[0] - z[2]])
    jac = lambda z: np.array([[2.0 * z[0], 2.0 * z[2]], [1.0, -1.0]])
    z, F = damped_newton(res, jac, (1.0, 7.0, 0.5), (0, 2), tol=1e-12, max_iter=20)
    assert z[0] == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert z[2] == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert z[1] == 7.0
    assert np.max(np.abs(F)) <= 1e-12


def test_damped_newton_accepts_tolerance_on_last_iteration():
    # A linear residual is solved by one Newton step, so a budget of one
    # iteration suffices: the result must be returned, not raised.
    res = _toy(lambda z: [z[0] - 0.25])
    z, _ = damped_newton(res, lambda z: np.array([[1.0]]), (3.0,), (0,), tol=1e-8, max_iter=1)
    assert z[0] == pytest.approx(0.25, abs=1e-8)
    with pytest.raises(NoConvergence, match="budget"):
        damped_newton(_toy(lambda z: [z[0] ** 3 - 8.0]), lambda z: np.array([[3.0 * z[0] ** 2]]),
                      (5.0,), (0,), tol=1e-8, max_iter=1)


def test_damped_newton_cond_limit():
    # Scales 1 and 1e-14: solvable, but beyond a 1e12 condition limit.
    res = _toy(lambda z: [z[0] - 1.0, 1e-14 * z[1]])
    jac = lambda z: np.diag([1.0, 1e-14])
    z, _ = damped_newton(res, jac, (0.0, 1.0), (0, 1), tol=1e-10, max_iter=5)
    assert z[0] == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(SingularSystem):
        damped_newton(res, jac, (0.0, 1.0), (0, 1), tol=1e-10, max_iter=5, cond_limit=1e12)


def test_damped_newton_probe_divergence_is_no_convergence():
    def jac(z):
        raise DivergenceError(0.5)

    with pytest.raises(NoConvergence, match="probe"):
        damped_newton(_toy(lambda z: [1.0]), jac, (1.0,), (0,), tol=1e-8, max_iter=5)


def test_multistart_deterministic(half_u0_spec):
    nl = NonlinearitySpec.from_text("xi/(1+abs(xi))", f0=1.0, finf=0.0)
    h = ForcingTerm.from_text("x")
    s1 = solve_bvp_multistart(half_u0_spec, nl, h, 1.0)
    s2 = solve_bvp_multistart(half_u0_spec, nl, h, 1.0)
    assert s1.shooting.a == s2.shooting.a
    assert s1.shooting.b == s2.shooting.b
    assert list(s1.trace.u) == list(s2.trace.u)


def _counted_solves(monkeypatch) -> list:
    """Record (nl, lam, start) of every ``solve_bvp`` call from here on."""
    calls = []
    solve = shooting.solve_bvp

    def counting(spec, nl, h, lam, start):
        calls.append((nl, lam, tuple(start)))
        return solve(spec, nl, h, lam, start)

    monkeypatch.setattr(shooting, "solve_bvp", counting)
    return calls


def test_multistart_is_the_first_axis_start_where_that_one_solves(half_u0_spec):
    # The selftest's forced problem: (0, 1) solves it, so the answer is that
    # solve's, bit for bit.
    nl = NonlinearitySpec.from_text("xi/(1+abs(xi))", f0=1.0, finf=0.0)
    h = ForcingTerm.from_text("x")

    def hexes(sol):
        return [float(v).hex() for v in (sol.shooting.a, sol.shooting.b, *sol.trace.u, *sol.trace.up)]

    assert hexes(solve_bvp_multistart(half_u0_spec, nl, h, 1.0)) == hexes(
        solve_bvp(half_u0_spec, nl, h, 1.0, (0.0, 1.0)))


# A forced sublinear problem on which every axis start stops at a scaled
# residual of about 1e-2 ("damping exhausted"); the continuation in lam from
# -u'' = h reaches its solution.
def test_multistart_continues_from_the_linear_problem_where_the_axis_starts_fail(monkeypatch):
    spec = ProblemSpec(
        minus=BoundarySide(0.5582991359201157, -1.9854409272852585, side="minus"),
        plus=BoundarySide(1.6415742184361892, 1.4005627939316034, (0.412003298287241,), (0.0,),
                          (-0.167247,), "plus"),
    )
    nl = NonlinearitySpec.from_text("xi/(1+abs(xi))", f0=1.0, finf=0.0)
    h = ForcingTerm.from_text("1.5219703048977613*x")
    calls = _counted_solves(monkeypatch)
    sol = solve_bvp_multistart(spec, nl, h, 1.0)
    assert [start for _, _, start in calls[:4]] == list(shooting.AXIS_STARTS)
    assert calls[4] == (None, 0.0, (0.0, 0.0))
    rungs = shooting.LAMBDA_RUNGS
    assert [lam for _, lam, _ in calls[5:]] == [j / rungs for j in range(1, rungs + 1)]
    assert sol.accepted() and sol.shooting.lam == 1.0
    for r, scale in zip(sol.shooting.residuals, sol.scales):
        assert abs(r) <= 1e-8 * scale
    tight = integrate_ivp(nl, h, 1.0, sol.shooting.a, sol.shooting.b, rtol=1e-12, atol=1e-14)
    for side, scale in zip(spec.sides, sol.scales):
        assert abs(side.residual(tight.eval)) <= 1e-8 * scale
    assert sol.shooting.a == pytest.approx(-2.2155, abs=1e-4)
    assert sol.shooting.b == pytest.approx(-0.6230, abs=1e-4)


# u'(-1) = 0 and u'(1) = 0.5*u'(0).  For -u'' = g with g > 0 these give
# 0.5*int_{-1}^0 g + int_0^1 g = 0, so with g = xi/(1+abs(xi)) + 3 > 2 there
# is no solution, whether the 3 is written as h or as part of f.
NO_SOLUTION_SPEC = ProblemSpec(
    minus=BoundarySide(0.0, -1.0, side="minus"),
    plus=BoundarySide(0.0, 1.0, alpha=(0.0,), beta=(0.5,), eta=(0.0,), side="plus"),
)


def test_multistart_reports_the_smallest_residual_of_its_starts():
    nl = NonlinearitySpec.from_text("xi/(1+abs(xi))", f0=1.0, finf=0.0)
    h = ForcingTerm.from_text("3")
    residuals = []
    for start in shooting.AXIS_STARTS:
        try:
            solve_bvp(NO_SOLUTION_SPEC, nl, h, 1.0, start)
        except NoConvergence as exc:
            residuals.append(exc.best_residual)
        except SingularSystem:
            pass
    assert math.isfinite(min(residuals))
    with pytest.raises(NoConvergence, match="not found from 4 axis starts or by continuation in lambda") as info:
        solve_bvp_multistart(NO_SOLUTION_SPEC, nl, h, 1.0)
    assert info.value.best_residual == min(residuals)


@pytest.mark.parametrize("rung", [1, 4, shooting.LAMBDA_RUNGS])
@pytest.mark.parametrize("failure", [NoConvergence(1e-4), SingularSystem(1e15), DivergenceError(0.5)])
def test_a_failing_rung_ends_the_ladder_with_the_axis_starts_residual(rung, failure, half_u0_spec, monkeypatch):
    # The linear solve and the rungs below `rung` pass; the rung's own
    # failure ends the ladder, and its residual (1e-4) is not reported.
    axis = iter([NoConvergence(3e-2), SingularSystem(1e15), NoConvergence(2e-3), DivergenceError(0.5)])
    lams = []

    def solving(spec, nl, h, lam, start):
        lams.append(lam)
        if len(lams) <= len(shooting.AXIS_STARTS):
            raise next(axis)
        if len(lams) == len(shooting.AXIS_STARTS) + 1 + rung:
            raise failure
        return SimpleNamespace(amplitude=1.0, shooting=SimpleNamespace(a=lam, b=1.0))

    monkeypatch.setattr(shooting, "solve_bvp", solving)
    with pytest.raises(NoConvergence, match=r"residual 2\.000e-03\): not found from 4 axis starts or by "
                                            r"continuation in lambda from -u'' = h$") as info:
        solve_bvp_multistart(half_u0_spec, LIN, ForcingTerm.from_text("x"), 2.0)
    assert info.value.best_residual == 2e-3
    assert lams[4:] == [0.0] + [2.0 * j / shooting.LAMBDA_RUNGS for j in range(1, rung + 1)]


def test_unforced_multistart_makes_no_fallback_solve(monkeypatch):
    nl = NonlinearitySpec.from_text("xi/(1+abs(xi)) + 3", f0=1.0, finf=0.0)
    calls = _counted_solves(monkeypatch)
    with pytest.raises(NoConvergence, match="not found from 4 axis starts$"):
        solve_bvp_multistart(NO_SOLUTION_SPEC, nl, None, 1.0)
    assert [start for _, _, start in calls] == list(shooting.AXIS_STARTS)


def test_zero_forcing_climbs_no_ladder(monkeypatch):
    # h = 0 makes the linear solution u = 0, which every rung would keep; an
    # exactly zero solution must not be returned.
    nl = NonlinearitySpec.from_text("xi/(1+abs(xi)) + 3", f0=1.0, finf=0.0)
    calls = _counted_solves(monkeypatch)
    with pytest.raises(NoConvergence, match="or by continuation"):
        solve_bvp_multistart(NO_SOLUTION_SPEC, nl, ForcingTerm.from_text("0"), 1.0)
    assert calls[4:] == [(None, 0.0, (0.0, 0.0))]


def test_multistart_takes_the_smallest_residual_and_skips_other_failures(half_u0_spec, monkeypatch):
    failures = iter([NoConvergence(3e-2), SingularSystem(1e15), NoConvergence(2e-3),
                     DivergenceError(0.5), NoConvergence(5e-1)])

    def failing(*args):
        raise next(failures, NoConvergence(1.0))

    monkeypatch.setattr(shooting, "solve_bvp", failing)
    with pytest.raises(NoConvergence) as info:
        solve_bvp_multistart(half_u0_spec, LIN, None, 1.0)
    assert info.value.best_residual == 2e-3


def test_nonresonance_pass(half_u0_spec):
    nl = NonlinearitySpec.from_text("xi/(1+abs(xi))", f0=1.0, finf=0.0)
    v = nonresonance_check(half_u0_spec, nl)
    assert v.ok
    assert v.nearest_eigenvalue == pytest.approx(1.7374299783, abs=1e-6)


def test_nonresonance_resonant(half_u0_spec):
    lam0 = continuation_spectrum(half_u0_spec, 0)[0].lam
    nl = NonlinearitySpec.from_text("xi", f0=1.0, finf=lam0)
    v = nonresonance_check(half_u0_spec, nl)
    assert not v.ok and "resonant" in v.reason


def test_nonresonance_is_read_at_lam_times_finf(half_u0_spec):
    lam0 = continuation_spectrum(half_u0_spec, 0)[0].lam
    nl = NonlinearitySpec.from_text("xi", f0=1.0, finf=1.0)
    assert nonresonance_check(half_u0_spec, nl) == nonresonance_check(half_u0_spec, nl, 1.0)
    v = nonresonance_check(half_u0_spec, nl, lam0)
    assert not v.ok and v.reason.startswith("resonant: lam*finf") and v.finf == 1.0
    v = nonresonance_check(half_u0_spec, nl, 20.0)
    assert v.ok and v.nearest_eigenvalue == pytest.approx(24.6519125136, rel=1e-9)
    v = nonresonance_check(half_u0_spec, nl, 1e7)
    assert not v.ok and "scan ceiling" in v.reason


def test_nonresonance_out_of_scope():
    spec = ProblemSpec(
        minus=BoundarySide(0.0, -1.0, side="minus"),
        plus=BoundarySide(0.0, 1.0, side="plus"),
    )
    nl = NonlinearitySpec.from_text("xi/(1+abs(xi))", f0=1.0, finf=0.0)
    v = nonresonance_check(spec, nl)
    assert not v.ok and v.out_of_scope


@pytest.mark.parametrize("alpha, amp", [
    (0.29810729566171096, 0.9436768956193125),
    (0.3520984195738305, 1.7954548971212296),
])
def test_solve_bvp_margin_survives_tighter_integration(alpha, amp):
    # Forced solves that once stopped just under the residual tolerance and
    # failed it when integrated again at rtol 1e-12.
    spec = ProblemSpec(
        minus=BoundarySide(1.0, 0.0, side="minus"),
        plus=BoundarySide(1.0, 0.0, alpha=(alpha,), beta=(0.0,), eta=(0.0,), side="plus"),
    )
    nl = NonlinearitySpec.from_text("xi/(1+abs(xi))", f0=1.0, finf=0.0)
    h = ForcingTerm.from_text(f"{amp!r}*x")
    sol = solve_bvp_multistart(spec, nl, h, 1.0)
    assert sol.accepted()
    tight = integrate_ivp(nl, h, 1.0, sol.shooting.a, sol.shooting.b, rtol=1e-12, atol=1e-14)
    for side, scale in zip(spec.sides, sol.scales):
        assert abs(side.residual(tight.eval)) <= 1e-8 * scale


def test_non_finite_state_is_divergence():
    # xi^1e6 overflows to inf once |u| > 1: at once from u(-1) = 1.5, and
    # on the way for u'(-1) = 3; (-u)^0.5 is NaN once u < 0.
    for text, a, b in (("xi^1e6", 1.5, 0.0), ("xi^1e6", 0.9, 3.0), ("xi^0.5", 0.5, -5.0)):
        nl = NonlinearitySpec.from_text(text, f0=1.0, finf=1.0)
        with pytest.raises(DivergenceError) as exc:
            integrate_ivp(nl, None, 1.0, a, b)
        assert -1.0 <= exc.value.x <= 1.0


def _scipy_solution(text, h, lam, a, b):
    from scipy.integrate import solve_ivp

    nl = NonlinearitySpec.from_text(text, f0=1.0, finf=1.0)
    hx = ForcingTerm.from_text(h).h if h else lambda x: 0.0
    return solve_ivp(lambda x, y: (y[1], -(lam * nl.f(y[0]) + hx(x))), (-1.0, 1.0), (a, b),
                     method="DOP853", rtol=IVP_RTOL, atol=IVP_ATOL, dense_output=True)


def _trace_of(sol):
    """IntegratedTrace on the steps of scipy's OdeSolution."""
    pieces = sol.interpolants
    return IntegratedTrace([p.t_old for p in pieces], [p.h for p in pieces],
                           [p.F[::-1] for p in pieces], [p.y_old for p in pieces])


DOP853_CASES = pytest.mark.parametrize("text, h, lam, a, b, few", [
    ("xi", None, 1.0, 0.0, 1.0, True),
    ("xi*(1+3/(1+xi^2))", None, 0.5, 0.0, 0.1, True),
    ("xi", None, 9000.0, 0.3, 5.0, False),
    ("xi+xi^3", None, 400.0, 1.0, 0.0, False),
    ("xi", "x", 2.0, 0.0, 0.0, True),
], ids=["linear-slow", "crossing", "linear-fast", "cubic-fast", "forced"])


def test_dop853_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref
    from mpsl import dop853

    A = np.zeros_like(ref.A)
    for s, row in enumerate(dop853.A):
        A[s, :s] = row
    assert np.array_equal(A, ref.A)
    for name in ("B", "C", "D", "E3", "E5"):
        assert np.array_equal(np.array(getattr(dop853, name)), getattr(ref, name)), name


@DOP853_CASES
def test_dense_kernel_is_scipys_interpolant_bit_for_bit(text, h, lam, a, b, few):
    sol = _scipy_solution(text, h, lam, a, b).sol
    n = len(sol.interpolants)
    assert n < 20 if few else n > 200
    trace = _trace_of(sol)
    u, up = sol(trace.x)
    assert np.array_equal(trace.u, u) and np.array_equal(trace.up, up)
    # segment boundaries, where OdeSolution picks the lower segment, and the ends
    ts = np.asarray(sol.ts)
    points = np.concatenate([ts, np.nextafter(ts, -2.0), np.nextafter(ts, 2.0), [-1.0, 0.0, 1.0]])
    points = points[(points >= -1.0) & (points <= 1.0)]
    for name, got in zip(("u", "up"), trace._dense(points)):
        assert np.array_equal(got, sol(points)[0 if name == "u" else 1])
    for t in points.tolist():
        assert np.array_equal(np.array(trace.eval(t)), sol(t))


@DOP853_CASES
def test_integrate_ivp_is_solve_ivp_bit_for_bit(text, h, lam, a, b, few):
    # integrate_ivp takes the steps of scipy's solve_ivp driver with the same
    # number of right-hand-side calls.  The stage sums are added in another
    # order than numpy's, and the error estimate loses about 8 digits to
    # cancellation, so the step ends differ in the last digits, and the
    # samples agree far below the integration error (2e-11 to 1.6e-10
    # against the closed form in the linear cases).
    nl = NonlinearitySpec.from_text(text, f0=1.0, finf=1.0)
    calls = []
    nl._f = lambda xi, f=nl._f: calls.append(xi) or f(xi)
    ref = _scipy_solution(text, h, lam, a, b)
    trace = integrate_ivp(nl, ForcingTerm.from_text(h) if h else None, lam, a, b)
    assert len(trace._steps) == len(ref.t) - 1
    assert len(calls) == ref.nfev
    expected = _trace_of(ref.sol)
    for name in ("u", "up"):
        got, want = getattr(trace, name), getattr(expected, name)
        assert np.max(np.abs(got - want)) <= 2e-14 * np.max(np.abs(want))


def _reference_march(nl, forcing, lams, y0, dense):
    """``_march``'s DOP853 in the plain loops the method is written in, straight
    from ``dop853``'s tableau: each stage sum adds the products with a row's
    nonzero coefficients left to right.  Its divergence rules are those of
    ``_march``'s docstring, checked in that order.  Returns the (t, y, piece)
    of every accepted step, the rejected steps, the right-hand-side calls and
    the x of the divergence, None where the march reaches x = 1."""
    from mpsl.dop853 import A, B, C, D, E3, E5

    f = shooting._on_floats(nl.f)
    hf = shooting._on_floats(forcing.h) if forcing is not None else shooting._zero
    rtol, atol, n, nfev, rejections, steps = shooting.IVP_RTOL, shooting.IVP_ATOL, len(y0), 0, 0, []

    def rhs(x, y):
        nonlocal nfev
        nfev += 1
        hx = hf(x)
        return [v for i, lam in enumerate(lams) for v in (y[2 * i + 1], -(lam * f(y[2 * i]) + hx))]

    def dot(row, K):
        return [functools.reduce(operator.add, [c * v for c, v in zip(row, k) if c]) for k in K]

    def rms(v, scale):
        return math.sqrt(math.fsum([(a / b) * (a / b) for a, b in zip(v, scale)]) / n)

    t, y = -1.0, y0
    try:
        fy = rhs(t, y)
        if not all(map(math.isfinite, y + fy)):
            raise DivergenceError(-1.0)
        scale = [atol + abs(v) * rtol for v in y]
        d0, d1 = rms(y, scale), rms(fy, scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, 2.0)
        d2 = rms([a - b for a, b in zip(rhs(t + h0, [v + h0 * g for v, g in zip(y, fy)]), fy)], scale) / h0
        h_abs = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125
        h_abs = min(100.0 * h0, h_abs, 2.0)
        while t < 1.0:
            min_step = 10.0 * (math.nextafter(t, math.inf) - t)
            h_abs, rejected = max(h_abs, min_step), False
            while True:
                if h_abs < min_step:
                    raise DivergenceError(t)
                t_new = min(t + h_abs, 1.0)
                h = t_new - t
                K = [[v] for v in fy]  # K[i][s]: stage s of component i
                for s in range(1, 12):
                    stage = rhs(t + C[s] * h, [v + a * h for v, a in zip(y, dot(A[s], K))])
                    for k, v in zip(K, stage):
                        k.append(v)
                y_new = [v + h * b for v, b in zip(y, dot(B, K))]
                f_new = rhs(t + h, y_new)
                for k, v in zip(K, f_new):
                    k.append(v)
                sc = [atol + max(abs(w), abs(v)) * rtol for v, w in zip(y, y_new)]
                err5 = err3 = 0.0
                for e5, e3, s in zip(dot(E5, K), dot(E3, K), sc):
                    err5 += (e5 / s) * (e5 / s)
                    err3 += (e3 / s) * (e3 / s)
                err = h * err5 / math.sqrt((err5 + 0.01 * err3) * n) if err5 else 0.0
                if err < 1.0:
                    factor = min(10.0, 0.9 * err ** -0.125) if err else 10.0
                    h_abs = h * (min(1.0, factor) if rejected else factor)
                    break
                h_abs, rejected, rejections = h * max(0.2, 0.9 * err ** -0.125), True, rejections + 1
            t_old, t = t, t_new
            if any(abs(u) > shooting.BLOWUP_LIMIT for u in y_new[::2]) or nfev > shooting.IVP_MAX_RHS_CALLS:
                raise DivergenceError(t)
            piece = None
            if dense(t):
                for s in (13, 14, 15):
                    stage = rhs(t_old + C[s] * h, [v + a * h for v, a in zip(y, dot(A[s], K))])
                    for k, v in zip(K, stage):
                        k.append(v)
                dy = [w - v for v, w in zip(y, y_new)]
                F = [[h * d for d in dot(row, K)] for row in reversed(D)]
                F += [[2.0 * d - h * (g + g0) for d, g, g0 in zip(dy, f_new, fy)],
                      [h * g0 - d for d, g0 in zip(dy, fy)], dy]
                piece = (t_old, h, F, y)
            y, fy = y_new, f_new
            steps.append((t, y, piece))
    except (ValueError, ArithmeticError):
        return steps, rejections, nfev, t
    except DivergenceError as exc:
        return steps, rejections, nfev, exc.x
    return steps, rejections, nfev, None


@pytest.mark.parametrize("h", [None, "x"], ids=["unforced", "forced"])
@pytest.mark.parametrize("lams, y0", [
    ((2.0,), [0.0, 1.0]),
    ((2.0, 30.0, 400.0), [0.0, 1.0, 0.1, -1.0, 0.5, 0.0]),
    ((1.0, 5.0, 50.0, 900.0), [0.0, 1.0, 0.3, 0.0, -0.2, 2.0, 0.0, -3.0]),
], ids=["1-pair", "3-pairs", "4-pairs"])
def test_march_is_the_plain_dop853_loop_bit_for_bit(lams, y0, h):
    # The same steps, rejections, states, interpolants and f calls, argument
    # for argument, with dense output on the steps that end in [0, 1] only.
    nl = NonlinearitySpec.from_text("xi+xi^3", f0=1.0, finf=1.0)
    forcing = ForcingTerm.from_text(h) if h else None
    calls = []
    nl._f = lambda xi, f=nl._f: calls.append(xi) or f(xi)
    ref, rejections, nfev, diverged = _reference_march(nl, forcing, lams, y0, lambda t: t >= 0.0)
    ref_calls, calls[:] = calls[:], []
    assert diverged is None
    assert rejections > 0 and len(ref_calls) == nfev * len(lams)
    assert any(p is None for _, _, p in ref) and any(p is not None for _, _, p in ref)
    got = list(shooting._march(nl, forcing, lams, list(y0), IVP_RTOL, IVP_ATOL, lambda t: t >= 0.0))
    assert len(got) == len(ref) and len(calls) == len(ref_calls)
    for step, (a, b) in enumerate(zip(got, ref)):
        assert repr(a) == repr(b), step  # repr tells -0.0 from 0.0
    assert next((i for i, (a, b) in enumerate(zip(calls, ref_calls)) if a != b), None) is None


# f and h that fail at stage arguments in each way the march must pass to
# _on_floats: (f, lam, (u, u')(-1) of the pair that meets the failure, h).
# u'' = 1e-300*exp(u) blows up past u = 709.8, where exp overflows at stage
# arguments long before the step size fails; xi^0.5 is complex once u < 0,
# log has no value at u <= 0, and 1/xi divides by u(-1) = 0.0.  h fails the
# same four ways in x.
FAILING = {
    "overflow": ("exp(xi)", -1e-300, [0.0, 2000.0], "1e-300*exp(1000*x)"),
    "complex": ("xi^0.5", 2.0, [0.5, -5.0], "(0.5-x)^0.5"),
    "domain": ("log(xi)", 2.0, [0.5, -5.0], "log(0.5-x)"),
    "zero-divisor": ("1/xi", 2.0, [0.0, 1.0], "1/(1+x)"),
}
# The pairs beside it: lam > 0, so none blows up before an h fails.
OTHER_PAIRS = st.lists(st.tuples(st.floats(0.5, 500.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                       min_size=3, max_size=3)


@pytest.mark.parametrize("pairs", [1, 3, 4], ids=["1-pair", "3-pairs", "4-pairs"])
@pytest.mark.parametrize("fails", ["f-unforced", "f-forced", "h"])
@pytest.mark.parametrize("kind", FAILING)
@settings(derandomize=True, max_examples=4, deadline=None)
@given(others=OTHER_PAIRS)
@example(others=[(30.0, 0.1, -1.0), (400.0, 0.5, 0.0), (5.0, 0.3, 2.0)])
def test_march_fails_as_the_plain_loop_on_failing_f_and_h(kind, fails, pairs, others):
    # The compiled march calls nl._f and forcing._h once per stage and goes
    # through _on_floats only where they raise or give no float; the plain
    # loop calls _on_floats every time.  Both take the same steps, hit the
    # same failure and end in the same DivergenceError, after as many
    # right-hand-side calls.  The hooks count the compiled march's stage
    # calls: its slow path reaches f and h through nl.f and forcing.h, which
    # are set to the unhooked callables, as the plain loop's are.
    f_text, lam, y, h_text = FAILING[kind]
    nl = NonlinearitySpec.from_text("xi" if fails == "h" else f_text, f0=1.0, finf=1.0)
    forcing = {"f-unforced": None, "f-forced": ForcingTerm.from_text("x"),
               "h": ForcingTerm(parse_expr(h_text))}[fails]
    lams = (lam, *(l for l, _, _ in others[:pairs - 1]))
    y0 = [*y, *(v for _, *start in others[:pairs - 1] for v in start)]
    calls, failed = {"f": 0, "h": 0}, []

    def hooked(name, fn):
        def hook(v):
            calls[name] += 1
            try:
                value = fn(v)
            except (ArithmeticError, ValueError):
                failed.append(name)
                raise
            if isinstance(value, complex):
                failed.append(name)
            return value
        return hook

    nl.f, nl._f = nl._f, hooked("f", nl._f)
    if forcing is not None:
        forcing.h, forcing._h = forcing._h, hooked("h", forcing._h)
    ref, _, nfev, x = _reference_march(nl, forcing, lams, list(y0), lambda t: t >= 0.0)
    assert x is not None and not failed and calls == {"f": 0, "h": 0}
    got = []
    with pytest.raises(DivergenceError) as exc:
        for step in shooting._march(nl, forcing, lams, list(y0), IVP_RTOL, IVP_ATOL, lambda t: t >= 0.0):
            got.append(step)
    assert exc.value.x == x and len(got) == len(ref)
    for step, (a, b) in enumerate(zip(got, ref)):
        assert repr(a) == repr(b), step
    assert (calls["h"] if forcing is not None else -(-calls["f"] // pairs)) == nfev
    assert failed and failed[-1] == fails[0]


def test_march_compiles_once_per_pair_count(monkeypatch):
    # f, h, lam and the tolerances are arguments of the compiled march, and
    # the right-hand-side budget is read when a march starts, not compiled in.
    from mpsl import dop853

    dop853.kernels.cache_clear()
    quintic = NonlinearitySpec.from_text("xi+xi^5", f0=1.0, finf=1.0)
    integrate_ivp(LIN, ForcingTerm.from_text("x"), 2.0, 0.0, 1.0)
    integrate_ivp(quintic, ForcingTerm.from_text("sin(3*x)"), 30.0, 0.5, -1.0, rtol=1e-9, atol=1e-10)
    integrate_ivp(quintic, None, 5.0, 0.1, 0.0)
    info = dop853.kernels.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    monkeypatch.setattr(shooting, "IVP_MAX_RHS_CALLS", 50)
    with pytest.raises(DivergenceError):
        integrate_ivp(LIN, None, 400.0, 0.0, 1.0)
    assert dop853.kernels.cache_info().misses == 1


def test_rhs_budget_bounds_one_ivp(monkeypatch):
    monkeypatch.setattr(shooting, "IVP_MAX_RHS_CALLS", 50)
    with pytest.raises(DivergenceError) as exc:
        integrate_ivp(LIN, None, 400.0, 0.0, 1.0)
    assert -1.0 < exc.value.x < 1.0


def test_nan_step_size_is_divergence_at_once():
    # f is NaN at u(-1) = -0.5, so DOP853's first step size is NaN and it
    # would reject that step forever.
    nl = NonlinearitySpec.from_text("xi^0.5", f0=1.0, finf=1.0)
    with pytest.raises(DivergenceError) as exc:
        integrate_ivp(nl, None, 1.0, -0.5, 1.0)
    assert exc.value.x == -1.0
    # So is a start state that is not finite, for which DOP853 itself raises
    # ValueError, also where f does not enter the right-hand side.
    with pytest.raises(DivergenceError) as exc:
        integrate_ivp(None, ForcingTerm.from_text("x"), 1.0, math.nan, 1.0)
    assert exc.value.x == -1.0
