import math

import numpy as np
import pytest

from mpsl.errors import DivergenceError, NoConvergence, SingularSystem
from mpsl.expressions import ForcingTerm, NonlinearitySpec
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
from mpsl.spectrum import eigen_continuation
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


def test_linear_energy_identity_on_integrated_trace():
    from mpsl.nodal import energy_deviation

    lam = 7.3
    tr = integrate_ivp(LIN, None, lam, 0.4, -0.9)
    assert energy_deviation(lam, tr) <= 1e-8


def test_nonlinear_energy_identity():
    nl = NonlinearitySpec.from_text("xi*(1+3/(1+xi^2))", f0=4.0, finf=1.0)
    tr = integrate_ivp(nl, None, 0.5, 0.0, 0.1)
    assert nonlinear_energy_deviation(tr, nl, 0.5) <= 1e-8


def test_blowup_detection():
    # -u'' = lam*(-u) with lam large: pure exponential growth past 1e12
    # well before x = 1.
    nl = NonlinearitySpec.from_text("-xi", f0=1.0, finf=1.0)
    with pytest.raises(DivergenceError) as exc:
        integrate_ivp(nl, None, 3600.0, 1.0, 60.0)
    assert -1.0 <= exc.value.x <= 1.0
    # The reported x is the end of the first step with |u| > 1e12, so at or
    # after the root of |u| = 1e12 that a terminal event would locate.
    from scipy.integrate import solve_ivp

    def blowup(x, y):
        return abs(y[0]) - shooting.BLOWUP_LIMIT

    blowup.terminal = True
    sol = solve_ivp(lambda x, y: (y[1], -3600.0 * nl.f(y[0])), (-1.0, 1.0), (1.0, 60.0),
                    method="DOP853", rtol=IVP_RTOL, atol=IVP_ATOL, events=blowup)
    root = sol.t_events[0][0]
    step_ends = _scipy_solution("-xi", 3600.0, 1.0, 60.0).ts
    assert exc.value.x == step_ends[np.searchsorted(step_ends, root)]
    assert root <= exc.value.x


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
    ep = eigen_continuation(half_u0_spec, 0)
    try:
        sol = solve_bvp(half_u0_spec, LIN, None, ep.lam, (ep.psi.A + 0.1, ep.psi.B - 0.05))
    except (SingularSystem, NoConvergence):
        return
    ratio = sol.shooting.b / ep.psi.B
    assert sol.shooting.a == pytest.approx(ratio * ep.psi.A, abs=1e-8)


def test_solve_bvp_forced_resonance_fails(half_u0_spec):
    # Forcing with a component along the eigenfunction leaves no solution at
    # resonance: the solver must fail rather than fabricate one.
    ep = eigen_continuation(half_u0_spec, 0)
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

    lam0 = eigen_continuation(half_u0_spec, 0).lam
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
        e = np.eye(3)[j] * (1.0 + abs(z[j]))
        sequential[:, j] = (bvp_residual(half_u0_spec, nl, None, z + 1e-6 * e)[0] - F) / (1e-6 * e[j])
        central[:, j] = (tight(z + 1e-4 * e) - tight(z - 1e-4 * e)) / (2e-4 * e[j])
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


def test_nonresonance_pass(half_u0_spec):
    nl = NonlinearitySpec.from_text("xi/(1+abs(xi))", f0=1.0, finf=0.0)
    v = nonresonance_check(half_u0_spec, nl)
    assert v.ok
    assert v.nearest_eigenvalue == pytest.approx(1.7374299783, abs=1e-6)


def test_nonresonance_resonant(half_u0_spec):
    lam0 = eigen_continuation(half_u0_spec, 0).lam
    nl = NonlinearitySpec.from_text("xi", f0=1.0, finf=lam0)
    v = nonresonance_check(half_u0_spec, nl)
    assert not v.ok and "resonant" in v.reason


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


def _scipy_solution(text, lam, a, b):
    from scipy.integrate import solve_ivp

    nl = NonlinearitySpec.from_text(text, f0=1.0, finf=1.0)
    sol = solve_ivp(lambda x, y: (y[1], -lam * nl.f(y[0])), (-1.0, 1.0), (a, b),
                    method="DOP853", rtol=IVP_RTOL, atol=IVP_ATOL, dense_output=True)
    return sol.sol


DOP853_CASES = pytest.mark.parametrize("text, lam, a, b, few", [
    ("xi", 1.0, 0.0, 1.0, True),
    ("xi*(1+3/(1+xi^2))", 0.5, 0.0, 0.1, True),
    ("xi", 9000.0, 0.3, 5.0, False),
    ("xi+xi^3", 400.0, 1.0, 0.0, False),
], ids=["linear-slow", "crossing", "linear-fast", "cubic-fast"])


@DOP853_CASES
def test_dense_kernel_is_scipys_interpolant_bit_for_bit(text, lam, a, b, few):
    sol = _scipy_solution(text, lam, a, b)
    n = len(sol.interpolants)
    assert n < 20 if few else n > 200
    trace = IntegratedTrace(sol)
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
def test_integrate_ivp_is_solve_ivp_bit_for_bit(text, lam, a, b, few):
    # integrate_ivp's step loop takes exactly the steps of scipy's solve_ivp driver.
    nl = NonlinearitySpec.from_text(text, f0=1.0, finf=1.0)
    ref = IntegratedTrace(_scipy_solution(text, lam, a, b))
    trace = integrate_ivp(nl, None, lam, a, b)
    for name in ("x", "u", "up"):
        assert np.array_equal(getattr(trace, name), getattr(ref, name))


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
