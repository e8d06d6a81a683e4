"""Shooting solver for -u'' = lam*f(u) + h with multi-point boundary conditions.

The BVP is reduced to two residuals r-, r+ of z = (lam, a, b):
``bvp_residual`` integrates the IVP from x = -1 with (u, u')(-1) = (a, b)
and evaluates both boundary functionals on the resulting trace (interior
eta values come from the integrator's dense output, never from
re-gridding).  ``bvp_jacobian`` gives their forward-difference Jacobian
from one DOP853 solve that carries the base trajectory and every probe
side by side.  ``damped_newton``, a Newton iteration with step-halving
damping that takes its Jacobian from a callback, drives both residuals
below tolerance.  It is the one Newton loop in the package: forced solves
here and the pseudo-arclength corrector in ``branching`` both run it on
``bvp_residual`` and ``bvp_jacobian``, each in its own coordinates.
``integrate_ivp`` and ``bvp_jacobian`` step DOP853 through ``_march``,
which holds every divergence rule.

Acceptance scale per side: 1 + |alpha0|*|u|_0 + |beta0|*|u'|_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NoConvergence, ProblemDataError, SingularSystem
from .expressions import ForcingTerm, NonlinearitySpec
from .nodal import SampledTrace
from .problem import BoundarySide, ProblemSpec
from .spectrum import eigen_scan, robin_anchor
from .trig import TrigSolution, normalized

IVP_RTOL = 1e-11
IVP_ATOL = 1e-12
DENSE_STEP = 1e-3
BLOWUP_LIMIT = 1e12
IVP_MAX_RHS_CALLS = 625_000  # one IVP's right-hand-side budget; beyond it the run is divergence
RESIDUAL_TOL = 1e-8
JACOBIAN_COND_LIMIT = 1e12
NEWTON_MAX_ITER = 50  # solve_bvp iterations
NEWTON_MAX_HALVINGS = 30  # solve_bvp step halvings per iteration
AMPLITUDE_RUNAWAY = 1e8  # forced-solve iterates beyond this |u|_0 are resonance artefacts
ENERGY_STRIDE = 20
NONRESONANCE_MARGIN = 10.0


class IntegratedTrace(SampledTrace):
    """Sampled trace backed by the integrator's dense output.

    The DOP853 interpolants of ``sol`` (an ascending ``OdeSolution``) are
    stacked once, and ``_dense`` evaluates them at many points in one pass:
    the segment choice of ``OdeSolution.__call__`` and the Horner loop of
    ``Dop853DenseOutput._call_impl`` in the same operation order, so every
    value equals scipy's bit for bit.  The sample nodes and ``eval`` both go
    through it.
    """

    def __init__(self, sol):
        pieces = sol.interpolants
        self._ts, self._side = sol.ts_sorted, sol.side
        self._t_old = np.array([p.t_old for p in pieces])
        self._h = np.array([p.h for p in pieces])
        # (power, segment, state), highest power first as the Horner loop reads it
        self._F = np.stack([p.F[::-1] for p in pieces], axis=1)
        self._y_old = np.stack([p.y_old for p in pieces])
        x = np.linspace(-1.0, 1.0, int(round(2.0 / DENSE_STEP)) + 1)
        u, uprime = self._dense(x)
        finite = np.isfinite(u) & np.isfinite(uprime)
        if not finite.all():
            raise DivergenceError(float(x[np.argmin(finite)]))
        super().__init__(x, u, uprime)

    def _dense(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        seg = np.searchsorted(self._ts, t, side=self._side) - 1
        np.clip(seg, 0, len(self._h) - 1, out=seg)
        s = ((t - self._t_old.take(seg)) / self._h.take(seg))[:, None]
        r = 1 - s
        y = np.zeros((len(t), self._y_old.shape[1]))
        for i, F in enumerate(self._F.take(seg, axis=1)):
            y += F
            y *= r if i % 2 else s
        y += self._y_old.take(seg, axis=0)
        return y[:, 0], y[:, 1]

    def eval(self, x: float) -> tuple[float, float]:
        if not -1.0 - 1e-12 <= x <= 1.0 + 1e-12:
            raise ValueError(f"x={x} outside [-1, 1]")
        x = min(max(x, -1.0), 1.0)
        if abs(x) == 1.0:  # an end node, already sampled by the same kernel
            i = 0 if x < 0.0 else -1
            return float(self.u[i]), float(self.up[i])
        u, up = self._dense(np.array([x]))
        return float(u[0]), float(up[0])


@dataclass(frozen=True)
class ShootingState:
    a: float  # u(-1)
    b: float  # u'(-1)
    lam: float
    residuals: tuple[float, float] = (math.nan, math.nan)


@dataclass
class SampledSolution:
    trace: IntegratedTrace
    shooting: ShootingState
    energy_dev: float | None = None  # only defined for the h == 0 form
    collocation_residual: float = math.nan
    scales: tuple[float, float] = (1.0, 1.0)

    @property
    def amplitude(self) -> float:
        return self.trace.sup_u()

    def accepted(self) -> bool:
        r = self.shooting.residuals
        return abs(r[0]) <= RESIDUAL_TOL * self.scales[0] and abs(r[1]) <= RESIDUAL_TOL * self.scales[1]


def _rhs(nl: NonlinearitySpec | None, h: ForcingTerm | None, lam: float):
    f = nl.f if nl is not None else None
    hf = h.h if h is not None else None
    if f is not None and hf is not None:
        def rhs(x, y):
            return (y[1], -(lam * f(y[0]) + hf(x)))
    elif f is not None:
        def rhs(x, y):
            return (y[1], -lam * f(y[0]))
    elif hf is not None:
        def rhs(x, y):
            return (y[1], -hf(x))
    else:
        def rhs(x, y):
            return (y[1], 0.0)
    return rhs


def _march(rhs, y0: np.ndarray, rtol: float, atol: float):
    """DOP853 on y' = rhs(x, y) from y(-1) = y0 to x = 1, yielding the
    solver after each accepted step.  The even columns of y are values of u.

    These are divergence, checked in this order, and raise DivergenceError
    at the x named:

    - y0 or the right-hand side there is not finite: x = -1.0.  DOP853's
      first step size would be NaN, and it would reject that step forever.
    - The right-hand side raises ValueError or ArithmeticError (f or h
      outside its domain, as log(0)): -1.0 before the first accepted step,
      otherwise the last accepted x.
    - A step fails: the last accepted x.  DOP853 never accepts a step that
      is not finite; a right-hand side that is not finite (f overflows, or
      is NaN) makes it shrink the step until the step size collapses.
    - Some |u| > BLOWUP_LIMIT at the end of a step: that step's end.
    - More than IVP_MAX_RHS_CALLS right-hand-side calls, a run that cannot
      end: the end of the step that passed the budget.
    """
    from scipy.integrate import DOP853

    solver = None
    try:
        if not np.isfinite(np.append(y0, rhs(-1.0, y0))).all():
            raise DivergenceError(-1.0)
        solver = DOP853(rhs, -1.0, y0, 1.0, rtol=rtol, atol=atol)
        while solver.status == "running":
            if solver.step() is not None or np.abs(solver.y[::2]).max() > BLOWUP_LIMIT \
                    or solver.nfev > IVP_MAX_RHS_CALLS:
                raise DivergenceError(float(solver.t))
            yield solver
    except (ValueError, ArithmeticError):
        raise DivergenceError(-1.0 if solver is None else float(solver.t)) from None


# A value of f that is not finite ends as a rejected step or divergence; numpy need not warn.
@np.errstate(all="ignore")
def integrate_ivp(
    nl: NonlinearitySpec | None,
    h: ForcingTerm | None,
    lam: float,
    a: float,
    b: float,
    rtol: float = IVP_RTOL,
    atol: float = IVP_ATOL,
) -> IntegratedTrace:
    """Integrate -u'' = lam*f(u) + h from (u, u')(-1) = (a, b) over [-1, 1].

    DOP853 steps with dense output.  Divergence is ``_march``'s, and a
    dense-output sample that is not finite is divergence at that sample's x.
    """
    from scipy.integrate import OdeSolution

    ts, pieces = [-1.0], []
    for solver in _march(_rhs(nl, h, lam), np.array([a, b], dtype=float), rtol, atol):
        ts.append(solver.t)
        pieces.append(solver.dense_output())
    return IntegratedTrace(OdeSolution(ts, pieces))


def bc_residual_on_trace(side: BoundarySide, trace) -> float:
    return side.residual(trace.eval)


def bvp_residual(spec: ProblemSpec, nl: NonlinearitySpec | None, h: ForcingTerm | None, z):
    """(F, err, solution) of -u'' = lam*f(u) + h at z = (lam, a, b), the form
    ``damped_newton`` takes: F = (r-, r+) on the IVP trace from (u, u')(-1)
    = (a, b), err = max(|r-|/s-, |r+|/s+) with the acceptance scales
    ``BoundarySide.scale``, and the ``SampledSolution`` holding the trace,
    ``ShootingState(a, b, lam, (r-, r+))`` and (s-, s+)."""
    lam, a, b = z
    trace = integrate_ivp(nl, h, lam, a, b)
    rm = spec.minus.residual(trace.eval)
    rp = spec.plus.residual(trace.eval)
    sup_u, sup_up = trace.sup_u(), trace.sup_uprime()
    sm = spec.minus.scale(sup_u, sup_up)
    sp = spec.plus.scale(sup_u, sup_up)
    sol = SampledSolution(trace, ShootingState(a, b, lam, (rm, rp)), scales=(sm, sp))
    return np.array([rm, rp]), max(abs(rm) / sm, abs(rp) / sp), sol


def _zero(_x):
    return 0.0


def _batched_rhs(nl: NonlinearitySpec | None, h: ForcingTerm | None, lams):
    """Right-hand side of one -u'' = lam_i*f(u) + h per lam_i, the state
    (u_0, u_0', u_1, u_1', ...) interleaved as ``_march`` reads it."""
    f = nl.f if nl is not None else _zero
    hf = h.h if h is not None else _zero
    columns = [(2 * i, 2 * i + 1, lam) for i, lam in enumerate(lams)]

    def rhs(x, y):
        hx = hf(x)
        out = []
        for iu, iup, lam in columns:
            out += (y[iup], -(lam * f(y[iu]) + hx))
        return out
    return rhs


@np.errstate(all="ignore")
def bvp_jacobian(spec: ProblemSpec, nl: NonlinearitySpec | None, h: ForcingTerm | None, z, free):
    """Forward-difference Jacobian of ``bvp_residual``'s F in z[free], columns
    in the order of ``free``, from one DOP853 solve.

    The base z = (lam, a, b) and each probe z + dz_j*e_j, dz_j = 1e-6*(1 +
    |z_j|), are integrated side by side with one step sequence (Bock's
    internal numerical differentiation), so the difference quotients carry
    no noise from two different step sequences.  Dense output is taken only
    on the steps that hold an eta point; both boundary functionals are
    ``BoundarySide.residual`` as in ``bvp_residual``.  Raises DivergenceError
    as ``_march`` does.
    """
    z = np.asarray(z, dtype=float)
    dz = np.array([1e-6 * (1.0 + abs(z[j])) for j in free])
    starts = np.tile(z, (len(free) + 1, 1))
    starts[1 + np.arange(len(free)), list(free)] += dz
    y = starts[:, 1:].ravel()
    etas = sorted({e for side in spec.sides for e in side.eta})
    at = {-1.0: y}
    for solver in _march(_batched_rhs(nl, h, starts[:, 0].tolist()), y, IVP_RTOL, IVP_ATOL):
        if etas and etas[0] <= solver.t:
            interpolant = solver.dense_output()
            while etas and etas[0] <= solver.t:
                at[etas[0]] = interpolant(etas[0])
                etas.pop(0)
    at[1.0] = solver.y
    r = np.array([[side.residual(lambda x: at[x][2 * i:2 * i + 2]) for side in spec.sides]
                  for i in range(len(starts))])
    return ((r[1:] - r[0]) / dz[:, None]).T


def collocation_residual(
    trace: SampledTrace, nl: NonlinearitySpec | None, h: ForcingTerm | None, lam: float
) -> float:
    """Sup of |u'' + lam*f(u) + h| at the interior sample nodes.

    u'' comes from a 5-point fourth-order central difference of the sampled
    u' channel, so the check does not reuse the integrator's own right-hand
    side evaluations.
    """
    x, u, up = trace.x, trace.u, trace.up
    if len(x) < 5:
        raise ValueError("trace too short for the collocation stencil")
    dx = float(np.mean(np.diff(x)))
    upp = (-up[4:] + 8.0 * up[3:-1] - 8.0 * up[1:-3] + up[:-4]) / (12.0 * dx)
    xs = x[2:-2]
    us = u[2:-2]
    fvals = np.array([nl.f(float(v)) for v in us]) if nl is not None else 0.0
    hvals = np.array([h.h(float(v)) for v in xs]) if h is not None else 0.0
    res = upp + lam * fvals + hvals if nl is not None else upp + hvals
    return float(np.max(np.abs(res)))


def nonlinear_energy_deviation(trace: SampledTrace, nl: NonlinearitySpec, lam: float) -> float:
    """Relative non-constancy of lam*F(u) + u'^2 along the trace (h == 0 form),
    sampled at every ENERGY_STRIDE-th node and the last one, with F at all
    samples from one ``NonlinearitySpec.F_many`` call."""
    idx = np.arange(0, len(trace.x), ENERGY_STRIDE)
    if idx[-1] != len(trace.x) - 1:
        idx = np.append(idx, len(trace.x) - 1)
    up = trace.up[idx]
    vals = lam * nl.F_many(trace.u[idx]) + up * up
    med = float(np.median(vals))
    if med == 0.0:
        return math.nan
    return float(np.max(np.abs(vals - med)) / med)


def damped_newton(
    residual,
    jacobian,
    z,
    free,
    tol: float = RESIDUAL_TOL,
    max_iter: int = 50,
    max_halvings: int = 30,
    cond_limit: float | None = None,
):
    """Newton on residual(z) = (F, err, payload), moving only z[free].

    jacobian(z) returns the Jacobian of F in the free coordinates; it is
    asked for only at an iterate with err > tol.  Each row of the Newton
    system is divided by its largest |entry|, so a row that holds exactly
    (F_i = 0) gives a step free of the other rows' rounding.  Each step is
    halved until err decreases or reaches tol; a candidate whose
    integration blows up counts as not improving.  Returns (z, payload) at
    the first iterate with err <= tol.

    Raises NoConvergence when the Jacobian's solve diverges, the halvings
    run out or the iterations do, and SingularSystem when the Jacobian
    cannot be solved or its condition number exceeds ``cond_limit``.
    """
    z = np.array(z, dtype=float)
    free = list(free)
    F, err, payload = residual(z)
    for _ in range(max_iter):
        if err <= tol:
            return z, payload
        try:
            J = jacobian(z)
        except DivergenceError:
            raise NoConvergence(err, "Jacobian probe diverged")
        if cond_limit is not None:
            cond = np.linalg.cond(J)
            if not math.isfinite(cond) or cond > cond_limit:
                raise SingularSystem(float(cond))
        row = np.max(np.abs(J), axis=1)
        row[row == 0.0] = 1.0
        try:
            step = np.linalg.solve(J / row[:, None], -F / row)
        except np.linalg.LinAlgError:
            raise SingularSystem(math.inf)
        damp = 1.0
        for _h in range(max_halvings):
            cand = z.copy()
            cand[free] += damp * step
            try:
                F2, err2, payload2 = residual(cand)
            except DivergenceError:
                damp *= 0.5
                continue
            if err2 < err or err2 <= tol:
                z, F, err, payload = cand, F2, err2, payload2
                break
            damp *= 0.5
        else:
            raise NoConvergence(err, "damping exhausted")
    if err <= tol:
        return z, payload
    raise NoConvergence(err, "iteration budget exhausted")


def solve_bvp(
    spec: ProblemSpec,
    nl: NonlinearitySpec | None,
    h: ForcingTerm | None,
    lam: float,
    initial_guess: tuple[float, float],
) -> SampledSolution:
    """Damped Newton on ``bvp_residual`` in (a, b) at fixed lam.

    Newton runs to 0.5*RESIDUAL_TOL, so the returned solution keeps a
    margin for the integration error and still meets RESIDUAL_TOL when it
    is re-integrated more accurately.  The Jacobian is ``bvp_jacobian`` in
    (a, b).  Raises NoConvergence with the best residual on stagnation and
    SingularSystem when that Jacobian has condition number beyond 1e12 (the
    resonant signature).  Amplitudes
    beyond the runaway cap also abort: at resonance the relative residual
    can be driven down by inflating the iterate along the kernel, which is
    not a solution.
    """
    def residual(z):
        F, err, sol = bvp_residual(spec, nl, h, z)
        if sol.amplitude > AMPLITUDE_RUNAWAY:
            raise NoConvergence(math.inf, "amplitude runaway (possible resonance)")
        return F, err, sol

    def jacobian(z):
        return bvp_jacobian(spec, nl, h, z, (1, 2))

    _, sol = damped_newton(residual, jacobian, (lam, *initial_guess), (1, 2), 0.5 * RESIDUAL_TOL,
                           NEWTON_MAX_ITER, NEWTON_MAX_HALVINGS, cond_limit=JACOBIAN_COND_LIMIT)
    if h is None and nl is not None and sol.amplitude > 0.0 and lam > 0.0:
        sol.energy_dev = nonlinear_energy_deviation(sol.trace, nl, lam)
    sol.collocation_residual = collocation_residual(sol.trace, nl, h, lam)
    return sol


def default_guesses(spec: ProblemSpec) -> list[tuple[float, float]]:
    """Deterministic multistart list: axis seeds plus the first three
    Robin-anchor eigenfunctions scaled over amplitudes 10^-2 .. 10^2."""
    guesses: list[tuple[float, float]] = [(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)]
    try:
        for k in range(3):
            lam = robin_anchor(spec, k)
            psi = normalized(TrigSolution(lam, -spec.minus.beta0, spec.minus.alpha0))
            for amp in (1e-2, 1e-1, 1.0, 1e1, 1e2):
                guesses.append((amp * psi.A, amp * psi.B))
    except ProblemDataError:
        # Robin anchors need the sign convention; fall back to axis seeds.
        pass
    return guesses


def solve_bvp_multistart(
    spec: ProblemSpec,
    nl: NonlinearitySpec | None,
    h: ForcingTerm | None,
    lam: float,
) -> SampledSolution:
    """Try ``default_guesses(spec)`` in order; first accepted solution wins."""
    guesses = default_guesses(spec)
    for g in guesses:
        try:
            return solve_bvp(spec, nl, h, lam, g)
        except (NoConvergence, SingularSystem, DivergenceError):
            pass
    raise NoConvergence(math.inf, f"not found from {len(guesses)} starts")


@dataclass
class NonresonanceVerdict:
    ok: bool
    reason: str
    finf: float
    nearest_eigenvalue: float | None
    distance: float | None
    out_of_scope: bool = False


def nonresonance_check(spec: ProblemSpec, nl: NonlinearitySpec) -> NonresonanceVerdict:
    """Solvability check for -u'' = f(u) + h: finf finite and off the spectrum
    (scanned up to finf + NONRESONANCE_MARGIN).

    Requires alpha0- + alpha0+ > 0; the Neumann-type case is a different
    (non-invertible) theory and is reported out of scope.
    """
    if spec.minus.alpha0 + spec.plus.alpha0 <= 0.0:
        return NonresonanceVerdict(
            ok=False,
            reason="out of scope: Neumann-type problem (alpha0- + alpha0+ = 0)",
            finf=nl.finf,
            nearest_eigenvalue=None,
            distance=None,
            out_of_scope=True,
        )
    if not math.isfinite(nl.finf):
        return NonresonanceVerdict(False, "finf is not finite", nl.finf, None, None)
    window = eigen_scan(spec, max(nl.finf + NONRESONANCE_MARGIN, NONRESONANCE_MARGIN))
    lams = window.lambdas()
    if not lams:
        return NonresonanceVerdict(True, "no eigenvalues in the window", nl.finf, None, None)
    nearest = min(lams, key=lambda l: abs(l - nl.finf))
    dist = abs(nearest - nl.finf)
    if dist <= 1e-6:
        return NonresonanceVerdict(False, "resonant: finf is an eigenvalue", nl.finf, nearest, dist)
    return NonresonanceVerdict(True, "", nl.finf, nearest, dist)
