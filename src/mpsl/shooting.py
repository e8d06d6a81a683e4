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
``solve_bvp_multistart`` starts Newton from four axis starts (u, u')(-1), then
continues a forced problem in lam from the linear problem -u'' = h.
``integrate_ivp`` and ``bvp_jacobian`` step DOP853 through ``_march`` for
any number of (u, u') pairs side by side, importing nothing of scipy.  The
whole march, its step-size control and every divergence rule included, is
``dop853``'s loop on Python floats, generated from the tableau and compiled
once per process and pair count (a forced solve uses 1 and 3 pairs, the
branch corrector 1 and 4).  The march yields each dense step as one flat
record [t_old, h, F rows, y_old]: ``IntegratedTrace`` keeps the records as
the columns of one array, and ``_interpolate`` is their one scalar reader.

Acceptance scale per side: 1 + |alpha0|*|u|_0 + |beta0|*|u'|_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DivergenceError, NoConvergence, SingularSystem
from .expressions import ForcingTerm, NonlinearitySpec, _on_floats
from .nodal import SampledTrace, _median_spread
from .problem import BoundarySide, ProblemSpec
from .spectrum import SCAN_MAX_POINTS, SCAN_STEP_OMEGA, eigen_scan

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
AXIS_STARTS = ((0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0))  # (u, u')(-1), tried in order
LAMBDA_RUNGS = 8  # rungs of the forced fallback's continuation in lam from -u'' = h


# The sample nodes of every IntegratedTrace: an array on an immutable buffer, which no
# trace can write to or make writeable.
GRID = np.frombuffer(np.linspace(-1.0, 1.0, int(round(2.0 / DENSE_STEP)) + 1).tobytes())
# Row j maps a step record's rows [F0, ..., F6, y_old] to the j-th Bernstein coefficient of its
# interpolant on s in [0, 1]: ``_interpolate``'s Horner form sums F_i s^a (1 - s)^b, (a, b) as in
# _POWERS, and raised to degree 7 that term puts C(7 - a - b, j - a) / C(7, j) on C(7, j) s^j (1 - s)^(7 - j).
_POWERS = ((4, 3), (3, 3), (3, 2), (2, 2), (2, 1), (1, 1), (1, 0), (0, 0))
BERNSTEIN = np.array([[math.comb(7 - a - b, j - a) / math.comb(7, j) if a <= j <= 7 - b else 0.0
                       for a, b in _POWERS] for j in range(8)])


class IntegratedTrace(SampledTrace):
    """Sampled trace backed by the integrator's dense output: the accepted
    steps' records as ``_march`` yields them, the columns of ``_rows`` (each
    step's t_old, h, interpolant rows F highest power first over u and u',
    and y_old).  ``_dense`` evaluates them at many ascending points in one
    numpy pass, ``_interpolate`` at one point on Python floats.  Both pick a
    step as scipy's ``OdeSolution`` does (a step end on the lower step) and
    run the Horner loop of scipy's ``Dop853DenseOutput`` in its operation
    order, so they agree bit for bit with each other and with scipy.  The
    samples and both sup norms are ``_dense`` at ``GRID``; zeros come from
    the steps' polynomials (``_pieces``).
    """

    _side = "left"

    def __init__(self, steps):
        self._rows = np.array(steps, dtype=float).T
        y = self._dense(GRID)
        sups = np.abs(y).max(axis=1).tolist()
        if not all(map(math.isfinite, sups)):
            raise DivergenceError(float(GRID[np.argmin(np.isfinite(y).all(axis=0))]))
        self.x, self._y, (self.u, self.up), self._sups, self._starts = GRID, y, y, tuple(sups), self._rows[0]

    def _dense(self, t: np.ndarray) -> np.ndarray:
        """(u, u') at ascending t, each point on its step's interpolant."""
        ends = t.searchsorted(self._rows[0, 1:], side="right")
        rows = np.repeat(self._rows, np.diff(ends, prepend=0, append=len(t)), axis=1)
        s = (t - rows[0]) / rows[1]
        r = 1 - s
        y = np.zeros((2, len(t)))
        for i, F in enumerate(rows[2:-2].reshape(-1, 2, len(t))):
            y += F
            y *= r if i % 2 else s
        y += rows[-2:]
        return y

    @cached_property
    def _pieces(self):
        """``SampledTrace._pieces`` of the steps, from one product with BERNSTEIN."""
        rows = self._rows
        return self._starts, rows[1], (BERNSTEIN @ rows[2:].reshape(8, -1)).reshape(8, 2, -1).transpose(1, 2, 0)

    def _piece(self, k: int):
        """(u, u') on step k's interpolant as a function of x (``_interpolate``)."""
        return lambda x, step=self._rows[:, k].tolist(): _interpolate(x, step)

    def negated(self) -> "IntegratedTrace":
        """The trace of -u on the same steps: every sample, interpolant row
        and start state is 0.0 - v.  Negation rounds symmetrically, so each
        value the new trace gives is exactly this trace's negated, and no
        sample is -0.0."""
        neg = object.__new__(IntegratedTrace)
        neg.x, neg._sups, neg._starts = self.x, self._sups, self._starts
        neg._rows = np.concatenate([self._rows[:2], 0.0 - self._rows[2:]])
        neg.u, neg.up = neg._y = 0.0 - self._y
        return neg


def _interpolate(x: float, step) -> list[float]:
    """The DOP853 interpolant of one step's record [t_old, h, F rows, y_old]
    at x on Python floats, every state component: its Horner loop written
    out in the operation order of ``IntegratedTrace._dense``.  float64
    arithmetic rounds alike in numpy and Python, so the values agree bit for
    bit."""
    n = (len(step) - 2) // 8
    s = (x - step[0]) / step[1]
    r = 1.0 - s
    y = []
    for i in range(2, 2 + n):
        f0, f1, f2, f3, f4, f5, f6, y_old = step[i::n]
        y.append((((((((0.0 + f0) * s + f1) * r + f2) * s + f3) * r + f4) * s + f5) * r + f6) * s + y_old)
    return y


@dataclass(frozen=True)
class ShootingState:
    a: float  # u(-1)
    b: float  # u'(-1)
    lam: float
    residuals: tuple[float, float] = (math.nan, math.nan)

    def negated(self) -> "ShootingState":
        """The state of -u: a, b and the residuals as 0.0 - v, so no -0.0 appears."""
        return ShootingState(0.0 - self.a, 0.0 - self.b, self.lam, tuple(0.0 - r for r in self.residuals))


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

    def negated(self) -> "SampledSolution":
        """-u, a solution wherever u is one and f is odd: the trace and the
        state negated, the certificates and scales kept."""
        return SampledSolution(self.trace.negated(), self.shooting.negated(), self.energy_dev,
                               self.collocation_residual, self.scales)

    def accepted(self) -> bool:
        r = self.shooting.residuals
        return abs(r[0]) <= RESIDUAL_TOL * self.scales[0] and abs(r[1]) <= RESIDUAL_TOL * self.scales[1]


def _zero(_x):
    return 0.0


def _march(nl: NonlinearitySpec | None, forcing: ForcingTerm | None, lams, y0: list[float],
           rtol: float, atol: float, dense):
    """DOP853 on -u_i'' = lams[i]*f(u_i) + h, the state y = (u_0, u_0', u_1,
    u_1', ...) a list of floats, from y(-1) = y0 to x = 1, yielding (t, y,
    piece) after each accepted step.  piece is the step's interpolant record,
    the flat list [t_old, h, F, y_old] with F's seven rows highest power
    first, each over every component, if dense(t) holds, and None otherwise.

    This is scipy's DOP853 (Hairer, Norsett & Wanner, Sec. II.10) on the
    tableau of ``dop853``: its initial step, its step control (safety 0.9,
    factors 0.2 to 10, exponent -1/8, failure below 10 float spacings of t)
    and its RMS error norm over all components, so trajectories integrated
    side by side share one step sequence.  The whole march is ``dop853``'s
    compiled loop for len(lams) pairs, which adds every stage sum left to
    right in every Python version.  It calls f and h as ``nl._f`` and
    ``forcing._h``, once per stage, and where either raises or gives no
    float, again through ``_on_floats``, which makes a value that Python
    cannot give (x/0, ** overflowing) NaN or inf as numpy does.
    Right-hand-side calls count as scipy's nfev, the three dense-output
    stages of a step included.

    These are divergence, checked in this order, and raise DivergenceError
    at the x named:

    - y0 or the right-hand side there is not finite: x = -1.0.  The first
      step size would be NaN, and that step would be rejected forever.
    - The right-hand side raises ValueError or ArithmeticError (f or h
      outside its domain, as log(0), or math.exp overflows): -1.0 before the
      first accepted step, otherwise the last accepted x.
    - A step fails: the last accepted x.  A right-hand side that is not
      finite (f overflows, or is NaN) gives a step error that is not below
      1, so the step shrinks until it fails.
    - Some |u| > BLOWUP_LIMIT at the end of a step: that step's end.
    - More than IVP_MAX_RHS_CALLS right-hand-side calls, a run that cannot
      end: the end of the step that passed the budget.
    """
    from .dop853 import kernels

    f = (nl._f, _on_floats(nl.f)) if nl is not None else (_zero, _zero)
    h = (forcing._h, _on_floats(forcing.h)) if forcing is not None else (None, None)
    return kernels(len(lams))(*f, *h, lams, y0, rtol, atol, dense, IVP_MAX_RHS_CALLS, BLOWUP_LIMIT)


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

    DOP853 steps with dense output on every step.  Divergence is
    ``_march``'s, and a dense-output sample that is not finite is divergence
    at that sample's x.
    """
    march = _march(nl, h, (float(lam),), [float(a), float(b)], rtol, atol, lambda t: True)
    return IntegratedTrace([piece for _, _, piece in march])


def bc_residual_on_trace(side: BoundarySide, trace) -> float:
    """``side.residual`` on a trace's values.  The benchmark's in-process
    checks call it by this name, on a re-integrated trace."""
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


@np.errstate(all="ignore")
def bvp_jacobian(spec: ProblemSpec, nl: NonlinearitySpec | None, h: ForcingTerm | None, z, free):
    """Forward-difference Jacobian of ``bvp_residual``'s F in z[free], columns
    in the order of ``free``, from one DOP853 solve.

    The base z = (lam, a, b) and each probe z + dz_j*e_j, dz_j = 1e-6*|z_j|
    (1e-6 where z_j = 0), are integrated side by side with one step
    sequence (Bock's internal numerical differentiation), so the difference
    quotients carry no noise from two different step sequences.  Dense
    output is taken only on the steps that hold an eta point, by
    ``_interpolate``; both boundary functionals are ``BoundarySide.residual``
    as in ``bvp_residual``.  Raises DivergenceError as ``_march`` does.
    """
    z = [float(v) for v in z]
    dz = [1e-6 * abs(z[j]) or 1e-6 for j in free]
    starts = [z]
    for j, d in zip(free, dz):
        starts.append(z.copy())
        starts[-1][j] += d
    etas = sorted({e for side in spec.sides for e in side.eta})
    y = [v for start in starts for v in start[1:]]
    at = {-1.0: y}
    for t, y, piece in _march(nl, h, [start[0] for start in starts], y, IVP_RTOL, IVP_ATOL,
                              lambda t: bool(etas) and etas[0] <= t):
        while etas and etas[0] <= t:
            eta = etas.pop(0)
            at[eta] = _interpolate(eta, piece)
    at[1.0] = y
    r = np.array([[side.residual(lambda x: at[x][2 * i:2 * i + 2]) for side in spec.sides]
                  for i in range(len(starts))])
    return ((r[1:] - r[0]) / np.array(dz)[:, None]).T


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
    dx = float(np.mean(x[1:] - x[:-1]))
    upp = (-up[4:] + 8.0 * up[3:-1] - 8.0 * up[1:-3] + up[:-4]) / (12.0 * dx)
    fvals = np.array(list(map(nl._f, u[2:-2].tolist()))) if nl is not None else 0.0
    hvals = np.array(list(map(h._h, x[2:-2].tolist()))) if h is not None else 0.0
    res = upp + lam * fvals + hvals if nl is not None else upp + hvals
    return float(np.max(np.abs(res)))


@lru_cache
def _energy_nodes(n: int) -> np.ndarray:
    """Every ENERGY_STRIDE-th of n nodes and the last one, built once per n
    and shared, so read-only."""
    idx = np.append(np.arange(0, n - 1, ENERGY_STRIDE), n - 1)
    idx.flags.writeable = False
    return idx


def nonlinear_energy_deviation(trace: SampledTrace, nl: NonlinearitySpec, lam: float) -> float:
    """Relative non-constancy of lam*F(u) + u'^2 along the trace (h == 0 form),
    sampled at every ENERGY_STRIDE-th node and the last one, with F at all
    samples from one ``NonlinearitySpec.F_many`` call."""
    idx = _energy_nodes(len(trace.x))
    up = trace.up[idx]
    return _median_spread(lam * nl.F_many(trace.u[idx]) + up * up)[1]


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


def solve_bvp_multistart(
    spec: ProblemSpec,
    nl: NonlinearitySpec | None,
    h: ForcingTerm | None,
    lam: float,
) -> SampledSolution:
    """Try ``AXIS_STARTS`` in order; the first accepted solution wins.  Failing
    that, continue a forced problem in lam from -u'' = h (Leray-Schauder): at
    lam*j/LAMBDA_RUNGS for j = 0 .. LAMBDA_RUNGS, from (0, 0) and then from the
    last rung's (a, b), all nonresonant while lam*finf is below lam_0.  h = 0
    would keep every rung on u = 0, so it gets no ladder.  The error carries
    the smallest residual of the axis starts."""
    best = math.inf
    for start in AXIS_STARTS:
        try:
            return solve_bvp(spec, nl, h, lam, start)
        except NoConvergence as exc:
            best = min(best, exc.best_residual)
        except (SingularSystem, DivergenceError):
            pass
    if h is not None:
        try:
            sol = solve_bvp(spec, None, h, 0.0, (0.0, 0.0))
            if sol.amplitude > 0.0:
                for j in range(1, LAMBDA_RUNGS + 1):
                    sol = solve_bvp(spec, nl, h, lam * j / LAMBDA_RUNGS, (sol.shooting.a, sol.shooting.b))
                return sol
        except (NoConvergence, SingularSystem, DivergenceError):
            pass
    ladder = "" if h is None else " or by continuation in lambda from -u'' = h"
    raise NoConvergence(best, f"not found from {len(AXIS_STARTS)} axis starts{ladder}")


@dataclass
class NonresonanceVerdict:
    ok: bool
    reason: str
    finf: float
    nearest_eigenvalue: float | None
    distance: float | None
    out_of_scope: bool = False


def nonresonance_check(spec: ProblemSpec, nl: NonlinearitySpec, lam: float = 1.0) -> NonresonanceVerdict:
    """Solvability check for -u'' = lam*f(u) + h: finf finite and lam*finf off the
    spectrum (scanned up to lam*finf + NONRESONANCE_MARGIN).  ``finf`` reports f's
    own limit; the nearest eigenvalue and the distance are those of lam*finf.  A
    window past the scan ceiling is not checked, and the verdict says so.

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
    level = lam * nl.finf
    top = max(level + NONRESONANCE_MARGIN, NONRESONANCE_MARGIN)
    if math.sqrt(top) > SCAN_MAX_POINTS * SCAN_STEP_OMEGA:
        return NonresonanceVerdict(False, f"lam*finf = {level:.6g} lies past the scan ceiling: not checked",
                                   nl.finf, None, None)
    window = eigen_scan(spec, top)
    lams = window.lambdas()
    if not lams:
        return NonresonanceVerdict(True, "no eigenvalues in the window", nl.finf, None, None)
    nearest = min(lams, key=lambda l: abs(l - level))
    dist = abs(nearest - level)
    if dist <= 1e-6:
        name = "finf" if lam == 1.0 else f"lam*finf = {level:.12g}"
        return NonresonanceVerdict(False, f"resonant: {name} is an eigenvalue", nl.finf, nearest, dist)
    return NonresonanceVerdict(True, "", nl.finf, nearest, dist)
