"""Closed-form fundamental solutions of -u'' = lam*u on [-1, 1].

Every solution is written as u = A*c(x) + B*s(x) where (c, s) is the
fundamental pair normalised at x = -1:

    c(-1) = 1, c'(-1) = 0,      s(-1) = 0, s'(-1) = 1.

For lam > 0 (w = sqrt(lam)):   c = cos(w(x+1)),  s = sin(w(x+1))/w
For lam = 0:                   c = 1,            s = x + 1
For lam < 0 (w = sqrt(-lam)):  c = cosh(w(x+1)), s = sinh(w(x+1))/w

so (A, B) = (u(-1), u'(-1)); ``_fundamental_dlam`` gives their exact
lam-derivatives.  Sup-norms are computed analytically from the
phase-amplitude form, which keeps the energy identity
lam*u^2 + u'^2 = const exact to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Below this |lam| the lam=0 formulas are used (removable singularity in s).
ZERO_LAMBDA_CUTOFF = 1e-10
# Below this |lam*y^2| ds/dlam comes from its series (both ~5e-13 relative here).
DS_SERIES_CUTOFF = 1e-3


@dataclass(frozen=True)
class TrigSolution:
    """A solution u = A*c + B*s of -u'' = lam*u on [-1, 1]."""

    lam: float
    A: float
    B: float

    def __call__(self, x: float) -> tuple[float, float]:
        return eval_solution(self, x)


def _fundamental(lam: float, y: float) -> tuple[float, float, float, float]:
    """Return (c, c', s, s') at y = x + 1."""
    if abs(lam) < ZERO_LAMBDA_CUTOFF:
        return 1.0, 0.0, y, 1.0
    if lam > 0.0:
        w = math.sqrt(lam)
        cw = math.cos(w * y)
        sw = math.sin(w * y)
        return cw, -w * sw, sw / w, cw
    w = math.sqrt(-lam)
    ch = math.cosh(w * y)
    sh = math.sinh(w * y)
    return ch, w * sh, sh / w, ch


def _fundamental_dlam(lam: float, y: float, c: float, s: float) -> tuple[float, float, float, float]:
    """d/dlam of (c, c', s, s') at y = x + 1, from c and s there.  ds = (y*c - s)/(2*lam)
    cancels as t = lam*y^2 -> 0, so there it is the series -y^3/6*(1 - t/10 + t^2/280)."""
    t = lam * y * y
    small = abs(t) < DS_SERIES_CUTOFF
    ds = -y ** 3 / 6.0 * (1.0 - t / 10.0 + t * t / 280.0) if small else (y * c - s) / (2.0 * lam)
    dc = -0.5 * y * s
    return dc, -0.5 * (s + y * c), ds, dc


def eval_solution(sol: TrigSolution, x: float) -> tuple[float, float]:
    """Evaluate (u(x), u'(x)). x must lie in [-1, 1]."""
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [-1, 1]")
    c, cp, s, sp = _fundamental(sol.lam, x + 1.0)
    return sol.A * c + sol.B * s, sol.A * cp + sol.B * sp


def bc_functional(side, sol: TrigSolution) -> float:
    """Residual of one multi-point boundary condition (``BoundarySide.residual``)
    on a closed-form solution; zero means the condition holds."""
    return side.residual(sol)


def sup_norms(sol: TrigSolution) -> tuple[float, float]:
    """Exact (|u|_0, |u'|_0) over [-1, 1].

    For lam > 0 the candidates are the endpoints plus the interior critical
    points of the phase-amplitude form R*cos(w(x+1) - phi); for lam <= 0 the
    maxima sit at the endpoints (|u| has no interior maximum there).
    """
    lam = sol.lam
    u_m, up_m = eval_solution(sol, -1.0)
    u_p, up_p = eval_solution(sol, 1.0)
    sup_u = max(abs(u_m), abs(u_p))
    sup_up = max(abs(up_m), abs(up_p))
    if abs(lam) < ZERO_LAMBDA_CUTOFF or lam < 0.0:
        return sup_u, sup_up

    w, R, phi = _phase_form(sol)
    if R == 0.0:
        return 0.0, 0.0
    span = 2.0 * w  # theta = w*(x+1) ranges over [0, span]

    # |u| = R at theta = phi + n*pi, |u'| = R*w at theta = phi + pi/2 + n*pi.
    if _multiple_in_range(phi, span):
        sup_u = R
    if _multiple_in_range(phi + 0.5 * math.pi, span):
        sup_up = R * w
    return sup_u, sup_up


def _phase_form(sol: TrigSolution) -> tuple[float, float, float]:
    """(w, R, phi) with u = R*cos(w(x+1) - phi), for lam > 0."""
    w = math.sqrt(sol.lam)
    return w, math.hypot(sol.A, sol.B / w), math.atan2(sol.B / w, sol.A)


def _multiple_in_range(offset: float, span: float) -> bool:
    """Is there an integer n with offset + n*pi in [0, span]?"""
    n_lo = math.ceil(-offset / math.pi)
    return offset + n_lo * math.pi <= span


def normalized(sol: TrigSolution) -> TrigSolution:
    """Rescale so |u|_0 = 1 (sign preserved)."""
    sup_u, _ = sup_norms(sol)
    if sup_u == 0.0:
        raise ValueError("cannot normalize the zero solution")
    return TrigSolution(sol.lam, sol.A / sup_u, sol.B / sup_u)


def reflected(sol: TrigSolution) -> TrigSolution:
    """The reflected solution v(x) = u(-x), still solving -v'' = lam*v."""
    u1, up1 = eval_solution(sol, 1.0)
    return TrigSolution(sol.lam, u1, -up1)
