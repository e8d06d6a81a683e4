"""Single-point (separated) reference spectra on [-1, 1].

These are the eigenvalues of -u'' = lam*u under classical separated
conditions; they anchor the homotopy continuation and provide the
comparison brackets used by the nodal theorems:

    Dirichlet      u(-1) = u(1) = 0        lam_k = ((k+1)*pi/2)^2
    Neumann        u'(-1) = u'(1) = 0      lam_k = (k*pi/2)^2
    Mixed          u(-1) = 0, u'(1) = 0    lam_k = ((2k+1)*pi/4)^2
    Robin kinds    transcendental roots, one per window
                   [(k*pi/2)^2, ((k+1)*pi/2)^2]

A Robin eigenvalue is the root in w = sqrt(lam) of its Prüfer phase
equation, 2w + theta_minus(w) + theta_plus(w) = (k+1)*pi with
theta_pm(w) = atan2(w*|beta0|, alpha0): the left side increases strictly
in w, so the root is never lost, however far the ratio alpha0/beta0 goes.
It is solved in the complementary angles atan2(alpha0, w*|beta0|), with
their exact slope.

Sentinel extensions (definitions, not eigenvalues): index -1 for the
Robin-Dirichlet and mixed families and indices -2, -1 for the Dirichlet
family all map to 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import ProblemDataError
from .problem import BoundarySide
from .trig import TrigSolution, normalized

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
MIXED = "mixed"
ROBIN_DIRICHLET = "robin-dirichlet"
ROBIN_NEUMANN = "robin-neumann"
ROBIN_ROBIN = "robin-robin"

NUDGE_ULPS = 4  # _bracketed_root: how far past a converged Newton iterate to step


# kind -> ((a0-, b0-), (a0+, b0+)) of the three kinds with no Robin side.
_KIND_PAIRS = {
    DIRICHLET: ((1.0, 0.0), (1.0, 0.0)),
    NEUMANN: ((0.0, -1.0), (0.0, 1.0)),
    MIXED: ((1.0, 0.0), (0.0, 1.0)),  # D at -1, N at +1: u = sin((2k+1)*pi*(x+1)/4)
}


def _side_pairs(kind: str, robin_minus, robin_plus) -> tuple[tuple[float, float], tuple[float, float]]:
    """((a0-, b0-), (a0+, b0+)) separated condition pairs of a reference kind.

    ``robin_minus``/``robin_plus`` are (alpha0, beta0) pairs for the sides
    the kind leaves free: exactly one for the Robin-Dirichlet and
    Robin-Neumann kinds, whose other side is that of the Dirichlet (Neumann)
    kind, and both for Robin-Robin.  The fixed kinds ignore them.
    """
    if kind in _KIND_PAIRS:
        return _KIND_PAIRS[kind]
    if kind == ROBIN_ROBIN:
        if robin_minus is None or robin_plus is None:
            raise ProblemDataError("robin-robin needs both Robin pairs")
        return robin_minus, robin_plus
    if kind not in (ROBIN_DIRICHLET, ROBIN_NEUMANN):
        raise ProblemDataError(f"unknown reference kind {kind!r}")
    if (robin_minus is None) == (robin_plus is None):
        raise ProblemDataError(f"{kind} needs exactly one Robin pair")
    fixed_minus, fixed_plus = _KIND_PAIRS[kind.removeprefix("robin-")]
    return (robin_minus, fixed_plus) if robin_minus is not None else (fixed_minus, robin_plus)


def _normalize_pair(pair: tuple[float, float], side: str) -> tuple[float, float]:
    """Scale a separated condition so alpha0 >= 0 and beta0 has the side's sign.

    The condition is defined only up to a nonzero factor.  It is flipped so
    that alpha0 >= 0, and it must then have beta0 <= 0 on the minus side and
    beta0 >= 0 on the plus side (the endpoint sign convention).  A
    non-finite coefficient or alpha0 = beta0 = 0 raises ProblemDataError.
    """
    a0, b0 = float(pair[0]), float(pair[1])
    if not (math.isfinite(a0) and math.isfinite(b0)):
        raise ProblemDataError(f"separated condition ({a0!r}, {b0!r}) is not finite")
    if a0 == 0.0 and b0 == 0.0:
        raise ProblemDataError("separated condition cannot have alpha0 = beta0 = 0")
    if a0 < 0.0 or (a0 == 0.0 and (b0 > 0.0) == (side == "minus")):
        a0, b0 = -a0, -b0
    signed = b0 if side == "plus" else -b0
    if a0 > 0.0 and signed < 0.0:
        raise ProblemDataError(
            f"{side} separated condition violates the endpoint sign convention"
        )
    # A -0.0 becomes 0.0: atan2(0.0, -0.0) is pi, not 0, and -0.0 and 0.0
    # are one key to the eigenvalue cache.
    return a0 or 0.0, b0 or 0.0


def _bracketed_root(g, lo: float, hi: float, g_lo: float, x0: float | None = None) -> float:
    """Root of g in [lo, hi], where g changes sign, with the sign of g_lo just above lo.

    ``g(x)`` returns (value, slope).  Safeguarded Newton (Allgower & Georg,
    *Numerical Continuation Methods*, 1990, ch. 2): the first point is x0 if
    it lies strictly inside, else the midpoint, and each value moves the
    bracket end on its side.  A Newton iterate that leaves the bracket, or
    moves more than half as far as the step before the previous one did
    (``dxold`` of Numerical Recipes' ``rtsafe``), is replaced by the midpoint.
    Near one end of the bracket a Newton step is about as long as the
    bisection just taken, which is why the test looks one step further back.
    Newton closes in from one side, so a Newton step of at most ``nudge`` ulps
    (NUDGE_ULPS at first, doubled at each use) means the root is near: the
    next point lies that many ulps past the iterate toward the far end, and
    the far end comes in too.  It ends when no float lies strictly between the
    bracket ends and returns their midpoint as rounded, or an exact zero of g
    met on the way.  Every point lies strictly inside the bracket and becomes
    one of its ends, so it always ends.  Shared by the separated reference
    spectra and the Gamma scan in ``spectrum``.
    """
    a, b, neg_a = lo, hi, g_lo < 0.0
    x = x0 if x0 is not None and a < x0 < b else 0.5 * (a + b)
    last = older = b - a
    nudge = NUDGE_ULPS
    while a < x < b:
        fx, dfx = g(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == neg_a:
            a, far = x, b
        else:
            b, far = x, a
        step = fx / dfx if dfx != 0.0 else math.inf
        near = nudge * math.ulp(x)
        if abs(step) <= near:  # converged from one side: step past the root
            new = x + math.copysign(abs(step) + near, far - x)
            nudge *= 2
        else:
            new = x - step
        if not a < new < b or abs(step) > max(near, 0.5 * older):
            new = 0.5 * (a + b)
        older, last = last, abs(new - x)
        x = new
    return x


# Bounded: the keys carry each problem's Robin pairs, so a stream of problems
# would grow it for ever; one prediction or spectrum reads at most ~110 entries.
@lru_cache(maxsize=1024)
def _separated_eigenvalue_cached(bc_minus, bc_plus, k: int) -> float:
    a0m, b0m = bc_minus
    a0p, b0p = bc_plus
    d_minus = b0m == 0.0
    n_minus = a0m == 0.0
    d_plus = b0p == 0.0
    n_plus = a0p == 0.0
    if d_minus and d_plus:
        return ((k + 1) * math.pi / 2.0) ** 2
    if n_minus and n_plus:
        return (k * math.pi / 2.0) ** 2
    if (d_minus and n_plus) or (n_minus and d_plus):
        return ((2 * k + 1) * math.pi / 4.0) ** 2

    # Genuinely Robin on at least one side.  With the Prüfer angle
    # theta = atan2(w*u, u'), the solution that meets the minus condition has
    # theta(x) = theta_minus(w) + w*(x + 1), and the k-th eigenfunction meets
    # the plus condition at theta(1) = (k + 1)*pi - theta_plus(w), both
    # theta_pm in [0, pi/2].  g is that equation in the complementary angles
    # pi/2 - theta_pm = atan2(alpha0, w*|beta0|), which keeps a tiny angle
    # tiny instead of subtracting it from pi/2.  g strictly increases in w,
    # with slope 2 + sum alpha0*|beta0|/(alpha0^2 + w^2*beta0^2), and has its
    # one root in the Neumann-Dirichlet window [k*pi/2, (k + 1)*pi/2].  Its
    # bracketed term is exactly 0 at lo, since 2*lo = k*pi as rounded, so
    # g(lo) <= 0 holds exactly; at hi it is (k + 1)*pi - k*pi as rounded,
    # within an ulp of (k + 1)*pi of pi, so g(hi) >= 0 holds up to that.
    # A root that rounds onto an end is that end.
    abs_bm, abs_bp = abs(b0m), abs(b0p)
    phase_k = k * math.pi

    def g(w: float) -> tuple[float, float]:
        hm, hp = math.hypot(a0m, w * abs_bm), math.hypot(a0p, w * abs_bp)
        slope = 2.0
        if a0m:
            slope += (a0m / hm) * (abs_bm / hm)
        if a0p:
            slope += (a0p / hp) * (abs_bp / hp)
        return (2.0 * w - phase_k) - math.atan2(a0m, w * abs_bm) - math.atan2(a0p, w * abs_bp), slope

    lo, hi = phase_k / 2.0, (k + 1) * math.pi / 2.0
    g_lo = g(lo)[0]
    if g_lo >= 0.0:
        return lo ** 2
    if g(hi)[0] <= 0.0:
        return hi ** 2
    return _bracketed_root(g, lo, hi, g_lo) ** 2


def separated_eigenvalue(bc_minus: tuple[float, float], bc_plus: tuple[float, float], k: int) -> float:
    """k-th eigenvalue of the separated problem with the given endpoint pairs."""
    if k < 0:
        raise ValueError(f"eigenvalue index k={k} must be >= 0")
    bm = _normalize_pair(bc_minus, "minus")
    bp = _normalize_pair(bc_plus, "plus")
    return _separated_eigenvalue_cached(bm, bp, k)


_SENTINELS = {
    DIRICHLET: (-2, -1),
    MIXED: (-1,),
    ROBIN_DIRICHLET: (-1,),
}


def reference_eigenvalue(kind: str, k: int, robin_minus=None, robin_plus=None) -> float:
    """Eigenvalue lam_k of a reference problem (with sentinel extensions)."""
    if k < 0:
        if k in _SENTINELS.get(kind, ()):
            return 0.0
        raise ValueError(f"index k={k} invalid for reference kind {kind!r}")
    return separated_eigenvalue(*_side_pairs(kind, robin_minus, robin_plus), k)


def reference_eigenfunction(kind: str, k: int, robin_minus=None, robin_plus=None) -> TrigSolution:
    """Eigenfunction of a reference problem, |u|_0 = 1, first nonvanishing
    of (u(-1), u'(-1)) positive."""
    if k < 0:
        raise ValueError("sentinel indices have no eigenfunction")
    bm, bp = _side_pairs(kind, robin_minus, robin_plus)
    a0m, b0m = _normalize_pair(bm, "minus")
    # (A, B) = (-beta0-, alpha0-) satisfies the minus condition exactly, and
    # the normalized pair has A >= 0, with B = alpha0- > 0 where A is 0.
    return normalized(TrigSolution(separated_eigenvalue(bm, bp, k), -b0m, a0m))


def reference_bc_residuals(kind: str, k: int, robin_minus=None, robin_plus=None) -> tuple[float, float]:
    """Residuals of both separated conditions on the returned eigenfunction."""
    sol = reference_eigenfunction(kind, k, robin_minus, robin_plus)
    return tuple(BoundarySide(a0, b0, side=side).residual(sol)
                 for (a0, b0), side in zip(_side_pairs(kind, robin_minus, robin_plus), ("minus", "plus")))
