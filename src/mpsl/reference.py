"""Single-point (separated) reference spectra on [-1, 1].

These are the eigenvalues of -u'' = lam*u under classical separated
conditions; they anchor the homotopy continuation and provide the
comparison brackets used by the nodal theorems:

    Dirichlet      u(-1) = u(1) = 0        lam_k = ((k+1)*pi/2)^2
    Neumann        u'(-1) = u'(1) = 0      lam_k = (k*pi/2)^2
    Mixed          u(-1) = 0, u'(1) = 0    lam_k = ((2k+1)*pi/4)^2
    Robin kinds    transcendental roots, one per window
                   [(k*pi/2)^2, ((k+1)*pi/2)^2]

Sentinel extensions (definitions, not eigenvalues): index -1 for the
Robin-Dirichlet and mixed families and indices -2, -1 for the Dirichlet
family all map to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import ProblemDataError
from .problem import BoundarySide
from .trig import TrigSolution, _fundamental, normalized

DIRICHLET = "dirichlet"
NEUMANN = "neumann"
MIXED = "mixed"
ROBIN_DIRICHLET = "robin-dirichlet"
ROBIN_NEUMANN = "robin-neumann"
ROBIN_ROBIN = "robin-robin"

_REL_TOL = 1e-12


@dataclass(frozen=True)
class ReferenceKind:
    """A separated reference problem.

    ``robin_minus``/``robin_plus`` are (alpha0, beta0) pairs for the sides
    the tag leaves free; the Dirichlet/Neumann sides are implied by the tag.
    For the Robin-Dirichlet and Robin-Neumann kinds exactly one Robin pair
    must be given (on the side carrying the Robin condition).
    """

    tag: str
    robin_minus: tuple[float, float] | None = None
    robin_plus: tuple[float, float] | None = None

    def side_pairs(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Resolve to ((a0-, b0-), (a0+, b0+)) separated condition pairs."""
        if self.tag == DIRICHLET:
            return (1.0, 0.0), (1.0, 0.0)
        if self.tag == NEUMANN:
            return (0.0, -1.0), (0.0, 1.0)
        if self.tag == MIXED:
            # Dirichlet at -1, Neumann at +1 (matches the eigenfunction
            # convention u = sin((2k+1)*pi*(x+1)/4)).
            return (1.0, 0.0), (0.0, 1.0)
        if self.tag == ROBIN_DIRICHLET:
            if (self.robin_minus is None) == (self.robin_plus is None):
                raise ProblemDataError("robin-dirichlet needs exactly one Robin pair")
            if self.robin_minus is not None:
                return self.robin_minus, (1.0, 0.0)
            return (1.0, 0.0), self.robin_plus
        if self.tag == ROBIN_NEUMANN:
            if (self.robin_minus is None) == (self.robin_plus is None):
                raise ProblemDataError("robin-neumann needs exactly one Robin pair")
            if self.robin_minus is not None:
                return self.robin_minus, (0.0, 1.0)
            return (0.0, -1.0), self.robin_plus
        if self.tag == ROBIN_ROBIN:
            if self.robin_minus is None or self.robin_plus is None:
                raise ProblemDataError("robin-robin needs both Robin pairs")
            return self.robin_minus, self.robin_plus
        raise ProblemDataError(f"unknown reference kind {self.tag!r}")


def _normalize_pair(pair: tuple[float, float], side: str) -> tuple[float, float]:
    """Scale a separated condition so alpha0 >= 0 and beta0 has the side's sign.

    The condition is defined up to a nonzero factor; after normalisation we
    require the Robin parameter -nu*alpha0/beta0 ... equivalently alpha0 >= 0
    with beta0 <= 0 on the minus side and beta0 >= 0 on the plus side.
    """
    a0, b0 = float(pair[0]), float(pair[1])
    if a0 == 0.0 and b0 == 0.0:
        raise ProblemDataError("separated condition cannot have alpha0 = beta0 = 0")
    if a0 < 0.0 or (a0 == 0.0 and (b0 > 0.0) == (side == "minus")):
        a0, b0 = -a0, -b0
    signed = b0 if side == "plus" else -b0
    if a0 > 0.0 and signed < 0.0:
        raise ProblemDataError(
            f"{side} separated condition violates the endpoint sign convention"
        )
    return a0, b0


def _sep_det(bc_minus, bc_plus, lam: float) -> float:
    """Boundary determinant of the separated problem at lam: the plus-side
    residual of the solution from x=-1 with (A, B) = (-beta0-, alpha0-), which
    meets the minus condition identically (``BoundarySide.residual``, inlined
    because it costs ~3x as much per call)."""
    a0m, b0m = bc_minus
    a0p, b0p = bc_plus
    c, cp, s, sp = _fundamental(lam, 2.0)
    u1 = -b0m * c + a0m * s
    up1 = -b0m * cp + a0m * sp
    return a0p * u1 + b0p * up1


def _bracketed_root(g, lo: float, hi: float, g_lo: float) -> float:
    """Root of g in [lo, hi], where g changes sign and g(lo) = g_lo.

    Bisection to _REL_TOL relative, then at most 3 centred-difference Newton
    steps; a polish that leaves [lo - w, hi + w], w = hi - lo, falls back to
    the midpoint of the last bracket.  Shared by the separated reference
    spectra and the Gamma scan in ``spectrum``.
    """
    a, b, fa = lo, hi, g_lo
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = g(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a <= _REL_TOL * max(1.0, abs(mid)):
            break
    lam = 0.5 * (a + b)
    width = hi - lo
    for _ in range(3):
        h = 1e-7 * max(1.0, abs(lam))
        slope = (g(lam + h) - g(lam - h)) / (2 * h)
        if slope == 0.0:
            break
        step = g(lam) / slope
        if not math.isfinite(step) or abs(step) > width:
            break
        lam -= step
    if not lo - width <= lam <= hi + width:
        lam = 0.5 * (a + b)
    return lam


@lru_cache(maxsize=None)
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

    # Genuinely Robin on at least one side: the k-th eigenvalue lies strictly
    # inside the Neumann-Dirichlet window and is the only root of the
    # boundary determinant there.
    lo = (k * math.pi / 2.0) ** 2
    hi = ((k + 1) * math.pi / 2.0) ** 2
    pad = 1e-13 * (hi - lo)
    a, b = lo + pad, hi - pad
    fa = _sep_det(bc_minus, bc_plus, a)
    fb = _sep_det(bc_minus, bc_plus, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ArithmeticError(
            f"separated eigenvalue bracket [{lo:.6g}, {hi:.6g}] lost its sign change"
        )
    return _bracketed_root(lambda lam: _sep_det(bc_minus, bc_plus, lam), a, b, fa)


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


def reference_eigenvalue(kind: ReferenceKind | str, k: int, **robin) -> float:
    """Eigenvalue lam_k of a reference problem (with sentinel extensions)."""
    if isinstance(kind, str):
        kind = ReferenceKind(kind, **robin)
    if k < 0:
        if k in _SENTINELS.get(kind.tag, ()):
            return 0.0
        raise ValueError(f"index k={k} invalid for reference kind {kind.tag!r}")
    bm, bp = kind.side_pairs()
    return separated_eigenvalue(bm, bp, k)


def reference_eigenfunction(kind: ReferenceKind | str, k: int, **robin) -> TrigSolution:
    """Eigenfunction of a reference problem, |u|_0 = 1, first nonvanishing
    of (u(-1), u'(-1)) positive."""
    if isinstance(kind, str):
        kind = ReferenceKind(kind, **robin)
    if k < 0:
        raise ValueError("sentinel indices have no eigenfunction")
    lam = reference_eigenvalue(kind, k)
    a0m, b0m = _normalize_pair(kind.side_pairs()[0], "minus")
    # (A, B) = (-beta0-, alpha0-) satisfies the minus condition exactly.
    sol = normalized(TrigSolution(lam, -b0m, a0m))
    lead = sol.A if sol.A != 0.0 else sol.B
    if lead < 0.0:
        sol = TrigSolution(lam, -sol.A, -sol.B)
    return sol


def reference_bc_residuals(kind: ReferenceKind | str, k: int, **robin) -> tuple[float, float]:
    """Residuals of both separated conditions on the returned eigenfunction."""
    if isinstance(kind, str):
        kind = ReferenceKind(kind, **robin)
    sol = reference_eigenfunction(kind, k)
    return tuple(BoundarySide(a0, b0, side=side).residual(sol)
                 for (a0, b0), side in zip(kind.side_pairs(), ("minus", "plus")))
