"""Nodal classification of solutions: the S / T / R families.

For a C^2 function u on [-1, 1] the families are

  S_k^+ : u(+-1) != 0, u(-1) > 0, exactly k simple interior zeros of u;
  T_k^+ : u'(+-1) != 0, u'(-1) > 0, u' has exactly k simple interior zeros,
          and u vanishes strictly between each consecutive pair of them;
  R_k^+ : u'(-1) > 0, sign of u(1) is + for k even and - for k odd, u has
          only simple interior zeros, either k or k+1 of them  (k >= -1);

with X_k^- := -X_k^+.  Membership is decided from exact phase arithmetic
for closed-form solutions and from per-cell cubic Hermite interpolation for
sampled traces.  Boundary data within tolerance of a degeneracy yields an
"unclassified" verdict for that family, never a false negative.

The closed-form half is plain Python; numpy is imported where the sampled
routines start (``SampledTrace``, ``_sampled_zeros``), so linear callers
never load it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .errors import UnresolvableZeros
from .trig import TrigSolution, eval_solution, sup_norms
from .trig import reflected as _trig_reflected

DEFAULT_TOL = 1e-8
CLUSTER_TOL = 1e-8
MAX_SAMPLE_STEP = 1e-3 * (1.0 + 1e-9)
# Zeros closer to an endpoint than this are endpoint zeros up to rounding
# (phase arithmetic places an exact boundary zero at distance ~1e-16).
ENDPOINT_GUARD = 1e-12


class ClosedTrace:
    """Closed-form solution of -u'' = lam*u."""

    def __init__(self, sol: TrigSolution):
        self.sol = sol

    def eval(self, x: float) -> tuple[float, float]:
        return eval_solution(self.sol, x)

    def sup_u(self) -> float:
        return sup_norms(self.sol)[0]

    def sup_uprime(self) -> float:
        return sup_norms(self.sol)[1]

    def grid(self) -> list[float]:
        # np.linspace(-1, 1, 2001) bit for bit: i*step + start, last point = stop.
        return [-1.0 + i * 0.001 for i in range(2000)] + [1.0]


class SampledTrace:
    """Dense (x, u, u') samples with cubic Hermite interpolation between nodes."""

    def __init__(self, x, u, uprime):
        import numpy as np

        self.x = np.asarray(x, dtype=float)
        self.u = np.asarray(u, dtype=float)
        self.up = np.asarray(uprime, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.u.shape or self.x.shape != self.up.shape:
            raise ValueError("x, u, uprime must be 1-d arrays of equal length")
        if len(self.x) < 2:
            raise ValueError("need at least two samples")
        finite = np.isfinite(self.x) & np.isfinite(self.u) & np.isfinite(self.up)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(f"sample row {row} is not finite: "
                             f"x={self.x[row]!r}, u={self.u[row]!r}, uprime={self.up[row]!r}")
        dx = np.diff(self.x)
        if not np.all(dx > 0.0):
            raise ValueError("sample x must be strictly increasing")
        if abs(self.x[0] + 1.0) > 1e-9 or abs(self.x[-1] - 1.0) > 1e-9:
            raise ValueError("samples must cover [-1, 1] endpoint to endpoint")
        if dx.max() > MAX_SAMPLE_STEP:
            raise ValueError(
                f"sample step {dx.max():.3g} exceeds the allowed {MAX_SAMPLE_STEP:.3g}"
            )

    def _locate(self, x: float) -> int:
        i = int(self.x.searchsorted(x, side="right")) - 1
        return min(max(i, 0), len(self.x) - 2)

    def _cell_coeffs(self, i):
        """Cubic u = a s^3 + b s^2 + c s + d on cell i, s in [0, 1]; with an
        index array i, the coefficient arrays of those cells."""
        h = self.x[i + 1] - self.x[i]
        u0, u1 = self.u[i], self.u[i + 1]
        p0, p1 = h * self.up[i], h * self.up[i + 1]
        a = 2.0 * u0 + p0 - 2.0 * u1 + p1
        b = -3.0 * u0 - 2.0 * p0 + 3.0 * u1 - p1
        return a, b, p0, u0, h

    def eval(self, x: float) -> tuple[float, float]:
        if not -1.0 - 1e-12 <= x <= 1.0 + 1e-12:
            raise ValueError(f"x={x} outside [-1, 1]")
        i = self._locate(x)
        a, b, c, d, h = self._cell_coeffs(i)
        s = (x - self.x[i]) / h
        u = ((a * s + b) * s + c) * s + d
        up = ((3.0 * a * s + 2.0 * b) * s + c) / h
        return u, up

    def sup_u(self) -> float:
        return float(abs(self.u).max())

    def sup_uprime(self) -> float:
        return float(abs(self.up).max())

    def sup_usecond(self) -> float:
        """Estimated |u''|_0 from the interpolant (used for zero simplicity):
        the largest of H''(0)/h^2 and H''(1)/h^2 over the cells."""
        import numpy as np

        a, b, _, _, h = self._cell_coeffs(np.arange(len(self.x) - 1))
        vals = np.maximum(np.abs(2.0 * b), np.abs(6.0 * a + 2.0 * b)) / (h * h)
        return float(np.max(vals))

    def grid(self):
        return self.x


def reflected_trace(trace: ClosedTrace | SampledTrace) -> ClosedTrace | SampledTrace:
    """The trace of v(x) = u(-x)."""
    if isinstance(trace, ClosedTrace):
        return ClosedTrace(_trig_reflected(trace.sol))
    if isinstance(trace, SampledTrace):
        return SampledTrace(-trace.x[::-1], trace.u[::-1], -trace.up[::-1])
    raise TypeError(f"cannot reflect {type(trace).__name__}")


@dataclass(frozen=True)
class NodalClass:
    family: str  # 'S', 'T' or 'R'
    k: int
    sign: str  # '+' or '-'
    note: str = ""

    def label(self) -> str:
        return f"{self.family}_{self.k}^{self.sign}"


@dataclass
class ClassificationResult:
    memberships: list[NodalClass] = field(default_factory=list)
    status: dict = field(default_factory=dict)  # family -> ('member', NodalClass) | ('unclassified', reason)
    zeros_u: list[tuple[float, bool]] = field(default_factory=list)
    zeros_uprime: list[tuple[float, bool]] = field(default_factory=list)
    boundary: dict = field(default_factory=dict)
    satisfies_minus_bc: bool | None = None
    satisfies_plus_bc: bool | None = None

    def member(self, family: str) -> NodalClass | None:
        entry = self.status.get(family)
        if entry and entry[0] == "member":
            return entry[1]
        return None

    def has(self, family: str, k: int, sign: str | None = None) -> bool:
        for m in self.memberships:
            if m.family == family and m.k == k and (sign is None or m.sign == sign):
                return True
        return False


# ---------------------------------------------------------------------------
# zero location


def _closed_zeros(sol: TrigSolution, which: str) -> list[float]:
    lam, A, B = sol.lam, sol.A, sol.B
    from .trig import ZERO_LAMBDA_CUTOFF

    guard = ENDPOINT_GUARD
    if abs(lam) < ZERO_LAMBDA_CUTOFF:
        if which == "u":
            if B == 0.0:
                return []
            y0 = -A / B
            return [y0 - 1.0] if guard < y0 < 2.0 - guard else []
        return []  # u' is the constant B: no interior zeros (or identically 0)
    if lam > 0.0:
        w = math.sqrt(lam)
        R = math.hypot(A, B / w)
        if R == 0.0:
            return []
        phi = math.atan2(B / w, A)
        offset = phi + (0.5 * math.pi if which == "u" else 0.0)
        zeros = []
        n = math.ceil(-offset / math.pi)
        while True:
            y = (offset + n * math.pi) / w
            if y >= 2.0 - guard:
                break
            if y > guard:
                zeros.append(y - 1.0)
            n += 1
        return zeros
    w = math.sqrt(-lam)
    if which == "u":
        if B == 0.0 or A == 0.0:
            return []
        r = -A * w / B
    else:
        if A == 0.0 or B == 0.0:
            return []
        r = -B / (A * w)
    if not 0.0 < r < 1.0:
        return []
    y = math.atanh(r) / w
    return [y - 1.0] if ENDPOINT_GUARD < y < 2.0 - ENDPOINT_GUARD else []


def _sampled_zeros(trace: SampledTrace, which: str, slope_bound: float) -> list[float]:
    """Real roots of the per-cell interpolant of the requested channel.

    Candidate cells are those with a sign change or a value within reach of
    ``slope_bound`` (a bound on the channel's slope).  Each candidate's
    cubic (u) or quadratic (u') loses its leading coefficients below 1e-14
    of its largest; the cells are grouped by trimmed length and trailing
    zeros, and each group's companion matrices go through one
    ``np.linalg.eigvals`` call.  That is what ``np.roots`` does cell by
    cell, so the roots are the same to the bit.
    """
    import numpy as np

    x = trace.x
    vals = trace.u if which == "u" else trace.up
    dx = np.diff(x)
    v0, v1 = vals[:-1], vals[1:]
    sign_change = v0 * v1 < 0.0
    near = np.minimum(np.abs(v0), np.abs(v1)) <= dx * slope_bound * 1.5 + 1e-300
    cells = np.nonzero(sign_change | near)[0]

    a, b, c, d, h = trace._cell_coeffs(cells)
    polys = np.stack([a, b, c, d] if which == "u" else [3.0 * a, 2.0 * b, c], axis=1)
    width = polys.shape[1] - 1  # most roots a cell can have
    mags = np.abs(polys)
    lead = mags.max(axis=1, initial=0.0)
    first = np.argmax(mags > 1e-14 * lead[:, None], axis=1)
    last = width - np.argmax(polys[:, ::-1] != 0.0, axis=1)
    live = (lead > 0.0) & (first < width)
    # Row j holds the roots of cell cells[j] in np.roots order; NaN pads.
    roots = np.full((len(cells), width), np.nan, dtype=complex)
    for lo, hi in set(zip(first[live].tolist(), last[live].tolist())):
        rows = np.nonzero(live & (first == lo) & (last == hi))[0]
        n = hi - lo  # companion size
        if n > 0:
            p = polys[rows, lo:hi + 1]
            comp = np.zeros((len(rows), n, n))
            comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
            comp[:, 0, :] = -p[:, 1:] / p[:, :1]
            roots[rows, :n] = np.linalg.eigvals(comp)
        roots[rows, n:width - lo] = 0.0  # one root s = 0 per trailing zero coefficient
    s = roots.real
    top = np.where(cells == len(dx) - 1, 1.0 + 1e-12, 1.0)[:, None]
    ok = (np.abs(roots.imag) <= 1e-9) & (s >= -1e-12) & (s < top)
    j, s = np.nonzero(ok)[0], s[ok]
    s = np.where(0.0 > s, 0.0, s)  # min(max(s, 0.0), 1.0), signed zeros included
    s = np.where(1.0 < s, 1.0, s)
    zeros = (x[cells[j]] + s * h[j]).tolist()
    zeros.sort()
    # Roots recovered from both sides of a shared node differ by solver
    # noise (~1e-12); merge well below the cluster threshold so genuine
    # near-tangencies still raise.
    merged: list[float] = []
    for z in zeros:
        if merged and z - merged[-1] < 1e-10:
            continue
        merged.append(z)
    return [z for z in merged if -1.0 + ENDPOINT_GUARD < z < 1.0 - ENDPOINT_GUARD]


def zeros_of(
    trace: ClosedTrace | SampledTrace, which: str = "u", tol: float = DEFAULT_TOL
) -> list[tuple[float, bool]]:
    """Interior zeros of u or u' with a simplicity flag.

    A zero x0 of u is simple iff |u'(x0)| > tol * |u'|_0 (analogously with
    u'' for zeros of u').  Zeros closer together than the cluster tolerance
    raise UnresolvableZeros: the data cannot distinguish a tangency.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if which not in ("u", "uprime"):
        raise ValueError("which must be 'u' or 'uprime'")
    if isinstance(trace, ClosedTrace):
        xs = _closed_zeros(trace.sol, which)
        if which == "u":
            deriv_sup = trace.sup_uprime()
            deriv = lambda x: trace.eval(x)[1]
        else:
            deriv_sup = abs(trace.sol.lam) * trace.sup_u()
            deriv = lambda x: -trace.sol.lam * trace.eval(x)[0]
    elif isinstance(trace, SampledTrace):
        if which == "u":
            deriv_sup = trace.sup_uprime()
            deriv = lambda x: trace.eval(x)[1]
        else:
            deriv_sup = trace.sup_usecond()

            def deriv(xv, _t=trace):
                i = _t._locate(xv)
                a, b, c, _, h = _t._cell_coeffs(i)
                s = (xv - _t.x[i]) / h
                return (6.0 * a * s + 2.0 * b) / (h * h)
        xs = _sampled_zeros(trace, which, deriv_sup)
    else:
        raise TypeError(f"unsupported trace type {type(trace).__name__}")

    for za, zb in zip(xs, xs[1:]):
        if zb - za < CLUSTER_TOL:
            raise UnresolvableZeros(
                f"zeros of {which} at {za:.12g} and {zb:.12g} are unresolvably close"
            )
    return [(z, bool(abs(deriv(z)) > tol * deriv_sup)) for z in xs]


# ---------------------------------------------------------------------------
# classification


def _sign(v: float) -> str:
    return "+" if v > 0.0 else "-"


def _t_obstruction(ds: list[float], zs: list[float]) -> str | None:
    """Why sorted u'-zeros ds and u-zeros zs fail the T interleaving, or None.

    Some d within CLUSTER_TOL of a u-zero is a coincidence; only the two
    neighbours of d's insertion point into zs can be nearest.
    """
    for d in ds:
        i = bisect_left(zs, d)
        if any(abs(z - d) <= CLUSTER_TOL for z in zs[max(i - 1, 0):i + 1]):
            return "zero-coincidence"
    return None if interleaves(ds, zs) else "no-interleaving-zero"


def interleaves(stations: list[float], zeros: list[float]) -> bool:
    """Does every gap between consecutive stations hold a point of the
    sorted list zeros strictly inside it?"""
    for d1, d2 in zip(stations, stations[1:]):
        i = bisect_right(zeros, d1)
        if i == len(zeros) or not zeros[i] < d2:
            return False
    return True


def classify(trace: ClosedTrace | SampledTrace, tol: float = DEFAULT_TOL, spec=None) -> ClassificationResult:
    """All S/T/R memberships of a trace (they are not mutually exclusive).

    Boundary data within tol (relative) of a family's degeneracy makes that
    family 'unclassified' with a reason.  With ``spec`` given, the result
    also reports whether the trace satisfies each multi-point boundary
    condition to tolerance (used when endpoint conditions force u or u' to
    vanish at an endpoint and the plain families cannot apply).
    """
    sup_u = trace.sup_u()
    sup_up = trace.sup_uprime()
    if sup_u == 0.0:
        raise ValueError("cannot classify the zero function")
    u_m, up_m = trace.eval(-1.0)
    u_p, up_p = trace.eval(1.0)

    result = ClassificationResult()
    result.boundary = {"u(-1)": u_m, "u(1)": u_p, "uprime(-1)": up_m, "uprime(1)": up_p}

    zeros_u: list[tuple[float, bool]] | None = None
    zeros_up: list[tuple[float, bool]] | None = None

    def get_zeros_u():
        nonlocal zeros_u
        if zeros_u is None:
            zeros_u = zeros_of(trace, "u", tol)
            result.zeros_u = zeros_u
        return zeros_u

    def get_zeros_up():
        nonlocal zeros_up
        if zeros_up is None:
            zeros_up = zeros_of(trace, "uprime", tol)
            result.zeros_uprime = zeros_up
        return zeros_up

    if min(abs(u_m), abs(u_p)) <= tol * sup_u:
        result.status["S"] = ("unclassified", "boundary-degenerate")
    else:
        zu = get_zeros_u()
        if all(simple for _, simple in zu):
            cls = NodalClass("S", len(zu), _sign(u_m))
            result.status["S"] = ("member", cls)
            result.memberships.append(cls)
        else:
            result.status["S"] = ("unclassified", "nonsimple-zero")

    if sup_up == 0.0 or min(abs(up_m), abs(up_p)) <= tol * sup_up:
        result.status["T"] = ("unclassified", "boundary-degenerate")
    else:
        zup = get_zeros_up()
        if not all(simple for _, simple in zup):
            result.status["T"] = ("unclassified", "nonsimple-zero")
        else:
            reason = _t_obstruction([d for d, _ in zup], [z for z, _s in get_zeros_u()])
            if reason is not None:
                result.status["T"] = ("unclassified", reason)
            else:
                cls = NodalClass("T", len(zup), _sign(up_m))
                result.status["T"] = ("member", cls)
                result.memberships.append(cls)

    if sup_up == 0.0 or abs(up_m) <= tol * sup_up or abs(u_p) <= tol * sup_u:
        result.status["R"] = ("unclassified", "boundary-degenerate")
    else:
        zu = get_zeros_u()
        if not all(simple for _, simple in zu):
            result.status["R"] = ("unclassified", "nonsimple-zero")
        else:
            s = _sign(up_m)
            # u(1)*sign > 0 wants k even, < 0 wants k odd; of the two
            # admissible counts {z-1, z} exactly one has the right parity.
            want_even = (u_p > 0.0) == (s == "+")
            z = len(zu)
            k = z if (z % 2 == 0) == want_even else z - 1
            if k >= -1:
                cls = NodalClass("R", k, s, note="nonstandard" if k == -1 else "")
                result.status["R"] = ("member", cls)
                result.memberships.append(cls)
            else:  # pragma: no cover - unreachable: z >= 0
                result.status["R"] = ("unclassified", "no-admissible-count")

    if spec is not None:
        result.satisfies_minus_bc, result.satisfies_plus_bc = (
            bool(abs(side.residual(trace.eval)) <= tol * side.scale(sup_u, sup_up))
            for side in spec.sides
        )
    return result


def energy_deviation(lam: float, trace: ClosedTrace | SampledTrace) -> float:
    """Relative non-constancy of lam*u^2 + u'^2 on the trace's grid (2001
    points for a closed form, the nodes of a sampled trace).

    For an exact solution of -u'' = lam*u this profile is constant, so the
    deviation is a solver-independent correctness check.
    """
    if lam <= 0.0:
        raise ValueError("energy deviation requires lam > 0")
    profile = []
    for xv in trace.grid():
        u, upv = trace.eval(float(xv))
        profile.append(lam * u * u + upv * upv)
    # np.median's value, exactly: the middle element, or the mean of the two.
    ordered, n = sorted(profile), len(profile)
    med = ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
    if med == 0.0:
        raise ValueError("degenerate energy profile")
    return float(max(abs(p - med) for p in profile) / med)
