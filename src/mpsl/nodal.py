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

A zero of u (of u') is simple when |u'| (|u''|) there exceeds tol in (0, 1)
times its sup-norm.  A closed form with lam >= ZERO_LAMBDA_CUTOFF is
u = R*cos(w(x+1) - phi): its zeros are (offset + n*pi)/w - 1 over an n-range
found in O(1), |u'| = R*w at every zero of u and |u''| = lam*R at every zero
of u'.  So ``classify`` decides it from two counts and two comparisons, and
a zero list is built only when it is read.

The closed-form half is plain Python; numpy is imported where the sampled
routines start (``SampledTrace``, ``_sampled_zeros``), so linear callers
never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import UnresolvableZeros
from .reference import _bracketed_root
from .trig import ZERO_LAMBDA_CUTOFF, TrigSolution, _closed_values, eval_solution
from .trig import reflected as _trig_reflected

DEFAULT_TOL = 1e-8
CLUSTER_TOL = 1e-8
MAX_SAMPLE_STEP = 1e-3 * (1.0 + 1e-9)
# Zeros closer to an endpoint than this are endpoint zeros up to rounding
# (phase arithmetic places an exact boundary zero at distance ~1e-16).
ENDPOINT_GUARD = 1e-12
# Zero counts decide a closed form up to this w = sqrt(lam): its zeros of u and
# u' alternate pi/(2w) >= 1.57e-4 (15700 CLUSTER_TOL) apart, rounding moves one
# by ~1e-15, so T interleaves by construction.  Scans stay below w = 1975.
PHASE_COUNT_W_MAX = 1e4


class ClosedTrace:
    """Closed-form solution of -u'' = lam*u.  Its end values, its phase form
    (w, R, phi) (None for lam < ZERO_LAMBDA_CUTOFF) and its sup norms are
    computed once, at construction (``trig._closed_values``)."""

    def __init__(self, sol: TrigSolution):
        self.sol = sol
        self.ends, self.phase, self._sups = _closed_values(sol)

    def eval(self, x: float) -> tuple[float, float]:
        if x in (-1.0, 1.0):
            return self.ends[0 if x < 0.0 else 1]
        return eval_solution(self.sol, x)

    def sup_u(self) -> float:
        return self._sups[0]

    def sup_uprime(self) -> float:
        return self._sups[1]

    def grid(self) -> list[float]:
        # np.linspace(-1, 1, 2001) bit for bit: i*step + start, last point = stop.
        return [-1.0 + i * 0.001 for i in range(2000)] + [1.0]


class SampledTrace:
    """Dense (x, u, u') samples with cubic Hermite interpolation between nodes.

    The sup norms and, on first use, all cells' Hermite coefficients are
    computed once, so the samples must not change after construction."""

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
        self._sups = float(abs(self.u).max()), float(abs(self.up).max())

    def _locate(self, x: float) -> int:
        i = int(self.x.searchsorted(x, side="right")) - 1
        return min(max(i, 0), len(self.x) - 2)

    @cached_property
    def _cells(self):
        """(a, b, c, d, h) of every cell: the cubic u = a s^3 + b s^2 + c s + d
        on s in [0, 1] and the cell width."""
        x, u, up = self.x, self.u, self.up
        h = x[1:] - x[:-1]
        u0, u1 = u[:-1], u[1:]
        p0, p1 = h * up[:-1], h * up[1:]
        a = 2.0 * u0 + p0 - 2.0 * u1 + p1
        b = -3.0 * u0 - 2.0 * p0 + 3.0 * u1 - p1
        return a, b, p0, u0, h

    def _cell_coeffs(self, i):
        """``_cells`` of cell i, or of the cells of an index array i."""
        return tuple(c[i] for c in self._cells)

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
        return self._sups[0]

    def sup_uprime(self) -> float:
        return self._sups[1]

    def sup_usecond(self) -> float:
        """Estimated |u''|_0 from the interpolant (used for zero simplicity):
        the largest of H''(0)/h^2 and H''(1)/h^2 over the cells."""
        import numpy as np

        a, b, _, _, h = self._cells
        vals = np.maximum(np.abs(2.0 * b), np.abs(6.0 * a + 2.0 * b)) / (h * h)
        return float(np.max(vals))

    def grid(self):
        return self.x


def reflected_trace(trace: ClosedTrace) -> ClosedTrace:
    """The trace of v(x) = u(-x)."""
    return ClosedTrace(_trig_reflected(trace.sol))


@dataclass(frozen=True)
class NodalClass:
    family: str  # 'S', 'T' or 'R'
    k: int
    sign: str  # '+' or '-'
    note: str = ""

    def label(self) -> str:
        return f"{self.family}_{self.k}^{self.sign}"

    def negated(self) -> "NodalClass":
        """The class of -u, the same family and index with the other sign."""
        return NodalClass(self.family, self.k, "-" if self.sign == "+" else "+", self.note)


@dataclass
class ClassificationResult:
    """S/T/R verdicts of one trace.  ``zeros_u``/``zeros_uprime`` hold (zero,
    simple) for the channels classification consulted, [] for the others;
    where counts decided, a list is ``zeros_of(trace, which, tol)`` computed
    on first read.  == and repr read both, so reading changes neither."""

    memberships: list[NodalClass] = field(default_factory=list)
    status: dict = field(default_factory=dict)  # family -> ('member', NodalClass) | ('unclassified', reason)
    zeros_u: list[tuple[float, bool]] = field(init=False)
    zeros_uprime: list[tuple[float, bool]] = field(init=False)
    boundary: dict = field(default_factory=dict)
    satisfies_minus_bc: bool | None = None
    satisfies_plus_bc: bool | None = None
    _pending: dict = field(default_factory=dict, repr=False, compare=False)  # list name -> zeros_of arguments

    def __getattr__(self, name: str):  # runs only for a zero list not set or read yet
        if name not in ("zeros_u", "zeros_uprime"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        args = self.__dict__.get("_pending", {}).get(name)
        zeros = self.__dict__[name] = zeros_of(*args) if args else []
        return zeros

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


def _closed_range(w: float, phi: float, which: str) -> tuple[float, int, int]:
    """(offset, first, end): the interior zeros of u (of u') of R*cos(w(x+1) - phi)
    are y_n - 1, y_n = (offset + n*pi)/w, for first <= n < end.  Each end steps
    up, a few times at most, to the first computed y_n passing its predicate
    (> ENDPOINT_GUARD from n = ceil(-offset/pi), >= 2 - ENDPOINT_GUARD): exact."""
    offset = phi + (0.5 * math.pi if which == "u" else 0.0)
    y = lambda n: (offset + n * math.pi) / w
    first = math.ceil(-offset / math.pi)
    while not y(first) > ENDPOINT_GUARD:
        first += 1
    end = max(first, math.floor(((2.0 - ENDPOINT_GUARD) * w - offset) / math.pi) - 1)
    while y(end) < 2.0 - ENDPOINT_GUARD:
        end += 1
    return offset, first, end


def _phase_simple(trace: ClosedTrace, which: str, tol: float) -> bool:
    """The flag of every zero of u (u'): |u'| = R*w there (|u''| = lam*R)."""
    lam = trace.sol.lam
    w, R, _ = trace.phase
    return R * w > tol * trace._sups[1] if which == "u" else lam * R > tol * lam * trace._sups[0]


def _closed_zeros(trace: ClosedTrace, which: str) -> list[float]:
    """Interior zeros of u or u' of a closed form, ascending: for
    lam >= ZERO_LAMBDA_CUTOFF the phase zeros of ``_closed_range``, below it
    at most one (u is linear near lam = 0; one atanh root for lam < 0)."""
    lam, A, B = trace.sol.lam, trace.sol.A, trace.sol.B
    if abs(lam) < ZERO_LAMBDA_CUTOFF:
        if which == "u":
            if B == 0.0:
                return []
            y0 = -A / B
            return [y0 - 1.0] if ENDPOINT_GUARD < y0 < 2.0 - ENDPOINT_GUARD else []
        return []  # u' is the constant B: no interior zeros (or identically 0)
    if lam > 0.0:
        w, R, phi = trace.phase
        if R == 0.0:
            return []
        offset, first, end = _closed_range(w, phi, which)
        return [(offset + n * math.pi) / w - 1.0 for n in range(first, end)]
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

    A node whose sample is exactly 0 is a root, unless the channel's
    polynomial vanishes identically on both its cells (inside a flat run).
    Candidate cells are those with a sign change or a value within reach of
    ``slope_bound`` (a bound on the channel's slope), found in one numpy
    pass.  Each candidate's polynomial p on s in [0, 1], the cubic (u) or
    its derivative quadratic (u'), is split at its critical points in
    (0, 1).  A piece whose end values are nonzero and of opposite sign holds
    one root, which ``_bracketed_root`` closes; the values at s = 0 and 1
    are the node samples, not p rounded there, so a sign change between two
    samples always yields one root in their cell.  A critical point c where
    p touches zero, 0 <= 2 p(c)/p''(c) <= 1e-18 (np.roots' |imag| <= 1e-9
    on the local quadratic), is a root.
    """
    import numpy as np

    x = trace.x
    a, b, c, d, h = trace._cells
    vals = trace.u if which == "u" else trace.up
    v0, v1 = vals[:-1], vals[1:]
    near = np.minimum(np.abs(v0), np.abs(v1)) <= h * slope_bound * 1.5 + 1e-300
    cells = np.nonzero((v0 * v1 < 0.0) | near)[0]

    def flat(i):  # p is identically 0 on cell i, or there is no cell i
        return not 0 <= i < len(h) or not (a[i] or b[i] or c[i] or (which == "u" and d[i]))

    zeros = [float(x[j]) for j in np.flatnonzero(vals == 0.0).tolist() if not (flat(j - 1) and flat(j))]
    for x0, h0, f0, f1, a0, b0, c0, d0 in zip(*(v[cells].tolist() for v in (x, h, v0, v1, a, b, c, d))):
        p3, p2, p1, p0 = (a0, b0, c0, d0) if which == "u" else (0.0, 3.0 * a0, 2.0 * b0, c0)
        p = lambda s: (((p3 * s + p2) * s + p1) * s + p0, (3.0 * p3 * s + 2.0 * p2) * s + p1)
        disc = p2 * p2 - 3.0 * p3 * p1  # of p'(s) = 3*p3*s^2 + 2*p2*s + p1; no real root: q = nan
        q = -(p2 + math.copysign(math.sqrt(disc), p2)) if disc >= 0.0 else math.nan
        crit = sorted(s for s in (q / (3.0 * p3) if p3 else -1.0, p1 / q if q else -1.0) if 0.0 < s < 1.0)
        ends = [(0.0, f0)] + [(s, p(s)[0]) for s in crit] + [(1.0, f1)]
        zeros += [x0 + _bracketed_root(p, lo, hi, g_lo) * h0
                  for (lo, g_lo), (hi, g_hi) in zip(ends, ends[1:]) if g_lo < 0.0 < g_hi or g_hi < 0.0 < g_lo]
        zeros += [x0 + s * h0 for s, g in ends[1:-1]  # p touches zero at s (p''(s) = 0: only if p(s) is)
                  if g == 0.0 or 0.0 <= 2.0 * g / (6.0 * p3 * s + 2.0 * p2 or math.nan) <= 1e-18]
    zeros.sort()
    # A root can come twice, from the two cells beside a node or from a
    # double critical point; merge well below the cluster threshold so
    # genuine near-tangencies still raise.
    merged: list[float] = []
    for z in zeros:
        if merged and z - merged[-1] < 1e-10:
            continue
        merged.append(z)
    return [z for z in merged if -1.0 + ENDPOINT_GUARD < z < 1.0 - ENDPOINT_GUARD]


def zeros_of(
    trace: ClosedTrace | SampledTrace, which: str = "u", tol: float = DEFAULT_TOL
) -> list[tuple[float, bool]]:
    """Interior zeros of u or u' with a simplicity flag; 0 < tol < 1.

    A zero x0 of u is simple iff |u'(x0)| > tol * |u'|_0 (analogously with
    u'' for zeros of u'); a closed form with lam >= ZERO_LAMBDA_CUTOFF flags
    its whole list at once by R*w > tol*|u'|_0 (lam*R > tol*lam*|u|_0 for u').
    Zeros closer together than the cluster tolerance raise
    UnresolvableZeros: the data cannot distinguish a tangency.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    if which not in ("u", "uprime"):
        raise ValueError("which must be 'u' or 'uprime'")
    simple = None  # the flag of every zero, where the phase form gives it
    if isinstance(trace, ClosedTrace):
        lam = trace.sol.lam
        xs = _closed_zeros(trace, which)
        if lam >= ZERO_LAMBDA_CUTOFF:
            simple = _phase_simple(trace, which, tol)
        elif which == "u":
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
    if simple is not None:
        return [(z, simple) for z in xs]
    return [(z, bool(abs(deriv(z)) > tol * deriv_sup)) for z in xs]


# ---------------------------------------------------------------------------
# classification


def _sign(v: float) -> str:
    return "+" if v > 0.0 else "-"


def _t_obstruction(ds: list[float], zs: list[float]) -> str | None:
    """Why sorted u'-zeros ds and u-zeros zs fail the T interleaving, or None.

    One merge: with zs[i - 1] < d <= zs[i], those are the u-zeros nearest d
    (within CLUSTER_TOL is a coincidence, which outranks the rest), and the
    gap before d holds a u-zero iff zs[i - 1] lies past the previous d.
    """
    i, n, interleaved = 0, len(zs), True
    for j, d in enumerate(ds):
        while i < n and zs[i] < d:
            i += 1
        if (i > 0 and d - zs[i - 1] <= CLUSTER_TOL) or (i < n and zs[i] - d <= CLUSTER_TOL):
            return "zero-coincidence"
        interleaved = interleaved and (j == 0 or (i > 0 and zs[i - 1] > ds[j - 1]))
    return None if interleaved else "no-interleaving-zero"


def _channel(trace, which: str, tol: float, counted: bool) -> tuple[int, bool, list | None]:
    """(number of interior zeros of u (of u'), whether all are simple, their
    ``zeros_of`` list): where ``counted``, from ``_closed_range`` in O(1), no list."""
    if counted:
        _, first, end = _closed_range(trace.phase[0], trace.phase[2], which)
        return end - first, first == end or _phase_simple(trace, which, tol), None
    zeros = zeros_of(trace, which, tol)
    return len(zeros), all(simple for _, simple in zeros), zeros


def _counted(trace) -> bool:
    """Do zero counts decide the trace?  A closed form with lam >= ZERO_LAMBDA_CUTOFF,
    R > 0 and w <= PHASE_COUNT_W_MAX: its zeros of u and u' interleave by construction."""
    phase = trace.phase if isinstance(trace, ClosedTrace) else None
    return phase is not None and phase[1] > 0.0 and phase[0] <= PHASE_COUNT_W_MAX


def _families(trace, ends, tol: float, counted: bool):
    """The S, T and R rules on a trace's end values ((u, u')(-1), (u, u')(1)) and
    sup norms: (status, memberships, u, uprime), u and uprime the ``_channel``
    results of the channels the rules read (None for the others).  A channel is
    read once, u before u' when S reads it; T checks the interleaving of zero
    lists (``_t_obstruction``)."""
    sup_u, sup_up = trace.sup_u(), trace.sup_uprime()
    (u_m, up_m), (u_p, up_p) = ends
    degenerate, nonsimple = ("unclassified", "boundary-degenerate"), ("unclassified", "nonsimple-zero")
    status: dict = {}
    u = up = None

    if min(abs(u_m), abs(u_p)) <= tol * sup_u:
        status["S"] = degenerate
    else:
        u = _channel(trace, "u", tol, counted)
        status["S"] = ("member", NodalClass("S", u[0], _sign(u_m))) if u[1] else nonsimple

    if sup_up == 0.0 or min(abs(up_m), abs(up_p)) <= tol * sup_up:
        status["T"] = degenerate
    else:
        up = _channel(trace, "uprime", tol, counted)
        if not up[1]:
            status["T"] = nonsimple
        else:
            u = u or _channel(trace, "u", tol, counted)  # T consults both channels
            reason = None if up[2] is None else _t_obstruction([x for x, _ in up[2]], [x for x, _ in u[2]])
            status["T"] = ("member", NodalClass("T", up[0], _sign(up_m))) if reason is None else \
                ("unclassified", reason)

    if sup_up == 0.0 or abs(up_m) <= tol * sup_up or abs(u_p) <= tol * sup_u:
        status["R"] = degenerate
    else:
        u = u or _channel(trace, "u", tol, counted)
        if not u[1]:
            status["R"] = nonsimple
        else:
            s, z = _sign(up_m), u[0]
            # u(1)*sign > 0 wants k even, < 0 wants k odd; of the two
            # admissible counts {z-1, z} exactly one has the right parity.
            want_even = (u_p > 0.0) == (s == "+")
            k = z if (z % 2 == 0) == want_even else z - 1  # >= -1, as z >= 0
            status["R"] = ("member", NodalClass("R", k, s, note="nonstandard" if k == -1 else ""))
    return status, [entry[1] for entry in status.values() if entry[0] == "member"], u, up


def _memberships(trace: ClosedTrace, tol: float = DEFAULT_TOL) -> list[NodalClass]:
    """``classify(trace, tol).memberships`` of a closed form, without the result."""
    return _families(trace, trace.ends, tol, _counted(trace))[1]


def classify(trace: ClosedTrace | SampledTrace, tol: float = DEFAULT_TOL, spec=None) -> ClassificationResult:
    """All S/T/R memberships of a trace (they are not mutually exclusive).

    Boundary data within tol (relative) of a family's degeneracy makes that
    family 'unclassified' with a reason.  With ``spec`` given, the result
    also reports whether the trace satisfies each multi-point boundary
    condition to tolerance (used when endpoint conditions force u or u' to
    vanish at an endpoint and the plain families cannot apply).  tol lies
    in (0, 1): as |u(+-1)| <= |u|_0, tol >= 1 makes every boundary degenerate.
    A closed form with lam >= ZERO_LAMBDA_CUTOFF, w <= PHASE_COUNT_W_MAX is
    decided from zero counts, whose lists are built on first read; other
    traces from zero lists (T by their merge).
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    sup_u, sup_up = trace.sup_u(), trace.sup_uprime()
    if sup_u == 0.0:
        raise ValueError("cannot classify the zero function")
    counted = _counted(trace)
    ends = (u_m, up_m), (u_p, up_p) = trace.eval(-1.0), trace.eval(1.0)
    status, members, u, up = _families(trace, ends, tol, counted)
    result = ClassificationResult(members, status,
                                  boundary={"u(-1)": u_m, "u(1)": u_p, "uprime(-1)": up_m, "uprime(1)": up_p})
    for name, which, read in (("zeros_u", "u", u), ("zeros_uprime", "uprime", up)):
        if read is not None and counted:
            result._pending[name] = (trace, which, tol)
        elif read is not None:
            setattr(result, name, read[2])

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
    med, spread = _median_spread(profile)
    if med == 0.0:
        raise ValueError("degenerate energy profile")
    return float(spread)


def _median_spread(profile: list[float]) -> tuple[float, float]:
    """(m, max |p - m| / m) of an energy profile, m its median as np.median
    gives it: the middle element, or the mean of the two middle ones.  The
    spread is NaN when m = 0, and both are NaN when a p is (as in numpy)."""
    if any(p != p for p in profile):
        return math.nan, math.nan
    ordered, n = sorted(profile), len(profile)
    med = ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
    if med == 0.0:
        return med, math.nan
    return med, max(abs(p - med) for p in profile) / med
