"""Nodal classification of solutions: the S / T / R families.

For a C^2 function u on [-1, 1] the families are

  S_k^+ : u(+-1) != 0, u(-1) > 0, exactly k simple interior zeros of u;
  T_k^+ : u'(+-1) != 0, u'(-1) > 0, u' has exactly k simple interior zeros,
          and u vanishes strictly between each consecutive pair of them;
  R_k^+ : u'(-1) > 0, sign of u(1) is + for k even and - for k odd, u has
          only simple interior zeros, either k or k+1 of them  (k >= -1);

with X_k^- := -X_k^+.  Membership is decided from exact phase arithmetic
for closed-form solutions and from the Bernstein form of sampled traces'
pieces (an integrated trace's DOP853 steps, a user trace's cubic Hermite
cells).  Boundary data within tolerance of a degeneracy yields an
"unclassified" verdict for that family, never a false negative.

A zero of u (of u') is simple when |u'| (|u''|) there exceeds tol in (0, 1)
times its sup-norm.  A closed form with lam >= ZERO_LAMBDA_CUTOFF is
u = R*cos(w(x+1) - phi): its zeros are (offset + n*pi)/w - 1 over an n-range
found in O(1), |u'| = R*w at every zero of u and |u''| = lam*R at every zero
of u'.  So ``classify`` decides it from two counts and two comparisons, and
a zero list is built only when it is read.

The closed-form half is plain Python; numpy is imported where the sampled
routines start (``SampledTrace``) and by the energy profile's median
(``_median_spread``), so of the linear calls only ``energy_deviation``
loads it, on a closed form too.
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
# Where 0 <= 2 p(c)/p''(c) <= TOUCH_WIDTH^2, p's roots c +- i*TOUCH_WIDTH are one double root.
TOUCH_WIDTH = 1e-12
_BINOMIALS = [[math.comb(n, j) for j in range(n + 1)] for n in range(8)]


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
    """Dense (x, u, u') samples with cubic Hermite interpolation between nodes,
    a node on the cell above it.  The sup norms, and on first use the cells'
    Bernstein coefficients, are computed once: the samples must not change."""

    _side = "right"  # the side of a piece start that searchsorted takes

    def __init__(self, x, u, uprime):
        import numpy as np

        self.x, u, up = (np.asarray(v, dtype=float) for v in (x, u, uprime))
        if self.x.ndim != 1 or self.x.shape != u.shape or self.x.shape != up.shape:
            raise ValueError("x, u, uprime must be 1-d arrays of equal length")
        if len(self.x) < 2:
            raise ValueError("need at least two samples")
        self.u, self.up = np.stack([u, up])
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
        self._starts, self._dx = self.x[:-1], dx
        self._sups = float(abs(self.u).max()), float(abs(self.up).max())

    def _piece(self, i: int):
        """(u, u') on cell i as a function of x: its Hermite cubic ((a s + b) s + c) s + d and the derivative."""
        (u0, u1), (v0, v1), x0, h = self.u[i:i + 2].tolist(), self.up[i:i + 2].tolist(), float(self.x[i]), \
            float(self._dx[i])
        c, p1 = h * v0, h * v1
        a, b = 2.0 * u0 + c - 2.0 * u1 + p1, -3.0 * u0 - 2.0 * c + 3.0 * u1 - p1

        def value(x):
            s = (x - x0) / h
            return ((a * s + b) * s + c) * s + u0, ((3.0 * a * s + 2.0 * b) * s + c) / h
        return value

    def eval(self, x: float) -> tuple[float, float]:
        if not -1.0 - 1e-12 <= x <= 1.0 + 1e-12:
            raise ValueError(f"x={x} outside [-1, 1]")
        if abs(x) >= 1.0:
            i = 0 if x < 0.0 else -1
            return float(self.u[i]), float(self.up[i])
        starts = self._starts
        return tuple(self._piece(min(max(int(starts.searchsorted(x, side=self._side)) - 1, 0), len(starts) - 1))(x))

    def sup_u(self) -> float:
        return self._sups[0]

    def sup_uprime(self) -> float:
        return self._sups[1]

    @cached_property
    def _pieces(self):
        """(starts, widths, (cu, cup)): the Bernstein coefficients on s in [0, 1] of
        each piece's u and u', whose ends are its end values; a cell's cubic has
        [u0, u0 + h u0'/3, u1 - h u1'/3, u1], its derivative [u0', 3 (middle difference) / h, u1']."""
        import numpy as np

        u, up, h = self.u, self.up, self._dx
        inner = u[:-1] + h * up[:-1] / 3.0, u[1:] - h * up[1:] / 3.0
        cu = np.stack([u[:-1], *inner, u[1:]], axis=1)
        cup = np.stack([up[:-1], 3.0 * (inner[1] - inner[0]) / h, up[1:]], axis=1)
        return self._starts, h, (cu, cup)

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


def _bernstein_at(b: list[float], s: float) -> float:
    """The polynomial with Bernstein coefficients b on [0, 1] at s: Horner's rule on
    b[j]*C(n, j) in s/(1 - s) (in (1 - s)/s past s = 1/2), times (1 - s)^n (s^n)."""
    n, r = len(b) - 1, 1.0 - s
    if s > 0.5:
        b, s, r = b[::-1], r, s
    t, acc = s / r, 0.0
    for q, m in zip(reversed(b), _BINOMIALS[n]):  # C(n, j) = C(n, n - j)
        acc = acc * t + q * m
    return acc * r ** n


def _straddling(c):
    """The rows of Bernstein coefficients c not all of one strict sign, the only ones whose polynomial has a zero."""
    return ((c.min(axis=1) <= 0.0) & (c.max(axis=1) >= 0.0)).nonzero()[0]


def _bernstein_zeros(trace: SampledTrace, which: str, tol: float) -> list[tuple[float, bool]]:
    """``zeros_of`` a sampled trace before its cluster check, ascending.

    Only the pieces of ``trace._pieces`` whose hull meets 0 are searched
    (``_straddling``).  A piece's polynomial p is monotone where the hull of
    p' has one sign; elsewhere the zeros of p', found the same way, cut it
    into monotone parts.  ``_bracketed_root`` closes each part whose end
    values differ in sign on the piece's own values (``trace._piece``), with
    slopes from p''s coefficients.  A critical point c where p touches zero
    (p(c) = 0 or 0 <= 2 p(c)/p''(c) <= TOUCH_WIDTH^2) is a zero, and so is an
    end value exactly 0 unless p vanishes (a flat run).  Zeros closer than
    1e-10 merge.  A zero is simple where |p'| > tol * |u'|_0 (for u), or tol
    times the largest |coefficient| of p' over the pieces (for u').
    """
    channel = int(which == "uprime")
    starts, widths, coeffs = trace._pieces
    c = coeffs[channel]
    found = []
    for i in _straddling(c).tolist():
        x0, h, value = float(starts[i]), float(widths[i]), trace._piece(i)
        B = [c[i].tolist()]  # p, p', p'', ... in Bernstein form, each built by the first roots() to read it
        if not any(B[0]):
            continue
        p = lambda k, x: value(x)[channel] if k == 0 else _bernstein_at(B[k], (x - x0) / h)

        def roots(k):  # the zeros of p's k-th derivative on the piece, ascending
            b = B[k]
            if len(B) == k + 1:
                B.append([(len(b) - 1) / h * (w - v) for v, w in zip(b, b[1:])])
            ends = [(x0, b[0]), (x0 + h, b[-1])]
            hits = [x for x, v in ends if v == 0.0]
            if min(b) >= 0.0 or max(b) <= 0.0:  # the hull of p^(k) has one sign
                return hits
            if min(B[k + 1]) < 0.0 < max(B[k + 1]):  # p^(k) is not monotone
                for crit in roots(k + 1):
                    top = p(k, crit)
                    if top == 0.0 or 0.0 <= 2.0 * top / (p(k + 2, crit) or math.nan) <= TOUCH_WIDTH ** 2:
                        hits.append(crit)
                    ends.insert(-1, (crit, top))
            hits += [_bracketed_root(lambda x: (p(k, x), p(k + 1, x)), xl, xr, fl, xl - fl * (xr - xl) / (fr - fl))
                     for (xl, fl), (xr, fr) in zip(ends, ends[1:]) if fl * fr < 0.0]
            return sorted(hits)

        found += [(z, p(1, z)) for z in roots(0)]
    zeros = []
    for z, slope in sorted(found):
        if -1.0 + ENDPOINT_GUARD < z < 1.0 - ENDPOINT_GUARD and not (zeros and z - zeros[-1][0] < 1e-10):
            zeros.append((z, slope))
    bound = float((abs(c[:, 1:] - c[:, :-1]) / widths[:, None]).max()) * (c.shape[1] - 1) if channel else \
        trace.sup_uprime()
    return [(z, abs(slope) > tol * bound) for z, slope in zeros]


def zeros_of(
    trace: ClosedTrace | SampledTrace, which: str = "u", tol: float = DEFAULT_TOL
) -> list[tuple[float, bool]]:
    """Interior zeros of u or u' with a simplicity flag; 0 < tol < 1.

    A zero x0 of u is simple iff |u'(x0)| > tol * |u'|_0 (analogously with
    u'' for zeros of u'); a closed form with lam >= ZERO_LAMBDA_CUTOFF flags
    its whole list at once by R*w > tol*|u'|_0 (lam*R > tol*lam*|u|_0 for u');
    a sampled trace bounds |u''|_0 by ``_bernstein_zeros``' hull.  Zeros closer
    together than the cluster tolerance raise UnresolvableZeros: the data
    cannot distinguish a tangency.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    if which not in ("u", "uprime"):
        raise ValueError("which must be 'u' or 'uprime'")
    if isinstance(trace, SampledTrace):
        zeros = _bernstein_zeros(trace, which, tol)
    elif isinstance(trace, ClosedTrace):
        lam = trace.sol.lam
        xs = _closed_zeros(trace, which)
        if lam >= ZERO_LAMBDA_CUTOFF:
            simple = _phase_simple(trace, which, tol)
            zeros = [(z, simple) for z in xs]
        elif which == "u":
            zeros = [(z, bool(abs(trace.eval(z)[1]) > tol * trace.sup_uprime())) for z in xs]
        else:
            zeros = [(z, bool(abs(-lam * trace.eval(z)[0]) > tol * abs(lam) * trace.sup_u())) for z in xs]
    else:
        raise TypeError(f"unsupported trace type {type(trace).__name__}")

    for (za, _), (zb, _) in zip(zeros, zeros[1:]):
        if zb - za < CLUSTER_TOL:
            raise UnresolvableZeros(f"zeros of {which} at {za:.12g} and {zb:.12g} are unresolvably close")
    return zeros


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


def _median_spread(profile) -> tuple[float, float]:
    """(m, max |p - m| / m) of an energy profile (list or array), m its median
    as np.median gives it: the middle element, or the mean of the two middle
    ones.  The spread is NaN when m = 0, and both are NaN when a p is."""
    import numpy as np

    ordered, n = np.sort(profile), len(profile)
    if ordered[-1] != ordered[-1]:  # NaN sorts last
        return math.nan, math.nan
    med = float(ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0)
    if med == 0.0:
        return med, math.nan
    return med, float(np.abs(np.subtract(profile, med)).max()) / med
