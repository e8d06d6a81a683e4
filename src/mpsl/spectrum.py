"""Characteristic determinant of the multi-point problem and eigenvalue location.

An eigenvalue of the full problem is a lam for which both boundary
functionals vanish on some nontrivial u = A*c + B*s.  Writing each
functional's action on the fundamental pair as a row gives the 2x2
characteristic determinant

    Gamma(lam) = det [ bc-(c)  bc-(s) ]
                     [ bc+(c)  bc+(s) ]

which is real-analytic in lam and vanishes exactly at the eigenvalues.
Its exact slope dGamma/dlam comes from the same rows on (dc/dlam, ds/dlam).
Two locators are provided: a scan on cubic Hermite cells (the oracle) and
a homotopy continuation that scales the interior coefficients by t in
[0, 1], tracking each root from its single-point Robin anchor at t = 0.
Each row is affine in t, so the same row pass also gives dGamma/dt, and
with it each root's exact tangent dlam/dt that the continuation steps on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ContinuationBreakdown, HypothesisError, NumericError, ProblemDataError
from .nodal import ClosedTrace, NodalClass, _memberships
from .problem import LEVEL_QUADRATIC, ProblemSpec, level_at_least
from .reference import _bracketed_root, separated_eigenvalue
from .trig import TrigSolution, _functional_rows, bc_functional, normalized

SCAN_STEP_OMEGA = math.pi / 8.0
SCAN_MAX_POINTS = 5_000  # positive scan grid ceiling: lambda_max <= ~3.9e6
PROBE_DEPTH = 4  # probes of Gamma per cell without a sign change (see eigen_scan)
PROBE_MARGIN = 0.25  # probe where the cell's cubic comes within this share of its larger end
# Largest index continuation takes: sqrt(lam_k) >= k*pi/2, so past it lam_k
# lies beyond the scan ceiling (1250 with the constants above).
CONTINUATION_K_MAX = round(SCAN_MAX_POINTS * SCAN_STEP_OMEGA / (math.pi / 2.0))
LAMBDA_MIN_GUARD = 25.0
SIMPLE_DET_TOL = 1e-8  # |dGamma/dlam| below this * scale flags "possibly non-simple"
ROOT_SEPARATION = 1e-8
DT_MIN = 1e-6  # floor of the continuation step in t


@dataclass(frozen=True)
class Eigenpair:
    """One eigenvalue with its normalized eigenfunction and the nodal
    classes (S, T, R order) of that eigenfunction.

    ``k`` is the oscillation index: continuation ancestry when ``t_path``
    is present, position in the scanned window otherwise.  ``t_path`` holds
    the accepted (t, lam) of continuation, usually only at t = 0 and t = 1.
    """

    k: int
    lam: float
    psi: TrigSolution
    nodal: tuple[NodalClass, ...]
    t_path: tuple[tuple[float, float], ...] | None = None
    simple: bool = True
    bc_residuals: tuple[float, float] = (0.0, 0.0)

    @property
    def negative(self) -> bool:
        return self.lam < 0.0


@dataclass
class SpectrumWindow:
    lambda_max: float
    eigenpairs: list[Eigenpair] = field(default_factory=list)
    robin_count: int | None = None

    def lambdas(self) -> list[float]:
        return [ep.lam for ep in self.eigenpairs]


def _det(spec: ProblemSpec, lam: float, t: float = 1.0):
    """(Gamma, dGamma/dlam, dGamma/dt, rows) at (lam, t) from one ``trig._functional_rows``
    pass on both sides' ``row_terms``: the rows are ``BoundarySide.residual`` on c, s and
    their lam-derivatives, interior terms scaled by t (at t = 1 bit for bit the unscaled
    sum), and (i_c, i_s) = d(r_c, r_s)/dt."""
    rows = _functional_rows(lam, (spec.minus.row_terms, spec.plus.row_terms), t)
    (m11, m12, d11, d12, i11, i12), (m21, m22, d21, d22, i21, i22) = rows
    return (m11 * m22 - m12 * m21, d11 * m22 + m11 * d22 - d12 * m21 - m12 * d21,
            i11 * m22 + m11 * i22 - i12 * m21 - m12 * i21, rows)


def _scale(rows) -> float:
    """Gamma's scale: the product of the value rows' norms."""
    (m11, m12, *_), (m21, m22, *_) = rows
    return math.hypot(m11, m12) * math.hypot(m21, m22) + 1e-300


def _gamma(spec: ProblemSpec, lam: float, t: float = 1.0) -> tuple[float, float, float]:
    """(Gamma, dGamma/dlam, scale) at (lam, t) from one row pass."""
    g, slope, _, rows = _det(spec, lam, t)
    return g, slope, _scale(rows)


def char_det(spec: ProblemSpec, lam: float) -> float:
    """The characteristic determinant Gamma(lam)."""
    return _det(spec, lam)[0]


def _eigenpair(spec: ProblemSpec, k: int, lam: float,
               t_path: tuple[tuple[float, float], ...] | None = None, simple: bool = True) -> Eigenpair:
    """Eigenpair at the root lam: the null direction of the boundary matrix,
    normalized and signed, with its nodal class and its simple flag (from
    the Gamma slope).

    Sign rule: '+' nodal class when the classifier gives one; otherwise the
    first nonvanishing of (u(-1), u'(-1)) is positive.  A flip mirrors the
    memberships (X_k^- := -X_k^+), so psi is classified once.
    """
    # The null vector of the larger row, for stability.
    _, slope, _, rows = _det(spec, lam)
    (m11, m12, *_), (m21, m22, *_) = rows
    if math.hypot(m11, m12) >= math.hypot(m21, m22):
        A, B = -m12, m11
    else:
        A, B = -m22, m21
    nrm = math.hypot(A, B)
    if nrm == 0.0:
        raise NumericError(f"boundary matrix vanished identically at lam={lam:.6g}")
    try:
        trace = ClosedTrace(normalized(TrigSolution(lam, A / nrm, B / nrm)))
    except ValueError:
        raise NumericError(f"degenerate eigenfunction at lam={lam:.6g}") from None
    try:
        memberships = tuple(_memberships(trace))
    except NumericError:
        memberships = ()
    psi = trace.sol
    signs = {m.sign for m in memberships}
    lead = psi.A if psi.A != 0.0 else psi.B
    if signs == {"-"} or (signs != {"+"} and lead < 0.0):
        psi = TrigSolution(lam, -psi.A, -psi.B)
        memberships = tuple(m.negated() for m in memberships)
    return Eigenpair(k=k, lam=lam, psi=psi, nodal=memberships, t_path=t_path,
                     simple=simple and abs(slope) >= SIMPLE_DET_TOL * _scale(rows),
                     bc_residuals=(bc_functional(spec.minus, psi), bc_functional(spec.plus, psi)))


def robin_anchor(spec: ProblemSpec, k: int) -> float:
    """Anchor lam_k of the t=0 (single-point Robin) problem."""
    return separated_eigenvalue(
        (spec.minus.alpha0, spec.minus.beta0), (spec.plus.alpha0, spec.plus.beta0), k
    )


def _cell_roots(spec: ProblemSpec, a: float, fa: float, da: float, b: float, fb: float, db: float,
                probes: int = PROBE_DEPTH) -> list[tuple[float, bool]]:
    """Roots (lam, simple) of Gamma inside the cell (a, b) from its cubic Hermite
    p(s), s = (lam - a)/(b - a), as ``eigen_scan`` describes."""
    h = b - a
    ma, df = da * h, fb - fa
    p2, p3 = 3.0 * df - 2.0 * ma - db * h, ma + db * h - 2.0 * df
    cubic = lambda s: ((p3 * s + p2) * s + ma) * s + fa
    ga, gb = fa or da, fb or -db  # an exact zero at an end: the sign Gamma leaves it with
    if ga < 0.0 < gb or gb < 0.0 < ga:
        s = fa / (fa - fb) if fa and fb else 0.5
        for _ in range(3):  # Newton on the cubic from the secant root
            s -= cubic(s) / (((3.0 * p3 * s + 2.0 * p2) * s + ma) or math.inf)
        return [(_bracketed_root(lambda lam: _det(spec, lam)[:2], a, b, ga, a + s * h), True)]
    disc = p2 * p2 - 3.0 * p3 * ma  # of p'(s) = 3*p3*s^2 + 2*p2*s + ma
    if not (probes and ga and gb) or (ga * da >= 0.0 and ga * db <= 0.0) or disc < 0.0:
        return []  # no probe left, the slopes point away from zero, or p is monotone
    q = -(p2 + math.copysign(math.sqrt(disc), p2))
    crit = (q / (3.0 * p3) if p3 else -1.0, ma / q if q else -1.0)
    low, s = min([(math.copysign(1.0, ga) * cubic(s), s) for s in crit if 0.0 < s < 1.0], default=(math.inf, 0.0))
    if low > PROBE_MARGIN * max(abs(fa), abs(fb)):
        return []
    lam = a + s * h
    f, d, scale = _gamma(spec, lam)
    if f == 0.0 and abs(d) <= SIMPLE_DET_TOL * scale:  # met a touching root exactly: no split
        return [(lam, False)]
    if f == 0.0 or (f < 0.0) != (ga < 0.0):  # two roots: split the cell at lam
        return [(lam, True)] * (f == 0.0) + _cell_roots(spec, a, fa, da, lam, f, d, 0) + \
            _cell_roots(spec, lam, f, d, b, fb, db, 0)
    if abs(f) <= SIMPLE_DET_TOL * scale:
        return [(lam, False)]
    if (d < 0.0) != (ga < 0.0):  # still heading for zero: the extremum lies to the right
        return _cell_roots(spec, lam, f, d, b, fb, db, probes - 1)
    return _cell_roots(spec, a, fa, da, lam, f, d, probes - 1)


def eigen_scan(spec: ProblemSpec, lambda_max: float) -> SpectrumWindow:
    """All roots of Gamma in (-LAMBDA_MIN_GUARD, lambda_max], by a scan on cubic Hermite cells.

    The grid is uniform in sqrt(|lam|), four nodes per pi/2 (the roots'
    asymptotic spacing); one row pass gives Gamma and its exact slope at a
    node, and each cell is read off the cubic Hermite through them.  A sign
    change (signs compared, not multiplied, so no product underflows) is a
    bracket that ``_bracketed_root`` closes to adjacent floats by safeguarded
    Newton from the cubic's root.  Other cells are dropped if their slopes
    point away from zero or the cubic stays PROBE_MARGIN of its larger end
    away from it; else Gamma is probed at the cubic's extremum.  A sign change
    there splits the cell into two brackets, a |Gamma| within SIMPLE_DET_TOL
    of its scale is a near-double (touching) root with ``simple`` False, and
    otherwise the probe moves to the side the slope points to, PROBE_DEPTH
    times at most.  An exact zero at a node is a root, and its cells are read
    with the sign Gamma leaves it with.  A root with a tiny exact slope is
    non-simple too (a hypothesis-violation signal).  The positive grid has
    sqrt(lambda_max)/SCAN_STEP_OMEGA points; a lambda_max that needs more than
    SCAN_MAX_POINTS raises ProblemDataError, as does a non-positive or
    non-finite one.
    """
    if not 0.0 < lambda_max < math.inf:
        raise ProblemDataError(f"lambda_max must be positive and finite, not {lambda_max:g}")
    if math.sqrt(lambda_max) > SCAN_MAX_POINTS * SCAN_STEP_OMEGA:
        raise ProblemDataError(
            f"lambda_max {lambda_max:g} needs more than {SCAN_MAX_POINTS} scan points "
            f"(largest allowed {(SCAN_MAX_POINTS * SCAN_STEP_OMEGA) ** 2:.6g})"
        )
    mu, step = math.sqrt(LAMBDA_MIN_GUARD), SCAN_STEP_OMEGA
    grid = [-(mu - n * step) ** 2 for n in range(math.ceil(mu / step))] + [0.0]
    grid += [(n * step) ** 2 for n in range(1, math.ceil(math.sqrt(lambda_max) / step))] + [lambda_max]
    nodes = [(lam, *_det(spec, lam)[:2]) for lam in grid]
    roots = [(lam, True) for lam, f, _ in nodes if f == 0.0]
    for (a, fa, da), (b, fb, db) in zip(nodes, nodes[1:]):
        roots += _cell_roots(spec, a, fa, da, b, fb, db)

    # Merge anything tighter than the separation tolerance.
    merged: list[tuple[float, bool]] = []
    for r, simple in sorted(roots):
        if not merged or abs(r - merged[-1][0]) >= ROOT_SEPARATION * max(1.0, abs(r)):
            merged.append((r, simple))
    pairs = [_eigenpair(spec, idx, lam, simple=simple) for idx, (lam, simple) in enumerate(merged)]

    # Anchors exist only under the endpoint sign convention; specs violating
    # it simply get no Robin count.
    try:
        robin_count = 0
        while robin_anchor(spec, robin_count) <= lambda_max:
            robin_count += 1
    except ProblemDataError:
        robin_count = None
    return SpectrumWindow(lambda_max=lambda_max, eigenpairs=pairs, robin_count=robin_count)


def _newton_root(spec: ProblemSpec, lam0: float, t: float) -> tuple[float, float]:
    """Newton iteration on Gamma(., t) from lam0 with its exact slope; raises on
    failure.  Returns the root and dlam/dt = -Gamma_t/Gamma_lam from the last pass."""
    lam = lam0
    last_step = math.inf
    for _ in range(15):
        g, gp, gt, rows = _det(spec, lam, t)
        if gp == 0.0 or not math.isfinite(gp):
            raise NumericError("flat determinant in corrector")
        step = g / gp
        lam -= step
        if abs(step) <= 1e-13 * max(1.0, abs(lam)):
            return lam, -gt / gp
        if abs(step) > 10.0 * max(1.0, abs(lam0)) and abs(step) > last_step * 4.0:
            raise NumericError("corrector diverging")
        last_step = abs(step)
    if abs(g) <= 1e-9 * _scale(rows):  # Gamma at the last iterate
        return lam, -gt / gp
    raise NumericError("corrector did not converge")


def continuation_spectrum(spec: ProblemSpec, k_max: int) -> list[Eigenpair]:
    """Continue all indices 0..k_max together (plus one guard path above):
    the one way to eigenpairs with their oscillation index, list position k.

    Each path starts at its Robin anchor, polished by Newton at t = 0.  From
    every accepted t, an Euler step on the exact tangents -Gamma_t/Gamma_lam
    (Davidenko's method) predicts every path at t = 1, and Newton on
    Gamma(., t) corrects it.  The step halves when a corrector fails, the
    paths come out of order, or one moves by over 1/4 of the gap from its
    prediction to the nearest other (a shift of all paths by one index keeps
    the order).  A rejection at DT_MIN, or paths within ROOT_SEPARATION,
    raises ContinuationBreakdown; a k_max past CONTINUATION_K_MAX raises
    ProblemDataError.
    """
    if k_max < 0:
        raise ValueError("bad index range")
    if k_max > CONTINUATION_K_MAX:
        raise ProblemDataError(f"k = {k_max} is past the largest index continuation takes, "
                               f"{CONTINUATION_K_MAX} (the scan ceiling)")
    if not level_at_least(spec.hypothesis_level, LEVEL_QUADRATIC):
        raise HypothesisError(
            "eigenvalue continuation requires the squared-fraction hypothesis level"
        )
    lams, tangents = zip(*(_newton_root(spec, robin_anchor(spec, j), 0.0) for j in range(k_max + 2)))
    accepted = [(0.0, lams)]  # (t, lams) of every accepted step

    t, t_next = 0.0, 1.0
    while t < 1.0:
        dt = t_next - t
        preds = [lam + dt * v for lam, v in zip(lams, tangents)]
        try:
            news, new_tangents = zip(*(_newton_root(spec, p, t_next) for p in preds))
        except NumericError:
            news = None
        ok = news is not None and all(
            4.0 * abs(new - p) < min(p - lo, hi - p)
            for lo, p, hi, new in zip((-math.inf, *preds), preds, (*preds[1:], math.inf), news))
        if ok:
            for a, b in zip(news, news[1:]):
                if not (b > a):
                    ok = False
                    break
                if b - a < ROOT_SEPARATION * max(1.0, abs(b)):
                    raise ContinuationBreakdown(t_next, f"paths merged near lam={b:.6g}")
        if not ok:
            if dt <= DT_MIN:
                raise ContinuationBreakdown(t_next, "corrector failed at minimal step")
            t_next = t + max(DT_MIN, 0.5 * dt)
            continue
        t, lams, tangents, t_next = t_next, news, new_tangents, 1.0
        accepted.append((t, lams))

    return [_eigenpair(spec, k, lam, tuple((t, ls[k]) for t, ls in accepted))
            for k, lam in enumerate(lams[:-1])]
