"""Characteristic determinant of the multi-point problem and eigenvalue location.

An eigenvalue of the full problem is a lam for which both boundary
functionals vanish on some nontrivial u = A*c + B*s.  Writing each
functional's action on the fundamental pair as a row gives the 2x2
characteristic determinant

    Gamma(lam) = det [ bc-(c)  bc-(s) ]
                     [ bc+(c)  bc+(s) ]

which is real-analytic in lam and vanishes exactly at the eigenvalues.
Two locators are provided: a brute-force sign-change scan (the oracle) and
a homotopy continuation that scales the interior coefficients by t in
[0, 1], tracking each root from its single-point Robin anchor at t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ContinuationBreakdown, HypothesisError, NumericError, ProblemDataError
from .nodal import ClosedTrace, NodalClass, classify
from .problem import LEVEL_QUADRATIC, ProblemSpec, level_at_least, scale_coefficients
from .reference import _bracketed_root, separated_eigenvalue
from .trig import TrigSolution, _fundamental, bc_functional, normalized

SCAN_STEP_OMEGA = min(0.25, (math.pi / 2.0) / 8.0)
SCAN_MAX_POINTS = 10_000  # positive scan grid ceiling: lambda_max <= ~3.9e6
# Largest index continuation takes: sqrt(lam_k) >= k*pi/2, so past it lam_k
# lies beyond the scan ceiling (1250 with the constants above).
CONTINUATION_K_MAX = round(SCAN_MAX_POINTS * SCAN_STEP_OMEGA / (math.pi / 2.0))
LAMBDA_MIN_GUARD = 25.0
SIMPLE_DET_TOL = 1e-8  # |dGamma/dlam| below this * scale flags "possibly non-simple"
ROOT_SEPARATION = 1e-8
DT_INIT, DT_MIN = 0.05, 1e-6  # continuation step in t: initial/maximal and floor
NEIGHBOR_MARGIN = 0.1  # neighbouring paths closer than this halve the t step


@dataclass(frozen=True)
class Eigenpair:
    """One eigenvalue with its normalized eigenfunction and the nodal
    classes (S, T, R order) of that eigenfunction.

    ``k`` is the oscillation index: continuation ancestry when ``t_path``
    is present, position in the scanned window otherwise.
    """

    k: int
    lam: float
    psi: TrigSolution
    nodal: tuple[NodalClass, ...]
    t_path: tuple[tuple[float, float], ...] | None = None
    simple: bool = True
    det_slope: float = 0.0
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


def _bc_rows(spec: ProblemSpec, lam: float):
    """``BoundarySide.residual`` on (c, s) for both sides, one pair evaluation per point."""
    rows = []
    for side in spec.sides:
        c, cp, s, sp = _fundamental(lam, side.endpoint + 1.0)
        rc = side.alpha0 * c + side.beta0 * cp
        rs = side.alpha0 * s + side.beta0 * sp
        for ai, bi, ei in zip(side.alpha, side.beta, side.eta):
            ce, cpe, se, spe = _fundamental(lam, ei + 1.0)
            rc -= ai * ce + bi * cpe
            rs -= ai * se + bi * spe
        rows.append((rc, rs))
    return rows


def char_det(spec: ProblemSpec, lam: float) -> float:
    """The characteristic determinant Gamma(lam)."""
    (m11, m12), (m21, m22) = _bc_rows(spec, lam)
    return m11 * m22 - m12 * m21


def char_det_scale(spec: ProblemSpec, lam: float) -> float:
    """Natural magnitude of Gamma near lam (product of row norms)."""
    (m11, m12), (m21, m22) = _bc_rows(spec, lam)
    return math.hypot(m11, m12) * math.hypot(m21, m22) + 1e-300


def det_slope(spec: ProblemSpec, lam: float) -> float:
    """Centered-difference dGamma/dlam."""
    h = 1e-6 * max(1.0, abs(lam))
    return (char_det(spec, lam + h) - char_det(spec, lam - h)) / (2.0 * h)


def _eigenpair(spec: ProblemSpec, k: int, lam: float,
               t_path: tuple[tuple[float, float], ...] | None = None) -> Eigenpair:
    """Eigenpair at the root lam: the null direction of the boundary matrix,
    normalized and signed, with its nodal class, Gamma slope and simple flag.

    Sign rule: '+' nodal class when the classifier gives one; otherwise the
    first nonvanishing of (u(-1), u'(-1)) is positive.  A flip mirrors the
    memberships (X_k^- := -X_k^+), so psi is classified once.
    """
    # The null vector of the larger row, for stability; n1*n2 is char_det_scale.
    (m11, m12), (m21, m22) = _bc_rows(spec, lam)
    n1, n2 = math.hypot(m11, m12), math.hypot(m21, m22)
    if n1 >= n2:
        A, B = -m12, m11
    else:
        A, B = -m22, m21
    nrm = math.hypot(A, B)
    if nrm == 0.0:
        raise NumericError(f"boundary matrix vanished identically at lam={lam:.6g}")
    try:
        psi = normalized(TrigSolution(lam, A / nrm, B / nrm))
    except ValueError:
        raise NumericError(f"degenerate eigenfunction at lam={lam:.6g}") from None
    try:
        memberships = tuple(classify(ClosedTrace(psi)).memberships)
    except NumericError:
        memberships = ()
    signs = {m.sign for m in memberships}
    lead = psi.A if psi.A != 0.0 else psi.B
    if signs == {"-"} or (signs != {"+"} and lead < 0.0):
        psi = TrigSolution(lam, -psi.A, -psi.B)
        memberships = tuple(replace(m, sign="-" if m.sign == "+" else "+") for m in memberships)
    slope = det_slope(spec, lam)
    return Eigenpair(k=k, lam=lam, psi=psi, nodal=memberships, t_path=t_path,
                     simple=abs(slope) >= SIMPLE_DET_TOL * (n1 * n2 + 1e-300),
                     det_slope=slope,
                     bc_residuals=(bc_functional(spec.minus, psi), bc_functional(spec.plus, psi)))


def robin_anchor(spec: ProblemSpec, k: int) -> float:
    """Anchor lam_k of the t=0 (single-point Robin) problem."""
    return separated_eigenvalue(
        (spec.minus.alpha0, spec.minus.beta0), (spec.plus.alpha0, spec.plus.beta0), k
    )


def eigen_scan(spec: ProblemSpec, lambda_max: float) -> SpectrumWindow:
    """All roots of Gamma in (-LAMBDA_MIN_GUARD, lambda_max] by sign-change scan.

    The grid is uniform in sqrt(|lam|) so the (asymptotically pi/2-spaced)
    roots are sampled several times per gap; each bracket is refined by
    bisection and polished by Newton.  Roots where |dGamma/dlam| is tiny are
    flagged non-simple (a hypothesis-violation signal).  A touching root
    without a sign change cannot be seen by this scan.  The positive grid
    has sqrt(lambda_max)/SCAN_STEP_OMEGA points; a lambda_max that needs
    more than SCAN_MAX_POINTS raises ProblemDataError, as does a
    non-positive or non-finite one.
    """
    if not 0.0 < lambda_max < math.inf:
        raise ProblemDataError(f"lambda_max must be positive and finite, not {lambda_max:g}")
    if math.sqrt(lambda_max) > SCAN_MAX_POINTS * SCAN_STEP_OMEGA:
        raise ProblemDataError(
            f"lambda_max {lambda_max:g} needs more than {SCAN_MAX_POINTS} scan points "
            f"(largest allowed {(SCAN_MAX_POINTS * SCAN_STEP_OMEGA) ** 2:.6g})"
        )
    grid = []
    mu = math.sqrt(LAMBDA_MIN_GUARD)
    while mu > 0.0:
        grid.append(-mu * mu)
        mu -= SCAN_STEP_OMEGA
    grid.append(0.0)
    w = SCAN_STEP_OMEGA
    wmax = math.sqrt(lambda_max)
    while w < wmax:
        grid.append(w * w)
        w += SCAN_STEP_OMEGA
    grid.append(lambda_max)

    vals = [char_det(spec, lam) for lam in grid]
    roots: list[float] = []
    for i in range(len(grid) - 1):
        lam_i, lam_j = grid[i], grid[i + 1]
        fi, fj = vals[i], vals[i + 1]
        if fi == 0.0:
            roots.append(lam_i)
            continue
        if fj == 0.0:
            continue  # captured as the left endpoint of the next cell
        if fi * fj < 0.0:
            roots.append(_bracketed_root(lambda lam: char_det(spec, lam), lam_i, lam_j, fi))
    if vals[-1] == 0.0:
        roots.append(grid[-1])

    # Merge anything tighter than the separation tolerance.
    roots.sort()
    merged: list[float] = []
    for r in roots:
        if merged and abs(r - merged[-1]) < ROOT_SEPARATION * max(1.0, abs(r)):
            continue
        merged.append(r)

    pairs = [_eigenpair(spec, idx, lam) for idx, lam in enumerate(merged)]

    # Anchors exist only under the endpoint sign convention; specs violating
    # it simply get no Robin count.
    try:
        robin_count = 0
        while robin_anchor(spec, robin_count) <= lambda_max:
            robin_count += 1
    except ProblemDataError:
        robin_count = None
    return SpectrumWindow(lambda_max=lambda_max, eigenpairs=pairs, robin_count=robin_count)


def _newton_root(spec_t: ProblemSpec, lam0: float) -> float:
    """Newton iteration on Gamma(., spec_t) from lam0; raises on failure."""
    lam = lam0
    last_step = math.inf
    for _ in range(15):
        g = char_det(spec_t, lam)
        gp = det_slope(spec_t, lam)
        if gp == 0.0 or not math.isfinite(gp):
            raise NumericError("flat determinant in corrector")
        step = g / gp
        lam -= step
        if abs(step) <= 1e-13 * max(1.0, abs(lam)):
            return lam
        if abs(step) > 10.0 * max(1.0, abs(lam0)) and abs(step) > last_step * 4.0:
            raise NumericError("corrector diverging")
        last_step = abs(step)
    if abs(char_det(spec_t, lam)) <= 1e-9 * char_det_scale(spec_t, lam):
        return lam
    raise NumericError("corrector did not converge")


def eigen_continuation(spec: ProblemSpec, k: int) -> Eigenpair:
    """Track lam_k from its Robin anchor at t=0 to the full problem at t=1.

    Secant predictor in t, Newton corrector in lam.  The neighbours k-1 and
    k+1 are tracked alongside to watch for path collisions, which abort with
    a diagnostic rather than re-indexing.
    """
    for ep in continuation_spectrum(spec, k, k_lo=max(0, k - 1)):
        if ep.k == k:
            return ep
    raise NumericError(f"continuation lost index k={k}")  # pragma: no cover


def continuation_spectrum(spec: ProblemSpec, k_max: int, k_lo: int = 0) -> list[Eigenpair]:
    """Continue all indices k_lo..k_max together (plus one guard path above).

    The t step starts at DT_INIT, halves on a corrector failure or when two
    paths come closer than NEIGHBOR_MARGIN, and breaks down below DT_MIN.
    A k_max past CONTINUATION_K_MAX raises ProblemDataError.
    """
    if k_max < k_lo or k_lo < 0:
        raise ValueError("bad index range")
    if k_max > CONTINUATION_K_MAX:
        raise ProblemDataError(f"k = {k_max} is past the largest index continuation takes, "
                               f"{CONTINUATION_K_MAX} (the scan ceiling)")
    if not level_at_least(spec.hypothesis_level, LEVEL_QUADRATIC):
        raise HypothesisError(
            "eigenvalue continuation requires the squared-fraction hypothesis level"
        )
    indices = list(range(k_lo, k_max + 2))
    lams = [robin_anchor(spec, j) for j in indices]
    paths: dict[int, list[tuple[float, float]]] = {j: [(0.0, lam)] for j, lam in zip(indices, lams)}

    t, dt = 0.0, DT_INIT
    prev_t, prev_lams = 0.0, list(lams)
    while t < 1.0:
        t_next = min(1.0, t + dt)
        # Secant prediction through the last two accepted states.
        if t > prev_t:
            preds = [
                lam + (lam - plam) * (t_next - t) / (t - prev_t)
                for lam, plam in zip(lams, prev_lams)
            ]
        else:
            preds = list(lams)
        try:
            spec_t = scale_coefficients(spec, t_next)
            news = [_newton_root(spec_t, p) for p in preds]
        except NumericError:
            news = None
        ok = news is not None
        if ok:
            for a, b in zip(news, news[1:]):
                if not (b > a):
                    ok = False
                    break
                if b - a < ROOT_SEPARATION * max(1.0, abs(b)):
                    raise ContinuationBreakdown(t_next, f"paths merged near lam={b:.6g}")
        if ok:
            tight = any(b - a < NEIGHBOR_MARGIN for a, b in zip(news, news[1:]))
            if tight and dt > DT_MIN * 2.0:
                dt = max(DT_MIN, 0.5 * dt)
                # accept anyway at the reduced future step
        if not ok:
            if dt <= DT_MIN:
                raise ContinuationBreakdown(t_next, "corrector failed at minimal step")
            dt = max(DT_MIN, 0.5 * dt)
            continue
        prev_t, prev_lams = t, list(lams)
        t, lams = t_next, news
        for j, lam in zip(indices, lams):
            paths[j].append((t, lam))
        if dt < DT_INIT:
            dt = min(DT_INIT, dt * 1.6)

    return [_eigenpair(spec, j, lam, tuple(paths[j])) for j, lam in zip(indices, lams) if j <= k_max]
