"""Continua of nontrivial solutions of -u'' = lam*f(u): tracing and nodal audits.

Branches of nontrivial solutions bifurcate from the trivial line at
(lam_k/f0, 0) and from infinity at (lam_k/finf, infty).  Both are traced in
shooting coordinates z = (lam, a, b) by pseudo-arclength continuation: a
secant predictor followed by one corrector, ``shooting.damped_newton`` on
``shooting.bvp_residual`` plus the arclength constraint, whose Jacobian is
``shooting.bvp_jacobian`` in all of z with the constraint's constant row
under it.  A predicted point that already meets the tolerance costs one
IVP solve and no Jacobian.  The seeds are
corrector points too, predicted along the eigenfunction: a short step from
(lam_k/f0, 0), or a large multiple of it at lam_k/finf.  Folds in lam are
expected and handled; every accepted point carries a BVP-residual
certificate, a nodal audit and the nonlinear energy deviation.

The nodal-solution pipeline runs the appropriate tracer when the slopes
f0, finf straddle lam_k, refines the crossing of lam = 1 and returns the
pair of sign-symmetric solutions with their nodal verdicts.

Where both signs are asked for (``nodal_solutions_at_one`` and a branch
command without a sign), ``both_signs`` computes the '+' result first.  For
an odd f (``NonlinearitySpec.odd``) the problem is invariant under
u -> -u, so the '-' continuum is the '+' one mirrored (Rabinowitz 1971):
``mirrored_branch`` negates a, b and the residuals and flips the signs of
the nodal labels, and the '-' solution at lam = 1 is the '+' one negated
(``SampledSolution.negated``), classified afresh on its trace.  Any other f traces and corrects both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DivergenceError,
    HypothesisReport,
    NoConvergence,
    NoCrossing,
    NumericError,
    SeedFailure,
    SingularSystem,
)
from .expressions import F_BIG, F_SMALL, Certificate, NonlinearitySpec, certify_hypotheses
from .nodal import NodalClass, classify
from .problem import ProblemSpec
from .shooting import (
    RESIDUAL_TOL,
    SampledSolution,
    ShootingState,
    bvp_jacobian,
    bvp_residual,
    damped_newton,
    nonlinear_energy_deviation,
    solve_bvp,
)
from .spectrum import CONTINUATION_K_MAX, Eigenpair, continuation_spectrum

AMPLITUDE_CAP = 1e6
POINT_BUDGET = 10000
FOLD_CAP = 40
DS_INIT = 1e-2
DS_MIN = 1e-5
DS_MAX = 0.2
UNIQUENESS_MARGIN = 2.0  # nodal uniqueness window reaches this past the larger slope
CORRECTOR_MAX_ITER = 8  # arclength corrector iterations per predicted point
MAX_HALVINGS = 12  # Newton step halvings per corrector iteration
SEED_AMPLITUDE = 1e2  # first from-infinity seed amplitude, then 10x and 100x
LAMBDA_FLOOR = 1e-10  # a branch ends where lam falls to this

FROM_ZERO = "from_zero"
FROM_INFINITY = "from_infinity"

TERM_CROSSED = "crossed_lambda_one"
TERM_AMPLITUDE = "amplitude_cap"
TERM_LAMBDA = "lambda_cap"
TERM_LAMBDA_FLOOR = "lambda_floor"
TERM_SECONDARY = "secondary_bifurcation_suspected"
TERM_FOLDS = "fold_count_cap"
TERM_POINTS = "point_budget"
TERM_TRIVIAL = "returned_to_trivial"


@dataclass(frozen=True)
class BranchPoint:
    lam: float
    shooting: ShootingState
    amplitude: float
    nodal: tuple[NodalClass, ...]
    arclength: float
    energy_dev: float | None
    scales: tuple[float, float] = (1.0, 1.0)


@dataclass
class Branch:
    k: int
    sign: str  # '+' or '-'
    origin: str  # FROM_ZERO or FROM_INFINITY
    origin_lambda: float
    points: list[BranchPoint] = field(default_factory=list)
    termination: str = ""
    returned_to_trivial_j: int | None = None

    def lambdas(self) -> list[float]:
        return [p.lam for p in self.points]

    def amplitudes(self) -> list[float]:
        return [p.amplitude for p in self.points]


def _make_point(nl: NonlinearitySpec, sol: SampledSolution, arclength) -> BranchPoint:
    lam = sol.shooting.lam
    amplitude = sol.amplitude
    memberships: tuple[NodalClass, ...] = ()
    if amplitude > 0.0:
        try:
            memberships = tuple(classify(sol.trace).memberships)
        except NumericError:
            memberships = ()
    energy = None
    if lam > 0.0 and amplitude > 0.0:
        try:
            energy = nonlinear_energy_deviation(sol.trace, nl, lam)
        except NumericError:
            energy = None
    return BranchPoint(
        lam=lam,
        shooting=sol.shooting,
        amplitude=amplitude,
        nodal=memberships,
        arclength=arclength,
        energy_dev=energy,
        scales=sol.scales,
    )


def _corrector(spec, nl, z_pred, tau, weights):
    """Newton on (r-, r+, arc) in all of z = (lam, a, b) from the predicted point.

    The arc constraint <w*(z - z_pred), w*tau> = 0 pins the parameterization;
    acceptance is judged on the scaled BVP residuals alone.
    """
    wtau = weights * tau

    def residual(z):
        F, err, sol = bvp_residual(spec, nl, None, z)
        return np.append(F, float(np.dot(weights * (z - z_pred), wtau))), err, sol

    def jacobian(z):
        return np.vstack([bvp_jacobian(spec, nl, None, z, (0, 1, 2)), weights * wtau])

    return damped_newton(residual, jacobian, z_pred, (0, 1, 2), RESIDUAL_TOL, CORRECTOR_MAX_ITER, MAX_HALVINGS)


def _seed(spec, nl, z_from, z_pred):
    """``_corrector`` at z_pred with tangent z_pred - z_from, weighted at
    z_from as in ``_continue_branch``; any failure is a SeedFailure."""
    weights = 1.0 / np.maximum(1.0, np.abs(z_from))
    tau = (z_pred - z_from) * weights
    try:
        return _corrector(spec, nl, z_pred, tau / np.linalg.norm(tau), weights)
    except (NoConvergence, SingularSystem, DivergenceError) as exc:
        raise SeedFailure(f"seed at (lam, a, b) = {z_pred.tolist()}: {exc}") from None


def _continue_branch(
    spec: ProblemSpec,
    nl: NonlinearitySpec,
    branch: Branch,
    ep: Eigenpair,
    z_prev,
    z_curr,
    stop_at_lambda: float | None,
    amplitude_cap: float,
) -> None:
    """March the branch from z_curr with initial tangent z_curr - z_prev, up
    to lam = 10x max(f0, finite finf, lam_k, 1) or down to LAMBDA_FLOOR.

    The returned-to-trivial targets are computed the first time a point
    comes near u = 0; most branches never do."""
    finf = nl.finf if math.isfinite(nl.finf) else 0.0
    lambda_cap = 10.0 * max(nl.f0, finf, ep.lam, 1.0)
    trivial_targets = None
    ds = DS_INIT
    z_prev = np.asarray(z_prev, dtype=float)
    z = np.asarray(z_curr, dtype=float)
    folds = 0
    last_dlam = 0.0
    while len(branch.points) < POINT_BUDGET:
        weights = 1.0 / np.maximum(1.0, np.abs(z))
        tau = (z - z_prev) * weights
        nrm = float(np.linalg.norm(tau))
        if nrm == 0.0:
            raise NumericError("stalled tangent")
        tau /= nrm

        accepted = None
        while True:
            z_pred = z + ds * tau / weights
            try:
                accepted = _corrector(spec, nl, z_pred, tau, weights)
                break
            except (NoConvergence, SingularSystem, DivergenceError):
                if ds <= DS_MIN:
                    branch.termination = TERM_SECONDARY
                    return
                ds = max(DS_MIN, 0.5 * ds)
        z_new, sol = accepted
        arclength = branch.points[-1].arclength + float(
            np.linalg.norm((z_new - z) * weights)
        )
        point = _make_point(nl, sol, arclength)
        prev_lam = z[0]
        z_prev, z = z, z_new
        branch.points.append(point)
        ds = min(DS_MAX, ds * 1.4)

        dlam = point.lam - prev_lam
        if abs(dlam) > max(1e-8, 1e-6 * abs(point.lam)):
            if last_dlam != 0.0 and math.copysign(1.0, dlam) != math.copysign(1.0, last_dlam):
                folds += 1
            last_dlam = dlam

        if stop_at_lambda is not None and (prev_lam - stop_at_lambda) * (
            point.lam - stop_at_lambda
        ) <= 0.0 and point.lam != prev_lam:
            branch.termination = TERM_CROSSED
            return
        if point.amplitude >= amplitude_cap:
            branch.termination = TERM_AMPLITUDE
            return
        if point.lam >= lambda_cap:
            branch.termination = TERM_LAMBDA
            return
        if point.lam <= LAMBDA_FLOOR:
            branch.termination = TERM_LAMBDA_FLOOR
            return
        if folds >= FOLD_CAP:
            branch.termination = TERM_FOLDS
            return
        if point.amplitude < 1e-5:
            if trivial_targets is None:
                trivial_targets = _trivial_targets(spec, nl, branch.k, lambda_cap)
            for j, lam_triv in trivial_targets:
                if abs(point.lam - lam_triv) < 1e-3:
                    branch.termination = TERM_TRIVIAL
                    branch.returned_to_trivial_j = j
                    return
    branch.termination = TERM_POINTS


def _trivial_targets(spec: ProblemSpec, nl: NonlinearitySpec, k: int, lambda_cap: float):
    """Nearby bifurcation-from-zero parameters lam_j/f0 (j != k) for the
    returned-to-trivial detection (windowed to a handful of indices)."""
    targets = []
    try:
        pairs = continuation_spectrum(spec, min(k + 4, CONTINUATION_K_MAX))
        for ep in pairs:
            if ep.k != k and ep.lam / nl.f0 <= lambda_cap:
                targets.append((ep.k, ep.lam / nl.f0))
    except NumericError:
        pass
    return targets


def _require_f0(nl: NonlinearitySpec) -> None:
    if not (math.isfinite(nl.f0) and nl.f0 > 0.0):
        raise HypothesisReport("f0 positivity", f"f0={nl.f0}")


def _branch_start(spec: ProblemSpec, k: int, sign: str, eigenpair: Eigenpair | None, origin: str,
                  slope: float) -> tuple[Eigenpair, Branch]:
    """(ep, empty Branch) leaving lam_k/slope; sign checked (ValueError), ep looked up unless given."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    ep = eigenpair if eigenpair is not None else continuation_spectrum(spec, k)[k]
    return ep, Branch(k=k, sign=sign, origin=origin, origin_lambda=ep.lam / slope)


def branch_from_zero(
    spec: ProblemSpec,
    nl: NonlinearitySpec,
    k: int,
    sign: str,
    eps_seed: float = 1e-3,
    stop_at_lambda: float | None = None,
    amplitude_cap: float = AMPLITUDE_CAP,
    eigenpair: Eigenpair | None = None,
) -> Branch:
    """Trace the continuum bifurcating from the trivial line at lam_k/f0.

    The first recorded point is the bifurcation point itself.  The second
    is the arclength corrector's point at the step of length eps_seed along
    the signed eigenfunction, (lam_k/f0, eps*s*psi(-1), eps*s*psi'(-1)),
    with that step as tangent; SeedFailure if the corrector fails there.
    eps_seed must be positive and finite (ValueError).
    """
    _require_f0(nl)
    if not (math.isfinite(eps_seed) and eps_seed > 0.0):
        raise ValueError(f"eps_seed must be positive and finite, got {eps_seed!r}")
    ep, branch = _branch_start(spec, k, sign, eigenpair, FROM_ZERO, nl.f0)
    lam_star = branch.origin_lambda
    branch.points.append(
        BranchPoint(
            lam=lam_star,
            shooting=ShootingState(0.0, 0.0, lam_star, (0.0, 0.0)),
            amplitude=0.0,
            nodal=(),
            arclength=0.0,
            energy_dev=None,
        )
    )

    s = 1.0 if sign == "+" else -1.0
    z0 = np.array([lam_star, 0.0, 0.0])
    # Componentwise, so a zero component keeps the sign of s.
    z1, seed = _seed(spec, nl, z0, np.array([lam_star, eps_seed * s * ep.psi.A, eps_seed * s * ep.psi.B]))
    branch.points.append(_make_point(nl, seed, arclength=float(np.linalg.norm(z1 - z0))))
    _continue_branch(spec, nl, branch, ep, z0, z1, stop_at_lambda, amplitude_cap)
    return branch


def branch_from_infinity(
    spec: ProblemSpec,
    nl: NonlinearitySpec,
    k: int,
    sign: str,
    stop_at_lambda: float | None = None,
    eigenpair: Eigenpair | None = None,
) -> Branch:
    """Trace the continuum bifurcating from infinity at lam_k/finf.

    The big seed is the arclength corrector's point at (lam_k/finf,
    A*s*psi(-1), A*s*psi'(-1)) with tangent (0, psi(-1), psi'(-1)); the
    shrunk seed is its point at the big seed with (a, b) divided by 1.05.
    A is SEED_AMPLITUDE, then 10x and 100x; SeedFailure if all three fail.
    The branch continues toward decreasing amplitude.  finf must be a
    positive finite limit; the superlinear case is the from-zero tracer's.
    """
    if not (math.isfinite(nl.finf) and nl.finf > 0.0):
        raise HypothesisReport("finf in (0, inf)", f"finf={nl.finf}")
    ep, branch = _branch_start(spec, k, sign, eigenpair, FROM_INFINITY, nl.finf)
    s = 1.0 if sign == "+" else -1.0
    z0 = np.array([branch.origin_lambda, 0.0, 0.0])
    for A in (SEED_AMPLITUDE, 10.0 * SEED_AMPLITUDE, 100.0 * SEED_AMPLITUDE):
        try:
            zb, big = _seed(spec, nl, z0, np.array([z0[0], A * s * ep.psi.A, A * s * ep.psi.B]))
            zs, shrunk = _seed(spec, nl, zb, np.array([zb[0], zb[1] / 1.05, zb[2] / 1.05]))
            break
        except SeedFailure:
            continue
    else:
        raise SeedFailure(f"from-infinity seeding failed starting at A={SEED_AMPLITUDE:g}")

    branch.points.append(_make_point(nl, big, 0.0))
    branch.points.append(_make_point(nl, shrunk, float(np.linalg.norm(zs - zb))))
    _continue_branch(spec, nl, branch, ep, zb, zs, stop_at_lambda, AMPLITUDE_CAP)
    return branch


def mirrored_branch(branch: Branch) -> Branch:
    """The continuum of -u for an odd f: a, b and the residuals negated,
    every nodal label's sign flipped; lam, amplitude, arclength, scales and
    energy deviation kept."""
    points = [replace(p, shooting=p.shooting.negated(), nodal=tuple(m.negated() for m in p.nodal))
              for p in branch.points]
    return replace(branch, sign="-" if branch.sign == "+" else "+", points=points)


def both_signs(nl: NonlinearitySpec, compute, mirror):
    """('+', compute('+')) and then ('-', result): mirror(the '+' result)
    for an odd f, compute('-') otherwise.  A generator, so the '+' result
    is used before the '-' one is computed, as in a loop over the signs."""
    plus = compute("+")
    yield "+", plus
    yield "-", mirror(plus) if nl.odd else compute("-")


# ---------------------------------------------------------------------------
# nodal audit


@dataclass
class AuditReport:
    ok: bool
    family: str
    baseline: NodalClass | None
    audited_points: int
    first_violation: int | None
    detail: str = ""


def branch_nodal_audit(branch: Branch, lambda_gate: float, family: str | None = None) -> AuditReport:
    """Check nodal-class constancy on the certified side of the gate, the
    side of the branch's origin.

    The baseline is the first nontrivial point's membership in the audited
    family; every gated point must repeat it.  Violations are legitimate
    when no preservation certificate applies; they are reported, not raised.
    """
    pts = [p for p in branch.points if p.amplitude > 0.0]
    if not pts:
        return AuditReport(True, family or "", None, 0, None, "empty branch")
    below = branch.origin_lambda < lambda_gate

    baseline = None
    fam = family
    for p in pts:
        for m in p.nodal:
            if fam is None or m.family == fam:
                baseline = m
                fam = m.family
                break
        if baseline:
            break
    if baseline is None:
        return AuditReport(False, fam or "", None, len(pts), 0, "no classifiable baseline")

    audited = 0
    for i, p in enumerate(pts):
        gated = p.lam < lambda_gate if below else p.lam > lambda_gate
        if not gated:
            continue
        audited += 1
        if not any(m == baseline for m in p.nodal):
            return AuditReport(False, fam, baseline, audited, i,
                               f"point {i} at lam={p.lam:.6g} lost {baseline.label()}")
    return AuditReport(True, fam, baseline, audited, None)


# ---------------------------------------------------------------------------
# nodal solutions at lam = 1


@dataclass
class NodalSolutionsResult:
    k: int
    family: str
    class_index: int
    orientation: str  # 'slopes-fall' (finf < lam_k < f0) or 'slopes-rise'
    route: str  # FROM_ZERO or FROM_INFINITY
    gamma: float
    certificates: dict
    branches: dict  # sign -> Branch
    solutions: dict  # sign -> SampledSolution
    verdicts: dict  # sign -> tuple[NodalClass, ...]


def nodal_solutions_at_one(
    spec: ProblemSpec,
    nl: NonlinearitySpec,
    k: int,
    eps_seed: float = 1e-3,
) -> NodalSolutionsResult:
    """Produce the pair u_k^+/- of nodal solutions of -u'' = f(u) at lam = 1.

    Verifies the eigenvalue-crossing condition, the eigenfunction membership
    and windowed uniqueness in the target family, the F-envelope and the
    endpoint inequalities at lam = 1; then traces both sign branches to the
    crossing, refines it by secant and polishes with a fixed-lam solve.
    """
    _require_f0(nl)
    # One list for psi_k and the uniqueness window; a k past the cap is refused.
    pairs = continuation_spectrum(spec, min(max(k + 3, 6), max(k, CONTINUATION_K_MAX)))
    ep = pairs[k]
    lam_k = ep.lam
    f0, finf = nl.f0, nl.finf

    if finf < lam_k < f0:
        orientation = "slopes-fall"
    elif f0 < lam_k and (lam_k < finf or not math.isfinite(finf)):
        orientation = "slopes-rise"
    else:
        raise HypothesisReport(
            "eigenvalue crossing",
            f"lam_k={lam_k:.6g} not strictly between f0={f0:.6g} and finf={finf:.6g}",
        )

    route_errors: list[str] = []
    for family in ("T", "S"):
        try:
            return _run_route(spec, nl, k, pairs, family, orientation, eps_seed)
        except HypothesisReport as exc:
            route_errors.append(f"{family}-route: {exc.failed}" + (f" ({exc.detail})" if exc.detail else ""))
    raise HypothesisReport("; ".join(route_errors))


def _in_family(nodal: tuple[NodalClass, ...], family: str, index: int) -> bool:
    return any(m.family == family and m.k == index for m in nodal)


def _certify(nl: NonlinearitySpec, gamma: float, direction: str, failed: str) -> Certificate:
    """The envelope certificate, or HypothesisReport(failed) when it or f on its grid fails."""
    try:
        cert = certify_hypotheses(nl, gamma, direction)
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise HypothesisReport(failed, str(exc)) from None
    if not cert.passed:
        raise HypothesisReport(failed, cert.reason)
    return cert


def _run_route(spec, nl, k, pairs, family, orientation, eps_seed) -> NodalSolutionsResult:
    ep, f0, finf = pairs[k], nl.f0, nl.finf
    if family == "T":
        if not _in_family(ep.nodal, "T", k + 1):
            raise HypothesisReport("eigenfunction membership in the derivative family")
        gamma = f0 if orientation == "slopes-fall" else finf
        if not math.isfinite(gamma):
            raise HypothesisReport("finite envelope constant", "finf = inf")
        cert = _certify(nl, gamma, F_SMALL, "F-envelope (upper)")
        # The endpoint inequalities at lambda = 1 are tested at lam*gamma = gamma.
        if not all(side.holds_ud(gamma) for side in spec.sides):
            raise HypothesisReport("endpoint derivative-pinning inequality at lambda=1")
        route = FROM_ZERO
        class_index = k + 1
    else:
        if not _in_family(ep.nodal, "S", k):
            raise HypothesisReport("eigenfunction membership in the value family")
        gamma = finf if orientation == "slopes-fall" else f0
        if not (math.isfinite(gamma) and gamma > 0.0):
            raise HypothesisReport("positive finite envelope constant", f"gamma={gamma}")
        cert = _certify(nl, gamma, F_BIG, "F-envelope (lower)")
        if not all(side.holds_u(gamma) for side in spec.sides):
            raise HypothesisReport("endpoint value-pinning inequality at lambda=1")
        route = FROM_ZERO if orientation == "slopes-rise" else FROM_INFINITY
        class_index = k

    # Windowed uniqueness: no other eigenfunction in the target family with
    # lam_j inside the crossing window.  The theorems quantify over all such
    # j; this checks the computed spectrum up to the larger slope + margin.
    window = max(f0, finf) if math.isfinite(finf) else f0
    _check_uniqueness(spec, pairs, k, family, class_index, window + UNIQUENESS_MARGIN)

    def crossing(sign: str) -> tuple[Branch, SampledSolution]:
        if route == FROM_ZERO:
            br = branch_from_zero(spec, nl, k, sign, eps_seed=eps_seed,
                                  stop_at_lambda=1.0, eigenpair=ep)
        else:
            br = branch_from_infinity(spec, nl, k, sign, stop_at_lambda=1.0,
                                      eigenpair=ep)
        if br.termination != TERM_CROSSED:
            raise NoCrossing(br, f"termination={br.termination}")
        return br, _polish_crossing(spec, nl, br)

    def mirrored(pair: tuple[Branch, SampledSolution]) -> tuple[Branch, SampledSolution]:
        return mirrored_branch(pair[0]), pair[1].negated()

    certs = {"envelope": cert}
    branches: dict[str, Branch] = {}
    solutions: dict[str, SampledSolution] = {}
    verdicts: dict[str, tuple] = {}
    for sign, (br, sol) in both_signs(nl, crossing, mirrored):
        branches[sign] = br
        solutions[sign] = sol
        verdicts[sign] = tuple(classify(sol.trace).memberships)
        want = NodalClass(family, class_index, sign)
        if not any(m == want for m in verdicts[sign]):
            raise HypothesisReport(
                "crossing solution nodal class",
                f"expected {want.label()}, got {[m.label() for m in verdicts[sign]]}",
            )
    return NodalSolutionsResult(
        k=k,
        family=family,
        class_index=class_index,
        orientation=orientation,
        route=route,
        gamma=gamma,
        certificates=certs,
        branches=branches,
        solutions=solutions,
        verdicts=verdicts,
    )


def _check_uniqueness(spec, pairs, k, family, class_index, lam_window) -> None:
    """HypothesisReport if some psi_j, j != k, with lam_j <= lam_window lies in
    the target family.  ``pairs`` is continued further, doubling its k_max up to
    CONTINUATION_K_MAX, until its last eigenvalue passes lam_window."""
    while pairs[-1].lam <= lam_window and len(pairs) <= CONTINUATION_K_MAX:
        pairs = continuation_spectrum(spec, min(2 * (len(pairs) - 1), CONTINUATION_K_MAX))
    for epj in pairs:
        if epj.k != k and epj.lam <= lam_window and _in_family(epj.nodal, family, class_index):
            raise HypothesisReport(
                "eigenfunction uniqueness",
                f"psi_{epj.k} also lies in the target family",
            )


def _polish_crossing(spec, nl, branch: Branch) -> SampledSolution:
    """Secant in (lam - 1) between the last two points, then a fixed-lam solve."""
    p1, p2 = branch.points[-2], branch.points[-1]
    g1, g2 = p1.lam - 1.0, p2.lam - 1.0
    if g1 == g2:
        t = 0.0
    else:
        t = g1 / (g1 - g2)
    t = min(max(t, 0.0), 1.0)
    a = p1.shooting.a + t * (p2.shooting.a - p1.shooting.a)
    b = p1.shooting.b + t * (p2.shooting.b - p1.shooting.b)
    sol = solve_bvp(spec, nl, None, 1.0, (a, b))
    if sol.amplitude <= 1e-8:
        raise NoCrossing(branch, "crossing polish collapsed to the trivial solution")
    return sol
