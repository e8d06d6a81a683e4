"""In-process ops of the spectral-sweep and nonlinear-continuation workloads.

Every call into mpsl goes through a module attribute (``spectrum.eigen_scan``
rather than a name imported from it), so the tracer's wrappers see it.  An
op returns what its check needs; checks run outside the op's latency.
Tolerances are the ones pinned by the acceptance suite.
"""

from __future__ import annotations

import math

import numpy as np

from mpsl import branching, conditions, expressions, nodal, problem, shooting, spectrum

import gen
from checks import (
    BC_RESIDUAL,
    EIGENLINE,
    LINEAR_ENERGY,
    NONLINEAR_ENERGY,
    SCAN_VS_CONTINUATION,
    require,
    scaled_ok,
)

AMPLITUDE_CAP = 10.0
PREDICT_K = range(11)


# spectral-sweep -------------------------------------------------------------


def spectral_op(item: dict):
    spec, _ = problem.problem_from_dict(item["problem"])
    report = problem.validate_problem(spec)
    window = spectrum.eigen_scan(spec, item["lambda_max"])
    # The scan's indices, extended to the predicted ones on shallow spectra.
    k_max = max(len(window.eigenpairs), len(PREDICT_K)) - 1
    pairs = spectrum.continuation_spectrum(spec, k_max)
    classes = [nodal.classify(nodal.ClosedTrace(ep.psi)) for ep in pairs]
    preds = [conditions.predict_nodal_class(spec, k) for k in PREDICT_K]
    return report, window, pairs, classes, preds


def linear_energy_deviation(psi, n_samples: int = 2001) -> float:
    """max |lam*u^2 + u'^2 - median| / median on the closed-form solution,
    evaluated independently of mpsl's own trace code."""
    y = np.linspace(0.0, 2.0, n_samples)
    w = math.sqrt(psi.lam)
    c, s = np.cos(w * y), np.sin(w * y)
    u = psi.A * c + psi.B * s / w
    up = -psi.A * w * s + psi.B * c
    profile = psi.lam * u * u + up * up
    med = float(np.median(profile))
    return float(np.max(np.abs(profile - med)) / med)


def spectral_check(item: dict, out) -> None:
    report, window, pairs, classes, preds = out
    require(report.level == problem.LEVEL_LINEAR, f"hypothesis verdict {report.level!r}")
    lams = window.lambdas()
    require(len(lams) > 0, "scan found no eigenvalue")
    require([ep.k for ep in pairs] == list(range(len(pairs))), "continuation indices")
    if len(pairs) > len(lams):
        inside = [ep.lam for ep in pairs if ep.lam <= item["lambda_max"]]
        require(len(inside) == len(lams), "scan and continuation counts differ")
    for lam, ep in zip(lams, pairs):
        tol = SCAN_VS_CONTINUATION * max(1.0, abs(ep.lam))
        require(abs(lam - ep.lam) <= tol, f"scan {lam!r} vs continuation {ep.lam!r} at k={ep.k}")
    for ep in list(window.eigenpairs) + list(pairs):
        require(max(map(abs, ep.bc_residuals)) <= BC_RESIDUAL, f"BC residual at lam={ep.lam:.6g}")
        if ep.lam > 1e-8:
            require(linear_energy_deviation(ep.psi) <= LINEAR_ENERGY, f"energy at lam={ep.lam:.6g}")
    require(len(classes) == len(pairs), "classification count")
    for pred in preds:
        if not pred.determinate:
            continue
        ep = pairs[pred.k]
        require(pred.bracket_contains(ep.lam), f"lam_{pred.k} outside bracket {pred.bracket}")
        require(conditions.confirm_prediction(pred, nodal.ClosedTrace(ep.psi)),
                f"prediction {pred.family}_{pred.class_index} not confirmed at k={pred.k}")


# nonlinear-continuation -----------------------------------------------------


def _nonlinearity(section: dict):
    return expressions.NonlinearitySpec.from_text(section["f"], f0=section["f0"], finf=section["finf"])


def nonlinear_op(item: dict):
    spec, extras = problem.problem_from_dict(item["problem"])
    nl = _nonlinearity(extras["nonlinearity"])
    kind = item["kind"]
    if kind == gen.NODAL:
        return branching.nodal_solutions_at_one(spec, nl, 0)
    if kind == gen.BRANCH:
        return branching.branch_from_zero(spec, nl, 0, item["sign"], amplitude_cap=AMPLITUDE_CAP)
    h = expressions.ForcingTerm.from_text(extras["forcing"]["h"])
    return shooting.solve_bvp_multistart(spec, nl, h, 1.0)


def _check_points(points, sign: str) -> None:
    for p in points:
        if p.amplitude <= 0.0:
            continue
        require(scaled_ok(p.shooting.residuals, p.scales), f"branch residual at lam={p.lam:.6g}")
        require(p.energy_dev is None or p.energy_dev <= NONLINEAR_ENERGY,
                f"nonlinear energy {p.energy_dev!r} at lam={p.lam:.6g}")
        if p.lam < 1.0:
            require(any(m.family == "T" and m.k == 1 and m.sign == sign for m in p.nodal),
                    f"lost T_1^{sign} at lam={p.lam:.6g}")


def nonlinear_check(item: dict, out) -> None:
    kind = item["kind"]
    if kind == gen.NODAL:
        require(out.family == "T" and out.class_index == 1, f"route {out.family}_{out.class_index}")
        for sign in "+-":
            sol = out.solutions[sign]
            require(scaled_ok(sol.shooting.residuals, sol.scales), f"residual of u^{sign}")
            require(sol.energy_dev is not None and sol.energy_dev <= NONLINEAR_ENERGY, f"energy of u^{sign}")
            require(f"T_1^{sign}" in [m.label() for m in out.verdicts[sign]], f"u^{sign} is not T_1^{sign}")
            _check_points(out.branches[sign].points, sign)
    elif kind == gen.BRANCH:
        require(out.termination == branching.TERM_AMPLITUDE, f"termination {out.termination}")
        _check_points(out.points, item["sign"])
        amps = [p.amplitude for p in out.points if p.amplitude > 0.0]
        require(min(amps) <= 1.1e-3 and max(amps) >= AMPLITUDE_CAP, "branch does not span the amplitudes")
        for p in out.points[1:]:
            if 1e-3 <= p.amplitude <= AMPLITUDE_CAP:
                require(abs(p.lam - out.origin_lambda) <= EIGENLINE, f"left the eigenline at lam={p.lam!r}")
    else:
        require(scaled_ok(out.shooting.residuals, out.scales), "forced residual")
        # Independent of the solver's own tolerance: integrate again from the
        # returned initial data at rtol 1e-12 and re-evaluate both conditions.
        spec, extras = problem.problem_from_dict(item["problem"])
        tight = shooting.integrate_ivp(_nonlinearity(extras["nonlinearity"]),
                                       expressions.ForcingTerm.from_text(extras["forcing"]["h"]),
                                       1.0, out.shooting.a, out.shooting.b, rtol=1e-12, atol=1e-14)
        residuals = [shooting.bc_residual_on_trace(side, tight) for side in spec.sides]
        require(scaled_ok(residuals, out.scales), "forced residual on a tighter re-integration")


OPS = {
    "spectral-sweep": (spectral_op, spectral_check),
    "nonlinear-continuation": (nonlinear_op, nonlinear_check),
}
