"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here; the seeds are fixed so every run exercises the
same problem population.  Criterion 5 (energy identities) is asserted
inside the suites of criteria 3 and 7, as specified.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from conftest import random_spec
from mpsl.branching import branch_from_zero, branch_nodal_audit, nodal_solutions_at_one
from mpsl.cli import main
from mpsl.conditions import confirm_prediction, predict_nodal_class
from mpsl.expressions import ForcingTerm, NonlinearitySpec, parse_expr, to_source
from mpsl.nodal import ClosedTrace, classify, energy_deviation, reflected_trace
from mpsl.problem import BoundarySide, ProblemSpec
from mpsl.reference import reference_eigenvalue
from mpsl.shooting import integrate_ivp, solve_bvp_multistart
from mpsl.spectrum import continuation_spectrum, eigen_scan


def _report(n: int, name: str, t0: float, limit: float):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {n:02d} ({name}): PASS in {elapsed:.2f}s (limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {n} exceeded its {limit:.0f}s budget"


@pytest.fixture(scope="module")
def half_u0():
    return ProblemSpec(
        minus=BoundarySide(1.0, 0.0, side="minus"),
        plus=BoundarySide(1.0, 0.0, alpha=(0.5,), beta=(0.0,), eta=(0.0,), side="plus"),
    )


def test_criterion_01_reference_spectra():
    t0 = time.perf_counter()
    for k in range(21):
        assert reference_eigenvalue("dirichlet", k) == pytest.approx(
            ((k + 1) * math.pi / 2) ** 2, rel=1e-10
        )
        assert reference_eigenvalue("neumann", k) == pytest.approx(
            (k * math.pi / 2) ** 2, rel=1e-10, abs=1e-30
        )
        assert reference_eigenvalue("mixed", k) == pytest.approx(
            ((2 * k + 1) * math.pi / 4) ** 2, rel=1e-10
        )
        if k >= 1:
            assert abs(
                reference_eigenvalue("dirichlet", k - 1) - reference_eigenvalue("neumann", k)
            ) <= 1e-10
        assert abs(
            reference_eigenvalue("dirichlet", k) - reference_eigenvalue("neumann", k + 1)
        ) <= 1e-10
    _report(1, "reference spectra", t0, 1.0)


def _bisect_half_u0() -> float:
    def g(w):
        return math.sin(2 * w) - 0.5 * math.sin(w)

    lo = hi = None
    w = 1e-4
    while w < 3.0:
        if g(w) * g(w + 1e-4) < 0:
            lo, hi = w, w + 1e-4
            break
        w += 1e-4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-15:
            break
    w = 0.5 * (lo + hi)
    return w * w


def test_criterion_02_oracle_equivalence(half_u0):
    t0 = time.perf_counter()
    pairs = continuation_spectrum(half_u0, 7)
    window = eigen_scan(half_u0, pairs[-1].lam * 1.01)
    scanned = window.lambdas()
    assert len(scanned) >= 8
    for ep in pairs:
        assert scanned[ep.k] == pytest.approx(ep.lam, rel=1e-8)
    assert pairs[1].lam == pytest.approx(math.pi**2, abs=1e-9)
    assert pairs[0].lam == pytest.approx(_bisect_half_u0(), abs=1e-9)
    _report(2, "scan vs continuation oracle", t0, 5.0)


def test_criterion_03_spectral_theorem_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    lam_max = 100.0
    for _ in range(50):
        spec = random_spec(rng, level="quadratic")
        window = eigen_scan(spec, lam_max)
        lams = window.lambdas()
        assert lams, "no eigenvalues found"
        # strictly increasing, pairwise separated
        assert all(b - a > 1e-8 for a, b in zip(lams, lams[1:]))
        # all roots simple
        assert all(ep.simple for ep in window.eigenpairs)
        # ground state sign
        if spec.minus.alpha0 + spec.plus.alpha0 > 0.0:
            assert lams[0] > 0.0
        else:
            assert abs(lams[0]) <= 1e-8
        # No missing/extra eigenvalues: the scan must reproduce exactly the
        # continuation-indexed values lying in the window, and the count
        # must equal the t=0 Robin anchor count except for indices whose
        # path crosses the window edge between t=0 and t=1.
        assert window.robin_count is not None
        continued = continuation_spectrum(spec, window.robin_count + 1)
        inside = [ep.lam for ep in continued if ep.lam <= lam_max]
        assert len(lams) == len(inside)
        for a, b in zip(lams, inside):
            assert a == pytest.approx(b, rel=1e-8, abs=1e-8)
        edge_crossers = sum(
            1
            for ep in continued
            if (ep.t_path[0][1] <= lam_max) != (ep.lam <= lam_max)
        )
        assert abs(len(lams) - window.robin_count) <= edge_crossers
        # criterion 5a: linear energy identity on all computed eigenpairs,
        # plus the eigenfunction residual certificate
        for ep in window.eigenpairs:
            if ep.lam > 1e-8:
                assert energy_deviation(ep.lam, ClosedTrace(ep.psi)) <= 1e-9
            assert abs(ep.bc_residuals[0]) <= 1e-9
            assert abs(ep.bc_residuals[1]) <= 1e-9
    _report(3, "spectral properties on 50 random specs", t0, 60.0)


def test_criterion_04_prediction_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    n_checked = 0
    for _ in range(30):
        spec = random_spec(rng, level="linear")
        pairs = continuation_spectrum(spec, 8)
        by_k = {ep.k: ep for ep in pairs}
        for k in range(9):
            pred = predict_nodal_class(spec, k)
            if not pred.determinate:
                continue
            ep = by_k[k]
            assert pred.bracket_contains(ep.lam), (
                f"lam_{k}={ep.lam:.6g} outside bracket {pred.bracket} "
                f"[{pred.theorem}]"
            )
            assert confirm_prediction(pred, ClosedTrace(ep.psi)), (
                f"k={k}: predicted {pred.family}_{pred.class_index} "
                f"[{pred.theorem}], classified "
                f"{[m.label() for m in classify(ClosedTrace(ep.psi)).memberships]}"
            )
            n_checked += 1
    assert n_checked > 100
    _report(4, f"prediction consistency ({n_checked} verdicts)", t0, 60.0)


def test_criterion_05_energy_identities(half_u0):
    # The full population checks run inside criteria 3 (linear identity on
    # every computed eigenpair) and 7 (nonlinear identity on every accepted
    # branch point); this re-asserts both on the worked example directly.
    t0 = time.perf_counter()
    pairs = continuation_spectrum(half_u0, 3)
    for ep in pairs:
        assert energy_deviation(ep.lam, ClosedTrace(ep.psi)) <= 1e-9
    nl = NonlinearitySpec.from_text("xi*(1+3/(1+xi^2))", f0=4.0, finf=1.0)
    branch = branch_from_zero(half_u0, nl, 0, "+", stop_at_lambda=1.0)
    devs = [p.energy_dev for p in branch.points if p.energy_dev is not None]
    assert devs and max(devs) <= 1e-6
    _report(5, "energy identities (see also criteria 3 and 7)", t0, 30.0)


def test_criterion_06_nonresonance_solve(half_u0):
    t0 = time.perf_counter()
    nl = NonlinearitySpec.from_text("xi/(1+abs(xi))", f0=1.0, finf=0.0)
    h = ForcingTerm.from_text("x")
    sol = solve_bvp_multistart(half_u0, nl, h, 1.0)
    assert abs(sol.shooting.residuals[0]) <= 1e-8 * sol.scales[0]
    assert abs(sol.shooting.residuals[1]) <= 1e-8 * sol.scales[1]
    assert sol.collocation_residual <= 1e-7
    # independent verification: re-integrate at 1e-12 and re-evaluate the
    # BC functionals on the tighter trace
    tr2 = integrate_ivp(nl, h, 1.0, sol.shooting.a, sol.shooting.b,
                        rtol=1e-12, atol=1e-14)
    from mpsl.shooting import bc_residual_on_trace

    assert abs(bc_residual_on_trace(half_u0.minus, tr2)) <= 1e-8 * sol.scales[0]
    assert abs(bc_residual_on_trace(half_u0.plus, tr2)) <= 1e-8 * sol.scales[1]
    for x in np.linspace(-1.0, 1.0, 101):
        assert tr2.eval(float(x))[0] == pytest.approx(
            sol.trace.eval(float(x))[0], abs=1e-8
        )
    _report(6, "nonresonance existence solve", t0, 5.0)


def test_criterion_07_nodal_solution_pipeline(half_u0):
    t0 = time.perf_counter()
    nl = NonlinearitySpec.from_text("xi*(1+3/(1+xi^2))", f0=4.0, finf=1.0)
    res = nodal_solutions_at_one(half_u0, nl, 0)
    assert res.family == "T" and res.class_index == 1
    assert res.gamma == 4.0
    assert res.certificates["envelope"].passed
    for sign in ("+", "-"):
        sol = res.solutions[sign]
        assert abs(sol.shooting.residuals[0]) <= 1e-8 * sol.scales[0]
        assert abs(sol.shooting.residuals[1]) <= 1e-8 * sol.scales[1]
        labels = [m.label() for m in res.verdicts[sign]]
        assert f"T_1^{sign}" in labels
        branch = res.branches[sign]
        audit = branch_nodal_audit(branch, 1.0, family="T")
        assert audit.ok and audit.baseline.k == 1 and audit.baseline.family == "T"
        # every pre-gate point carries T_1 with the branch sign
        for p in branch.points:
            if p.amplitude > 0.0 and p.lam < 1.0:
                assert any(
                    m.family == "T" and m.k == 1 and m.sign == sign for m in p.nodal
                ), f"lost T_1^{sign} at lam={p.lam:.6g}"
            # criterion 5b: nonlinear energy identity on accepted points
            if p.energy_dev is not None:
                assert p.energy_dev <= 1e-6
    _report(7, "nodal solutions at lambda=1", t0, 30.0)


def test_criterion_08_linear_degeneration(half_u0):
    t0 = time.perf_counter()
    lin = NonlinearitySpec.from_text("xi", f0=1.0, finf=1.0)
    pairs = continuation_spectrum(half_u0, 1)
    for k in (0, 1):
        lam_k = pairs[k].lam
        branch = branch_from_zero(half_u0, lin, k, "+", amplitude_cap=10.0,
                                  eigenpair=pairs[k])
        amps = [p.amplitude for p in branch.points if p.amplitude > 0.0]
        assert min(amps) <= 1.1e-3 and max(amps) >= 10.0
        for p in branch.points[1:]:
            if 1e-3 <= p.amplitude <= 10.0:
                assert abs(p.lam - lam_k) <= 1e-8
    _report(8, "linear nonlinearity reproduces eigenlines", t0, 10.0)


def test_criterion_09_parser_roundtrip():
    t0 = time.perf_counter()
    from test_expressions import PRECEDENCE_FIXTURES, random_tree
    from expr_oracle import evaluate

    for text, expected in PRECEDENCE_FIXTURES:
        assert evaluate(parse_expr(text)) == pytest.approx(expected, rel=1e-14)
    rng = np.random.default_rng(3003)
    for _ in range(1000):
        tree = random_tree(rng, int(rng.integers(1, 7)))
        text = to_source(tree)
        assert parse_expr(text) == tree
        assert to_source(parse_expr(text)) == text
    _report(9, "parser precedence and round-trip", t0, 2.0)


def test_criterion_10_selftest_determinism(tmp_path):
    t0 = time.perf_counter()
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["selftest", "--out", out_a, "--seed", "11"]) == 0
    assert main(["selftest", "--out", out_b, "--seed", "11"]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names, shallow=False)
    assert not mismatch and not errors
    assert len(match) == len(names) >= 10
    _report(10, "byte-identical selftest runs", t0, 120.0)
