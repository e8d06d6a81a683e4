import math
from types import SimpleNamespace

import pytest

from mpsl import branching
from mpsl.branching import (
    FROM_INFINITY,
    FROM_ZERO,
    TERM_AMPLITUDE,
    TERM_CROSSED,
    TERM_TRIVIAL,
    branch_from_infinity,
    branch_from_zero,
    branch_nodal_audit,
    nodal_solutions_at_one,
)
from mpsl.errors import HypothesisReport
from mpsl.expressions import NonlinearitySpec
from mpsl.problem import BoundarySide, ProblemSpec
from mpsl.spectrum import eigen_continuation

LIN = NonlinearitySpec.from_text("xi", f0=1.0, finf=1.0)
CROSSING = NonlinearitySpec.from_text("xi*(1+3/(1+xi^2))", f0=4.0, finf=1.0)


@pytest.fixture(scope="module")
def spec():
    return ProblemSpec(
        minus=BoundarySide(1.0, 0.0, side="minus"),
        plus=BoundarySide(1.0, 0.0, alpha=(0.5,), beta=(0.0,), eta=(0.0,), side="plus"),
    )


@pytest.fixture(scope="module")
def lam0(spec):
    return eigen_continuation(spec, 0).lam


def test_linear_branch_is_vertical(spec, lam0):
    br = branch_from_zero(spec, LIN, 0, "+", amplitude_cap=10.0)
    assert br.termination == TERM_AMPLITUDE
    assert br.origin == FROM_ZERO
    assert br.origin_lambda == pytest.approx(lam0, rel=1e-12)
    lams = br.lambdas()[1:]
    assert max(abs(l - lam0) for l in lams) <= 1e-8
    amps = br.amplitudes()
    assert amps[0] == 0.0
    assert all(a > 0 for a in amps[1:])
    assert amps[-1] >= 10.0


def test_branch_point_invariants(spec):
    br = branch_from_zero(spec, CROSSING, 0, "+", stop_at_lambda=1.0)
    assert br.termination == TERM_CROSSED
    for p in br.points[1:]:
        assert abs(p.shooting.residuals[0]) <= 1e-8 * p.scales[0]
        assert abs(p.shooting.residuals[1]) <= 1e-8 * p.scales[1]
        assert p.lam > 0
        if p.energy_dev is not None:
            assert p.energy_dev <= 1e-6
    arcs = [p.arclength for p in br.points]
    assert arcs == sorted(arcs)


def test_branch_origin_consistency(spec, lam0):
    # near the origin lam -> lam_0/f0 and amplitude -> 0 monotonically
    br = branch_from_zero(spec, CROSSING, 0, "+", stop_at_lambda=1.0)
    head = br.points[:10]
    amps = [p.amplitude for p in head]
    assert amps == sorted(amps)
    lam_star = lam0 / 4.0
    gaps = [abs(p.lam - lam_star) for p in head]
    assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_branch_nodal_audit_certified_side(spec):
    br = branch_from_zero(spec, CROSSING, 0, "+", stop_at_lambda=1.0)
    report = branch_nodal_audit(br, 1.0, family="T")
    assert report.ok
    assert report.baseline is not None
    assert report.baseline.family == "T" and report.baseline.k == 1
    assert report.audited_points > 5


def test_sign_symmetry_for_odd_f(spec):
    bp = branch_from_zero(spec, CROSSING, 0, "+", stop_at_lambda=1.0)
    bm = branch_from_zero(spec, CROSSING, 0, "-", stop_at_lambda=1.0)
    n = min(len(bp.points), len(bm.points))
    for pp, pm in zip(bp.points[:n], bm.points[:n]):
        assert pm.shooting.a == pytest.approx(-pp.shooting.a, abs=1e-8)
        assert pm.shooting.b == pytest.approx(-pp.shooting.b, abs=1e-8)
        assert pm.lam == pytest.approx(pp.lam, abs=1e-8)


def _on_branch(p) -> bool:
    return all(abs(r) <= 1e-8 * sc for r, sc in zip(p.shooting.residuals, p.scales))


def test_from_infinity_linear_eigenline(spec, lam0, monkeypatch):
    monkeypatch.setattr(branching, "POINT_BUDGET", 40)
    br = branch_from_infinity(spec, LIN, 0, "+")
    for p in br.points:
        assert p.lam == pytest.approx(lam0, abs=1e-8)
    amps = br.amplitudes()
    assert amps[0] == pytest.approx(100.0, rel=0.05)
    assert amps[-1] < amps[0]
    # Both seeds are corrector points: on the branch, the shrunk one lower.
    assert _on_branch(br.points[0]) and _on_branch(br.points[1])
    assert amps[1] < amps[0]


def test_seed_lies_on_the_branch_at_the_requested_amplitude(spec, lam0):
    # f0 = 1 and a strong cubic: the branch bends to smaller lam at once,
    # so a point at (lam0/f0, eps*psi) is not a solution at eps = 1e-2.
    nl = NonlinearitySpec.from_text("xi+100*xi^3", f0=1.0, finf=math.inf)
    br = branch_from_zero(spec, nl, 0, "+", eps_seed=1e-2, amplitude_cap=0.1)
    seed = br.points[1]
    assert seed.amplitude == pytest.approx(1e-2, rel=0.1)
    assert seed.lam < lam0 * (1.0 - 1e-3)
    assert _on_branch(seed)


@pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf])
def test_eps_seed_must_be_positive_and_finite(spec, eps):
    with pytest.raises(ValueError, match="eps_seed"):
        branch_from_zero(spec, CROSSING, 0, "+", eps_seed=eps)


def test_from_infinity_crossing(spec, lam0):
    br = branch_from_infinity(spec, CROSSING, 0, "+", stop_at_lambda=1.0)
    assert br.origin == FROM_INFINITY
    assert br.origin_lambda == pytest.approx(lam0 / 1.0, rel=1e-9)
    assert br.termination == TERM_CROSSED
    assert br.amplitudes()[0] >= 50.0


def test_from_infinity_refuses_superlinear(spec):
    cubic = NonlinearitySpec.from_text("xi^3 + 4*xi", f0=4.0, finf=math.inf)
    with pytest.raises(HypothesisReport):
        branch_from_infinity(spec, cubic, 0, "+")


def test_nodal_solutions_pipeline(spec):
    res = nodal_solutions_at_one(spec, CROSSING, 0)
    assert res.family == "T" and res.class_index == 1
    assert res.route == FROM_ZERO
    assert res.gamma == 4.0
    for sign in ("+", "-"):
        sol = res.solutions[sign]
        assert sol.shooting.lam == 1.0
        assert abs(sol.shooting.residuals[0]) <= 1e-8 * sol.scales[0]
        assert abs(sol.shooting.residuals[1]) <= 1e-8 * sol.scales[1]
        labels = [m.label() for m in res.verdicts[sign]]
        assert f"T_1^{sign}" in labels
    # odd f: the pair is symmetric
    sp, sm = res.solutions["+"], res.solutions["-"]
    assert sm.shooting.a == pytest.approx(-sp.shooting.a, abs=1e-7)
    assert sm.shooting.b == pytest.approx(-sp.shooting.b, abs=1e-7)


def test_nodal_solutions_no_crossing(spec):
    with pytest.raises(HypothesisReport) as exc:
        nodal_solutions_at_one(spec, LIN, 0)
    assert "crossing" in exc.value.failed


def test_nodal_solutions_wrong_index(spec):
    # lam_1 = pi^2 is not strictly between finf = 1 and f0 = 4
    with pytest.raises(HypothesisReport):
        nodal_solutions_at_one(spec, CROSSING, 1)


def test_superlinear_from_zero_crosses_downward(spec, lam0):
    # f0 < lam_0 < finf = inf: the branch starts at lam_0/f0 > 1 and heads
    # toward smaller lam.
    nl = NonlinearitySpec.from_text("xi*(1+xi^2)/(1+0.1*xi^2)", f0=1.0, finf=10.0)
    assert nl.f0 < lam0 < nl.finf
    br = branch_from_zero(spec, nl, 0, "+", stop_at_lambda=1.0)
    assert br.origin_lambda == pytest.approx(lam0, rel=1e-9)
    assert br.termination == TERM_CROSSED
    assert br.points[-1].lam < br.origin_lambda


def _count_target_windows(monkeypatch, extra=()):
    """Record each continuation_spectrum(spec, k + 4) the tracer makes (k = 0),
    optionally appending fake eigenpairs to the window."""
    calls = []
    real = branching.continuation_spectrum

    def counted(spec, k_max, *args):
        if k_max == 4:
            calls.append(k_max)
            return real(spec, k_max, *args) + list(extra)
        return real(spec, k_max, *args)

    monkeypatch.setattr(branching, "continuation_spectrum", counted)
    return calls


def test_trivial_targets_wait_for_a_small_point(spec, monkeypatch):
    calls = _count_target_windows(monkeypatch)
    br = branch_from_zero(spec, LIN, 0, "+", amplitude_cap=10.0)
    assert min(p.amplitude for p in br.points[1:]) >= 1e-5
    assert calls == []


def test_trivial_targets_are_computed_once(spec, monkeypatch):
    # A tiny seed and first step keep the first points below 1e-5.
    monkeypatch.setattr(branching, "DS_INIT", 1e-9)
    calls = _count_target_windows(monkeypatch)
    br = branch_from_zero(spec, LIN, 0, "+", eps_seed=1e-9, amplitude_cap=1e-3)
    assert sum(p.amplitude < 1e-5 for p in br.points[2:]) >= 5
    assert br.termination == TERM_AMPLITUDE
    assert calls == [4]


def test_returned_to_trivial_reads_targets_on_demand(spec, lam0, monkeypatch):
    # A fake index-9 eigenvalue at the branch's own lambda: the first point
    # below 1e-5 is within 1e-3 of it.
    monkeypatch.setattr(branching, "DS_INIT", 1e-9)
    calls = _count_target_windows(monkeypatch, [SimpleNamespace(k=9, lam=lam0)])
    br = branch_from_zero(spec, LIN, 0, "+", eps_seed=1e-9, amplitude_cap=1e-3)
    assert br.termination == TERM_TRIVIAL and br.returned_to_trivial_j == 9
    assert len(br.points) == 3 and calls == [4]
