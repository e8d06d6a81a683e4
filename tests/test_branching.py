import hashlib
import math
from types import SimpleNamespace

import numpy as np
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
from mpsl.spectrum import continuation_spectrum

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
    return continuation_spectrum(spec, 0)[0].lam


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


def _half_digest(res, sign) -> str:
    """SHA-256 of one sign's branch points and solution at lam = 1: every
    number as float.hex, every nodal label and the trace samples' bytes."""
    def hx(v):
        return "None" if v is None else float(v).hex()

    parts = []
    for p in res.branches[sign].points:
        parts += [hx(v) for v in (p.lam, p.shooting.a, p.shooting.b, *p.shooting.residuals, p.amplitude,
                                  p.arclength, p.energy_dev, *p.scales)]
        parts += [m.label() for m in p.nodal]
    sol = res.solutions[sign]
    parts += [hx(v) for v in (sol.shooting.a, sol.shooting.b, *sol.shooting.residuals, sol.energy_dev,
                              sol.collocation_residual, *sol.scales)]
    parts += [m.label() for m in res.verdicts[sign]]
    parts += [sol.trace.u.tobytes().hex(), sol.trace.up.tobytes().hex()]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _traced_signs(monkeypatch) -> list[str]:
    """The sign of every branch_from_zero call that nodal_solutions_at_one makes."""
    signs, real = [], branching.branch_from_zero

    def traced(spec, nl, k, sign, **kwargs):
        signs.append(sign)
        return real(spec, nl, k, sign, **kwargs)

    monkeypatch.setattr(branching, "branch_from_zero", traced)
    return signs


def _negated(v: float) -> float:
    return 0.0 - v


# An odd f traces the '+' half only; it is bit for bit what it was when both
# halves were traced and corrected.  The '-' half is its exact mirror, and
# the '-' solution is classified on its own trace.
def test_odd_f_mirrors_the_minus_half(spec, monkeypatch):
    traced = _traced_signs(monkeypatch)
    res = nodal_solutions_at_one(spec, CROSSING, 0)
    assert traced == ["+"]
    assert _half_digest(res, "+") == "e19dcaa4e10abffacea27a58a66c4f70dee6071f43c9e82848313c673b7a68d9"
    plus, minus = res.solutions["+"], res.solutions["-"]
    assert plus.shooting.b.hex() == "0x1.84d25fa5af439p+1" and minus.shooting.b.hex() == "-0x1.84d25fa5af439p+1"
    for p, m in zip(res.branches["+"].points, res.branches["-"].points, strict=True):
        assert (m.lam, m.amplitude, m.arclength, m.energy_dev, m.scales) == \
            (p.lam, p.amplitude, p.arclength, p.energy_dev, p.scales)
        assert (m.shooting.a, m.shooting.b) == (_negated(p.shooting.a), _negated(p.shooting.b))
        assert m.shooting.residuals == tuple(map(_negated, p.shooting.residuals))
        assert [x.label() for x in m.nodal] == [x.label().replace("^+", "^-") for x in p.nodal]
    assert (minus.shooting.a, minus.shooting.b) == (_negated(plus.shooting.a), _negated(plus.shooting.b))
    assert minus.shooting.residuals == tuple(map(_negated, plus.shooting.residuals))
    for name in ("u", "up"):
        got, want = getattr(minus.trace, name), getattr(plus.trace, name)
        assert got.tobytes() == (0.0 - want).tobytes() and not np.signbit(got[got == 0.0]).any()
    assert "T_1^-" in [m.label() for m in res.verdicts["-"]]


# f0 = 4 and finf = 1 as in the worked example, but an even term makes f
# neither odd nor even: both halves are traced and corrected, as before.
def test_non_odd_f_traces_both_halves(spec, monkeypatch):
    nl = NonlinearitySpec.from_text("xi*(1+3/(1+xi^2)) + 0.5*xi^4/(1+xi^6)", f0=4.0, finf=1.0)
    assert not nl.odd
    traced = _traced_signs(monkeypatch)
    res = nodal_solutions_at_one(spec, nl, 0)
    assert traced == ["+", "-"]
    assert [len(res.branches[sign].points) for sign in "+-"] == [21, 20]
    assert [round(res.solutions[sign].shooting.b, 2) for sign in "+-"] == [3.29, -2.74]
    assert [_half_digest(res, sign) for sign in "+-"] == [
        "3e1e88ba60b51efe40ae54407af42fc5835cecc576da65fdde2b64bc9d29a16b",
        "713213d0cf265c8e108884668953e09a9cf0e5b0e2c7bb8876f539b253623037",
    ]


# f0 = 201 puts the uniqueness window at 203, past lam_6 = 126.5 where the
# nodal solve's list ends: the list is continued again to k_max = 12, and
# psi_1 .. psi_8 (lam_8 = 192.8 <= 203 < lam_9 = 246.7) are checked against T_1.
def test_uniqueness_window_covers_its_lambda_range(spec, monkeypatch):
    nl = NonlinearitySpec.from_text("xi*(1+200/(1+xi^2))", f0=201.0, finf=1.0)
    continued, checked = [], []
    real_spectrum, real_in_family = branching.continuation_spectrum, branching._in_family

    def spectrum(spec, k_max):
        continued.append(k_max)
        return real_spectrum(spec, k_max)

    def in_family(nodal, family, index):
        checked.append((family, index))
        return real_in_family(nodal, family, index)

    monkeypatch.setattr(branching, "continuation_spectrum", spectrum)
    monkeypatch.setattr(branching, "_in_family", in_family)
    res = nodal_solutions_at_one(spec, nl, 0)
    assert (res.family, res.class_index) == ("T", 1)
    assert continued == [6, 12]
    assert checked == [("T", 1)] * 9  # psi_0's own membership, then the eight others


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
