import math

import numpy as np
import pytest

from conftest import random_spec
from mpsl.errors import HypothesisError, ProblemDataError
from mpsl.nodal import ClosedTrace, classify
from mpsl.problem import LEVEL_QUADRATIC, BoundarySide, ProblemSpec, level_at_least, scale_coefficients
from mpsl.spectrum import (
    SCAN_MAX_POINTS,
    SCAN_STEP_OMEGA,
    _bc_rows,
    char_det,
    char_det_scale,
    continuation_spectrum,
    eigen_continuation,
    eigen_scan,
    robin_anchor,
)
from mpsl.shooting import default_guesses
from mpsl.trig import TrigSolution


def bisect_half_u0_ground() -> float:
    """Independent oracle: dense scan + bisection of sin(2w) - 0.5*sin(w)."""

    def g(w):
        return math.sin(2 * w) - 0.5 * math.sin(w)

    lo = None
    grid = [1e-4 + i * 1e-4 for i in range(40000)]
    for a, b in zip(grid, grid[1:]):
        if g(a) * g(b) < 0:
            lo, hi = a, b
            break
    assert lo is not None
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


def test_char_det_dirichlet_dirichlet():
    spec = ProblemSpec(
        minus=BoundarySide(1.0, 0.0, side="minus"),
        plus=BoundarySide(1.0, 0.0, side="plus"),
    )
    # Gamma proportional to s(1) = sin(2w)/w: zeros at ((k+1)pi/2)^2.
    for k in range(4):
        lam = ((k + 1) * math.pi / 2) ** 2
        assert abs(char_det(spec, lam)) <= 1e-12 * char_det_scale(spec, lam)
    assert abs(char_det(spec, 1.0)) > 1e-3


def test_char_det_half_u0(half_u0_spec):
    assert abs(char_det(half_u0_spec, math.pi**2)) <= 1e-12 * char_det_scale(
        half_u0_spec, math.pi**2
    )
    lam0 = bisect_half_u0_ground()
    assert lam0 == pytest.approx(1.737, abs=5e-4)
    assert abs(char_det(half_u0_spec, lam0)) <= 1e-9


def test_eigen_scan_dirichlet_values():
    spec = ProblemSpec(
        minus=BoundarySide(1.0, 0.0, side="minus"),
        plus=BoundarySide(1.0, 0.0, side="plus"),
    )
    window = eigen_scan(spec, 30.0)
    assert window.lambdas() == pytest.approx([2.4674011, 9.8696044, 22.2066099], rel=1e-6)
    assert all(ep.simple for ep in window.eigenpairs)
    assert window.robin_count == 3


def test_eigen_scan_half_u0(half_u0_spec):
    window = eigen_scan(half_u0_spec, 12.0)
    assert len(window.eigenpairs) == 2
    assert window.lambdas()[0] == pytest.approx(bisect_half_u0_ground(), abs=1e-9)
    assert window.lambdas()[1] == pytest.approx(math.pi**2, abs=1e-9)


def test_eigen_scan_flags_negative_eigenvalue_when_sign_violated():
    # beta0- = +1 violates the endpoint sign convention; tanh(2*mu) = mu
    # then has a root mu ~ 0.9575 giving a negative eigenvalue.
    spec = ProblemSpec(
        minus=BoundarySide(1.0, 1.0, side="minus"),
        plus=BoundarySide(1.0, 0.0, side="plus"),
    )
    window = eigen_scan(spec, 10.0)
    negs = [ep for ep in window.eigenpairs if ep.negative]
    assert len(negs) == 1
    mu = math.sqrt(-negs[0].lam)
    assert math.tanh(2 * mu) == pytest.approx(mu, abs=1e-9)


def test_continuation_constant_when_interior_zero():
    spec = ProblemSpec(
        minus=BoundarySide(1.0, -0.5, side="minus"),
        plus=BoundarySide(1.0, 0.7, side="plus"),
    )
    for k in range(3):
        ep = eigen_continuation(spec, k)
        anchor = robin_anchor(spec, k)
        assert ep.lam == pytest.approx(anchor, rel=1e-12)
        for _, lam in ep.t_path:
            assert lam == pytest.approx(anchor, rel=1e-10)


def test_continuation_half_u0_matches_scan(half_u0_spec):
    ep0 = eigen_continuation(half_u0_spec, 0)
    ep1 = eigen_continuation(half_u0_spec, 1)
    assert ep0.lam == pytest.approx(bisect_half_u0_ground(), abs=1e-9)
    assert ep1.lam == pytest.approx(math.pi**2, abs=1e-9)
    # index-1 path is constant: the anchor already solves the full problem
    for t, lam in ep1.t_path:
        assert lam == pytest.approx(math.pi**2, rel=1e-9)
    assert ep0.t_path[0] == (0.0, pytest.approx(math.pi**2 / 4, rel=1e-12))
    assert ep0.t_path[-1][0] == 1.0


def test_gamma_vanishes_along_scaled_path(half_u0_spec):
    # Gamma(pi^2; t-scaled spec) = 0 for every t: sin(2w) - t/2 sin(w) at w=pi.
    for t in (0.0, 0.5, 1.0):
        spec_t = scale_coefficients(half_u0_spec, t)
        assert abs(char_det(spec_t, math.pi**2)) <= 1e-12 * char_det_scale(
            spec_t, math.pi**2
        )


def test_scan_and_continuation_agree_on_random_specs():
    rng = np.random.default_rng(31)
    for _ in range(5):
        spec = random_spec(rng)
        pairs = continuation_spectrum(spec, 5)
        window = eigen_scan(spec, pairs[-1].lam + 1.0)
        scanned = window.lambdas()
        assert len(scanned) >= 6
        for ep in pairs:
            assert scanned[ep.k] == pytest.approx(ep.lam, rel=1e-8, abs=1e-8)


def test_eigenpair_invariants(half_u0_spec):
    for ep in continuation_spectrum(half_u0_spec, 4):
        from mpsl.trig import sup_norms

        su, _ = sup_norms(ep.psi)
        assert su == pytest.approx(1.0, abs=1e-10)
        assert abs(ep.bc_residuals[0]) <= 1e-9
        assert abs(ep.bc_residuals[1]) <= 1e-9
        assert abs(char_det(half_u0_spec, ep.lam)) <= 1e-10 * char_det_scale(
            half_u0_spec, ep.lam
        )
        assert ep.simple


def test_eigenpair_nodal_is_the_classification_of_psi():
    # The builder classifies psi before the sign rule and mirrors the signs
    # when the rule flips psi; that must equal a fresh classification.
    rng = np.random.default_rng(1001)
    for i in range(40):
        spec = random_spec(rng, level="linear" if i % 2 else "quadratic")
        pairs = list(eigen_scan(spec, 2000.0).eigenpairs)
        if level_at_least(spec.hypothesis_level, LEVEL_QUADRATIC):
            pairs += continuation_spectrum(spec, 10)
        assert pairs
        for ep in pairs:
            assert ep.nodal == tuple(classify(ClosedTrace(ep.psi)).memberships)


def test_neumann_type_ground_state_is_zero():
    spec = ProblemSpec(
        minus=BoundarySide(0.0, -1.0, (0.0,), (0.2,), (0.3,), "minus"),
        plus=BoundarySide(0.0, 1.0, (0.0,), (-0.1,), (0.2,), "plus"),
    )
    assert spec.hypothesis_level == "linear"
    ep = eigen_continuation(spec, 0)
    assert abs(ep.lam) <= 1e-12
    # constant eigenfunction
    assert ep.psi.B == pytest.approx(0.0, abs=1e-12)
    window = eigen_scan(spec, 10.0)
    assert window.lambdas()[0] == pytest.approx(0.0, abs=1e-10)


def test_positivity_of_ground_state():
    rng = np.random.default_rng(32)
    count = 0
    for _ in range(10):
        spec = random_spec(rng)
        if spec.minus.alpha0 + spec.plus.alpha0 <= 0.0:
            continue
        ep = eigen_continuation(spec, 0)
        assert ep.lam > 0.0
        count += 1
    assert count >= 5


def test_continuation_requires_quadratic_level():
    spec = ProblemSpec(
        minus=BoundarySide(1.0, 1.0, side="minus"),  # sign violated
        plus=BoundarySide(1.0, 0.0, side="plus"),
    )
    with pytest.raises(HypothesisError):
        eigen_continuation(spec, 0)


def test_monotone_ordering_of_indices(two_mp_spec):
    pairs = continuation_spectrum(two_mp_spec, 6)
    lams = [ep.lam for ep in pairs]
    assert lams == sorted(lams)
    assert all(b - a > 1e-8 for a, b in zip(lams, lams[1:]))


def test_scaled_to_zero_matches_robin_anchors(two_mp_spec):
    # t = 0 is the single-point Robin problem: its scan agrees with the
    # continuation anchors of the full spec.
    spec0 = scale_coefficients(two_mp_spec, 0.0)
    window = eigen_scan(spec0, 40.0)
    anchors = [robin_anchor(two_mp_spec, k) for k in range(len(window.eigenpairs))]
    for found, anchor in zip(window.lambdas(), anchors):
        assert found == pytest.approx(anchor, rel=1e-10)


def test_scan_guard_window_includes_negatives():
    spec = ProblemSpec(
        minus=BoundarySide(1.0, 1.0, side="minus"),  # sign violated
        plus=BoundarySide(1.0, 0.0, side="plus"),
    )
    # with a tiny guard the negative root (~ -0.9166) is outside the window
    assert all(ep.lam > 0 for ep in eigen_scan(spec, 10.0, lambda_min_guard=0.5).eigenpairs)
    assert any(ep.negative for ep in eigen_scan(spec, 10.0, lambda_min_guard=25.0).eigenpairs)


def test_eigen_scan_rejects_lambda_max_above_grid_ceiling(half_u0_spec):
    ceiling = (SCAN_MAX_POINTS * SCAN_STEP_OMEGA) ** 2
    for lam_max in (ceiling * 1.001, 1e300, math.inf, math.nan, 0.0):
        with pytest.raises(ProblemDataError):
            eigen_scan(half_u0_spec, lam_max)


@pytest.mark.parametrize("exc, caught", [
    (ProblemDataError("sign convention"), True),
    (ArithmeticError("bracket lost its sign change"), True),
    (TypeError("programming error"), False),
], ids=["sign-convention", "lost-bracket", "programming-error"])
def test_robin_anchor_errors(exc, caught, half_u0_spec, monkeypatch):
    def anchor(spec, k):
        raise exc

    monkeypatch.setattr("mpsl.spectrum.robin_anchor", anchor)
    monkeypatch.setattr("mpsl.shooting.robin_anchor", anchor)
    if caught:
        assert eigen_scan(half_u0_spec, 12.0).robin_count is None
        assert default_guesses(half_u0_spec) == [(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)]
    else:
        with pytest.raises(TypeError):
            eigen_scan(half_u0_spec, 12.0)
        with pytest.raises(TypeError):
            default_guesses(half_u0_spec)


# _bc_rows is Gamma's hot path and keeps its own copy of the boundary
# functional, sharing each fundamental-pair evaluation between the c and s
# columns; it must equal BoundarySide.residual on c and on s.
def test_bc_rows_equal_the_boundary_functional_on_c_and_s():
    rng = np.random.default_rng(7)
    for _ in range(30):
        spec = random_spec(rng)
        for lam in (-3.7, 0.0, 1e-12, 2.5, 81.0, 1234.5):
            rows = _bc_rows(spec, lam)
            for side, (rc, rs) in zip(spec.sides, rows):
                assert rc == side.residual(TrigSolution(lam, 1.0, 0.0))
                assert rs == side.residual(TrigSolution(lam, 0.0, 1.0))
