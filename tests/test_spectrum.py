import json
import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_spec
from mpsl import spectrum, trig
from mpsl.cli import main
from mpsl.errors import HypothesisError, ProblemDataError
from mpsl.nodal import ClosedTrace, classify
from mpsl.problem import (
    LEVEL_QUADRATIC,
    BoundarySide,
    ProblemSpec,
    level_at_least,
    problem_from_dict,
    scale_coefficients,
)
from mpsl.spectrum import (
    ROOT_SEPARATION,
    SCAN_MAX_POINTS,
    SCAN_STEP_OMEGA,
    SIMPLE_DET_TOL,
    _det,
    _gamma,
    char_det,
    continuation_spectrum,
    eigen_scan,
    robin_anchor,
)
from mpsl.trig import TrigSolution, _fundamental, _fundamental_dlam


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
        assert abs(char_det(spec, lam)) <= 1e-12 * _gamma(spec, lam)[2]
    assert abs(char_det(spec, 1.0)) > 1e-3


def test_char_det_half_u0(half_u0_spec):
    assert abs(char_det(half_u0_spec, math.pi**2)) <= 1e-12 * _gamma(half_u0_spec, math.pi**2)[2]
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
        ep = continuation_spectrum(spec, k)[k]
        anchor = robin_anchor(spec, k)
        assert ep.lam == pytest.approx(anchor, rel=1e-12)
        for _, lam in ep.t_path:
            assert lam == pytest.approx(anchor, rel=1e-10)


def test_continuation_half_u0_matches_scan(half_u0_spec):
    ep0 = continuation_spectrum(half_u0_spec, 0)[0]
    ep1 = continuation_spectrum(half_u0_spec, 1)[1]
    assert ep0.lam == pytest.approx(bisect_half_u0_ground(), abs=1e-9)
    assert ep1.lam == pytest.approx(math.pi**2, abs=1e-9)
    # index-1 path is constant: the anchor already solves the full problem
    for t, lam in ep1.t_path:
        assert lam == pytest.approx(math.pi**2, rel=1e-9)
    assert ep0.t_path[0] == (0.0, pytest.approx(math.pi**2 / 4, rel=1e-12))
    assert ep0.t_path[-1][0] == 1.0


def test_gamma_vanishes_along_scaled_path(half_u0_spec):
    # Gamma(pi^2; t-scaled spec) = 0 for every t: sin(2w) - t/2 sin(w) at w=pi.
    # Gamma at t is Gamma of the spec whose interior coefficients are scaled by t.
    specs = [half_u0_spec, *(random_spec(np.random.default_rng(seed)) for seed in range(5))]
    for t in (0.0, 0.3, 0.5, 1.0):
        spec_t = scale_coefficients(half_u0_spec, t)
        assert abs(char_det(spec_t, math.pi**2)) <= 1e-12 * _gamma(spec_t, math.pi**2)[2]
        for spec in specs:
            for lam in (-3.7, 0.0, 2.5, math.pi**2, 81.0, 1234.5):
                g, _, scale = _gamma(spec, lam, t)
                assert abs(g - _gamma(scale_coefficients(spec, t), lam)[0]) <= 1e-13 * scale


# Gamma is quadratic in t, so its central difference is its t-derivative up to rounding.
def test_gamma_t_derivative_is_the_central_difference(half_u0_spec):
    h = 0.125
    for spec in (half_u0_spec, *(random_spec(np.random.default_rng(seed)) for seed in range(5))):
        for t in (h, 0.5, 1.0 - h):
            for lam in (-3.7, 0.0, 2.5, 81.0, 1234.5):
                _, _, g_t, _ = _det(spec, lam, t)
                scale = _gamma(spec, lam, t)[2]
                central = (_gamma(spec, lam, t + h)[0] - _gamma(spec, lam, t - h)[0]) / (2.0 * h)
                assert abs(g_t - central) <= 1e-13 * scale


# Paths 0 and 1 of this spec come within 0.062 of each other, so a step
# that reached t = 1 at once would carry path 1 onto path 0's root.
def test_continuation_keeps_the_indices_of_close_paths():
    spec = ProblemSpec(
        minus=BoundarySide(0.0, -1.5207841357186678, (0.0,), (-1.5102315221050941,),
                           (-0.15835921018879584,), "minus"),
        plus=BoundarySide(0.0, 1.174969315744191, (0.0,), (1.1070409406691926,),
                          (0.01174659656488164,), "plus"),
    )
    pairs = continuation_spectrum(spec, 6)
    scanned = eigen_scan(spec, pairs[-1].lam + 1.0).lambdas()
    assert [ep.k for ep in pairs] == list(range(7))
    for ep in pairs:
        assert abs(ep.lam - scanned[ep.k]) <= 1e-12 * max(1.0, abs(ep.lam))


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
        assert abs(char_det(half_u0_spec, ep.lam)) <= 1e-10 * _gamma(half_u0_spec, ep.lam)[2]
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
    ep = continuation_spectrum(spec, 0)[0]
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
        ep = continuation_spectrum(spec, 0)[0]
        assert ep.lam > 0.0
        count += 1
    assert count >= 5


def test_continuation_requires_quadratic_level():
    spec = ProblemSpec(
        minus=BoundarySide(1.0, 1.0, side="minus"),  # sign violated
        plus=BoundarySide(1.0, 0.0, side="plus"),
    )
    with pytest.raises(HypothesisError):
        continuation_spectrum(spec, 0)[0]


# A caller reads eigenpair k from one list continued to its own k_max: on the
# worked example the pair of index k <= 3 is the same, in lam, psi, nodal
# classes and simple flag, whether the list reaches k, k + 1, ... or k + 4.
def test_eigenpair_does_not_depend_on_the_window(half_u0_spec):
    for k in range(4):
        pairs = [continuation_spectrum(half_u0_spec, window)[k] for window in range(k, k + 5)]
        for ep in pairs:
            assert (ep.k, ep.lam, ep.psi, ep.nodal, ep.simple) == (
                k, pairs[0].lam, pairs[0].psi, pairs[0].nodal, pairs[0].simple)


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
    # the negative root (~ -0.9166) lies inside the (-LAMBDA_MIN_GUARD, 0) window
    assert any(ep.negative for ep in eigen_scan(spec, 10.0).eigenpairs)


def test_eigen_scan_rejects_lambda_max_above_grid_ceiling(half_u0_spec):
    ceiling = (SCAN_MAX_POINTS * SCAN_STEP_OMEGA) ** 2
    for lam_max in (ceiling * 1.001, 1e300, math.inf, math.nan, 0.0):
        with pytest.raises(ProblemDataError):
            eigen_scan(half_u0_spec, lam_max)


@pytest.mark.parametrize("exc, caught", [
    (ProblemDataError("sign convention"), True),
    (TypeError("programming error"), False),
], ids=["sign-convention", "programming-error"])
def test_robin_anchor_errors(exc, caught, half_u0_spec, monkeypatch):
    def anchor(spec, k):
        raise exc

    monkeypatch.setattr("mpsl.spectrum.robin_anchor", anchor)
    if caught:
        assert eigen_scan(half_u0_spec, 12.0).robin_count is None
    else:
        with pytest.raises(TypeError):
            eigen_scan(half_u0_spec, 12.0)


# The rows that _det returns are Gamma's hot path and keep their own copy of the
# boundary functional, sharing each fundamental-pair evaluation between the c and s
# columns and their lam-derivatives; they must equal BoundarySide.residual on
# c and on s, and on the derivative pair from trig._fundamental_dlam (at
# these ordinary magnitudes the power of two in row_terms is exactly 1).
# Its t columns, the interior terms alone, are the residual with alpha0 = beta0 = 0.
def test_bc_rows_equal_the_boundary_functional_on_c_and_s():
    rng = np.random.default_rng(7)
    for _ in range(30):
        spec = random_spec(rng)
        for lam in (-3.7, 0.0, 1e-12, 2.5, 81.0, 1234.5):
            rows = _det(spec, lam)[3]

            def dpair(x, col):
                y = x + 1.0
                c, _, s, _ = _fundamental(lam, y)
                d = _fundamental_dlam(lam, y, c, s)
                return d[2 * col], d[2 * col + 1]

            for side, (rc, rs, drc, drs, ic, is_) in zip(spec.sides, rows):
                interior = replace(side, alpha0=0.0, beta0=0.0)
                assert rc == side.residual(TrigSolution(lam, 1.0, 0.0))
                assert rs == side.residual(TrigSolution(lam, 0.0, 1.0))
                assert drc == side.residual(lambda x: dpair(x, 0))
                assert drs == side.residual(lambda x: dpair(x, 1))
                assert ic == interior.residual(TrigSolution(lam, 1.0, 0.0))
                assert is_ == interior.residual(TrigSolution(lam, 0.0, 1.0))


def _mp_gamma_slope(spec, lam):
    """dGamma/dlam at 50 digits: mpmath's derivative of Gamma written in
    the even entire functions cos(w*y) and sin(w*y)/w of w = sqrt(lam)."""
    def pair(L, y):
        # sqrt(L) is imaginary for L < 0 and the forms stay real; at L = 0
        # the series of sin(w*y)/w and of w*sin(w*y) start at y and 0.
        if L == 0:
            return mp.mpf(1), mp.mpf(0), y, mp.mpf(1)
        w = mp.sqrt(L)
        return (mp.re(mp.cos(w * y)), mp.re(-w * mp.sin(w * y)),
                mp.re(mp.sin(w * y) / w), mp.re(mp.cos(w * y)))

    def rows(L):
        out = []
        for side in spec.sides:
            at = [(1, side.endpoint, side.alpha0, side.beta0)]
            at += [(-1, e, a, b) for a, b, e in zip(side.alpha, side.beta, side.eta)]
            rc = rs = mp.mpf(0)
            for sign, x, a, b in at:
                c, cp, s, sp = pair(L, mp.mpf(x) + 1)
                rc += sign * (mp.mpf(a) * c + mp.mpf(b) * cp)
                rs += sign * (mp.mpf(a) * s + mp.mpf(b) * sp)
            out.append((rc, rs))
        return out

    def gamma(L):
        (m11, m12), (m21, m22) = rows(L)
        return m11 * m22 - m12 * m21

    with mp.workdps(50):
        return mp.diff(gamma, mp.mpf(lam))


@pytest.mark.parametrize("lam", [-24.0, -1.0, -1e-6, -1e-11, 0.0, 1e-12, 1e-7, 1e-4,
                                 0.3, 2.5, 81.0, 1e4])
def test_gamma_slope_matches_a_high_precision_derivative(lam):
    rng = np.random.default_rng(15)
    for _ in range(10):
        spec = random_spec(rng)
        exact = float(_mp_gamma_slope(spec, lam))
        assert abs(_gamma(spec, lam)[1] - exact) <= 1e-10 * abs(exact)


# A positive factor on a side's coefficients gives the same problem.  Gamma
# is a product of the two sides' rows; without the rows' power-of-two scale
# the scan found no eigenvalue below 100 at 1e-150 (the product of two grid
# values underflowed), 3 non-simple ones at 1e-160 and 78 at 1e-170 (Gamma
# underflowed to 0 at every grid point).
@pytest.mark.parametrize("c", [1e150, 1e-150, 1e-160, 1e-170, 1e300, 1e-300])
def test_the_spectrum_does_not_depend_on_the_coefficient_scale(c, half_u0_spec, tmp_path):
    expected = eigen_scan(half_u0_spec, 100.0).lambdas()
    assert len(expected) == 6
    data = {"minus": {"alpha0": c, "beta0": 0.0, "alpha": [], "beta": [], "eta": []},
            "plus": {"alpha0": c, "beta0": 0.0, "alpha": [0.5 * c], "beta": [0.0], "eta": [0.0]}}
    spec, _ = problem_from_dict(data)
    window = eigen_scan(spec, 100.0)
    assert all(ep.simple for ep in window.eigenpairs)
    assert window.lambdas() == pytest.approx(expected, rel=1e-14)
    assert [ep.lam for ep in continuation_spectrum(spec, 5)] == pytest.approx(expected, rel=1e-14)

    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    assert main(["spectrum", str(path), "--lambda-max", "100", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert payload["count"] == 6 and all(payload["simple"])
    assert payload["eigenvalues"] == pytest.approx(expected, rel=1e-14)


# Work counts that do not depend on the hardware: row passes of _functional_rows.
# A scanned root costs the passes of its bracket's safeguarded Newton, about
# 6.1 from the cell cubic's root (7.3 from the midpoint; bisection to adjacent
# floats took about 46), and about 4.5 grid passes (8.9 on a grid twice as
# fine in sqrt(lam)); a continued root costs the
# Newton iterations of its anchor at t = 0 and of each t step, about 4.7 in
# all, since one Euler step on the exact tangent usually reaches t = 1.
def test_row_passes_per_root(monkeypatch):
    counts = {"rows": 0, "bracket": 0, "newton": 0}
    functional_rows, bracketed_root, newton_root = \
        spectrum._functional_rows, spectrum._bracketed_root, spectrum._newton_root

    def rows(*args):
        counts["rows"] += 1
        return functional_rows(*args)

    def bracketed(*args):
        before = counts["rows"]
        root = bracketed_root(*args)
        counts["bracket"] += counts["rows"] - before
        return root

    def newton(*args):
        counts["newton"] += 1
        return newton_root(*args)

    monkeypatch.setattr(spectrum, "_functional_rows", rows)
    monkeypatch.setattr(spectrum, "_bracketed_root", bracketed)
    monkeypatch.setattr(spectrum, "_newton_root", newton)
    rng = np.random.default_rng(17)
    scan_roots = grid_passes = cont_passes = cont_roots = 0
    for _ in range(12):
        spec = random_spec(rng)
        before, bracket_before = counts["rows"], counts["bracket"]
        roots = len(eigen_scan(spec, 2000.0).eigenpairs)
        scan_roots += roots
        # less the brackets' passes and each eigenpair's own
        grid_passes += counts["rows"] - before - (counts["bracket"] - bracket_before) - roots
        before = counts["rows"]
        pairs = continuation_spectrum(spec, 12)
        cont_passes += counts["rows"] - before - len(pairs)  # less each eigenpair's own pass
        cont_roots += len(pairs)
    assert scan_roots > 300
    assert counts["bracket"] / scan_roots <= 7.0
    assert grid_passes / scan_roots <= 5.0
    assert cont_passes / counts["newton"] <= 2.6
    assert cont_passes / cont_roots <= 8.0


# One eigenpair costs one row pass, and the same trig evaluations whatever its
# index: two end-value pairs to normalise psi, two for its trace (end values,
# phase form and sup norms, read by the S/T/R rules), and one per boundary term
# for its residuals (three on the worked example).
def test_eigenpair_work_does_not_grow_with_k(monkeypatch, half_u0_spec):
    lams = eigen_scan(half_u0_spec, 4e5).lambdas()
    counts = {"rows": 0, "fundamental": 0}
    functional_rows, fundamental = spectrum._functional_rows, trig._fundamental

    def counting_rows(*args):
        counts["rows"] += 1
        return functional_rows(*args)

    def counting_fundamental(*args):
        counts["fundamental"] += 1
        return fundamental(*args)

    monkeypatch.setattr(spectrum, "_functional_rows", counting_rows)
    monkeypatch.setattr(trig, "_fundamental", counting_fundamental)
    seen = []
    for k in (0, 40, 400):
        counts.update(rows=0, fundamental=0)
        ep = spectrum._eigenpair(half_u0_spec, k, lams[k])
        seen.append(dict(counts))
        assert ep.k == k and len(ep.nodal) == 2
    assert seen[0] == seen[1] == seen[2] == {"rows": 1, "fundamental": 7}


def _bisected_roots(spec: ProblemSpec, grid: list[float]) -> list[float]:
    """Reference for the scan's refiner: every sign change of Gamma on the
    grid, bisected on Gamma's sign alone until the ends are adjacent floats."""
    roots = []
    vals = [char_det(spec, lam) for lam in grid]
    for lo, hi, f_lo, f_hi in zip(grid, grid[1:], vals, vals[1:]):
        if f_lo == 0.0:
            roots.append(lo)
        elif f_lo * f_hi < 0.0:
            while lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                f_mid = char_det(spec, mid)
                if f_mid == 0.0:
                    lo = hi = mid
                elif (f_mid < 0.0) == (f_lo < 0.0):
                    lo = mid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    merged = []
    for r in sorted(roots):
        if not merged or abs(r - merged[-1]) >= ROOT_SEPARATION * max(1.0, abs(r)):
            merged.append(r)
    return merged


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lambda_max=st.floats(10.0, 5000.0))
def test_scan_roots_are_the_bisection_roots(seed, lambda_max):
    spec = random_spec(np.random.default_rng(seed))
    grid = []

    def recording(spec_, lam, *args):
        grid.append(lam)
        return _det(spec_, lam, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "_det", recording)
        window = eigen_scan(spec, lambda_max)
    reference = _bisected_roots(spec, sorted(set(grid)))
    assert len(window.eigenpairs) == len(reference)
    for ep, lam in zip(window.eigenpairs, reference):
        assert abs(ep.lam - lam) <= 1e-14 * max(1.0, abs(lam))
        _, slope, scale = _gamma(spec, lam)
        assert ep.simple == (abs(slope) >= SIMPLE_DET_TOL * scale)


def _cosine_square_spec(eps: float) -> ProblemSpec:
    """u(-1) = 0 and u'(1) = 2*u'(0) + (eps - 1.5)*u'(-1), outside the hypotheses:
    Gamma(lam) = 2*(cos(w) - 1/2)^2 - eps with w = sqrt(lam).  Each zero of
    cos(w) - 1/2 is a double root at eps = 0 and a pair of close roots at
    eps > 0 (cos(w) = 1/2 -+ sqrt(eps/2))."""
    return ProblemSpec(minus=BoundarySide(1.0, 0.0, side="minus"),
                       plus=BoundarySide(0.0, 1.0, (0.0, 0.0), (2.0, eps - 1.5), (0.0, -1.0), "plus"))


def _fine_grid(lambda_max: float, refine: int) -> list[float]:
    """The scan's grid refine times finer in sqrt(lam), positive side only."""
    step = SCAN_STEP_OMEGA / refine
    return [0.0] + [(n * step) ** 2 for n in range(1, int(math.sqrt(lambda_max) / step) + 1)] + [lambda_max]


def test_scan_finds_two_roots_in_one_cell():
    spec = _cosine_square_spec(0.02)
    window = eigen_scan(spec, 60.0)
    lams = window.lambdas()
    exact = sorted((w0 + 2.0 * math.pi * n) ** 2 for n in range(2)
                   for c in (0.4, 0.6) for w0 in (math.acos(c), 2.0 * math.pi - math.acos(c)))
    exact = [lam for lam in exact if lam <= 60.0]
    assert len(lams) == len(exact) == 6
    # Each pair shares one cell of the scan's grid, with Gamma > 0 at both ends.
    cells = [int(math.sqrt(lam) / SCAN_STEP_OMEGA) for lam in lams]
    assert cells[0::2] == cells[1::2]
    for n in cells[0::2]:
        assert all(_gamma(spec, (m * SCAN_STEP_OMEGA) ** 2)[0] > 0.0 for m in (n, n + 1))
    reference = _bisected_roots(spec, _fine_grid(60.0, 16))
    assert len(reference) == 6
    for lam, ref, ex in zip(lams, reference, exact):
        assert abs(lam - ref) <= 1e-14 * max(1.0, abs(ref))
        assert abs(lam - ex) <= 1e-12 * ex
    assert all(ep.simple for ep in window.eigenpairs)


# Both sides of Neumann type: constants solve the problem, and Gamma(0) is 0.0
# exactly at a grid node.  The next root, 0.0618, lies in the same cell.
def test_scan_examines_the_cell_after_an_exact_zero():
    spec = ProblemSpec(
        minus=BoundarySide(0.0, -1.5207841357186678, (0.0,), (-1.5102315221050941,),
                           (-0.15835921018879584,), "minus"),
        plus=BoundarySide(0.0, 1.174969315744191, (0.0,), (1.1070409406691926,),
                          (0.01174659656488164,), "plus"),
    )
    assert _gamma(spec, 0.0)[0] == 0.0
    lams = eigen_scan(spec, 5.0).lambdas()
    assert lams[0] == 0.0 and 0.0 < lams[1] < SCAN_STEP_OMEGA ** 2
    reference = _bisected_roots(spec, _fine_grid(5.0, 16))
    assert len(lams) == len(reference)
    for lam, ref in zip(lams, reference):
        assert abs(lam - ref) <= 1e-14 * max(1.0, abs(ref))


# A root where Gamma touches zero without a sign change: the cell's cubic
# points at it, and it is reported as non-simple at the extremum of Gamma,
# not dropped.
def test_scan_reports_a_touching_root_as_not_simple():
    spec = _cosine_square_spec(0.0)
    window = eigen_scan(spec, 2000.0)
    exact = sorted(w * w for n in range(8) for w in (math.pi / 3.0 + 2.0 * math.pi * n,
                                                     5.0 * math.pi / 3.0 + 2.0 * math.pi * n)
                   if w * w <= 2000.0)
    assert len(window.eigenpairs) == len(exact) == 14
    for ep, lam in zip(window.eigenpairs, exact):
        assert not ep.simple
        assert abs(ep.lam - lam) <= 1e-3 * lam
        assert abs(_gamma(spec, ep.lam)[0]) <= SIMPLE_DET_TOL * _gamma(spec, ep.lam)[2]


# Gamma = 2*(cos(w) - 0.9)^2 (u(-1) = 0, u'(1) = 3.6*u'(0) - 2.62*u'(-1)) is
# 0.0 in floats over a plateau ~1e-8 wide around its first touching root.  A
# probe that lands on it reports one non-simple root and does not split the
# cell on the rounding-level slope there.
def test_scan_reports_a_touching_root_met_exactly_once():
    spec = ProblemSpec(minus=BoundarySide(1.0, 0.0, side="minus"),
                       plus=BoundarySide(0.0, 1.0, (0.0, 0.0), (3.6, -2.62), (0.0, -1.0), "plus"))
    touching = [ep for ep in eigen_scan(spec, 50.0).eigenpairs if 0.2 < ep.lam < 0.21]
    assert len(touching) == 1 and not touching[0].simple
    assert _gamma(spec, touching[0].lam)[0] == 0.0
    assert abs(touching[0].lam - math.acos(0.9) ** 2) <= 1e-7 * math.acos(0.9) ** 2
