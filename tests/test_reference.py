import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsl.errors import ProblemDataError
from mpsl.nodal import ClosedTrace, classify
from mpsl.reference import (
    ReferenceKind,
    _bracketed_root,
    reference_bc_residuals,
    reference_eigenfunction,
    reference_eigenvalue,
    separated_eigenvalue,
)
from mpsl.trig import eval_solution, sup_norms

ROBIN_MINUS = (1.0, -1.0)
ROBIN_PLUS = (1.0, 1.0)


def test_closed_form_families():
    for k in range(21):
        assert reference_eigenvalue("dirichlet", k) == pytest.approx(
            ((k + 1) * math.pi / 2) ** 2, rel=1e-14
        )
        assert reference_eigenvalue("neumann", k) == pytest.approx(
            (k * math.pi / 2) ** 2, rel=1e-14
        )
        assert reference_eigenvalue("mixed", k) == pytest.approx(
            ((2 * k + 1) * math.pi / 4) ** 2, rel=1e-14
        )


def test_sentinels():
    assert reference_eigenvalue("dirichlet", -1) == 0.0
    assert reference_eigenvalue("dirichlet", -2) == 0.0
    assert reference_eigenvalue("mixed", -1) == 0.0
    assert reference_eigenvalue("robin-dirichlet", -1, robin_minus=ROBIN_MINUS) == 0.0
    with pytest.raises(ValueError):
        reference_eigenvalue("neumann", -1)
    with pytest.raises(ValueError):
        reference_eigenvalue("dirichlet", -3)


def _oracle_robin_robin_smallest() -> float:
    # Independent scan: shoot from -1 with (u, u')(-1) = (1, 1), which
    # satisfies u(-1) - u'(-1) = 0, and scan the residual u(1) + u'(1).
    def det(lam):
        w = math.sqrt(lam)
        u1 = math.cos(2 * w) + math.sin(2 * w) / w
        up1 = -w * math.sin(2 * w) + math.cos(2 * w)
        return u1 + up1

    grid = [1e-6 + i * 1e-3 for i in range(100000)]
    prev = det(grid[0])
    for a, b in zip(grid, grid[1:]):
        cur = det(b)
        if prev * cur < 0:
            lo, hi = a, b
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if det(lo) * det(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
                if hi - lo < 1e-14:
                    break
            return 0.5 * (lo + hi)
        prev = cur
    raise AssertionError("no root found")


def test_robin_robin_smallest_root_vs_oracle():
    lam = reference_eigenvalue(
        "robin-robin", 0, robin_minus=ROBIN_MINUS, robin_plus=ROBIN_PLUS
    )
    assert lam == pytest.approx(_oracle_robin_robin_smallest(), abs=1e-10)


def test_double_interlacing():
    # lam_{k-1}^D = lam_k^N < lam_k^0, lam_k^M < lam_k^D = lam_{k+1}^N
    for k in range(21):
        lam_n = reference_eigenvalue("neumann", k)
        lam_d = reference_eigenvalue("dirichlet", k)
        lam_m = reference_eigenvalue("mixed", k)
        lam_0 = reference_eigenvalue(
            "robin-robin", k, robin_minus=ROBIN_MINUS, robin_plus=ROBIN_PLUS
        )
        if k >= 1:
            assert reference_eigenvalue("dirichlet", k - 1) == pytest.approx(lam_n, abs=1e-10)
        assert reference_eigenvalue("neumann", k + 1) == pytest.approx(lam_d, abs=1e-10)
        assert lam_n < lam_0 < lam_d
        assert lam_n < lam_m < lam_d


def test_single_bc_interlacing():
    # lam_k^{RN} < lam_k^0 < lam_k^{RD} < lam_{k+1}^{RN}
    prev_rn_next = None
    for k in range(21):
        rn = reference_eigenvalue("robin-neumann", k, robin_minus=ROBIN_MINUS)
        rd = reference_eigenvalue("robin-dirichlet", k, robin_minus=ROBIN_MINUS)
        r0 = reference_eigenvalue(
            "robin-robin", k, robin_minus=ROBIN_MINUS, robin_plus=ROBIN_PLUS
        )
        rn_next = reference_eigenvalue("robin-neumann", k + 1, robin_minus=ROBIN_MINUS)
        assert rn < r0 < rd < rn_next
        if prev_rn_next is not None:
            assert rn == prev_rn_next
        prev_rn_next = rn_next


def test_eigenfunctions_normalized_and_satisfy_bcs():
    kinds = [
        ReferenceKind("dirichlet"),
        ReferenceKind("neumann"),
        ReferenceKind("mixed"),
        ReferenceKind("robin-dirichlet", robin_minus=ROBIN_MINUS),
        ReferenceKind("robin-neumann", robin_minus=ROBIN_MINUS),
        ReferenceKind("robin-robin", robin_minus=ROBIN_MINUS, robin_plus=ROBIN_PLUS),
    ]
    for kind in kinds:
        for k in range(6):
            psi = reference_eigenfunction(kind, k)
            su, _ = sup_norms(psi)
            assert su == pytest.approx(1.0, abs=1e-12)
            rm, rp = reference_bc_residuals(kind, k)
            assert abs(rm) <= 1e-10 and abs(rp) <= 1e-10
            lead = psi.A if psi.A != 0.0 else psi.B
            assert lead > 0.0


def test_dirichlet_eigenfunction_shape():
    psi = reference_eigenfunction("dirichlet", 0)
    u, up = eval_solution(psi, -1.0)
    assert u == 0.0
    assert up == pytest.approx(math.pi / 2, rel=1e-12)
    for x in (-0.5, 0.0, 0.3):
        assert eval_solution(psi, x)[0] == pytest.approx(
            math.sin(math.pi * (x + 1) / 2), rel=1e-12
        )


def test_neumann_ground_state_constant():
    psi = reference_eigenfunction("neumann", 0)
    assert psi.lam == 0.0
    assert eval_solution(psi, 0.37) == (1.0, 0.0)


def test_mixed_ground_state_monotone_quarter_wave():
    psi = reference_eigenfunction("mixed", 0)
    assert eval_solution(psi, 1.0)[0] == pytest.approx(1.0, rel=1e-12)
    for x in (-0.7, 0.1, 0.9):
        assert eval_solution(psi, x)[0] == pytest.approx(
            math.sin(math.pi * (x + 1) / 4), rel=1e-12
        )


def test_robin_robin_eigenfunction_nodal_membership():
    # psi_k^0 lies in S_k and T_{k+1} when alpha0*beta0 != 0 on both sides.
    for k in range(6):
        psi = reference_eigenfunction(
            "robin-robin", k, robin_minus=ROBIN_MINUS, robin_plus=ROBIN_PLUS
        )
        result = classify(ClosedTrace(psi))
        assert result.has("S", k)
        assert result.has("T", k + 1)


def test_dirichlet_eigenfunction_in_T():
    for k in range(6):
        psi = reference_eigenfunction("dirichlet", k)
        result = classify(ClosedTrace(psi))
        assert result.has("T", k + 1)


def test_separated_eigenvalue_memoized():
    a = separated_eigenvalue((1.0, -0.7), (0.5, 0.4), 3)
    b = separated_eigenvalue((1.0, -0.7), (0.5, 0.4), 3)
    assert a == b
    # scaling a condition pair does not change the problem
    c = separated_eigenvalue((2.0, -1.4), (0.5, 0.4), 3)
    assert c == pytest.approx(a, rel=1e-12)


def test_bracketed_root_bisects_to_relative_tolerance():
    # A triple root: Newton converges only linearly there, so the safeguard's
    # bisections have to help it reach 1e-12.
    assert abs(_bracketed_root(lambda x: ((x - 0.3) ** 3, 3.0 * (x - 0.3) ** 2), 0.0, 1.0, -0.027)
               - 0.3) <= 1e-12


def test_bracketed_root_returns_an_exact_zero_at_once():
    calls = []

    def g(x):
        calls.append(x)
        return x - 0.5, 1.0

    assert _bracketed_root(g, 0.0, 1.0, -0.5) == 0.5
    assert calls == [0.5]


def test_bracketed_root_falls_back_when_the_polish_leaves_the_bracket():
    # A sign change by a jump at r, with a spike next to it and exponential
    # tails whose slope has the opposite sign: a Newton step from near r
    # would leave the bracket.  Bisection reads only the sign of g, so the
    # safeguard closes in on the jump all the same.
    r, h = 0.3, 1e-7  # h: sets the spike's height

    def g(x):
        d = x - r
        if abs(d) < 1e-9:
            return math.copysign(0.4 / h, d), 0.0
        e = math.exp(-abs(d) / 0.6)
        return math.copysign(e, d), -e / 0.6

    assert abs(_bracketed_root(g, r - 0.5, r + 0.5, g(r - 0.5)[0]) - r) <= 1e-12


def test_bracketed_root_bisects_to_adjacent_floats():
    def g(x):
        return x - 0.3, 1.0

    r = _bracketed_root(g, 0.0, 1.0, -0.3)
    assert g(math.nextafter(r, -math.inf))[0] * g(math.nextafter(r, math.inf))[0] <= 0.0


@pytest.mark.parametrize("r", [0.003, 0.001, 0.999])
def test_bracketed_root_near_an_end_takes_newton_steps(r):
    # A root near one end of [0, 1]: each Newton step is about as long as the
    # bisection before it.  Judged against that step alone it was rejected
    # again and again, for 10-11 calls of g; judged against the step before
    # it, Newton takes over after a few bisections.
    calls = []

    def g(x):
        calls.append(x)
        return math.sin(x - r), math.cos(x - r)

    root = _bracketed_root(g, 0.0, 1.0, g(0.0)[0])
    assert len(calls) - 1 <= 7
    assert g(math.nextafter(root, -math.inf))[0] * g(math.nextafter(root, math.inf))[0] <= 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_robin_pairs_are_rejected(bad):
    for pairs in ({"robin_minus": (bad, -1.0), "robin_plus": ROBIN_PLUS},
                  {"robin_minus": (1.0, bad), "robin_plus": ROBIN_PLUS},
                  {"robin_minus": ROBIN_MINUS, "robin_plus": (bad, 1.0)},
                  {"robin_minus": ROBIN_MINUS, "robin_plus": (1.0, bad)}):
        with pytest.raises(ProblemDataError, match="not finite"):
            reference_eigenvalue("robin-robin", 0, **pairs)


def test_a_near_dirichlet_side_gives_the_dirichlet_value():
    # alpha0/beta0 = 1e285 on the plus side: the root is the Dirichlet value
    # to float precision, at the very end of its window.
    lam = separated_eigenvalue((1.0, 0.0), (1e300, 1e15), 0)
    assert lam == pytest.approx(math.pi ** 2 / 4, rel=1e-12)


def test_a_tiny_robin_coefficient_keeps_its_tiny_root():
    # Neumann at -1 and u(1)*1e-300 + u'(1) = 0: u = cos(w*(x + 1)) and the
    # root solves 1e-300*cos(2w) = w*sin(2w), so lam is about 5e-301.  In
    # the angles theta_pm themselves the phase rounded to 0 over a wide range
    # of w, and the root came out as 7.6e-33.
    lam = separated_eigenvalue((0.0, -1.0), (1e-300, 1.0), 0)
    with mp.workdps(50):
        r = mp.sqrt(mp.mpf(1e-300))  # w = v*r, so the equation is O(1) in v
        v = mp.findroot(lambda v: mp.cos(2 * v * r) - v * mp.sin(2 * v * r) / r, 0.7)
        expected = float((v * r) ** 2)
    assert abs(lam - expected) <= 1e-12 * expected


def test_a_negative_zero_alpha0_is_a_neumann_side():
    assert separated_eigenvalue((0.5, -0.5), (-0.0, 0.5), 0) == separated_eigenvalue(
        (0.5, -0.5), (0.0, 0.5), 0) > 0.0


def _oracle_separated_eigenvalue(bc_minus, bc_plus, k, digits):
    """k-th root of the separated determinant alpha0+*u(1) + beta0+*u'(1),
    u = -beta0-*c + alpha0-*s meeting the minus condition, by bisection in
    w = sqrt(lam) at the given working precision (no Prüfer phase involved)."""
    with mp.workdps(digits):
        (a0m, b0m), (a0p, b0p) = ((mp.mpf(a), mp.mpf(b)) for a, b in (bc_minus, bc_plus))

        def det(w):
            cos2w, sin2w = mp.cos_sin(2 * w)
            u1 = -b0m * cos2w + a0m * (sin2w / w if w else 2)
            up1 = b0m * w * sin2w + a0m * cos2w
            return a0p * u1 + b0p * up1

        lo, hi = k * mp.pi / 2, (k + 1) * mp.pi / 2
        f_lo = det(lo)
        assert f_lo * det(hi) < 0
        while hi - lo > mp.mpf(1e-15) * max(1, hi):
            mid = (lo + hi) / 2
            f_mid = det(mid)
            if (f_mid < 0) == (f_lo < 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        return float(((lo + hi) / 2) ** 2)


@st.composite
def robin_pair(draw, sign):
    """(alpha0, beta0) with the side's sign and log10(alpha0/|beta0|) in [-300, 300]."""
    log_ratio = draw(st.floats(-300.0, 300.0))
    log_scale = draw(st.floats(-3.0, 3.0))
    return (10.0 ** (log_scale + log_ratio / 2), sign * 10.0 ** (log_scale - log_ratio / 2))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(bc_minus=robin_pair(-1.0), bc_plus=robin_pair(1.0), k=st.integers(0, 50))
def test_robin_eigenvalue_matches_a_high_precision_determinant_root(bc_minus, bc_plus, k):
    lam = separated_eigenvalue(bc_minus, bc_plus, k)
    # Enough digits that alpha0*u(1) cannot swamp beta0*u'(1) by rounding.
    log_ratio = max(abs(math.log10(abs(a0 / b0))) for a0, b0 in (bc_minus, bc_plus))
    expected = _oracle_separated_eigenvalue(bc_minus, bc_plus, k, 50 + 2 * math.ceil(log_ratio))
    assert abs(lam - expected) <= 1e-12 * max(1.0, expected)
