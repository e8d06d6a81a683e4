import math

import pytest

from mpsl.nodal import ClosedTrace, classify
from mpsl.problem import BoundarySide
from mpsl.reference import (
    ReferenceKind,
    _bracketed_root,
    _sep_det,
    reference_bc_residuals,
    reference_eigenfunction,
    reference_eigenvalue,
    separated_eigenvalue,
)
from mpsl.trig import TrigSolution, eval_solution, sup_norms

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
    # A triple root: the Newton polish barely moves, so the bisection alone
    # has to reach 1e-12.
    assert abs(_bracketed_root(lambda x: (x - 0.3) ** 3, 0.0, 1.0, -0.027) - 0.3) <= 1e-12


def test_bracketed_root_returns_an_exact_zero_at_once():
    calls = []

    def g(x):
        calls.append(x)
        return x - 0.5

    assert _bracketed_root(g, 0.0, 1.0, -0.5) == 0.5
    assert calls == [0.5]


def test_bracketed_root_falls_back_when_the_polish_leaves_the_bracket():
    # A sign change by a jump at r.  The spike next to r sends the first
    # Newton step 0.4 across it, and the exponential tails carry the next
    # two steps 0.6 further out each: every step fits the bracket width, but
    # the sum ends past [lo - w, hi + w], so the midpoint is returned.
    r, h = 0.3, 1e-7  # h: the polish's difference step at |lam| <= 1

    def g(x):
        d = x - r
        if abs(d) < 1e-9:
            return math.copysign(0.4 / h, d)
        return math.copysign(math.exp(-abs(d) / 0.6), d)

    assert abs(_bracketed_root(g, r - 0.5, r + 0.5, g(r - 0.5)) - r) <= 1e-12


# _sep_det keeps its own copy of the plus-side functional for speed (the
# Robin root search calls it dozens of times per eigenvalue); it must equal
# BoundarySide.residual on the solution that meets the minus condition.
@pytest.mark.parametrize("bc_minus", [(1.0, 0.0), (0.0, -1.0), (0.7, -1.3)])
@pytest.mark.parametrize("bc_plus", [(1.0, 0.0), (0.0, 1.0), (2.0, 0.4)])
def test_sep_det_equals_the_boundary_functional(bc_minus, bc_plus):
    plus = BoundarySide(*bc_plus, side="plus")
    for lam in (-2.0, 0.0, 0.3, 2.4674, 17.0, 900.5):
        sol = TrigSolution(lam, -bc_minus[1], bc_minus[0])
        assert _sep_det(bc_minus, bc_plus, lam) == plus.residual(sol)
