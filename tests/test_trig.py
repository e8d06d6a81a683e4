import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpsl.problem import BoundarySide
from mpsl.trig import (
    DS_SERIES_CUTOFF,
    ZERO_LAMBDA_CUTOFF,
    TrigSolution,
    _functional_rows,
    _fundamental,
    _fundamental_dlam,
    bc_functional,
    eval_solution,
    normalized,
    sup_norms,
)


def test_eval_cosine_half_period():
    sol = TrigSolution(math.pi**2 / 4, 1.0, 0.0)
    u, up = eval_solution(sol, 1.0)
    assert u == pytest.approx(-1.0, abs=1e-14)
    assert up == pytest.approx(0.0, abs=1e-14)


def test_eval_linear_solution():
    sol = TrigSolution(0.0, 0.0, 1.0)
    u, up = eval_solution(sol, 0.5)
    assert u == pytest.approx(1.5, abs=0)
    assert up == pytest.approx(1.0, abs=0)


def test_eval_hyperbolic():
    sol = TrigSolution(-1.0, 1.0, 0.0)
    u, up = eval_solution(sol, 1.0)
    assert u == pytest.approx(math.cosh(2.0), rel=1e-15)
    assert up == pytest.approx(math.sinh(2.0), rel=1e-15)


def test_eval_domain_error():
    with pytest.raises(ValueError):
        eval_solution(TrigSolution(1.0, 1.0, 0.0), 1.0001)


def test_initial_data_is_AB():
    rng = np.random.default_rng(5)
    for lam in (-3.0, 0.0, 2.5, 40.0):
        A, B = rng.normal(size=2)
        u, up = eval_solution(TrigSolution(lam, A, B), -1.0)
        assert u == pytest.approx(A, abs=1e-14)
        assert up == pytest.approx(B, abs=1e-14)


def test_bc_functional_dirichlet_on_s():
    side = BoundarySide(1.0, 0.0, side="minus")
    sol = TrigSolution(math.pi**2 / 4, 0.0, 1.0)
    assert bc_functional(side, sol) == pytest.approx(0.0, abs=1e-14)


def test_bc_functional_half_u0_at_eigenvalue():
    side = BoundarySide(1.0, 0.0, alpha=(0.5,), beta=(0.0,), eta=(0.0,), side="plus")
    sol = TrigSolution(math.pi**2, 0.0, 1.0)
    assert bc_functional(side, sol) == pytest.approx(0.0, abs=1e-14)


def test_bc_functional_half_u0_off_eigenvalue():
    side = BoundarySide(1.0, 0.0, alpha=(0.5,), beta=(0.0,), eta=(0.0,), side="plus")
    sol = TrigSolution(1.0, 0.0, 1.0)
    expected = math.sin(2.0) - 0.5 * math.sin(1.0)
    assert bc_functional(side, sol) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(0.4886, abs=5e-5)


def test_sup_norms_half_period_cosine():
    su, sp = sup_norms(TrigSolution(math.pi**2 / 4, 1.0, 0.0))
    assert su == pytest.approx(1.0, rel=1e-14)
    assert sp == pytest.approx(math.pi / 2, rel=1e-14)


def test_sup_norms_constant():
    su, sp = sup_norms(TrigSolution(0.0, 1.0, 0.0))
    assert su == 1.0 and sp == 0.0


def test_sup_norm_energy_identity_when_extremes_attained():
    # lam |u|_0^2 = |u'|_0^2 whenever both extremes are attained; a span of
    # at least half a period (2*sqrt(lam) >= pi) guarantees that for any A, B.
    rng = np.random.default_rng(11)
    for _ in range(200):
        lam = float(rng.uniform((math.pi / 2) ** 2, 60.0))
        A, B = rng.normal(size=2)
        su, sp = sup_norms(TrigSolution(lam, A, B))
        assert lam * su * su == pytest.approx(sp * sp, rel=1e-12)


def test_sup_norms_match_dense_sampling():
    rng = np.random.default_rng(12)
    xs = np.linspace(-1.0, 1.0, 20001)
    for _ in range(25):
        lam = float(rng.uniform(-5.0, 60.0))
        A, B = rng.normal(size=2)
        sol = TrigSolution(lam, A, B)
        vals = [eval_solution(sol, float(x)) for x in xs]
        su_num = max(abs(v[0]) for v in vals)
        sp_num = max(abs(v[1]) for v in vals)
        su, sp = sup_norms(sol)
        assert su >= su_num - 1e-12 and su == pytest.approx(su_num, rel=1e-6)
        assert sp >= sp_num - 1e-12 and sp == pytest.approx(sp_num, rel=1e-6)


def test_energy_profile_constant():
    rng = np.random.default_rng(13)
    for _ in range(50):
        lam = float(rng.uniform(0.1, 80.0))
        A, B = rng.normal(size=2)
        sol = TrigSolution(lam, A, B)
        ref = lam * A * A + B * B
        for x in np.linspace(-1.0, 1.0, 17):
            u, up = eval_solution(sol, float(x))
            assert lam * u * u + up * up == pytest.approx(ref, rel=1e-12)


def test_continuity_across_lambda_zero():
    for lam in (1e-8, -1e-8):
        for x in np.linspace(-1.0, 1.0, 9):
            u0, up0 = eval_solution(TrigSolution(0.0, 0.7, -0.3), float(x))
            u1, up1 = eval_solution(TrigSolution(lam, 0.7, -0.3), float(x))
            assert u1 == pytest.approx(u0, abs=1e-6)
            assert up1 == pytest.approx(up0, abs=1e-6)


def test_wronskian_identity():
    # c*s' - c'*s = 1 for the fundamental pair (A,B) = (1,0) and (0,1).
    rng = np.random.default_rng(14)
    for _ in range(100):
        lam = float(rng.uniform(-5.0, 90.0))
        x = float(rng.uniform(-1.0, 1.0))
        c, cp = eval_solution(TrigSolution(lam, 1.0, 0.0), x)
        s, sp = eval_solution(TrigSolution(lam, 0.0, 1.0), x)
        assert c * sp - cp * s == pytest.approx(1.0, abs=1e-12)
    # deeper hyperbolic range: cancellation grows like cosh^2, so only a
    # relative bound is meaningful
    for lam in (-10.0, -30.0, -60.0):
        c, cp = eval_solution(TrigSolution(lam, 1.0, 0.0), 0.9)
        s, sp = eval_solution(TrigSolution(lam, 0.0, 1.0), 0.9)
        assert c * sp - cp * s == pytest.approx(1.0, abs=1e-15 * c * c)


def test_normalized():
    sol = normalized(TrigSolution(3.7, 0.4, -2.2))
    su, _ = sup_norms(sol)
    assert su == pytest.approx(1.0, rel=1e-15)


def _per_term_rows(lam, term_lists, t):
    """The rows of ``_functional_rows`` from one ``_fundamental`` and one
    ``_fundamental_dlam`` call per term, summed in the same order."""
    rows = []
    for terms in term_lists:
        rc = rs = drc = drs = ic = is_ = 0.0
        for n, (a, b, x) in enumerate(terms):
            y = x + 1.0
            c, cp, s, sp = _fundamental(lam, y)
            dc, dcp, ds, dsp = _fundamental_dlam(lam, y, c, s)
            vc, vs = a * c + b * cp, a * s + b * sp
            w = t if n else 1.0
            rc -= w * vc
            rs -= w * vs
            drc -= w * (a * dc + b * dcp)
            drs -= w * (a * ds + b * dsp)
            if n:
                ic -= vc
                is_ -= vs
        rows.append((rc, rs, drc, drs, ic, is_))
    return rows


# lam on both sides of ZERO_LAMBDA_CUTOFF, and lam*y^2 on both sides of
# DS_SERIES_CUTOFF (y = x + 1 runs over [0, 2]), with whole scan magnitudes.
_LAMBDAS = st.one_of(
    st.floats(-3.0 * ZERO_LAMBDA_CUTOFF, 3.0 * ZERO_LAMBDA_CUTOFF),
    st.floats(-2.0 * DS_SERIES_CUTOFF, 2.0 * DS_SERIES_CUTOFF),
    st.floats(-25.0, 25.0),
    st.floats(0.0, 4e6),
    st.sampled_from([0.0, -0.0, ZERO_LAMBDA_CUTOFF, -ZERO_LAMBDA_CUTOFF, DS_SERIES_CUTOFF / 4.0]),
)
_TERM = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(lam=_LAMBDAS, t=st.floats(0.0, 1.0),
       term_lists=st.lists(st.lists(_TERM, min_size=1, max_size=4), min_size=1, max_size=2))
def test_functional_rows_are_the_per_term_rows_bit_for_bit(lam, t, term_lists):
    fused = _functional_rows(lam, term_lists, t)
    per_term = _per_term_rows(lam, term_lists, t)
    assert [[v.hex() for v in row] for row in fused] == [[v.hex() for v in row] for row in per_term]
