import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_spec
from mpsl.conditions import (
    _SEARCH_CAP,
    _leading_count,
    _max_index_leq,
    _min_index_geq,
    confirm_prediction,
    crossover_indices,
    predict_nodal_class,
)
from mpsl.errors import HypothesisError
from mpsl.problem import BoundarySide, ProblemSpec
from mpsl.reference import _separated_eigenvalue_cached


def test_thresholds_worked_example():
    side = BoundarySide(math.sqrt(2.0), 0.1 * math.sqrt(2.1), (1.0,), (0.1,), (0.0,), "plus")
    th = side
    # derivative-pinning holds below ((alpha0 - sum_alpha)/sum_beta)^2 = 17.157
    ud_max = ((math.sqrt(2.0) - 1.0) / 0.1) ** 2
    assert th.holds_ud(ud_max * (1.0 - 1e-12)) and not th.holds_ud(ud_max * (1.0 + 1e-12))
    assert th.holds_ud(17.1565) and not th.holds_ud(17.1575)
    # value-pinning kicks in above (sum_alpha/(|beta0| - sum_beta))^2
    u_min = (1.0 / (0.1 * math.sqrt(2.1) - 0.1)) ** 2
    assert not th.holds_u(u_min * (1.0 - 1e-12)) and th.holds_u(u_min * (1.0 + 1e-12))


def test_thresholds_dirichlet_type_side():
    th = BoundarySide(1.0, 0.0, (0.3,), (0.0,), (0.2,), "plus")
    assert th.J == math.inf
    # derivative-pinning holds at every lam, value-pinning at none
    lams = [0.0, 1e-300, 1.0, 1e6, 1e300]
    assert all(th.holds_ud(lam) for lam in lams)
    assert not any(th.holds_u(lam) for lam in lams)


def test_thresholds_no_gap_at_linear_level():
    # J = 1 with summed fractions < 1: both conditions hold at lam = J.
    th = BoundarySide(1.0, 1.0, (0.2,), (0.1,), (0.0,), "plus")
    assert th.J == 1.0
    assert th.holds_ud(1.0) and th.holds_u(1.0)
    assert th.holds_ud(0.5) and not th.holds_ud(100.0)
    assert th.holds_u(2.0) and not th.holds_u(1e-4)


def test_empty_ud_range():
    th = BoundarySide(0.5, 1.0, (0.6,), (0.1,), (0.0,), "plus")
    assert not any(th.holds_ud(lam) for lam in [0.0, 1e-300, 1.0, 1e6, 1e300])


def test_crossover_two_mp_example(two_mp_spec):
    idx = crossover_indices(two_mp_spec)
    assert (idx.J_minus, idx.J_plus) == (1.0, 4.0)
    assert (idx.J_min, idx.J_max) == (1.0, 4.0)
    assert idx.k_T == 0 and idx.k_S == 1
    assert idx.k_TM == 0 and idx.k_SM == 1
    assert idx.k_c is None  # two multi-point sides


def test_crossover_requires_linear_level():
    plus = BoundarySide(
        math.sqrt(2.0), 0.1 * math.sqrt(2.1), (1.0,), (0.1,), (0.0,), "plus"
    )
    spec = ProblemSpec(minus=BoundarySide(1.0, 0.0, side="minus"), plus=plus)
    assert spec.hypothesis_level == "quadratic"
    with pytest.raises(HypothesisError):
        crossover_indices(spec)


def test_k_c_examples():
    # single multi-point side at +1 with J+ = 1 <= lam_0^{RD} = lam_0^D -> k_c = -1
    spec = ProblemSpec(
        minus=BoundarySide(1.0, 0.0, side="minus"),
        plus=BoundarySide(1.0, 1.0, (0.2,), (0.1,), (0.0,), "plus"),
    )
    idx = crossover_indices(spec)
    assert idx.k_c == -1
    # Neumann-type plus side: J+ = 0 -> k_c = -1
    spec2 = ProblemSpec(
        minus=BoundarySide(1.0, 0.0, side="minus"),
        plus=BoundarySide(0.0, 1.0, (0.0,), (0.3,), (0.0,), "plus"),
    )
    assert crossover_indices(spec2).k_c == -1


def test_k_c_relationship_bounds():
    rng = np.random.default_rng(51)
    for _ in range(20):
        spec = random_spec(rng, level="linear")
        idx = crossover_indices(spec)
        if idx.k_T is not None and idx.k_TM is not None:
            assert idx.k_T - 1 <= idx.k_TM <= idx.k_T
        if idx.k_S is not None and idx.k_SM is not None:
            assert idx.k_S <= idx.k_SM <= idx.k_S + 1


def test_predict_dirichlet_type_all_T():
    spec = ProblemSpec(
        minus=BoundarySide(1.0, 0.0, (0.3,), (0.0,), (-0.2,), "minus"),
        plus=BoundarySide(1.0, 0.0, (0.5,), (0.0,), (0.0,), "plus"),
    )
    for k in range(8):
        p = predict_nodal_class(spec, k)
        assert p.family == "T" and p.class_index == k + 1
        assert p.theorem == "T-all"


def test_predict_neumann_type_all_S():
    spec = ProblemSpec(
        minus=BoundarySide(0.0, -1.0, (0.0,), (0.2,), (0.3,), "minus"),
        plus=BoundarySide(0.0, 1.0, (0.0,), (-0.1,), (0.2,), "plus"),
    )
    for k in range(8):
        p = predict_nodal_class(spec, k)
        assert p.family == "S" and p.class_index == k
        assert p.theorem == "S-all"


def test_predict_two_mp_example(two_mp_spec):
    p3 = predict_nodal_class(two_mp_spec, 3)
    assert p3.family == "S" and p3.class_index == 3
    assert p3.bracket == pytest.approx((math.pi**2, (2 * math.pi) ** 2), rel=1e-12)
    p1 = predict_nodal_class(two_mp_spec, 1)
    assert not p1.determinate
    p0 = predict_nodal_class(two_mp_spec, 0)
    assert p0.family == "T" and p0.class_index == 1


def test_predict_violated_is_indeterminate():
    spec = ProblemSpec(
        minus=BoundarySide(1.0, 1.0, side="minus"),
        plus=BoundarySide(1.0, 0.0, side="plus"),
    )
    p = predict_nodal_class(spec, 0)
    assert not p.determinate


def test_gap_anatomy_grows_as_eps_shrinks():
    # The worked family with squared fractions ~0.976: the pointwise
    # thresholds leave an index gap that grows without bound as eps -> 0.
    counts = []
    for eps in (0.1, 0.03, 0.01):
        plus = BoundarySide(
            math.sqrt(2.0), eps * math.sqrt(2.1), (1.0,), (eps,), (0.0,), "plus"
        )
        spec = ProblemSpec(minus=BoundarySide(1.0, 0.0, side="minus"), plus=plus)
        assert spec.hypothesis_level == "quadratic"
        n_indet = sum(
            1 for k in range(200) if not predict_nodal_class(spec, k).determinate
        )
        counts.append(n_indet)
    assert counts[0] < counts[1] < counts[2]
    assert all(0 < c < 200 for c in counts)


def test_single_mp_quadratic_has_T_and_S_ranges():
    eps = 0.1
    plus = BoundarySide(
        math.sqrt(2.0), eps * math.sqrt(2.1), (1.0,), (eps,), (0.0,), "plus"
    )
    spec = ProblemSpec(minus=BoundarySide(1.0, 0.0, side="minus"), plus=plus)
    fams = [predict_nodal_class(spec, k).family for k in range(60)]
    assert fams[0] == "T"
    assert fams[-1] == "S"
    # the family sequence is T..., None..., S...
    first_none = fams.index(None)
    first_S = fams.index("S")
    assert all(f == "T" for f in fams[:first_none])
    assert all(f == "S" for f in fams[first_S:])


def test_quadratic_level_predictions_confirmed_by_classifier():
    # The pointwise-threshold path (no summed-fraction hypothesis) must
    # still agree with the computed eigenfunctions.
    from mpsl.nodal import ClosedTrace, classify
    from mpsl.spectrum import continuation_spectrum

    eps = 0.1
    plus = BoundarySide(
        math.sqrt(2.0), eps * math.sqrt(2.1), (1.0,), (eps,), (0.0,), "plus"
    )
    spec = ProblemSpec(minus=BoundarySide(1.0, 0.0, side="minus"), plus=plus)
    assert spec.hypothesis_level == "quadratic"
    pairs = continuation_spectrum(spec, 18)
    by_k = {ep.k: ep for ep in pairs}
    checked = 0
    saw_redefined = False
    for k in range(19):
        p = predict_nodal_class(spec, k)
        if not p.determinate:
            continue
        ep = by_k[k]
        assert p.bracket_contains(ep.lam)
        assert confirm_prediction(p, ClosedTrace(ep.psi))
        saw_redefined = saw_redefined or p.redefined
        checked += 1
    assert checked >= 4
    # the Dirichlet single-point side pins u(-1), so the S verdicts hold in
    # the BC-restricted sense
    assert saw_redefined


def test_monotone_switchover():
    # As J sweeps 0 -> inf on a fixed interior family, the crossover
    # indices are nondecreasing.
    prev_T, prev_S = -1, -1
    for J in (0.25, 1.0, 4.0, 16.0, 64.0):
        b0 = 1.0 / math.sqrt(J)
        spec = ProblemSpec(
            minus=BoundarySide(1.0, -b0, (0.05,), (0.05 * b0,), (0.3,), "minus"),
            plus=BoundarySide(1.0, b0, (0.05,), (0.05 * b0,), (0.1,), "plus"),
        )
        assert spec.hypothesis_level == "linear"
        idx = crossover_indices(spec)
        assert idx.J_minus == pytest.approx(J, rel=1e-12)
        assert idx.k_T >= prev_T and idx.k_S >= prev_S
        prev_T, prev_S = idx.k_T, idx.k_S


def test_R_range_orientation_flag():
    # J+ < J-: standard orientation; J- < J+: mirrored.  J values 1 and 20
    # put two mixed reference eigenvalues strictly between them, so the
    # intermediate R range is nonempty.
    b = 1.0 / math.sqrt(20.0)
    spec_std = ProblemSpec(
        minus=BoundarySide(1.0, -b, (0.05,), (0.02 * b,), (0.5,), "minus"),  # J- = 20
        plus=BoundarySide(1.0, 1.0, (0.05,), (0.02,), (0.0,), "plus"),       # J+ = 1
    )
    assert spec_std.hypothesis_level == "linear"
    idx = crossover_indices(spec_std)
    assert idx.J_plus < idx.J_minus
    r_preds = [p for p in (predict_nodal_class(spec_std, k) for k in range(10)) if p.family == "R"]
    assert r_preds and all(not p.mirrored for p in r_preds)
    assert all(p.theorem == "R-intermediate" for p in r_preds)

    spec_mir = ProblemSpec(
        minus=BoundarySide(1.0, -1.0, (0.05,), (0.02,), (0.5,), "minus"),    # J- = 1
        plus=BoundarySide(1.0, b, (0.05,), (0.02 * b,), (0.0,), "plus"),     # J+ = 20
    )
    r_preds = [p for p in (predict_nodal_class(spec_mir, k) for k in range(10)) if p.family == "R"]
    assert r_preds and all(p.mirrored for p in r_preds)


def _linear_leading_count(pred) -> int:
    j = 0
    while j <= _SEARCH_CAP and pred(j):
        j += 1
    return j


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(min_value=-1, max_value=_SEARCH_CAP + 1))
@example(-1)
@example(0)
@example(1)
@example(2)
@example(_SEARCH_CAP - 1)
@example(_SEARCH_CAP)
@example(_SEARCH_CAP + 1)
def test_leading_count_matches_linear_walk(T):
    calls = []

    def pred(j):
        calls.append(j)
        return j <= T

    n = _leading_count(pred)
    assert n == _linear_leading_count(lambda j: j <= T)
    assert all(0 <= j <= _SEARCH_CAP for j in calls)
    assert len(calls) <= 2 * math.ceil(math.log2(_SEARCH_CAP)) + 2


def test_index_searches_raise_past_the_cap():
    with pytest.raises(HypothesisError):
        _max_index_leq(lambda k: 0.0, 1.0)
    with pytest.raises(HypothesisError):
        _min_index_geq(lambda k: 0.0, 1.0)
    assert _max_index_leq(lambda k: float(k), 0.5) == 0
    assert _max_index_leq(lambda k: float(k + 1), 0.5) == -1
    assert _min_index_geq(lambda k: float(k), 3.0) == 3


def test_predict_neumann_single_point_side_work():
    # u'(-1) = 0 facing an alpha-only side: the derivative-pinning threshold
    # holds for every lam, so the T range is found at the index cap.
    spec = ProblemSpec(
        minus=BoundarySide(0.0, -1.0, side="minus"),
        plus=BoundarySide(0.6, 0.0, (-0.2, -0.19), (0.0, 0.0), (0.31, -0.69), "plus"),
    )
    before = _separated_eigenvalue_cached.cache_info().currsize
    preds = [predict_nodal_class(spec, k) for k in range(11)]
    assert _separated_eigenvalue_cached.cache_info().currsize - before <= 200
    for k, p in enumerate(preds):
        assert (p.family, p.class_index, p.theorem) == ("T", k + 1, "T-below-crossover")
        assert p.redefined and p.redefined_end == -1.0
