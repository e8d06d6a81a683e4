"""Endpoint inequality machinery and nodal-class prediction.

Two pointwise conditions on a side with endpoint pair (alpha0, beta0) and
interior sums S_a = sum|alpha_i|, S_b = sum|beta_i| drive everything:

    derivative-pinning:  alpha0  > S_a + sqrt(lam) * S_b   =>  u'(nu) != 0
    value-pinning:       |beta0| > S_a / sqrt(lam) + S_b   =>  u(nu)  != 0

for any solution (lam, u), lam > 0, satisfying that side's condition.
(The value-pinning condition is stated with |beta0|: the minus-side sign
convention makes beta0 <= 0 there, and the underlying estimate only uses
its magnitude.)  ``BoundarySide.holds_ud`` and ``holds_u`` test them.

At the summed-fraction hypothesis level the two ranges meet at
J = (alpha0/beta0)^2 (``BoundarySide.J``): lam <= J gives derivative-
pinning, lam >= J gives value-pinning, so crossover indices against the
reference spectra split the index axis into a T range, an S range, an
intermediate R range, and a handful of boundary indices needing
strengthened pointwise checks.

The reference sequences strictly increase in k and both conditions are
monotone in lam, so every crossover or threshold index is the length of
the run of leading indices on which a predicate holds.  One doubling-then-
bisection search (``_leading_count``) finds each of them in
O(log _SEARCH_CAP) evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .errors import HypothesisError
from .problem import (
    LEVEL_LINEAR,
    LEVEL_QUADRATIC,
    BoundarySide,
    ProblemSpec,
    level_at_least,
)
from .reference import ReferenceKind, reference_eigenvalue

_SEARCH_CAP = 100000  # largest index an index search can return


@dataclass(frozen=True)
class CrossoverIndices:
    """Crossover indices of the prediction machinery.

    ``k_c`` applies to the single multi-point case (None for two multi-point
    sides); the N/D/M-based indices apply to the two multi-point case.
    Infinite searches are reported as None (e.g. k_S when J_max = inf).
    """

    J_minus: float
    J_plus: float
    J_min: float
    J_max: float
    k_c: int | None
    k_T: int | None
    k_S: int | None
    k_TM: int | None
    k_SM: int | None


def _leading_count(pred) -> int:
    """Number of leading j >= 0 with pred(j), for a down-set predicate.

    Only j <= _SEARCH_CAP are tested, so _SEARCH_CAP is the largest index an
    answer can have and a count of _SEARCH_CAP + 1 means that pred holds
    through the cap.  Doubling then bisection: O(log _SEARCH_CAP) calls.
    """
    if not pred(0):
        return 0
    lo, hi = 0, 1  # pred(lo) holds; pred(hi) fails or hi is past the cap
    while hi <= _SEARCH_CAP and pred(hi):
        lo, hi = hi, 2 * hi
    hi = min(hi, _SEARCH_CAP + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _capped_count(pred, what: str) -> int:
    """_leading_count that raises when pred holds through the index cap."""
    n = _leading_count(pred)
    if n > _SEARCH_CAP:
        raise HypothesisError(f"{what} search exceeded the index cap")
    return n


def _max_index_leq(value_fn, bound: float) -> int | None:
    """max{k >= -1 : value_fn(k) <= bound}, None when unbounded."""
    if math.isinf(bound):
        return None
    return _capped_count(lambda k: value_fn(k) <= bound, "crossover") - 1


def _min_index_geq(value_fn, bound: float) -> int | None:
    """min{k >= 0 : value_fn(k) >= bound}, None when no such k exists."""
    if math.isinf(bound):
        return None
    return _capped_count(lambda k: not value_fn(k) >= bound, "crossover")


# k -> lam_k of the Neumann, Dirichlet and mixed reference families.
_lam_n, _lam_d, _lam_m = (partial(reference_eigenvalue, ReferenceKind(tag))
                          for tag in ("neumann", "dirichlet", "mixed"))


def _ref_with_robin(single_side: BoundarySide, tag: str):
    """k -> lam_k of the reference family ``tag`` ('robin-dirichlet' or
    'robin-neumann') with the Robin data of the single-point side."""
    robin = {f"robin_{single_side.side}": (single_side.alpha0, single_side.beta0)}
    return partial(reference_eigenvalue, ReferenceKind(tag, **robin))


def crossover_indices(spec: ProblemSpec) -> CrossoverIndices:
    """Crossover indices; requires the summed-fraction hypothesis level."""
    if not level_at_least(spec.hypothesis_level, LEVEL_LINEAR):
        raise HypothesisError(
            "theorem hypotheses not met: crossover indices need the "
            "summed-fraction condition on both sides"
        )
    J_min = min(spec.minus.J, spec.plus.J)
    J_max = max(spec.minus.J, spec.plus.J)

    k_T = _max_index_leq(_lam_n, J_min)
    k_S = _min_index_geq(_lam_d, J_max)
    # k_TM may come out -1 when lam_0^M > J_min.
    k_TM = _max_index_leq(_lam_m, J_min)
    k_SM = _min_index_geq(_lam_m, J_max)

    k_c: int | None = None
    single = spec.single_point_side
    if single is not None:
        J_mp = (spec.minus if single is spec.plus else spec.plus).J
        if J_mp == 0.0:
            k_c = -1
        elif math.isinf(J_mp):
            k_c = None
        else:
            lam_rd = _ref_with_robin(single, "robin-dirichlet")
            # unique k >= -1 with lam_{k}^{RD} < J <= lam_{k+1}^{RD}
            k_c = _capped_count(lambda j: lam_rd(j) < J_mp, "k_c") - 1

    return CrossoverIndices(
        J_minus=spec.minus.J,
        J_plus=spec.plus.J,
        J_min=J_min,
        J_max=J_max,
        k_c=k_c,
        k_T=k_T,
        k_S=k_S,
        k_TM=k_TM,
        k_SM=k_SM,
    )


@dataclass(frozen=True)
class Prediction:
    """Dispatched nodal-class prediction for one eigenvalue index.

    ``family`` is 'T', 'S' or 'R' (None when indeterminate); the predicted
    class is family_{class_index} with either sign, and lam_k must lie in
    (bracket_lo, bracket_hi) — inclusive at 0 on the left, covering the
    Neumann-type ground state.  ``mirrored`` marks R predictions that apply
    to the reflected trace (the orientation with J^- < J^+).

    ``redefined`` marks verdicts that hold in the BC-restricted sense: a
    Dirichlet-type single-point side forces u = 0 at its endpoint (so the
    plain S data cannot hold there), a Neumann-type one forces u' = 0 (ditto
    for T).  ``redefined_end`` is that endpoint; confirm_prediction knows
    how to check the weakened membership.
    """

    k: int
    family: str | None
    class_index: int | None
    bracket: tuple[float, float] | None
    theorem: str
    reason: str = ""
    mirrored: bool = False
    redefined: bool = False
    redefined_end: float | None = None

    @property
    def determinate(self) -> bool:
        return self.family is not None

    def bracket_contains(self, lam: float) -> bool:
        """lam in the open bracket; a bracket from 0 admits lam down to -1e-9."""
        if self.bracket is None:
            return False
        lo, hi = self.bracket
        if lo == 0.0:
            return -1e-9 <= lam < hi
        return lo < lam < hi


def _indet(k: int, reason: str) -> Prediction:
    return Prediction(k, None, None, None, theorem="none", reason=reason)


def predict_nodal_class(spec: ProblemSpec, k: int) -> Prediction:
    """Dispatch the strongest applicable nodal theorem for index k.

    Order: pure-coefficient corollaries; single multi-point side machinery
    (pointwise thresholds at the Robin reference values, then crossover
    ranges and the strengthened crossover-pair tests at the summed level);
    two multi-point sides (crossover ranges, intermediate R range, and the
    strengthened boundary tests).  Indeterminate is a verdict, not an error.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not level_at_least(spec.hypothesis_level, LEVEL_QUADRATIC):
        return _indet(k, "hypotheses violated: no nodal theorem applies")

    # (i) pure-coefficient corollaries.
    if spec.minus.sum_beta == 0.0 and spec.plus.sum_beta == 0.0 and (
        spec.minus.alpha0 > 0.0 and spec.plus.alpha0 > 0.0
    ):
        return Prediction(k, "T", k + 1, (_lam_n(k), _lam_n(k + 2)), theorem="T-all")
    if spec.minus.sum_alpha == 0.0 and spec.plus.sum_alpha == 0.0 and (
        spec.minus.beta0 != 0.0 and spec.plus.beta0 != 0.0
    ):
        return Prediction(k, "S", k, (_lam_d(k - 2), _lam_d(k)), theorem="S-all")

    if spec.single_point_side is not None:
        return _predict_single_mp(spec, k)
    return _predict_two_mp(spec, k)


def _predict_single_mp(spec: ProblemSpec, k: int) -> Prediction:
    single = spec.single_point_side
    mp_side = spec.minus if single is spec.plus else spec.plus
    lam_rn = _ref_with_robin(single, "robin-neumann")
    lam_rd = _ref_with_robin(single, "robin-dirichlet")
    # A degenerate single-point side pins u or u' at its endpoint, so the
    # corresponding family holds only in the BC-restricted sense.
    t_redef = single.is_neumann_type
    s_redef = single.is_dirichlet_type

    def predict_T(theorem: str) -> Prediction:
        return Prediction(
            k, "T", k + 1, (lam_rn(k), lam_rn(k + 1)), theorem=theorem,
            redefined=t_redef, redefined_end=single.endpoint if t_redef else None,
        )

    def predict_S(theorem: str) -> Prediction:
        return Prediction(
            k, "S", k, (lam_rd(k - 1), lam_rd(k)), theorem=theorem,
            redefined=s_redef, redefined_end=single.endpoint if s_redef else None,
        )

    # Pointwise thresholds (valid at the squared-fraction level): the
    # derivative-pinning range is a down-set, the value-pinning range an
    # up-set, over the Robin reference sequences.  n_T - 1 is the last index
    # in the first; n_S the first index in the second, unless it lies past
    # the cap.
    n_T = _leading_count(lambda j: mp_side.holds_ud(lam_rn(j)))
    if k <= n_T - 2:
        return predict_T("T-below-crossover")
    n_S = _leading_count(lambda j: not mp_side.holds_u(lam_rd(j)))
    if n_S <= _SEARCH_CAP and (k >= n_S + 1 or n_S == 0):
        return predict_S("S-above-crossover")

    if not level_at_least(spec.hypothesis_level, LEVEL_LINEAR):
        return _indet(k, "in the pointwise-threshold gap (squared-fraction level only)")

    idx = crossover_indices(spec)
    k_c = idx.k_c
    if k_c is None:
        return _indet(k, "in the pointwise-threshold gap")
    if k_c == -1:
        return predict_S("S-all-from-crossover")
    if k <= k_c - 1:
        return predict_T("T-below-crossover")
    if k >= k_c + 2:
        return predict_S("S-above-crossover")

    # k is k_c or k_c + 1: the strengthened crossover-pair tests (with
    # lam_rn(k_c + 1) <= J, J <= lam_rd(k_c + 1) holds by definition).
    if (lam_rn(k_c + 1) <= mp_side.J or mp_side.holds_u(lam_rd(k_c))
            or mp_side.holds_ud(lam_rn(k_c + 1))):
        return predict_T("crossover-pair") if k == k_c else predict_S("crossover-pair")
    return _indet(k, "crossover-pair tests failed at the crossover indices")


def _predict_two_mp(spec: ProblemSpec, k: int) -> Prediction:
    if not level_at_least(spec.hypothesis_level, LEVEL_LINEAR):
        return _indet(k, "two multi-point sides need the summed-fraction level")
    idx = crossover_indices(spec)

    if idx.k_T is not None and k <= idx.k_T - 2:
        return Prediction(k, "T", k + 1, (_lam_n(k), _lam_n(k + 2)), theorem="T-range")
    if idx.k_S is not None and k >= idx.k_S + 2:
        return Prediction(k, "S", k, (_lam_d(k - 2), _lam_d(k)), theorem="S-range")

    both_finite = not math.isinf(idx.J_minus) and not math.isinf(idx.J_plus)
    if both_finite and idx.J_minus != idx.J_plus and idx.k_TM is not None and idx.k_SM is not None:
        if idx.k_TM + 1 <= k <= idx.k_SM - 1:
            return Prediction(
                k,
                "R",
                k,
                (_lam_m(k - 1), _lam_m(k + 1)),
                theorem="R-intermediate",
                mirrored=idx.J_minus < idx.J_plus,
            )

    # Strengthened boundary tests on the remaining indices.
    if idx.k_TM is not None and k <= idx.k_TM:
        lam0 = _lam_n(idx.k_TM + 2)
        if spec.minus.holds_ud(lam0) and spec.plus.holds_ud(lam0):
            return Prediction(k, "T", k + 1, (_lam_n(k), _lam_n(k + 2)), theorem="T-gap-strengthened")
    if idx.k_SM is not None and k >= idx.k_SM:
        lam0 = _lam_d(idx.k_SM - 2)
        if spec.minus.holds_u(lam0) and spec.plus.holds_u(lam0):
            return Prediction(k, "S", k, (_lam_d(k - 2), _lam_d(k)), theorem="S-gap-strengthened")
    return _indet(k, "between the T and S ranges; strengthened tests failed")


def confirm_prediction(pred: Prediction, trace) -> bool:
    """Does a computed eigenfunction trace confirm a determinate prediction?

    Plain verdicts are checked by literal family membership (R verdicts in
    the mirrored orientation classify the reflected trace).  Redefined
    verdicts weaken the family data at the BC-pinned endpoint: the pinned
    value must vanish there (simply), everything else — the other endpoint,
    zero counts, simplicity, interleaving — is checked as usual, with the
    pinned u'-zero of a Neumann end counted toward the T index.
    """
    from .nodal import DEFAULT_TOL, classify, interleaves, reflected_trace, zeros_of

    tol = DEFAULT_TOL
    if not pred.determinate:
        raise ValueError("cannot confirm an indeterminate prediction")
    if pred.family == "R" and pred.mirrored:
        trace = reflected_trace(trace)
    result = classify(trace, tol=tol)
    if result.has(pred.family, pred.class_index):
        return True
    if not pred.redefined:
        return False

    end = pred.redefined_end
    other = -end
    sup_u = trace.sup_u()
    sup_up = trace.sup_uprime()
    u_end, up_end = trace.eval(end)
    u_oth, up_oth = trace.eval(other)
    if pred.family == "S":
        if abs(u_end) > tol * sup_u:  # not actually pinned: nothing to weaken
            return False
        if abs(up_end) <= tol * sup_up or abs(u_oth) <= tol * sup_u:
            return False
        zeros = zeros_of(trace, "u", tol)
        return all(simple for _, simple in zeros) and len(zeros) == pred.class_index
    if pred.family == "T":
        if abs(up_end) > tol * sup_up:
            return False
        if abs(up_oth) <= tol * sup_up:
            return False
        zeros_up = zeros_of(trace, "uprime", tol)
        if not all(simple for _, simple in zeros_up):
            return False
        # the pinned endpoint zero of u' counts toward the index
        if len(zeros_up) != pred.class_index - 1:
            return False
        zeros_u = [x for x, _ in zeros_of(trace, "u", tol)]
        return interleaves(sorted([end] + [x for x, _ in zeros_up]), zeros_u)
    return False

