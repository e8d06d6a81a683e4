import dataclasses
import math

import numpy as np
import pytest

from conftest import random_spec
from mpsl.errors import ProblemDataError
from mpsl.problem import (
    BoundarySide,
    ProblemSpec,
    problem_from_dict,
    scale_coefficients,
    validate_problem,
)


def _spec(minus, plus):
    return ProblemSpec(minus=minus, plus=plus)


def test_quadratic_but_not_linear_example():
    # alpha0+ = sqrt(2), sum|alpha+| = 1, beta0+ = 0.1*sqrt(2.1), sum|beta+| = 0.1:
    # squared fractions sum to ~0.976 < 1 but plain fractions to ~1.397 >= 1.
    plus = BoundarySide(
        math.sqrt(2.0), 0.1 * math.sqrt(2.1), (1.0,), (0.1,), (0.0,), "plus"
    )
    minus = BoundarySide(1.0, 0.0, side="minus")
    report = validate_problem(_spec(minus, plus))
    assert report.ok
    assert report.level == "quadratic"
    assert report.quadratic_ok and not report.linear_ok


def test_trivial_single_point_dirichlet_is_both_levels():
    spec = _spec(
        BoundarySide(1.0, 0.0, side="minus"), BoundarySide(1.0, 0.0, side="plus")
    )
    report = validate_problem(spec)
    assert report.quadratic_ok and report.linear_ok
    assert report.level == "linear"
    assert report.side_types == {"minus": "dirichlet-type", "plus": "dirichlet-type"}
    assert report.problem_type == "dirichlet-type"


def test_plain_linear_level_example():
    plus = BoundarySide(1.0, 1.0, (0.2,), (0.1,), (0.0,), "plus")
    minus = BoundarySide(1.0, -1.0, side="minus")
    report = validate_problem(_spec(minus, plus))
    assert report.level == "linear"


def test_nan_coefficient_raises():
    spec = _spec(
        BoundarySide(1.0, 0.0, side="minus"),
        BoundarySide(float("nan"), 0.0, side="plus"),
    )
    with pytest.raises(ProblemDataError):
        validate_problem(spec)


def test_eta_out_of_range_raises():
    spec = _spec(
        BoundarySide(1.0, 0.0, side="minus"),
        BoundarySide(1.0, 0.0, (0.5,), (0.0,), (1.5,), "plus"),
    )
    with pytest.raises(ProblemDataError):
        validate_problem(spec)


def test_eta_at_own_endpoint_raises():
    spec = _spec(
        BoundarySide(1.0, 0.0, side="minus"),
        BoundarySide(1.0, 0.0, (0.5,), (0.0,), (1.0,), "plus"),
    )
    with pytest.raises(ProblemDataError):
        validate_problem(spec)
    # the opposite endpoint is allowed
    ok = _spec(
        BoundarySide(1.0, 0.0, side="minus"),
        BoundarySide(1.0, 0.0, (0.5,), (0.0,), (-1.0,), "plus"),
    )
    validate_problem(ok)


def test_zero_denominator_convention_violation():
    spec = _spec(
        BoundarySide(0.0, -1.0, (0.5,), (0.0,), (0.0,), "minus"),
        BoundarySide(1.0, 0.0, side="plus"),
    )
    with pytest.raises(ProblemDataError, match="convention"):
        validate_problem(spec)


def test_sign_hypothesis_violation_reported_not_raised():
    spec = _spec(
        BoundarySide(1.0, 1.0, side="minus"),  # beta0- must be <= 0
        BoundarySide(1.0, 0.0, side="plus"),
    )
    report = validate_problem(spec)
    assert not report.ok
    assert report.level == "violated"
    assert any("sign" in t for _, t in report.messages)


def test_mismatched_lengths_raise():
    with pytest.raises(ProblemDataError):
        BoundarySide(1.0, 0.0, (0.5, 0.1), (0.0,), (0.0,), "plus")


def test_interior_cap():
    with pytest.raises(ProblemDataError):
        BoundarySide(1.0, 0.0, (0.0,) * 65, (0.0,) * 65, (0.0,) * 65, "plus")


def test_scale_coefficients_endpoints_and_identity(two_mp_spec):
    s0 = scale_coefficients(two_mp_spec, 0.0)
    assert s0.minus.sum_alpha == 0.0 and s0.plus.sum_beta == 0.0
    s1 = scale_coefficients(two_mp_spec, 1.0)
    assert s1 == two_mp_spec
    with pytest.raises(ValueError):
        scale_coefficients(two_mp_spec, 1.5)


def test_scaling_halves_interior_vectors(two_mp_spec):
    s = scale_coefficients(two_mp_spec, 0.5)
    assert s.plus.alpha == (0.1,)
    assert s.minus.beta == (0.05,)
    assert s.plus.alpha0 == two_mp_spec.plus.alpha0


def test_level_never_weakens_as_t_decreases():
    rng = np.random.default_rng(21)
    strength = {"violated": 0, "quadratic": 1, "linear": 2}
    for _ in range(20):
        spec = random_spec(rng)
        prev = strength[validate_problem(spec).level]
        for t in (0.8, 0.5, 0.2, 0.0):
            level = strength[validate_problem(scale_coefficients(spec, t)).level]
            assert level >= prev
            prev = level


def test_validation_is_pure(two_mp_spec):
    r1 = validate_problem(two_mp_spec)
    r2 = validate_problem(two_mp_spec)
    assert r1 == r2


def test_problem_from_dict_roundtrip_and_unknown_keys():
    data = {
        "minus": {"alpha0": 1.0, "beta0": 0.0, "alpha": [], "beta": [], "eta": []},
        "plus": {"alpha0": 1.0, "beta0": 0.0, "alpha": [0.5], "beta": [0.0], "eta": [0.0]},
    }
    spec, extras = problem_from_dict(data)
    assert spec.plus.alpha == (0.5,)
    assert extras == {}
    with pytest.raises(ProblemDataError):
        problem_from_dict({**data, "bogus": 1})
    with pytest.raises(ProblemDataError):
        problem_from_dict({"minus": {**data["minus"], "gamma": 2.0}, "plus": data["plus"]})


def test_strict_alpha_positive_flag():
    neumann = _spec(
        BoundarySide(0.0, -1.0, side="minus"), BoundarySide(0.0, 1.0, side="plus")
    )
    assert not validate_problem(neumann).strict_alpha_positive
    assert validate_problem(neumann).problem_type == "neumann-type"


def test_cached_data_belong_to_their_instance():
    plus = BoundarySide(1.0, 1.0, (0.6,), (-0.6,), (0.0,), "plus")
    spec = _spec(BoundarySide(1.0, 0.0, side="minus"), plus)
    # fractions 0.6 + 0.6: squared 0.72 < 1, summed 1.2 >= 1
    assert spec.hypothesis_level == "quadratic"
    assert (plus.sum_alpha, plus.sum_beta, plus.J) == (0.6, 0.6, 1.0)
    strength = {"violated": 0, "quadratic": 1, "linear": 2}
    prev = strength[spec.hypothesis_level]
    for t in (0.8, 0.4, 0.0):
        scaled = scale_coefficients(spec, t)
        assert strength[scaled.hypothesis_level] >= prev
        prev = strength[scaled.hypothesis_level]
        assert (scaled.plus.sum_alpha, scaled.plus.sum_beta) == (t * 0.6, t * 0.6)
        assert scaled.plus.J == 1.0
    assert scale_coefficients(spec, 0.4).hypothesis_level == "linear"
    # fractions 0.9 + 0.45 squared to 1.0125: violated
    wider = dataclasses.replace(plus, beta0=2.0, alpha=(0.9,), beta=(0.9,))
    assert (wider.sum_alpha, wider.sum_beta, wider.J) == (0.9, 0.9, 0.25)
    assert dataclasses.replace(spec, plus=wider).hypothesis_level == "violated"
    assert (plus.sum_alpha, plus.sum_beta, plus.J, spec.hypothesis_level) == (0.6, 0.6, 1.0, "quadratic")


def test_overflowing_coefficient_sum_saturates():
    side = BoundarySide(1e308, 0.0, (1e308, 1e308), (0.0, 0.0), (0.0, 0.5), "plus")
    assert side.sum_alpha == math.inf and side.J == math.inf
    assert _spec(BoundarySide(1.0, 0.0, side="minus"), side).hypothesis_level == "violated"


def test_single_point_side(half_u0_spec, two_mp_spec):
    dirichlet = _spec(BoundarySide(1.0, 0.0, side="minus"), BoundarySide(1.0, 0.0, (0.0,), (0.0,), (0.0,), "plus"))
    assert dirichlet.single_point_side is None  # no multi-point side
    assert half_u0_spec.single_point_side is half_u0_spec.minus
    mirrored = _spec(BoundarySide(1.0, -1.0, (0.0,), (0.5,), (0.0,), "minus"), BoundarySide(1.0, 1.0, side="plus"))
    assert mirrored.single_point_side is mirrored.plus
    assert two_mp_spec.single_point_side is None  # two multi-point sides


def test_pinning_conditions_need_a_nonnegative_lambda():
    side = BoundarySide(1.0, 1.0, (0.2,), (0.1,), (0.0,), "plus")
    for holds in (side.holds_ud, side.holds_u):
        with pytest.raises(ValueError):
            holds(-1e-300)
