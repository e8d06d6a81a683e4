"""Correctness-check helpers and the acceptance suite's pinned tolerances."""

SCAN_VS_CONTINUATION = 1e-8  # relative, with the same absolute floor
BC_RESIDUAL = 1e-9
LINEAR_ENERGY = 1e-9
BVP_RESIDUAL = 1e-8  # of the per-side scale 1 + |alpha0|*|u|_0 + |beta0|*|u'|_0
NONLINEAR_ENERGY = 1e-6
EIGENLINE = 1e-8


class CheckFailed(Exception):
    """An op's output failed its correctness check."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def scaled_ok(residuals, scales) -> bool:
    return all(abs(r) <= BVP_RESIDUAL * s for r, s in zip(residuals, scales))
