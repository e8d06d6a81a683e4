"""The tests' oracle for zeros of sampled traces: the per-cell cubic Hermite
zero finder that ``nodal`` used before its zeros came from Bernstein
coefficients.  It reads only a trace's samples x, u and u', so on an
integrated trace it finds the zeros of the Hermite interpolant of its GRID
samples, not of its DOP853 steps.  It shares no code with
``nodal._bernstein_zeros`` but ``reference._bracketed_root``."""

import math

import numpy as np

from mpsl.errors import UnresolvableZeros
from mpsl.nodal import CLUSTER_TOL, DEFAULT_TOL, ENDPOINT_GUARD
from mpsl.reference import _bracketed_root


def cells(x, u, up):
    """(a, b, c, d, h) of every cell: the cubic u = a s^3 + b s^2 + c s + d
    on s in [0, 1] and the cell width."""
    h = x[1:] - x[:-1]
    u0, u1 = u[:-1], u[1:]
    p0, p1 = h * up[:-1], h * up[1:]
    a = 2.0 * u0 + p0 - 2.0 * u1 + p1
    b = -3.0 * u0 - 2.0 * p0 + 3.0 * u1 - p1
    return a, b, p0, u0, h


def sup_usecond(x, u, up):
    """Estimated |u''|_0: the largest of H''(0)/h^2 and H''(1)/h^2 over the cells."""
    a, b, _, _, h = cells(x, u, up)
    return float((np.maximum(np.abs(2.0 * b), np.abs(6.0 * a + 2.0 * b)) / (h * h)).max())


def hermite_zeros(x, u, up, which):
    """Real roots of the per-cell interpolant of u (the cubic) or of u' (its
    derivative quadratic).  A node whose sample is exactly 0 is a root unless
    the channel's polynomial vanishes identically on both its cells.
    Candidate cells have a sign change or a sample within 1.5 widths times a
    slope bound (|u'|_0 for u, ``sup_usecond`` for u') of 0; each
    candidate's polynomial is split at its critical points in (0, 1), a
    piece whose end values (the node samples at s = 0 and 1) differ in sign
    holds one root, and a critical point c where 0 <= 2 p(c)/p''(c) <= 1e-18
    touches zero."""
    a, b, c, d, h = cells(x, u, up)
    vals = u if which == "u" else up
    bound = float(np.abs(up).max()) if which == "u" else sup_usecond(x, u, up)
    v0, v1 = vals[:-1], vals[1:]
    reach = h * bound * 1.5 + 1e-300
    candidates = np.flatnonzero((v0 * v1 < 0.0) | (np.minimum(np.abs(v0), np.abs(v1)) <= reach))

    def flat(i):
        return not 0 <= i < len(h) or not (a[i] or b[i] or c[i] or (which == "u" and d[i]))

    zeros = [float(x[j]) for j in np.flatnonzero(vals == 0.0).tolist() if not (flat(j - 1) and flat(j))]
    for i in candidates.tolist():
        x0, h0, f0, f1 = float(x[i]), float(h[i]), float(v0[i]), float(v1[i])
        a0, b0, c0, d0 = float(a[i]), float(b[i]), float(c[i]), float(d[i])
        p3, p2, p1, p0 = (a0, b0, c0, d0) if which == "u" else (0.0, 3.0 * a0, 2.0 * b0, c0)

        def p(s, p3=p3, p2=p2, p1=p1, p0=p0):
            return ((p3 * s + p2) * s + p1) * s + p0, (3.0 * p3 * s + 2.0 * p2) * s + p1

        disc = p2 * p2 - 3.0 * p3 * p1
        q = -(p2 + math.copysign(math.sqrt(disc), p2)) if disc >= 0.0 else math.nan
        crit = sorted(s for s in (q / (3.0 * p3) if p3 else -1.0, p1 / q if q else -1.0) if 0.0 < s < 1.0)
        ends = [(0.0, f0)] + [(s, p(s)[0]) for s in crit] + [(1.0, f1)]
        zeros += [x0 + _bracketed_root(p, lo, hi, g_lo) * h0
                  for (lo, g_lo), (hi, g_hi) in zip(ends, ends[1:]) if g_lo < 0.0 < g_hi or g_hi < 0.0 < g_lo]
        zeros += [x0 + s * h0 for s, g in ends[1:-1]
                  if g == 0.0 or 0.0 <= 2.0 * g / (6.0 * p3 * s + 2.0 * p2 or math.nan) <= 1e-18]
    merged = []
    for z in sorted(zeros):
        if not (merged and z - merged[-1] < 1e-10):
            merged.append(z)
    return [z for z in merged if -1.0 + ENDPOINT_GUARD < z < 1.0 - ENDPOINT_GUARD]


def zeros_of(trace, which="u", tol=DEFAULT_TOL):
    """``nodal.zeros_of`` on a sampled trace as the Hermite finder gave it: a
    zero of u is simple iff the cubic's |u'| > tol*|u'|_0 there (on an
    integrated trace that finder read u' from the step instead, which moves
    no flag off its threshold in practice), a zero of u' iff the cubic's
    |u''| > tol * ``sup_usecond``."""
    x, u, up = (np.asarray(v, dtype=float) for v in (trace.x, trace.u, trace.up))
    xs = hermite_zeros(x, u, up, which)
    for za, zb in zip(xs, xs[1:]):
        if zb - za < CLUSTER_TOL:
            raise UnresolvableZeros(f"zeros of {which} at {za:.12g} and {zb:.12g} are unresolvably close")
    a, b, _, _, h = cells(x, u, up)
    bound = float(np.abs(up).max()) if which == "u" else sup_usecond(x, u, up)

    def slope(z):
        i = min(max(int(x.searchsorted(z, side="right")) - 1, 0), len(x) - 2)
        s = (z - x[i]) / h[i]
        if which == "u":
            return (((3.0 * a[i] * s + 2.0 * b[i]) * s + h[i] * up[i]) / h[i])
        return (6.0 * a[i] * s + 2.0 * b[i]) / (h[i] * h[i])

    return [(z, bool(abs(slope(z)) > tol * bound)) for z in xs]
