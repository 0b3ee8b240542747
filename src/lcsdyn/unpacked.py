"""The conformal fields of one and two degrees of freedom, on unpacked floats.

For n = 1 and n = 2, :func:`continuous.make_lcshe_field` and
:func:`continuous.make_lcel_field` take the field's kernel and RK4 stepper
from here.  The kernel takes the 2n state components as separate floats and
returns the 2n rates, its dot products and the rows of ``hess_vq @ v``
written out as ``numerics._dot`` forms them (``0.0 + a0 b0 + a1 b1``, in
that order, no fused operation), testing the chart box inline and reading
phi, a declared constant Lee form, or else ``lee(q)``.  The stepper (the
``run`` of ``continuous._kernel_field``) writes the kernel's arithmetic out
inline, one jet call a stage, with the constant data as closure floats; a
stage outside the chart, or on data that vary, calls the kernel instead.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .atlas import ConformalAtlas
from .errors import DomainError, RegularityError
from .numerics import _screened_det, _solver

if TYPE_CHECKING:
    from .continuous import ContinuousHamiltonian, ContinuousLagrangian


def hamilton(H: ContinuousHamiltonian, atlas: ConformalAtlas, chart: int) -> tuple:
    """``(kernel, run)`` of the conformal Hamilton field of H (n = 1 or 2) on a
    chart of its dimension; the stepper holds a constant Lee form as closure
    floats."""
    n, jet, ch = H.n, H.jet, atlas.chart(chart)
    (lo, hi), phi, lee = ch._bounds, ch._lee, ch._floats[1]
    varies = phi is None
    if n == 1:
        (lo,), (hi,) = lo, hi

        def scalar_rates(q: float, p: float) -> tuple:
            if not lo <= q <= hi:
                atlas.require_inside(chart, np.array([q]))
            hval, g, qd = jet(q, p)
            (f,) = phi or lee([q])
            # numpy rounds a one-element dot like 0.0 + a*b
            s_p, s_phi = 0.0 + p * qd, 0.0 + f * qd
            return qd, -g - (f * s_p - p * s_phi) + hval * f

        if not varies:  # the stepper's closure float, read only then
            (f,) = phi

        def run(x: list, h: float, steps: int, flat) -> tuple:
            (q, p), half, sixth = x, 0.5 * h, h / 6.0
            try:
                for k in range(steps):
                    if varies or not lo <= q <= hi:
                        u1, w1 = scalar_rates(q, p)
                    else:
                        hval, g, u1 = jet(q, p)
                        w1 = -g - (f * (0.0 + p * u1) - p * (0.0 + f * u1)) + hval * f
                    Q, P = q + half * u1, p + half * w1
                    if varies or not lo <= Q <= hi:
                        u2, w2 = scalar_rates(Q, P)
                    else:
                        hval, g, u2 = jet(Q, P)
                        w2 = -g - (f * (0.0 + P * u2) - P * (0.0 + f * u2)) + hval * f
                    Q, P = q + half * u2, p + half * w2
                    if varies or not lo <= Q <= hi:
                        u3, w3 = scalar_rates(Q, P)
                    else:
                        hval, g, u3 = jet(Q, P)
                        w3 = -g - (f * (0.0 + P * u3) - P * (0.0 + f * u3)) + hval * f
                    Q, P = q + h * u3, p + h * w3
                    if varies or not lo <= Q <= hi:
                        u4, w4 = scalar_rates(Q, P)
                    else:
                        hval, g, u4 = jet(Q, P)
                        w4 = -g - (f * (0.0 + P * u4) - P * (0.0 + f * u4)) + hval * f
                    q = q + sixth * (((u1 + 2.0 * u2) + 2.0 * u3) + u4)
                    p = p + sixth * (((w1 + 2.0 * w2) + 2.0 * w3) + w4)
                    if not (math.isfinite(q) and math.isfinite(p)):
                        return k, None
                    flat[2 * k + 2], flat[2 * k + 3] = q, p
            except DomainError as error:
                return k, error
            return steps, None

        return scalar_rates, run

    (lo0, lo1), (hi0, hi1) = lo, hi

    def planar_rates(q0: float, q1: float, p0: float, p1: float) -> tuple:
        if not (lo0 <= q0 <= hi0 and lo1 <= q1 <= hi1):
            atlas.require_inside(chart, np.array([q0, q1]))
        hval, g0, g1, d0, d1 = jet(q0, q1, p0, p1)
        f0, f1 = phi or lee([q0, q1])
        s_p, s_phi = 0.0 + p0 * d0 + p1 * d1, 0.0 + f0 * d0 + f1 * d1
        return (d0, d1, -g0 - (f0 * s_p - p0 * s_phi) + hval * f0,
                -g1 - (f1 * s_p - p1 * s_phi) + hval * f1)

    if not varies:  # the stepper's closure floats, read only then
        f0, f1 = phi

    def run(x: list, h: float, steps: int, flat) -> tuple:
        (q0, q1, p0, p1), half, sixth = x, 0.5 * h, h / 6.0
        try:
            for k in range(steps):
                if varies or not (lo0 <= q0 <= hi0 and lo1 <= q1 <= hi1):
                    c1, d1, a1, b1 = planar_rates(q0, q1, p0, p1)
                else:
                    hval, g0, g1, c1, d1 = jet(q0, q1, p0, p1)
                    s_p, s_phi = 0.0 + p0 * c1 + p1 * d1, 0.0 + f0 * c1 + f1 * d1
                    a1 = -g0 - (f0 * s_p - p0 * s_phi) + hval * f0
                    b1 = -g1 - (f1 * s_p - p1 * s_phi) + hval * f1
                Q0, Q1, P0, P1 = q0 + half * c1, q1 + half * d1, p0 + half * a1, p1 + half * b1
                if varies or not (lo0 <= Q0 <= hi0 and lo1 <= Q1 <= hi1):
                    c2, d2, a2, b2 = planar_rates(Q0, Q1, P0, P1)
                else:
                    hval, g0, g1, c2, d2 = jet(Q0, Q1, P0, P1)
                    s_p, s_phi = 0.0 + P0 * c2 + P1 * d2, 0.0 + f0 * c2 + f1 * d2
                    a2 = -g0 - (f0 * s_p - P0 * s_phi) + hval * f0
                    b2 = -g1 - (f1 * s_p - P1 * s_phi) + hval * f1
                Q0, Q1, P0, P1 = q0 + half * c2, q1 + half * d2, p0 + half * a2, p1 + half * b2
                if varies or not (lo0 <= Q0 <= hi0 and lo1 <= Q1 <= hi1):
                    c3, d3, a3, b3 = planar_rates(Q0, Q1, P0, P1)
                else:
                    hval, g0, g1, c3, d3 = jet(Q0, Q1, P0, P1)
                    s_p, s_phi = 0.0 + P0 * c3 + P1 * d3, 0.0 + f0 * c3 + f1 * d3
                    a3 = -g0 - (f0 * s_p - P0 * s_phi) + hval * f0
                    b3 = -g1 - (f1 * s_p - P1 * s_phi) + hval * f1
                Q0, Q1, P0, P1 = q0 + h * c3, q1 + h * d3, p0 + h * a3, p1 + h * b3
                if varies or not (lo0 <= Q0 <= hi0 and lo1 <= Q1 <= hi1):
                    c4, d4, a4, b4 = planar_rates(Q0, Q1, P0, P1)
                else:
                    hval, g0, g1, c4, d4 = jet(Q0, Q1, P0, P1)
                    s_p, s_phi = 0.0 + P0 * c4 + P1 * d4, 0.0 + f0 * c4 + f1 * d4
                    a4 = -g0 - (f0 * s_p - P0 * s_phi) + hval * f0
                    b4 = -g1 - (f1 * s_p - P1 * s_phi) + hval * f1
                q0 = q0 + sixth * (((c1 + 2.0 * c2) + 2.0 * c3) + c4)
                q1 = q1 + sixth * (((d1 + 2.0 * d2) + 2.0 * d3) + d4)
                p0 = p0 + sixth * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
                p1 = p1 + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                if not (math.isfinite(q0) and math.isfinite(q1)
                        and math.isfinite(p0) and math.isfinite(p1)):
                    return k, None
                i = 4 * k + 4
                flat[i], flat[i + 1], flat[i + 2], flat[i + 3] = q0, q1, p0, p1
        except DomainError as error:
            return k, error
        return steps, None

    return planar_rates, run


def euler_lagrange(L: ContinuousLagrangian, atlas: ConformalAtlas, chart: int) -> tuple:
    """``(kernel, run)`` of the conformal Euler-Lagrange field of L (n = 1 or 2)
    on a chart of its dimension.  The acceleration is one division when n = 1
    (a zero mass raises :class:`RegularityError`) and ``numerics._solver``'s
    when n = 2.  The stepper holds declared Hessians as closure floats when
    the mass is nonzero, or the 2x2 ``hess_vv`` passes the solver's screen,
    whose entries and determinant it applies as Cramer's rule."""
    n, jet, hessians, ch = L.n, L.jet, L.hessians, atlas.chart(chart)
    (lo, hi), phi, lee = ch._bounds, ch._lee, ch._floats[1]
    if n == 1:
        (lo,), (hi,) = lo, hi
        mb = None if hessians is None else (hessians[1].item(0), hessians[2].item(0))

        def scalar_rates(q: float, v: float) -> tuple:
            if not lo <= q <= hi:
                atlas.require_inside(chart, np.array([q]))
            lval, g, c, M, hvq = jet(q, v)
            (f,) = phi or lee([q])
            m, b = mb or (M.item(0), hvq.item(0))
            if m == 0.0:
                raise RegularityError("singular 1x1 velocity Hessian",
                                      condition=float("inf"))
            # one-element dot and matmul round like 0.0 + a*b
            return v, (g - (0.0 + b * v) + (0.0 + f * v) * c - lval * f) / m

        varies = phi is None or mb is None or mb[0] == 0.0
        if not varies:  # the stepper's closure floats, read only then
            (f,), (m, b) = phi, mb

        def run(x: list, h: float, steps: int, flat) -> tuple:
            (q, v), half, sixth = x, 0.5 * h, h / 6.0
            try:
                for k in range(steps):
                    if varies or not lo <= q <= hi:
                        _, a1 = scalar_rates(q, v)
                    else:
                        lval, g, c, _, _ = jet(q, v)
                        a1 = (g - (0.0 + b * v) + (0.0 + f * v) * c - lval * f) / m
                    Q, v2 = q + half * v, v + half * a1
                    if varies or not lo <= Q <= hi:
                        _, a2 = scalar_rates(Q, v2)
                    else:
                        lval, g, c, _, _ = jet(Q, v2)
                        a2 = (g - (0.0 + b * v2) + (0.0 + f * v2) * c - lval * f) / m
                    Q, v3 = q + half * v2, v + half * a2
                    if varies or not lo <= Q <= hi:
                        _, a3 = scalar_rates(Q, v3)
                    else:
                        lval, g, c, _, _ = jet(Q, v3)
                        a3 = (g - (0.0 + b * v3) + (0.0 + f * v3) * c - lval * f) / m
                    Q, v4 = q + h * v3, v + h * a3
                    if varies or not lo <= Q <= hi:
                        _, a4 = scalar_rates(Q, v4)
                    else:
                        lval, g, c, _, _ = jet(Q, v4)
                        a4 = (g - (0.0 + b * v4) + (0.0 + f * v4) * c - lval * f) / m
                    q = q + sixth * (((v + 2.0 * v2) + 2.0 * v3) + v4)
                    v = v + sixth * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
                    if not (math.isfinite(q) and math.isfinite(v)):
                        return k, None
                    flat[2 * k + 2], flat[2 * k + 3] = q, v
            except DomainError as error:
                return k, error
            return steps, None

        return scalar_rates, run

    SB = None if hessians is None else (_solver(hessians[1].tolist(), 1e12),
                                        hessians[2].tolist())
    (lo0, lo1), (hi0, hi1) = lo, hi
    det = None if SB is None else _screened_det(hessians[1].tolist(), 1e12)
    varies = phi is None or det is None
    if not varies:  # the stepper's closure floats, read only then
        (f0, f1), ((vq00, vq01), (vq10, vq11)) = phi, SB[1]
        (m00, m01), (m10, m11) = hessians[1].tolist()

    def planar_rates(q0: float, q1: float, v0: float, v1: float) -> list:
        if not (lo0 <= q0 <= hi0 and lo1 <= q1 <= hi1):
            atlas.require_inside(chart, np.array([q0, q1]))
        lval, g0, g1, c0, c1, M, hvq = jet(q0, q1, v0, v1)
        f0, f1 = phi or lee([q0, q1])
        solve, ((b00, b01), (b10, b11)) = SB or (_solver(M.tolist(), 1e12), hvq.tolist())
        s = 0.0 + f0 * v0 + f1 * v1
        return [v0, v1, *solve([g0 - (0.0 + b00 * v0 + b01 * v1) + s * c0 - lval * f0,
                                g1 - (0.0 + b10 * v0 + b11 * v1) + s * c1 - lval * f1])]

    def run(x: list, h: float, steps: int, flat) -> tuple:
        (q0, q1, v0, v1), half, sixth = x, 0.5 * h, h / 6.0
        try:
            for k in range(steps):
                if varies or not (lo0 <= q0 <= hi0 and lo1 <= q1 <= hi1):
                    _, _, a1, b1 = planar_rates(q0, q1, v0, v1)
                else:
                    lval, g0, g1, c0, c1, _, _ = jet(q0, q1, v0, v1)
                    s = 0.0 + f0 * v0 + f1 * v1
                    r0 = g0 - (0.0 + vq00 * v0 + vq01 * v1) + s * c0 - lval * f0
                    r1 = g1 - (0.0 + vq10 * v0 + vq11 * v1) + s * c1 - lval * f1
                    a1, b1 = (m11 * r0 - m01 * r1) / det, (m00 * r1 - m10 * r0) / det
                Q0, Q1, u2, w2 = q0 + half * v0, q1 + half * v1, v0 + half * a1, v1 + half * b1
                if varies or not (lo0 <= Q0 <= hi0 and lo1 <= Q1 <= hi1):
                    _, _, a2, b2 = planar_rates(Q0, Q1, u2, w2)
                else:
                    lval, g0, g1, c0, c1, _, _ = jet(Q0, Q1, u2, w2)
                    s = 0.0 + f0 * u2 + f1 * w2
                    r0 = g0 - (0.0 + vq00 * u2 + vq01 * w2) + s * c0 - lval * f0
                    r1 = g1 - (0.0 + vq10 * u2 + vq11 * w2) + s * c1 - lval * f1
                    a2, b2 = (m11 * r0 - m01 * r1) / det, (m00 * r1 - m10 * r0) / det
                Q0, Q1, u3, w3 = q0 + half * u2, q1 + half * w2, v0 + half * a2, v1 + half * b2
                if varies or not (lo0 <= Q0 <= hi0 and lo1 <= Q1 <= hi1):
                    _, _, a3, b3 = planar_rates(Q0, Q1, u3, w3)
                else:
                    lval, g0, g1, c0, c1, _, _ = jet(Q0, Q1, u3, w3)
                    s = 0.0 + f0 * u3 + f1 * w3
                    r0 = g0 - (0.0 + vq00 * u3 + vq01 * w3) + s * c0 - lval * f0
                    r1 = g1 - (0.0 + vq10 * u3 + vq11 * w3) + s * c1 - lval * f1
                    a3, b3 = (m11 * r0 - m01 * r1) / det, (m00 * r1 - m10 * r0) / det
                Q0, Q1, u4, w4 = q0 + h * u3, q1 + h * w3, v0 + h * a3, v1 + h * b3
                if varies or not (lo0 <= Q0 <= hi0 and lo1 <= Q1 <= hi1):
                    _, _, a4, b4 = planar_rates(Q0, Q1, u4, w4)
                else:
                    lval, g0, g1, c0, c1, _, _ = jet(Q0, Q1, u4, w4)
                    s = 0.0 + f0 * u4 + f1 * w4
                    r0 = g0 - (0.0 + vq00 * u4 + vq01 * w4) + s * c0 - lval * f0
                    r1 = g1 - (0.0 + vq10 * u4 + vq11 * w4) + s * c1 - lval * f1
                    a4, b4 = (m11 * r0 - m01 * r1) / det, (m00 * r1 - m10 * r0) / det
                q0 = q0 + sixth * (((v0 + 2.0 * u2) + 2.0 * u3) + u4)
                q1 = q1 + sixth * (((v1 + 2.0 * w2) + 2.0 * w3) + w4)
                v0 = v0 + sixth * (((a1 + 2.0 * a2) + 2.0 * a3) + a4)
                v1 = v1 + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                if not (math.isfinite(q0) and math.isfinite(q1)
                        and math.isfinite(v0) and math.isfinite(v1)):
                    return k, None
                i = 4 * k + 4
                flat[i], flat[i + 1], flat[i + 2], flat[i + 3] = q0, q1, v0, v1
        except DomainError as error:
            return k, error
        return steps, None

    return planar_rates, run
