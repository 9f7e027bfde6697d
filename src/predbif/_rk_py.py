"""Pure-Python adaptive Dormand-Prince 5(4) kernel for the scaled system.

This is the fallback twin of the compiled kernel ``_rk_cy``, which is built
from the hand-written C source ``_rk_cy.c``.  Both expose the same
``integrate_kernel`` signature and produce bit-identical trajectories: every
float expression has the same operands in the same order, and
``tests/test_sim.py`` compares the two bit for bit.

Status codes: 0 = reached t_end, 1 = minimum step reached or ``max_steps``
step attempts used up before t_end, 2 = escaped or not finite.
"""

from __future__ import annotations

import math

# Dormand-Prince 5(4) tableau
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# 4th-order error weights (b5 - b4 differences)
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

ESCAPE_RADIUS = 1.0e3


def integrate_kernel(a, b, c, h_par, delta, eta, m,
                     x0, y0, t0, t_end, rtol, atol, max_steps):
    """Adaptive Dormand-Prince 5(4) with PI step control.

    A coordinate that starts exactly at 0 is held at 0 (the axes are
    invariant sets).  Integration direction follows sign(t_end - t0).

    Returns (ts, xs, ys, dxs, dys, status): five lists of floats and an int.
    """
    x0, y0, t0 = float(x0), float(y0), float(t0)
    direction = 1.0 if t_end >= t0 else -1.0
    span = abs(t_end - t0)
    x_axis = x0 == 0.0
    y_axis = y0 == 0.0

    # The step loop does only float arithmetic on locals, in the operand
    # order of the compiled twin.  The field is written out at each stage:
    #   dx = x(1 - x) - x^2 y / (a x^2 + b x + 1) - h x / (c + x)
    #   dy = y (delta - eta y / (m + x))
    # with dx (dy) held at 0 on the invariant axis x = 0 (y = 0).  abs, max
    # and min are conditional expressions with the builtins' results:
    # max(u, v) is v if v > u else u, and |s| = s * direction for a step s
    # that points along direction.
    a21 = _A21
    a31, a32 = _A31, _A32
    a41, a42, a43 = _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    sqrt = math.sqrt
    escape2 = ESCAPE_RADIUS * ESCAPE_RADIUS

    t = t0
    x, y = x0, y0
    fx = 0.0 if x_axis else (x * (1.0 - x) - x * x * y / (a * x * x + b * x + 1.0)
                             - h_par * x / (c + x))
    fy = 0.0 if y_axis else y * (delta - eta * y / (m + x))
    ts = [t]
    xs = [x]
    ys = [y]
    dxs = [fx]
    dys = [fy]
    ts_append, xs_append, ys_append = ts.append, xs.append, ys.append
    dxs_append, dys_append = dxs.append, dys.append

    hstep = direction * min(1e-3, span if span > 0 else 1e-3)
    hmin = 1e-14 * max(1.0, span)
    err_prev_pow = 1.0  # err_prev ** 0.08, with err_prev = 1.0 before the first accepted step
    status = 0
    steps = 0

    while (t - t_end) * direction < 0.0 and steps < max_steps:
        steps += 1
        if hstep * direction > (t_end - t) * direction:
            hstep = t_end - t

        k1x, k1y = fx, fy
        h21 = hstep * a21
        x2 = x + h21 * k1x
        y2 = y + h21 * k1y
        k2x = 0.0 if x_axis else (x2 * (1.0 - x2) - x2 * x2 * y2 / (a * x2 * x2 + b * x2 + 1.0)
                                  - h_par * x2 / (c + x2))
        k2y = 0.0 if y_axis else y2 * (delta - eta * y2 / (m + x2))
        x3 = x + hstep * (a31 * k1x + a32 * k2x)
        y3 = y + hstep * (a31 * k1y + a32 * k2y)
        k3x = 0.0 if x_axis else (x3 * (1.0 - x3) - x3 * x3 * y3 / (a * x3 * x3 + b * x3 + 1.0)
                                  - h_par * x3 / (c + x3))
        k3y = 0.0 if y_axis else y3 * (delta - eta * y3 / (m + x3))
        x4 = x + hstep * (a41 * k1x + a42 * k2x + a43 * k3x)
        y4 = y + hstep * (a41 * k1y + a42 * k2y + a43 * k3y)
        k4x = 0.0 if x_axis else (x4 * (1.0 - x4) - x4 * x4 * y4 / (a * x4 * x4 + b * x4 + 1.0)
                                  - h_par * x4 / (c + x4))
        k4y = 0.0 if y_axis else y4 * (delta - eta * y4 / (m + x4))
        x5 = x + hstep * (a51 * k1x + a52 * k2x + a53 * k3x + a54 * k4x)
        y5 = y + hstep * (a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y)
        k5x = 0.0 if x_axis else (x5 * (1.0 - x5) - x5 * x5 * y5 / (a * x5 * x5 + b * x5 + 1.0)
                                  - h_par * x5 / (c + x5))
        k5y = 0.0 if y_axis else y5 * (delta - eta * y5 / (m + x5))
        x6 = x + hstep * (a61 * k1x + a62 * k2x + a63 * k3x + a64 * k4x + a65 * k5x)
        y6 = y + hstep * (a61 * k1y + a62 * k2y + a63 * k3y + a64 * k4y + a65 * k5y)
        k6x = 0.0 if x_axis else (x6 * (1.0 - x6) - x6 * x6 * y6 / (a * x6 * x6 + b * x6 + 1.0)
                                  - h_par * x6 / (c + x6))
        k6y = 0.0 if y_axis else y6 * (delta - eta * y6 / (m + x6))
        xn = x + hstep * (b1 * k1x + b3 * k3x + b4 * k4x + b5 * k5x + b6 * k6x)
        yn = y + hstep * (b1 * k1y + b3 * k3y + b4 * k4y + b5 * k5y + b6 * k6y)
        k7x = 0.0 if x_axis else (xn * (1.0 - xn) - xn * xn * yn / (a * xn * xn + b * xn + 1.0)
                                  - h_par * xn / (c + xn))
        k7y = 0.0 if y_axis else yn * (delta - eta * yn / (m + xn))

        ex = hstep * (e1 * k1x + e3 * k3x + e4 * k4x + e5 * k5x + e6 * k6x + e7 * k7x)
        ey = hstep * (e1 * k1y + e3 * k3y + e4 * k4y + e5 * k5y + e6 * k6y + e7 * k7y)
        ax = -x if x < 0.0 else x
        axn = -xn if xn < 0.0 else xn
        ay = -y if y < 0.0 else y
        ayn = -yn if yn < 0.0 else yn
        scx = atol + rtol * (axn if axn > ax else ax)
        scy = atol + rtol * (ayn if ayn > ay else ay)
        rx = ex / scx
        ry = ey / scy
        err = sqrt(0.5 * (rx * rx + ry * ry))

        if err <= 1.0 or hstep * direction <= hmin:
            t = t + hstep
            x, y = xn, yn
            if x_axis:
                x = 0.0
            if y_axis:
                y = 0.0
            fx, fy = k7x, k7y
            ts_append(t)
            xs_append(x)
            ys_append(y)
            dxs_append(fx)
            dys_append(fy)
            if not x * x + y * y <= escape2:  # NaN escapes too
                status = 2
                break
            err_prev_pow = (1e-10 if 1e-10 > err else err) ** 0.08

        # PI controller
        if err == 0.0:
            fac = 5.0
        else:
            fac = 0.9 * err ** -0.14 * err_prev_pow
            fac = fac if fac > 0.2 else 0.2
            fac = fac if fac < 5.0 else 5.0
        hstep = hstep * fac
        if hstep * direction < hmin:
            if err > 1.0:
                status = 1
                break
            hstep = math.copysign(hmin, direction)

    if status == 0 and (t - t_end) * direction < 0.0:
        status = 1  # ran out of steps
    return ts, xs, ys, dxs, dys, status
