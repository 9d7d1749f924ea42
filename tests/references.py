"""References that only the tests call.

The comparison ODEs whose solutions the closed-form curves of
``coldplasma.chaplygin_bounds`` are, with a curve's derivative and
increment; the critical anchors S1 and S2 that the threshold maps equal;
the divergence system with the exact radial J; the Lambert W fixed
points of the threshold maps; and the oracle's bracket polynomials and
positivity bound in their numpy form, a gather of many brackets at once,
where the package reads per-position float rows and sums in floats.
Only s < 0 is meaningful for the ODEs.
"""

import math

import numpy as np

from coldplasma.chaplygin_bounds import Side, _upper_j_bound
from coldplasma.numerics import expm1_inf, lambert_w, power_inf
from coldplasma.oracle import _BASIS_MAX


def q_quartic(s, Z, c3=0.0):
    """dZ/ds of the plain flows' lower comparison ODE; ``c3`` is the
    vorticity ratio xi3/(lambda - 1), 0 for an irrotational flow."""
    return 2.0 * (2.0 * Z + s + c3 * c3 * s * s + 1.0) / s


def q_sigma(side, s, Z, sigma, f_plus, d=2):
    """dZ/ds of the radial sigma family's comparison ODE on the given side."""
    b = sigma * sigma
    if side is Side.LOWER:
        num = (1.0 + b) * Z + s + (d - 1) ** 2 * f_plus**2 / b + 1.0
    else:
        num = (1.0 - b) * Z + s - _upper_j_bound(b, f_plus, d) + 1.0
    return 2.0 * num / s


def derivative(curve, s):
    """Z'(s) of a ``BoundCurve`` at a float or an ndarray of s < 0."""
    _, _, quad, lin_a, _, pow_coef, expo = curve
    return lin_a - pow_coef * expo * power_inf(abs(s), expo - 1.0) + 2.0 * quad * s


def increment(curve, s_ref, h):
    """Z(s_ref + h) - Z(s_ref) of a ``BoundCurve``, free of the cancellation
    of two values; both points lie on the same side of s = 0."""
    return h * (curve.quad * (2.0 * s_ref + h) + curve.lin_a) + curve.pow_coef * power_inf(
        abs(s_ref), curve.expo) * expm1_inf(curve.expo * math.log1p(h / s_ref))


def anchor_root_S1(sigma, f_plus, d=2):
    """The anchor s0 (with Z0 = 0) where the lower curve's C1 vanishes: the
    largest whose lower curve is still bounded."""
    b = sigma * sigma
    return -0.5 * (1.0 + 2.0 * b) * ((d - 1) ** 2 * f_plus**2 + b) / (b * (1.0 + b))


def anchor_root_S2(sigma, f_plus, d=2):
    """The upper family's critical anchor, (2b - 1)(F+^2 (2b + 1) - b^2)/(2b(b - 1))
    for d = 2 and b = sigma^2 in (0, 1): (2 b - 1)/2 left of the anchor
    where the upper curve's C2 vanishes."""
    b = sigma * sigma
    c2_zero_anchor = (_upper_j_bound(b, f_plus, d) - 1.0) * (1.0 - 2.0 * b) / (2.0 * (1.0 - b))
    return c2_zero_anchor - 0.5 * (2.0 * b - 1.0)


def rhs_divergence(lam, D, J):
    """(dlambda/dt, dD/dt) of the divergence pair, J being the sum of the
    principal 2x2 minors of the velocity Jacobian."""
    return D * (1.0 - lam), -D * D + 2.0 * J - lam


def j_exact_radial(F, D, d):
    """Exact J for radially symmetric flow: (d-1) F D - (d-1) d F**2/2."""
    return (d - 1) * F * D - 0.5 * (d - 1) * d * F * F


def lambert_fixed_point(which, sigma):
    """Fixed point of the "lambda1" or "lambda2" map in closed form.

    Each map reduces to x e^(1/x) = p + q x in x = 1 - lambda; with t = 1/x,
    e^t = p t + q, so t = -q/p - W(-exp(-q/p)/p).  The lambda1 map takes
    branch -1 below sigma = 1/sqrt(2), where 1 - 4 sigma^4 changes sign, and
    0 above it; the lambda2 map takes branch -1 on its range (1/sqrt(2), 1).
    """
    b = sigma * sigma
    if which == "lambda1":
        # lam = (B - D x e^(1/x)/e)/A with A = 4b(b+1), B = 1+4b, D = 2b+1
        p = math.e * (1.0 - 4.0 * b * b) / (2.0 * b + 1.0)
        q = math.e * (4.0 * b * (b + 1.0)) / (2.0 * b + 1.0)
        branch = -1 if sigma < math.sqrt(0.5) else 0
    else:
        # lam = alpha (x e^(1/x)/e - 1)/2 + beta
        alpha = (2.0 * b - 1.0) * (2.0 * b + 1.0) / (2.0 * b * (b - 1.0))
        beta = -(2.0 * b - 1.0) * b * b / (2.0 * b * (b - 1.0)) + 1.0
        p = (2.0 * math.e / alpha) * (1.0 + alpha / 2.0 - beta)
        q = -2.0 * math.e / alpha
        branch = -1
    return 1.0 - 1.0 / (-q / p - lambert_w(branch, -math.exp(-q / p) / p))


def gather_polynomials(flow, f):
    """F, G, c0 w1 and c0 p1 (F and p1 turned on a mirrored step) on the
    brackets that start at nodes ``f`` (an index array) of a ``_Floquet``
    flow, by one numpy gather: their coefficients ``(len(f), 7, 4)`` and
    values at x = 0 ``(len(f), 4)``, with the brackets' weight c1 of w2,
    period k, step s and sign (-1: mirrored)."""
    P = flow._step.size
    k, pos = np.divmod(f, P)
    s, sign = flow._step[pos], np.where(pos >= P // 2, -1.0, 1.0)
    c0, dense = flow.v[0], flow.one.interpolant
    scale = np.stack([sign, np.ones_like(sign), np.full_like(sign, c0), c0 * sign], axis=1)
    c1 = flow.v[1] + (k + (sign < 0.0)) * flow.shear * c0
    return dense.coefficients(s) * scale[:, None], dense.ys[s] * scale, c1, k, s, sign


def gather_pieces(flow, f):
    """``_Floquet._pieces`` from that gather: per bracket the coefficients,
    base, t0, dx/dt, x at t0 and c1, as lists of floats."""
    coef, base, c1, k, s, sign = gather_polynomials(flow, f)
    dense = flow.one.interpolant
    h = dense.h[s]
    off, dxdt = (np.where(sign < 0.0, flow.T, 0.0) - dense.t[s]) / h, sign / h
    return list(zip(coef.tolist(), base.tolist(), flow._t0(k).tolist(), dxdt.tolist(),
                    off.tolist(), c1.tolist()))


def positive_bound(flow, f):
    """``_Floquet.positive`` in its numpy form, on the brackets that start at
    nodes ``f`` of a flow at once, from one gather of their polynomials: the
    bounds summed over the basis by matrix products."""
    coef, base, c1, *_ = gather_polynomials(flow, f)
    basis_max = np.array(_BASIS_MAX)
    (G_e, u_e), d = flow._turn, flow.d
    c, x, x0 = -c1 * u_e, coef[:, :, 0] / G_e, base[:, 0] / G_e    # F/G_e: m = 1 + c x
    m_min = 1.0 + c * x0 + np.minimum(c[:, None] * x, 0.0) @ basis_max
    u_min = 1.0 - d * base[:, 1] + np.minimum(-d * coef[:, :, 1], 0.0) @ basis_max
    u_max = 1.0 - d * base[:, 1] + np.maximum(-d * coef[:, :, 1], 0.0) @ basis_max
    h_min = base[:, 2] + np.minimum(coef[:, :, 2], 0.0) @ basis_max
    return (u_min > 0.0) & (m_min + np.where(m_min >= 0.0, u_max, u_min) * h_min > 0.0)
