"""Closed-form comparison curves for the squared divergence Z(s) = D**2.

On s = lambda - 1 < 0 the divergence dynamics obeys a scalar ODE in Z whose
unknown coupling term J can be bounded for plain, irrotational and radially
symmetric flows.  Each bound yields a linear comparison ODE with an explicit
solution (a Chaplygin comparison curve); between consecutive axis crossings
these curves enclose the true trajectory.

Every curve has one closed form, Z(s) = quad s^2 + lin_a s + lin_b +
pow_coef |s|^expo: the plain and irrotational quartics have expo = 4, the
radial sigma family has quad = 0 and expo = 2(1 +/- sigma^2).  For negative
s the power term is evaluated on |s|, the even extension that keeps the
curves real and anchored.

Pointwise sufficient conditions (the 1D smoothness criterion and the
first-period criterion) live here as well.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .numerics import power_inf

__all__ = [
    "Side",
    "BoundCurve",
    "CriterionVerdict",
    "plain_lower_curve",
    "irrotational_lower_curve",
    "sigma_curve",
    "criterion_1d",
    "criterion_first_period",
]

_SING_TOL = 1e-9


class Side(enum.Enum):
    LOWER = "lower"   # comparison rhs below the true one (curve Z1)
    UPPER = "upper"   # comparison rhs above the true one (curve Z2)


def _check_sigma_upper(sigma: float) -> None:
    if abs(sigma - 1.0) < _SING_TOL or abs(sigma - math.sqrt(0.5)) < _SING_TOL:
        raise ValueError(
            f"sigma={sigma} hits a denominator singularity (1 or 1/sqrt(2)) "
            "of the upper bound family"
        )


def _upper_j_bound(sg2: float, f_plus: float, d: int) -> float:
    """The upper family's bound (d-1)(d(b+1)-1) F+^2 / b on J, with b = sigma^2."""
    return (d - 1) * (d * (sg2 + 1.0) - 1.0) * f_plus**2 / sg2


class BoundCurve(NamedTuple):
    """One comparison curve anchored at (s0, Z0), in the closed form

        Z(s) = quad s^2 + lin_a s + lin_b + pow_coef |s|^expo

    that every family shares: the plain and irrotational quartics have
    expo = 4, the radial sigma family has quad = 0, which adds an exact zero
    to each method.  ``value`` is an operator expression in ``s``, so it
    takes a float or a numpy array; ``value_slope`` takes a float.  A power
    beyond the float range is +inf, as in numpy.
    """

    s0: float
    Z0: float
    quad: float
    lin_a: float
    lin_b: float
    pow_coef: float
    expo: float

    def value(self, s):
        _, _, quad, lin_a, lin_b, pow_coef, expo = self
        return (quad * s + lin_a) * s + lin_b + pow_coef * power_inf(abs(s), expo)

    def value_slope(self, s: float) -> tuple[float, float]:
        """Z(s), the same float as ``value``, and Z'(s) at one s < 0, from one
        power: there Z'(s) = lin_a + 2 quad s - expo pow_coef |s|**expo/|s|."""
        _, _, quad, lin_a, lin_b, pow_coef, expo = self
        a = abs(s)
        term = pow_coef * power_inf(a, expo)
        return (quad * s + lin_a) * s + lin_b + term, lin_a + 2.0 * quad * s - expo * term / a


def plain_lower_curve(s0: float, Z0: float, xi30: float) -> BoundCurve:
    """Lower comparison curve for plain flows with initial vorticity xi30.

    Z1(s) = A4 s^4 - (xi30/s0)^2 s^2 - (2/3) s - 1/2, anchored at (s0, Z0).
    The s^2 coefficient follows from re-deriving the quartic against its own
    ODE (the residual test pins the sign); A4 absorbs the anchor:
    A4 = (Z0 + xi30^2 + (2/3) s0 + 1/2) / s0^4.
    """
    if s0 >= 0.0:
        raise ValueError("anchor must satisfy s0 < 0")
    c3 = xi30 / s0
    a4 = (Z0 + xi30 * xi30 + (2.0 / 3.0) * s0 + 0.5) / s0**4
    return BoundCurve(s0, Z0, quad=-c3 * c3, lin_a=-2.0 / 3.0, lin_b=-0.5, pow_coef=a4, expo=4.0)


def irrotational_lower_curve(s0: float, Z0: float) -> BoundCurve:
    """Lower comparison curve for irrotational flows (any dimension): the
    plain curve without vorticity, Z1(s) = A4 s^4 - (2/3) s - 1/2."""
    return plain_lower_curve(s0, Z0, 0.0)


def sigma_curve(
    side: Side,
    s0: float,
    Z0: float,
    sigma: float,
    f_plus: float,
    d: int = 2,
) -> BoundCurve:
    """Radial comparison curve of the sigma family, anchored at (s0, Z0).

    Lower:  Z(s) = -2s/(1+2b) - ((d-1)^2 F+^2 + b)/(b(1+b)) + C1 |s|^(2(1+b))
    Upper:  Z(s) = -2s/(1-2b) + (K-1)/(1-b)                 + C2 |s|^(2(1-b))
    with b = sigma^2 and K = (d-1)(d(b+1)-1) F+^2 / b.  The power-term
    constant is fixed by the anchor condition Z(s0) = Z0; the ODE-residual
    and anchor-identity tests pin both families.  The inputs are taken as
    floats, so the coefficients are floats whatever scalars are given.
    """
    s0, Z0, sigma, f_plus = float(s0), float(Z0), float(sigma), float(f_plus)
    if s0 >= 0.0:
        raise ValueError("anchor must satisfy s0 < 0")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    sg2 = sigma * sigma
    if side is Side.LOWER:
        expo = 2.0 * (1.0 + sg2)
        lin_a = -2.0 / (1.0 + 2.0 * sg2)
        lin_b = -((d - 1) ** 2 * f_plus**2 + sg2) / (sg2 * (1.0 + sg2))
    else:
        _check_sigma_upper(sigma)
        expo = 2.0 * (1.0 - sg2)
        lin_a = -2.0 / (1.0 - 2.0 * sg2)
        lin_b = (_upper_j_bound(sg2, f_plus, d) - 1.0) / (1.0 - sg2)
    offset = Z0 - (lin_a * s0 + lin_b)
    try:
        scale = abs(s0) ** expo
    except OverflowError:
        raise OverflowError(f"sigma curve anchored at s0 = {s0}: |s0|**{expo} overflows") from None
    # a scale that underflows to 0 gives numpy's quotient: +-inf, or NaN for 0/0
    pow_coef = offset / scale if scale else offset * math.inf
    return BoundCurve(s0, Z0, quad=0.0, lin_a=lin_a, lin_b=lin_b, pow_coef=pow_coef, expo=expo)


class CriterionVerdict(NamedTuple):
    """Outcome of a pointwise sufficient condition."""

    value: float
    satisfied: bool
    criterion: str


def criterion_1d(v0_prime: float, e0_prime: float) -> CriterionVerdict:
    """1D global-smoothness criterion at a point.

    Delta = (v0')^2 + 2 e0' - 1; strict negativity is necessary and
    sufficient for the characteristic through the point to stay bounded for
    all time.
    """
    value = v0_prime * v0_prime + 2.0 * e0_prime - 1.0
    return CriterionVerdict(value, value < 0.0, "1d-global-smoothness")


def criterion_first_period(D0: float, curl_norm_sq: float, lam0: float) -> CriterionVerdict:
    """Sufficient condition for bounded density over the first oscillation.

    Delta_minus = D0^2 + |curl v0|^2 + (2/3) lambda0 - 1/6 must be strictly
    negative, and the start must not lie in the open upper half plane:
    either D0 < 0, or D0 = 0 with lambda0 > 0 (the trajectory then enters
    the lower half plane immediately).
    """
    if curl_norm_sq < 0.0:
        raise ValueError("curl_norm_sq is a squared norm, must be >= 0")
    value = D0 * D0 + curl_norm_sq + (2.0 / 3.0) * lam0 - 1.0 / 6.0
    position_ok = (D0 < 0.0) or (D0 == 0.0 and lam0 > 0.0)
    return CriterionVerdict(value, value < 0.0 and position_ok, "first-period-bounded")
