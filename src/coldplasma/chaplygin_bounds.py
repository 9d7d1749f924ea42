"""Closed-form comparison curves for the squared divergence Z(s) = D**2.

On s = lambda - 1 < 0 the divergence dynamics obeys a scalar ODE in Z whose
unknown coupling term J can be bounded for plain, irrotational and radially
symmetric flows.  Each bound yields a linear comparison ODE with an explicit
solution (a Chaplygin comparison curve); between consecutive axis crossings
these curves enclose the true trajectory.

For negative s the power term s**(2(1 +/- sigma^2)) is evaluated as
|s|**(2(1 +/- sigma^2)), the even extension that keeps the curves real and
anchored; the linear-plus-power structure is cached per curve.

Pointwise sufficient conditions (the 1D smoothness criterion and the
first-period criterion) live here as well.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .numerics import expm1_inf, power_inf

__all__ = [
    "BoundKind",
    "Side",
    "BoundCurve",
    "CriterionVerdict",
    "q_rhs",
    "plain_lower_curve",
    "irrotational_lower_curve",
    "sigma_curve",
    "anchor_root_S1",
    "anchor_root_S2",
    "criterion_1d",
    "criterion_first_period",
]

_SING_TOL = 1e-9


class BoundKind(enum.Enum):
    PLAIN = "plain"
    IRROTATIONAL = "irrotational"
    RADIAL_SIGMA = "radial-sigma"


class Side(enum.Enum):
    LOWER = "lower"   # comparison rhs below the true one (curve Z1)
    UPPER = "upper"   # comparison rhs above the true one (curve Z2)


def _check_sigma_upper(sigma: float) -> None:
    if abs(sigma - 1.0) < _SING_TOL or abs(sigma - math.sqrt(0.5)) < _SING_TOL:
        raise ValueError(
            f"sigma={sigma} hits a denominator singularity (1 or 1/sqrt(2)) "
            "of the upper bound family"
        )


def q_rhs(
    kind: BoundKind,
    side: Side,
    s: float,
    Z: float,
    c3: float = 0.0,
    sigma: float = 1.0,
    f_plus: float = 0.0,
    d: int = 2,
) -> float:
    """Right-hand side dZ/ds of the comparison ODE for the given case.

    ``c3`` is the plain-case vorticity ratio xi3/(lambda-1); ``sigma`` and
    ``f_plus`` parameterize the radial family.  Only s < 0 is admissible.
    """
    if s >= 0.0:
        raise ValueError("comparison ODEs are defined on s < 0 only")

    if kind is BoundKind.PLAIN:
        if side is not Side.LOWER:
            raise ValueError("plain oscillations provide only the lower family")
        num = 2.0 * Z + s + c3 * c3 * s * s + 1.0
    elif kind is BoundKind.IRROTATIONAL:
        if side is not Side.LOWER:
            raise ValueError("irrotational oscillations provide only the lower family")
        num = 2.0 * Z + s + 1.0
    else:
        sg2 = sigma * sigma
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if side is Side.LOWER:
            num = (1.0 + sg2) * Z + s + (d - 1) ** 2 * f_plus**2 / sg2 + 1.0
        else:
            _check_sigma_upper(sigma)
            k_bound = (d - 1) * (d * (sg2 + 1.0) - 1.0) * f_plus**2 / sg2
            num = (1.0 - sg2) * Z + s - k_bound + 1.0
    return 2.0 * num / s


@dataclass(frozen=True)
class BoundCurve:
    """One anchored comparison curve.

    Quartic representation (plain/irrotational):
        Z(s) = a4 s^4 + a2 s^2 + a1 s + a0
    Linear-plus-power representation (radial sigma family):
        Z(s) = lin_a s + lin_b + pow_coef |s|^expo
    Exactly one of the two coefficient sets is active (the other is None).
    ``value`` and ``derivative`` are operator expressions in ``s``, so they
    take a float or a numpy array; ``increment`` and ``q`` take floats.  A
    power beyond the float range is +inf, as in numpy.
    """

    kind: BoundKind
    side: Side
    s0: float
    Z0: float
    # quartic coefficients
    a4: Optional[float] = None
    a2: Optional[float] = None
    a1: Optional[float] = None
    a0: Optional[float] = None
    # sigma-family coefficients
    lin_a: Optional[float] = None
    lin_b: Optional[float] = None
    pow_coef: Optional[float] = None
    expo: Optional[float] = None
    # originating parameters (kept for rhs evaluation and provenance)
    c3: float = 0.0
    sigma: float = 1.0
    f_plus: float = 0.0
    d: int = 2

    def value(self, s):
        if self.a4 is not None:
            return ((self.a4 * s * s + self.a2) * s + self.a1) * s + self.a0
        return self.lin_a * s + self.lin_b + self.pow_coef * power_inf(abs(s), self.expo)

    def increment(self, s_ref: float, h: float) -> float:
        """Z(s_ref + h) - Z(s_ref), free of the cancellation of two values.

        Both points must lie on the same side of s = 0.
        """
        if self.a4 is not None:
            s = s_ref
            return h * (self.a4 * (((h + 4.0 * s) * h + 6.0 * s * s) * h + 4.0 * s**3)
                        + self.a2 * (2.0 * s + h) + self.a1)
        return h * self.lin_a + self.pow_coef * power_inf(abs(s_ref), self.expo) * expm1_inf(
            self.expo * math.log1p(h / s_ref))

    def derivative(self, s):
        if self.a4 is not None:
            return (4.0 * self.a4 * s * s + 2.0 * self.a2) * s + self.a1
        return self.lin_a - self.pow_coef * self.expo * power_inf(abs(s), self.expo - 1.0)

    def q(self, s: float, Z: float) -> float:
        """The comparison rhs this curve solves."""
        return q_rhs(self.kind, self.side, s, Z,
                     c3=self.c3, sigma=self.sigma, f_plus=self.f_plus, d=self.d)

    def __call__(self, s):
        return self.value(s)


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
    return BoundCurve(
        BoundKind.PLAIN, Side.LOWER, s0, Z0,
        a4=a4, a2=-c3 * c3, a1=-2.0 / 3.0, a0=-0.5, c3=c3,
    )


def irrotational_lower_curve(s0: float, Z0: float) -> BoundCurve:
    """Lower comparison curve for irrotational flows (any dimension).

    Z1(s) = A4 s^4 - (2/3) s - 1/2 with A4 = (Z0 + (2/3) s0 + 1/2)/s0^4.
    """
    if s0 >= 0.0:
        raise ValueError("anchor must satisfy s0 < 0")
    a4 = (Z0 + (2.0 / 3.0) * s0 + 0.5) / s0**4
    return BoundCurve(
        BoundKind.IRROTATIONAL, Side.LOWER, s0, Z0,
        a4=a4, a2=0.0, a1=-2.0 / 3.0, a0=-0.5,
    )


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
    and anchor-identity tests pin both families.
    """
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
        k_bound = (d - 1) * (d * (sg2 + 1.0) - 1.0) * f_plus**2 / sg2
        expo = 2.0 * (1.0 - sg2)
        lin_a = -2.0 / (1.0 - 2.0 * sg2)
        lin_b = (k_bound - 1.0) / (1.0 - sg2)
    offset = Z0 - (lin_a * s0 + lin_b)
    try:
        scale = abs(s0) ** expo
    except OverflowError:
        raise OverflowError(f"sigma curve anchored at s0 = {s0}: |s0|**{expo} overflows") from None
    # a scale that underflows to 0 gives numpy's quotient: +-inf, or NaN for 0/0
    pow_coef = offset / scale if scale else offset * math.inf
    return BoundCurve(
        BoundKind.RADIAL_SIGMA, side, s0, Z0,
        lin_a=lin_a, lin_b=lin_b, pow_coef=pow_coef, expo=expo,
        sigma=sigma, f_plus=f_plus, d=d,
    )


def anchor_root_S1(sigma: float, f_plus: float, d: int = 2) -> float:
    """Largest anchor s0 (with Z0 = 0) whose lower curve is still bounded.

    At this anchor the power coefficient C1 vanishes; anchors to the left
    give C1 < 0 (curve eventually returns to the axis), anchors to the right
    give an unbounded lower curve.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    sg2 = sigma * sigma
    return -0.5 * (1.0 + 2.0 * sg2) * ((d - 1) ** 2 * f_plus**2 + sg2) / (
        sg2 * (1.0 + sg2)
    )


def anchor_root_S2(sigma: float, f_plus: float, d: int = 2) -> float:
    """Critical anchor of the upper family used by the blow-up threshold map.

    For d = 2 this reads (2b-1)(F+^2 (2b+1) - b^2) / (2b(b-1)) with
    b = sigma^2; it sits exactly (2 sigma^2 - 1)/2 to the left of the anchor
    where the upper curve's power coefficient C2 vanishes.  The threshold
    extrema (the Lambda2 = 0.5754 reproduction) pin this convention; see the
    two-route identity tests.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"require 0 < sigma < 1, got {sigma}")
    sg2 = sigma * sigma
    k_bound = (d - 1) * (d * (sg2 + 1.0) - 1.0) * f_plus**2 / sg2
    c2_zero_anchor = (k_bound - 1.0) * (1.0 - 2.0 * sg2) / (2.0 * (1.0 - sg2))
    return c2_zero_anchor - 0.5 * (2.0 * sg2 - 1.0)


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of a pointwise sufficient condition."""

    value: float
    satisfied: bool
    criterion: str

    def __bool__(self) -> bool:
        return self.satisfied


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
