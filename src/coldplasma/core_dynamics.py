"""Exact characteristic dynamics of electrostatic cold-plasma oscillations.

Covers the radially symmetric velocity/field factors (F, G) with v = F r,
E = G r in dimension d, which carry the divergence pair (lambda, D) =
(Div E, Div v) along characteristics, their first integral and closed
orbits, the oscillation period and the phase of a point on its orbit, and
radial initial profiles (Gaussian pulse included).

Conventions: the electron density is n = 1 - lambda, so physically admissible
states have lambda < 1.  At the symmetry center r = 0 the divergences satisfy
lambda = d*G and D = d*F exactly.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .numerics import (
    exp_inf,
    expm1_inf,
    find_root,
    integrate_singular,
    linspace,
    power_inf,
)

__all__ = [
    "check_dimension",
    "RadialProfile",
    "FirstIntegralConstant",
    "OrbitExtremes",
    "rhs_radial",
    "first_integral_constant",
    "evaluate_first_integral",
    "first_integral_derivative",
    "first_integral_increment",
    "g_at_maximum",
    "orbit_extremes",
    "period",
    "orbit_phase",
    "gaussian_profile",
    "constant_profile",
    "profile_divergences",
]


# RadialProfile checks lambda0(r) < 1 at this many evenly spaced radii in [0, RMAX]
_ADMISSIBILITY_RMAX = 6.0
_ADMISSIBILITY_POINTS = 257


def check_dimension(d: int) -> int:
    """Validate a space dimension (1, 2 or 3; 2 selects the log integral)."""
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d!r}")
    return d


class FirstIntegralConstant(NamedTuple):
    """Orbit constant of the radial (G, F) phase curves."""

    C: float
    d: int


def rhs_radial(F: float, G: float, d: int) -> tuple[float, float]:
    """Time derivatives (dF/dt, dG/dt) of the radial factors."""
    return -F * F - G, F - d * F * G


def first_integral_constant(F0: float, G0: float, d: int) -> FirstIntegralConstant:
    """Constant of the orbit through (F0, G0).

    Chosen so that ``evaluate_first_integral(G0, const) == F0**2``.  Rejects
    the degenerate case 1 - d*G0 = 0 (zero density at the point).
    """
    check_dimension(d)
    u = 1.0 - d * G0
    if abs(u) < 1e-14:
        raise ValueError("degenerate orbit: 1 - d*G0 = 0 (vacuum point)")
    if d == 2:
        C = (1.0 + 2.0 * F0 * F0) / (2.0 * G0 - 1.0) - math.log(abs(u))
    else:
        C = (1.0 - 2.0 * G0 + (d - 2) * F0 * F0) / ((d - 2) * abs(u) ** (2.0 / d))
    return FirstIntegralConstant(float(C), d)


def evaluate_first_integral(G: float, const: FirstIntegralConstant) -> float:
    """Y(G) = F**2 on the orbit defined by ``const``.

    May be negative outside the orbit's G-range; the orbit occupies
    ``{G : Y(G) >= 0}``.
    """
    d, C = const.d, const.C
    u = abs(1.0 - d * G)
    if d == 2:
        return 0.5 * ((2.0 * G - 1.0) * math.log(u) + C * (2.0 * G - 1.0) - 1.0)
    return (2.0 * G - 1.0) / (d - 2) + C * power_inf(u, 2.0 / d)


def first_integral_derivative(G: float, const: FirstIntegralConstant) -> float:
    """dY/dG on the half-plane G < 1/d."""
    d, C = const.d, const.C
    u = 1.0 - d * G
    if d == 2:
        return math.log(abs(u)) + 1.0 + C
    return 2.0 / (d - 2) - 2.0 * C * math.copysign(abs(u) ** (2.0 / d - 1.0), u)


# amplitude below which orbit_extremes takes the linearized orbit
_SMALL_ORBIT = 1e-16

# (n - 1)/n! for n = 17, ..., 2: beyond n = 17 the series below changes
# nothing for |L| < 1/2
_DEFECT_COEF = [(n - 1) / math.factorial(n) for n in range(17, 1, -1)]


def _exp_defect(L: float) -> float:
    """L e**L - expm1(L) for |L| < 1/2, where its terms cancel: summed as
    the series over n >= 2 of (n - 1) L**n / n!."""
    total = 0.0
    for c in _DEFECT_COEF:
        total = total * L + c
    return total * L * L


def _orbit_increment(Y_e: float, G_e: float, d: int, L: float) -> float:
    """Y - Y_e on the orbit through a point (F_e, G_e) with Y_e = F_e**2, at
    the G with log((1 - d G)/(1 - d G_e)) = L.

    Written about the point, the orbit constant drops out.  With
    u_e = 1 - d G_e and, for d = 1, 3, t = expm1(L/d) (so Y is a
    polynomial in t):

        d = 2:  (Y_e + 1/2) expm1(L) - u_e/2 L e**L
              = Y_e expm1(L) + G_e L e**L - (L e**L - expm1(L))/2,
        d = 3:  (Y_e + 1/3) t (2 + t) - 2/3 u_e t (1 + t)**2
              = Y_e t (2 + t) + 2 G_e t (1 + t)**2 - t**2 (1 + 2t/3),
        d = 1:  Y_e t (2 + t) + 2 G_e t (1 + t) - t**2.

    The second forms are of first order in L only through Y_e and G_e, so
    about a turning point (Y_e = 0) of a small orbit nothing cancels; they
    serve for |L| < 1/2 and the first forms, which keep their terms apart
    where G_e nears the vacuum point 1/d, beyond.
    """
    if d == 2:
        if abs(L) < 0.5:
            return Y_e * math.expm1(L) + G_e * L * math.exp(L) - 0.5 * _exp_defect(L)
        return (Y_e + 0.5) * expm1_inf(L) - 0.5 * (1.0 - 2.0 * G_e) * L * exp_inf(L)
    t = expm1_inf(L / d)
    if d == 1:
        return t * (Y_e * (2.0 + t) + 2.0 * G_e * (1.0 + t) - t)
    if abs(L) < 0.5:
        return t * (Y_e * (2.0 + t) + 2.0 * G_e * (1.0 + t) ** 2 - t * (1.0 + 2.0 / 3.0 * t))
    return t * ((Y_e + 1.0 / 3.0) * (2.0 + t) - 2.0 / 3.0 * (1.0 - 3.0 * G_e) * (1.0 + t) ** 2)


def first_integral_increment(F0: float, G0: float, h: float, d: int) -> float:
    """Y(G0 + h) - F0**2 on the orbit through (F0, G0), from the data itself:
    the orbit constant, whose rounding leaves Y'(G0) only to about 1e-16
    absolute, is not used.  G0 and G0 + h must lie on the half-plane G < 1/d."""
    return _orbit_increment(F0 * F0, G0, d, math.log1p(-d * h / (1.0 - d * G0)))


class OrbitExtremes(NamedTuple):
    """Turning points and velocity-factor maximum of a closed radial orbit."""

    G_minus: float
    G_plus: float
    F_plus: float


def g_at_maximum(const: FirstIntegralConstant) -> float:
    """Closed-form maximum point G_m of Y, where Y'(G_m) = 0.

    d = 2: 1 - 2 G_m = exp(-C - 1).  Otherwise (1 - d G_m)**((d-2)/d) = C (d-2).
    Y'' has the sign of -C (d-2) (always negative for d = 2), so Y is concave
    and G_m its maximum exactly when the orbit is closed; C (d-2) <= 0 (only
    possible for d = 1) raises ValueError, as does a G_m beyond float range.
    """
    d, C = const.d, const.C
    if d != 2 and C * (d - 2) <= 0.0:
        raise ValueError(f"orbit is not closed: C*(d-2) = {C * (d - 2)} <= 0")
    if d == 2:
        G_m = 0.5 * (1.0 - exp_inf(-C - 1.0))
    else:
        G_m = (1.0 - power_inf(C * (d - 2), d / (d - 2.0))) / d
    if not math.isfinite(G_m):
        raise ValueError(f"orbit too wide: its maximum lies at G = {G_m}")
    return G_m


def _g_at_maximum_about(F0: float, G0: float, d: int) -> float:
    """:func:`g_at_maximum` for d = 1, 3, written about a point (F0, G0) of
    the orbit.  From (1 - d G_m)/(1 - d G0) = (1 + x)**(d/(d-2)) with
    x = (d-2) S/(1 - d G0) and S = G0 + F0**2:

        d = 3:  G_m = G0 - S (1 + x + x**2/3),
        d = 1:  G_m = G0 - S (1 - G0)/(1 - 2 G0 - F0**2).

    The orbit constant, whose rounding (about 1e-16 absolute) would move G_m
    by as much and put it outside an orbit of that size, drops out.  A d = 1
    orbit is closed exactly when 1 - 2 G0 - F0**2, the numerator of
    C (d-2), is positive.
    """
    S = G0 + F0 * F0
    if d == 3:
        x = S / (1.0 - 3.0 * G0)
        return G0 - S * (1.0 + x * (1.0 + x / 3.0))
    n = 1.0 - 2.0 * G0 - F0 * F0
    if n <= 0.0:
        raise ValueError(f"orbit is not closed: 1 - 2 G0 - F0**2 = {n} <= 0")
    return G0 - S * (1.0 - G0) / n


def orbit_extremes(F0: float, G0: float, d: int) -> OrbitExtremes:
    """Turning points G- < 0 <= G+ and F+ = max |F| of the orbit through (F0, G0).

    The orbit is the level set Y(G) = F**2 of the first integral; closed
    orbits exist for G0 < 1/d (always for d in {2, 3}; for d = 1 only when
    the orbit constant is negative).  Y is concave there, so F+ = sqrt(Y(G_m))
    at the closed-form maximum G_m (for d = 1, 3 written about (F0, G0), see
    :func:`_g_at_maximum_about`), and each turning point is the one root
    on its side of G_m.  The left bracket is the root of the tangent at
    G_m - max(1, |G_m|), above which concave Y lies.  Up to the midpoint of
    G0 and 1/d, Y is evaluated as an increment from (F0, G0), so nothing
    cancels on small orbits; for F0 = 0, G0 itself is the turning point on
    its side.  Beyond it Y is the closed form, which has no cancellation
    near the vacuum point 1/d, where an increment from a G0 far below 0
    would lose 1 - d G to rounding.  Y tends to -1/d there, so 1/d bounds
    G+ on the right on every orbit, however close G+ comes to it.

    An orbit of amplitude A = hypot(F0, G0) below :data:`_SMALL_ORBIT` is
    the circle F**2 + G**2 = A**2 of the flow linearized about the rest
    state (F' = -G, G' = F), so G-, G+, F+ = -A, A, A: the next order is
    O(A) relative, below rounding.  There the root searches would need
    hundreds of halvings to reach a tolerance of 1e-16 F+ from a bracket
    about 1/d wide, and F0**2 + G0**2 underflows below 1e-154.
    """
    check_dimension(d)
    if G0 >= 1.0 / d:
        raise ValueError(f"require G0 < 1/d for a closed orbit, got G0={G0}")
    A = math.hypot(F0, G0)
    if A < _SMALL_ORBIT:
        return OrbitExtremes(-A, A, A)
    const = first_integral_constant(F0, G0, d)
    G_mid = 0.5 * (G0 + 1.0 / d)

    def Y(G):
        if G <= G_mid:
            return F0 * F0 + first_integral_increment(F0, G0, G - G0, d)
        if G < 1.0 / d:
            return evaluate_first_integral(G, const)
        return -1.0 / d

    G_m = g_at_maximum(const) if d == 2 else _g_at_maximum_about(F0, G0, d)
    G1 = G_m - max(1.0, abs(G_m))
    Y_m = Y(G_m)
    left = G1 - Y(G1) / first_integral_derivative(G1, const)
    if not (math.isfinite(Y_m) and math.isfinite(left)):
        raise ValueError(f"orbit too wide: Y overflows about G_m = {G_m}")
    if Y_m <= 0.0:      # Y(G_m) >= F0**2, so only a point orbit, up to rounding
        return OrbitExtremes(G0, G0, 0.0)
    F_plus = math.sqrt(Y_m)
    tol = 1e-16 * min(F_plus, 1.0)    # turning points lie about min(F+, 1/d) or more from 0
    if F0 == 0.0 and G0 >= G_m:
        G_plus = G0
    else:
        G_plus = find_root(Y, G_m, 1.0 / d, tol=tol)
    if F0 == 0.0 and G0 <= G_m:
        G_minus = G0
    else:
        G_minus = find_root(Y, left, G_m, tol=tol)
    return OrbitExtremes(float(G_minus), float(G_plus), F_plus)


def _x_integral(d: int, ends: dict) -> float:
    """Integral of dx / sqrt(Y) in x = log(1 - d G) between two points of an
    orbit with no turning point strictly between them.

    ``ends`` maps the x of each end to its (Y_e, G_e), and Y is evaluated
    about the nearer end by :func:`_orbit_increment`, so an inverse square
    root at a turning point (Y_e = 0) is divided out by the substitution of
    :func:`integrate_singular` and the orbit constant drops out.
    """

    def f(end, h):
        Y_e, G_e = ends[end]
        return 1.0 / math.sqrt(Y_e + _orbit_increment(Y_e, G_e, d, h))

    return integrate_singular(f, *sorted(ends))


def period(F0: float, G0: float, d: int) -> float:
    """Oscillation period of the closed radial orbit through (F0, G0).

    T = 2 * integral over [G-, G+] of dG / ((1 - d G) sqrt(Y(G))), taken in
    x = log(1 - d G), where dG / (1 - d G) = -dx / d, so T = (2/d) times the
    integral of dx / sqrt(Y) between the turning points.  Y is evaluated
    about the nearer turning point (:func:`_orbit_increment` with Y_e = 0),
    so the inverse-square-root singularities are divided out, the orbit
    constant drops out and nothing cancels on small orbits.  In x the
    widest orbits (G- down to about -1e268 for d = 2) span a few hundred
    units, where a quadrature in G spans 1e20 or more in its square-root
    variable and misses the mass near G+.  A point orbit (G+ - G- < 1e-13)
    has 2 pi, the plasma period of small oscillations.  Raises ValueError
    or QuadratureError naming the orbit when it has no finite period, and
    RuntimeError naming it when a turning point's root search fails.  The
    T of :func:`orbit_phase`.
    """
    return orbit_phase(F0, G0, d)[0]


def orbit_phase(F0: float, G0: float, d: int) -> tuple[float, OrbitExtremes, float]:
    """(T, extremes, tau): the period (see :func:`period`), the
    :func:`orbit_extremes` (G-, G+, F+) of the orbit through (F0, G0), and
    the time tau in [0, T) the flow takes from the lower turning point
    (0, G-) to (F0, G0); the orbit computed once.

    G- is where |F'| = |G-| is largest: from (0, G-) the flow runs with
    F > 0 up to G+ at T/2 and back with F < 0, so tau is the time Q from G-
    to G0 (F0 > 0) or T - Q (F0 < 0), or from G+ at T/2, T/2 -/+ Q; Q is
    the integral of :func:`period` between x0 = log(1 - d G0) and the
    nearer turning point, divided by d, with Y about x0 taken from
    Y = F0**2 there.  A start on a turning point (F0 = 0) has tau = 0 at
    G- and T/2 at G+.  On a point orbit T = 2 pi, the extremes are the
    linearized (-A, A, A) with A = hypot(F0, G0), and tau = atan2(F0, -G0)
    mod 2 pi, from the linearized orbit G = -A cos tau, F = A sin tau.
    Raises as :func:`period` does.
    """
    try:
        ext = orbit_extremes(F0, G0, d)
        if ext.G_plus - ext.G_minus < 1e-13:
            # a point orbit: T - 2 pi ~ -0.525 A**2 is 0 (0.0 - G0, not -G0, puts the rest state at phase 0)
            A, T = math.hypot(F0, G0), 2.0 * math.pi
            tau = math.atan2(F0, 0.0 - G0) % T
            return T, OrbitExtremes(-A, A, A), tau if tau < T else 0.0
        turning = {math.log1p(-d * G): (0.0, G) for G in (ext.G_plus, ext.G_minus)}
        T = 2.0 / d * _x_integral(d, turning)
        if F0 == 0.0:       # the start is a turning point: G- at phase 0, G+ at T/2
            return T, ext, 0.0 if G0 == ext.G_minus else 0.5 * T
        # the time to the nearer turning point, so that a start close to one
        # (F0 small) leaves no narrow peak of the integrand inside the interval
        (x_plus, _), (x_minus, _) = sorted(turning.items())
        x0 = math.log1p(-d * G0)
        near = x_plus if x0 - x_plus <= x_minus - x0 else x_minus
        Q = 0.0
        if near != x0:
            Q = _x_integral(d, {near: turning[near], x0: (F0 * F0, G0)}) / d
        if near == x_minus:
            return T, ext, Q if F0 > 0.0 else (T - Q) % T
        return T, ext, 0.5 * T - math.copysign(Q, F0)
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        # a QuadratureError or RuntimeError keeps its type, the rest become ValueError
        kind = type(exc) if isinstance(exc, RuntimeError) else ValueError
        raise kind(f"period of the orbit through F0={F0}, G0={G0}, d={d}: {exc}") from None


class RadialProfile:
    """Initial radial data G0(r), F0(r) with optional analytic derivatives.

    Derivatives fall back to central differences with step 1e-6 * max(1, r).
    Admissibility (lambda0(r) < 1, i.e. nonnegative density) is checked on a
    grid of [0, 6] at construction time.
    """

    def __init__(
        self,
        G0: Callable[[float], float],
        F0: Callable[[float], float],
        d: int = 2,
        dG0: Optional[Callable[[float], float]] = None,
        dF0: Optional[Callable[[float], float]] = None,
        label: str = "custom",
    ):
        self.G0 = G0
        self.F0 = F0
        self.d = check_dimension(d)
        self.dG0 = dG0
        self.dF0 = dF0
        self.label = label
        rr = linspace(0.0, _ADMISSIBILITY_RMAX, _ADMISSIBILITY_POINTS)
        lam = [self.lambda0(r) for r in rr]
        if any(v >= 1.0 for v in lam):
            bad = rr[lam.index(max(lam))]
            raise ValueError(
                f"inadmissible profile: lambda0({bad:.4g}) >= 1 (negative density)"
            )

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"RadialProfile({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def _deriv(self, fn: Callable[[float], float], r: float) -> float:
        h = 1e-6 * max(1.0, abs(r))
        if r - h < 0.0:
            return (fn(r + h) - fn(max(r - h, 0.0))) / (h + min(r, h))
        return (fn(r + h) - fn(r - h)) / (2.0 * h)

    def G0_prime(self, r: float) -> float:
        return self.dG0(r) if self.dG0 is not None else self._deriv(self.G0, r)

    def F0_prime(self, r: float) -> float:
        return self.dF0(r) if self.dF0 is not None else self._deriv(self.F0, r)

    def lambda0(self, r: float) -> float:
        return self.d * self.G0(r) + self.G0_prime(r) * r

    def div_v0(self, r: float) -> float:
        return self.d * self.F0(r) + self.F0_prime(r) * r


def gaussian_profile(K: float) -> RadialProfile:
    """Gaussian field pulse |E0(r)| = K r exp(-r^2) at rest (v0 = 0), d = 2.

    Divergence profile: lambda0(r) = 2 K (1 - r^2) exp(-r^2), peaking at the
    center with lambda0(0) = 2K, so admissibility requires K < 1/2.
    """
    if not 0.0 < K:
        raise ValueError(f"pulse amplitude K must be positive, got {K}")
    return RadialProfile(
        G0=lambda r: K * math.exp(-r * r),
        F0=lambda r: 0.0,
        d=2,
        dG0=lambda r: -2.0 * K * r * math.exp(-r * r),
        dF0=lambda r: 0.0,
        label=f"gaussian(K={K})",
    )


def constant_profile(F0: float, G0: float, d: int) -> RadialProfile:
    """Spatially constant factors; the characteristic flow is then affine."""
    return RadialProfile(
        G0=lambda r: G0,
        F0=lambda r: F0,
        d=d,
        dG0=lambda r: 0.0,
        dF0=lambda r: 0.0,
        label=f"constant(F0={F0}, G0={G0})",
    )


def profile_divergences(profile: RadialProfile, r0: float) -> tuple[float, float]:
    """Initial (lambda0, D0) of the characteristic starting at radius r0."""
    if r0 < 0.0:
        raise ValueError("radius must be nonnegative")
    return profile.lambda0(r0), profile.div_v0(r0)
