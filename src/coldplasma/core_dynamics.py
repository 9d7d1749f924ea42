"""Exact characteristic dynamics of electrostatic cold-plasma oscillations.

Covers the divergence pair (lambda, D) = (Div E, Div v) along characteristics,
the radially symmetric velocity/field factors (F, G) with v = F r, E = G r in
dimension d, their first integral and closed orbits, the oscillation period,
and radial initial profiles (Gaussian pulse included).

Conventions: the electron density is n = 1 - lambda, so physically admissible
states have lambda < 1.  At the symmetry center r = 0 the divergences satisfy
lambda = d*G and D = d*F exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import find_root, integrate_singular, optimize_scalar

__all__ = [
    "check_dimension",
    "CharacteristicState",
    "PhasePoint",
    "RadialProfile",
    "FirstIntegralConstant",
    "OrbitExtremes",
    "rhs_divergence",
    "rhs_radial",
    "j_exact_radial",
    "first_integral_constant",
    "evaluate_first_integral",
    "first_integral_derivative",
    "orbit_extremes",
    "period",
    "gaussian_profile",
    "constant_profile",
    "profile_divergences",
]


def check_dimension(d: int) -> int:
    """Validate a space dimension (1, 2 or 3; 2 selects the log integral)."""
    if d not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {d!r}")
    return d


@dataclass
class CharacteristicState:
    """State carried along one characteristic curve."""

    t: float
    lam: float          # Div E
    div_v: float        # Div v
    F: float = 0.0
    G: float = 0.0
    r: float = 0.0

    @property
    def density(self) -> float:
        return 1.0 - self.lam


@dataclass(frozen=True)
class PhasePoint:
    """Point (s, Z) = (lambda - 1, D**2) of the comparison phase plane.

    Iterable, so it can stand in wherever an (s0, Z0) anchor pair is taken.
    """

    s: float
    Z: float

    def __post_init__(self):
        if self.s > 0.0:
            raise ValueError(f"s = lambda - 1 must be <= 0 (n >= 0), got {self.s}")
        if self.Z < 0.0:
            raise ValueError(f"Z = D**2 must be >= 0, got {self.Z}")

    def __iter__(self):
        return iter((self.s, self.Z))


@dataclass(frozen=True)
class FirstIntegralConstant:
    """Orbit constant of the radial (G, F) phase curves."""

    C: float
    d: int


def rhs_divergence(lam: float, D: float, J: float) -> tuple[float, float]:
    """Time derivatives (dlam/dt, dD/dt) of the divergence pair.

    J is the sum of principal 2x2 minors of the velocity Jacobian; the system
    is not closed until J is supplied (exact in radial symmetry, bounded
    otherwise).
    """
    return D * (1.0 - lam), -D * D + 2.0 * J - lam


def rhs_radial(F: float, G: float, d: int) -> tuple[float, float]:
    """Time derivatives (dF/dt, dG/dt) of the radial factors."""
    return -F * F - G, F - d * F * G


def j_exact_radial(F: float, D: float, d: int) -> float:
    """Exact J for radially symmetric flow: (d-1)*F*D - (d-1)*d*F**2/2."""
    return (d - 1) * F * D - 0.5 * (d - 1) * d * F * F


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
        C = (1.0 + 2.0 * F0 * F0) / (2.0 * G0 - 1.0) - np.log(abs(u))
    else:
        C = (1.0 - 2.0 * G0 + (d - 2) * F0 * F0) / ((d - 2) * abs(u) ** (2.0 / d))
    return FirstIntegralConstant(float(C), d)


def evaluate_first_integral(G, const: FirstIntegralConstant):
    """Y(G) = F**2 on the orbit defined by ``const`` (vectorized in G).

    May be negative outside the orbit's G-range; the orbit occupies
    ``{G : Y(G) >= 0}``.
    """
    G = np.asarray(G, dtype=float)
    d, C = const.d, const.C
    u = np.abs(1.0 - d * G)
    if d == 2:
        out = 0.5 * ((2.0 * G - 1.0) * np.log(u) + C * (2.0 * G - 1.0) - 1.0)
    else:
        out = (2.0 * G - 1.0) / (d - 2) + C * u ** (2.0 / d)
    return out if out.ndim else float(out)


def first_integral_derivative(G, const: FirstIntegralConstant):
    """dY/dG on the half-plane G < 1/d."""
    G = np.asarray(G, dtype=float)
    d, C = const.d, const.C
    u = 1.0 - d * G
    if d == 2:
        out = np.log(np.abs(u)) + 1.0 + C
    else:
        out = 2.0 / (d - 2) - 2.0 * C * np.abs(u) ** (2.0 / d - 1.0) * np.sign(u)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class OrbitExtremes:
    """Turning points and velocity-factor maximum of a closed radial orbit."""

    G_minus: float
    G_plus: float
    F_plus: float

    def __iter__(self):
        return iter((self.G_minus, self.G_plus, self.F_plus))


def _leftmost_bracket(Y: Callable[[float], float], G_hi: float) -> float:
    """Expand leftwards from G_hi until Y turns negative."""
    step = 0.05 * max(1.0, abs(G_hi))
    G = G_hi - step
    for _ in range(200):
        if Y(G) < 0.0:
            return G
        step *= 1.5
        G -= step
    raise ValueError("orbit is not closed: no left turning point found")


def _polish_turning_point(G: float, const: FirstIntegralConstant) -> float:
    """Newton steps on Y(G) = 0; a 1e-12 root error would leak ~sqrt(1e-12)
    into the period quadrature, so the turning points need near-machine
    accuracy."""
    for _ in range(3):
        dY = first_integral_derivative(G, const)
        if dY == 0.0:
            break
        G = G - evaluate_first_integral(G, const) / dY
    return G


def orbit_extremes(F0: float, G0: float, d: int, tol: float = 1e-12) -> OrbitExtremes:
    """Turning points G- < 0 <= G+ and F+ = max |F| of the orbit through (F0, G0).

    The orbit is the level set Y(G) = F**2 of the first integral; closed
    orbits exist for G0 < 1/d (always for d in {2, 3}; for d = 1 only when
    the orbit constant is negative).  F+ is located by maximizing Y between
    the turning points.
    """
    check_dimension(d)
    if G0 >= 1.0 / d:
        raise ValueError(f"require G0 < 1/d for a closed orbit, got G0={G0}")
    if F0 == 0.0 and G0 == 0.0:
        return OrbitExtremes(0.0, 0.0, 0.0)

    const = first_integral_constant(F0, G0, d)
    Y = lambda G: evaluate_first_integral(G, const)
    eps_hi = 1.0 / d - 1e-12

    if F0 != 0.0:
        G_plus = find_root(Y, G0, eps_hi, tol=tol)
        G_minus = find_root(Y, _leftmost_bracket(Y, G0), G0, tol=tol)
        G_plus = _polish_turning_point(G_plus, const)
        G_minus = _polish_turning_point(G_minus, const)
    else:
        # G0 itself is a turning point; the slope sign says which one
        slope = first_integral_derivative(G0, const)
        delta = 1e-9 * max(1.0, abs(G0))
        if abs(slope) < 1e-13:
            return OrbitExtremes(G0, G0, 0.0)
        if slope > 0.0:
            G_minus = G0
            G_plus = _polish_turning_point(find_root(Y, G0 + delta, eps_hi, tol=tol), const)
        else:
            G_plus = G0
            G_minus = _polish_turning_point(
                find_root(Y, _leftmost_bracket(Y, G0), G0 - delta, tol=tol), const
            )

    gm, y_max = optimize_scalar(Y, G_minus, G_plus, tol=tol, mode="max")
    return OrbitExtremes(float(G_minus), float(G_plus), float(np.sqrt(max(y_max, 0.0))))


def g_at_maximum(const: FirstIntegralConstant) -> float:
    """Closed-form maximum point of Y(G) for d = 2: 2*G_m - 1 = -exp(-C-1)."""
    if const.d != 2:
        raise ValueError("closed form available for d = 2 only")
    return 0.5 * (1.0 - np.exp(-const.C - 1.0))


def period(F0: float, G0: float, d: int, eps: float = 1e-12) -> float:
    """Oscillation period of the closed radial orbit through (F0, G0).

    T = 2 * integral over [G-, G+] of dG / ((1 - d G) sqrt(Y(G))); the
    integrand's inverse-square-root turning-point singularities are handled
    by the dedicated quadrature.
    """
    ext = orbit_extremes(F0, G0, d)
    if ext.G_plus - ext.G_minus < 1e-13:
        raise ValueError("point orbit has no period")
    const = first_integral_constant(F0, G0, d)

    def f(G):
        return 1.0 / ((1.0 - d * G) * np.sqrt(evaluate_first_integral(G, const)))

    # limits of u*f(end +/- u^2) at the turning points, where Y ~ Y'(G0) (G-G0)
    dY_m = first_integral_derivative(ext.G_minus, const)
    dY_p = first_integral_derivative(ext.G_plus, const)
    lim_m = 1.0 / ((1.0 - d * ext.G_minus) * np.sqrt(abs(dY_m)))
    lim_p = 1.0 / ((1.0 - d * ext.G_plus) * np.sqrt(abs(dY_p)))
    half = integrate_singular(
        f,
        ext.G_minus,
        ext.G_plus,
        singular_ends=(True, True),
        eps=eps,
        u_floor_scale=1e-6,
        end_limits=(lim_m, lim_p),
    )
    return 2.0 * half


@dataclass
class RadialProfile:
    """Initial radial data G0(r), F0(r) with optional analytic derivatives.

    Derivatives fall back to central differences with step 1e-6 * max(1, r).
    Admissibility (lambda0(r) < 1, i.e. nonnegative density) is checked on a
    grid at construction time.
    """

    G0: Callable[[float], float]
    F0: Callable[[float], float]
    d: int = 2
    dG0: Optional[Callable[[float], float]] = None
    dF0: Optional[Callable[[float], float]] = None
    label: str = "custom"
    admissibility_rmax: float = 6.0
    admissibility_points: int = 257

    def __post_init__(self):
        check_dimension(self.d)
        rr = np.linspace(0.0, self.admissibility_rmax, self.admissibility_points)
        lam = np.array([self.lambda0(r) for r in rr])
        if np.any(lam >= 1.0):
            bad = rr[int(np.argmax(lam))]
            raise ValueError(
                f"inadmissible profile: lambda0({bad:.4g}) >= 1 (negative density)"
            )

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
    if K <= 0.0:
        raise ValueError(f"pulse amplitude K must be positive, got {K}")
    return RadialProfile(
        G0=lambda r: K * np.exp(-r * r),
        F0=lambda r: 0.0,
        d=2,
        dG0=lambda r: -2.0 * K * r * np.exp(-r * r),
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
