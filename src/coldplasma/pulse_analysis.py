"""Gaussian-pulse calculus: amplitude maps, fixed points and thresholds.

For the Gaussian pulse the center characteristic starts at rest with
divergence lambda0 = 2K.  Its orbit maximum F+ depends on lambda0 alone,
which turns the critical anchors S1/S2 of the bound families into self-maps
of lambda0.  Their fixed points, extremized over the free parameter sigma,
give the smoothness threshold Lambda1 and the blow-up threshold Lambda2; the
pulse classifier compares K against Lambda1/2 and Lambda2/2.

Fixed points are found by direct bracketed root finding (the source of
truth); Lambert W closed forms, re-derived from the fixed-point equations,
are carried as a cross-check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chaplygin_bounds import anchor_root_S1, anchor_root_S2
from .numerics import find_root, lambert_w, optimize_scalar

__all__ = [
    "DEFAULT_SIGMA1",
    "DEFAULT_SIGMA2",
    "PulseScenario",
    "FixedPointResult",
    "Thresholds",
    "PulseVerdict",
    "NoFixedPointError",
    "f_plus_of_lambda0",
    "lambda1_map",
    "lambda2_map",
    "fixed_point",
    "lambert_fixed_point",
    "optimize_thresholds",
    "classify_pulse",
]

DEFAULT_SIGMA1 = 0.5032
DEFAULT_SIGMA2 = 0.9423

_SQRT_HALF = np.sqrt(0.5)


class NoFixedPointError(ValueError):
    """The requested map has no fixed point on (0, 1)."""


@dataclass(frozen=True)
class PulseScenario:
    """Gaussian pulse of amplitude K; the center divergence is 2K."""

    K: float

    def __post_init__(self):
        if not 0.0 < self.K:
            raise ValueError(f"K must be positive, got {self.K}")
        if 2.0 * self.K >= 1.0:
            raise ValueError(f"inadmissible pulse: lambda0(0) = 2K = {2 * self.K} >= 1")

    @property
    def lambda0_at_origin(self) -> float:
        return 2.0 * self.K


def f_plus_of_lambda0(lam0: float) -> float:
    """Orbit velocity-factor maximum F+ for a centered resting state.

    The orbit through (F, G) = (0, lam0/2) in d = 2 has
    F+ = (1/2) sqrt(4 exp(-C-1) - 2) with C = 1/(lam0-1) - ln((1-lam0)/2).
    Defined for every lam0 < 1 (the radicand is then nonnegative); vanishes
    as lam0 -> 0.
    """
    if lam0 >= 1.0:
        raise ValueError(f"require lambda0 < 1 (positive density), got {lam0}")
    if lam0 == 0.0:
        return 0.0
    C = 1.0 / (lam0 - 1.0) - np.log((1.0 - lam0) / 2.0)
    radicand = 4.0 * np.exp(-C - 1.0) - 2.0
    if radicand < -1e-12:
        raise ValueError(f"F+ undefined: negative radicand at lambda0={lam0}")
    return 0.5 * np.sqrt(max(radicand, 0.0))


def _check_map_domain(lam0: float, sigma: float) -> None:
    if not 0.0 < lam0 < 1.0:
        raise ValueError(f"require 0 < lambda0 < 1, got {lam0}")
    if sigma <= 0.0:
        raise ValueError(f"require sigma > 0, got {sigma}")


def lambda1_map(lam0: float, sigma1: float) -> float:
    """Self-map whose fixed point bounds the smooth-first-rotation region.

    lambda1 = (1 + 4 b - (2b+1)(1-lam0) e^(lam0/(1-lam0))) / (4 b (b+1)),
    b = sigma1^2; identically equal to anchor_root_S1(sigma1, F+(lam0)) + 1.
    """
    _check_map_domain(lam0, sigma1)
    b = sigma1 * sigma1
    return (1.0 + 4.0 * b - (2.0 * b + 1.0) * (1.0 - lam0)
            * np.exp(lam0 / (1.0 - lam0))) / (4.0 * b * (b + 1.0))


def lambda2_map(lam0: float, sigma2: float) -> float:
    """Self-map whose fixed point bounds the guaranteed-blow-up region.

    Equals anchor_root_S2(sigma2, F+(lam0)) + 1: the +1 converts the
    critical anchor from s to divergence units; the threshold extrema pin
    this convention (see the two-route identity tests).  Requires
    0 < sigma2 < 1, sigma2 != 1/sqrt(2).
    """
    _check_map_domain(lam0, sigma2)
    if sigma2 >= 1.0:
        raise ValueError("require sigma2 < 1")
    if abs(sigma2 - _SQRT_HALF) < 1e-9:
        raise ValueError("sigma2 = 1/sqrt(2) is singular for the upper family")
    b = sigma2 * sigma2
    fp2 = 0.5 * ((1.0 - lam0) * np.exp(lam0 / (1.0 - lam0)) - 1.0)
    s2 = (2.0 * b - 1.0) * (fp2 * (2.0 * b + 1.0) - b * b) / (2.0 * b * (b - 1.0))
    return s2 + 1.0


@dataclass(frozen=True)
class FixedPointResult:
    """A located fixed point of one of the threshold maps."""

    which: str
    sigma: float
    lambda_star: float
    method: str
    residual: float


_MAPS = {"lambda1": lambda1_map, "lambda2": lambda2_map}


def fixed_point(which: str, sigma: float) -> FixedPointResult:
    """Fixed point of the chosen threshold map on (0, 1) by direct root find.

    Scans a 1000-point grid for a sign change of lambda - map(lambda) before
    refining; raises :class:`NoFixedPointError` when no bracket exists (the
    lambda2 map has no fixed point for sigma2 <= 1/sqrt(2)).
    """
    if which not in _MAPS:
        raise ValueError(f"which must be 'lambda1' or 'lambda2', got {which!r}")
    mp = _MAPS[which]

    def g(lam):
        return lam - mp(lam, sigma)

    grid = np.linspace(1e-6, 1.0 - 1e-6, 1001)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.array([g(x) for x in grid])
        finite = np.isfinite(vals)
        signs = np.sign(vals)
    root = None
    for i in range(len(grid) - 1):
        if finite[i] and finite[i + 1] and signs[i] * signs[i + 1] < 0.0:
            root = find_root(g, grid[i], grid[i + 1], tol=1e-14)
            break
    if root is None:
        raise NoFixedPointError(f"{which} map has no fixed point on (0,1) at sigma={sigma}")

    return FixedPointResult(which, sigma, float(root), "DirectRootFind", abs(g(root)))


def _lambert_from_linear_exp(p: float, q: float, branch: int) -> float:
    """Solve x e^(1/x) = p + q x for x via t = 1/x and Lambert W.

    Rearranged: e^t = p t + q, hence t = -q/p - W(-.exp(-q/p)/p) on the
    chosen branch.
    """
    arg = -np.exp(-q / p) / p
    t = -q / p - lambert_w(branch, arg)
    return 1.0 / t


def lambert_fixed_point(which: str, sigma: float) -> float:
    """Closed-form fixed point via Lambert W (re-derived; cross-check only).

    For the lambda1 map the branch is -1 below sigma = 1/sqrt(2) and 0 above
    it, matching the sign change of 1 - 4 sigma^4 in the reduction; the
    lambda2 map uses branch -1 on its existence range sigma in
    (1/sqrt(2), 1).
    """
    b = sigma * sigma
    if which == "lambda1":
        # map: lam = (B - D x e^(1/x)/e)/A, x = 1-lam, A=4b(b+1), B=1+4b, D=2b+1
        A = 4.0 * b * (b + 1.0)
        p = np.e * (1.0 - 4.0 * b * b) / (2.0 * b + 1.0)
        q = np.e * A / (2.0 * b + 1.0)
        branch = -1 if sigma < _SQRT_HALF else 0
    elif which == "lambda2":
        alpha = (2.0 * b - 1.0) * (2.0 * b + 1.0) / (2.0 * b * (b - 1.0))
        beta = -(2.0 * b - 1.0) * b * b / (2.0 * b * (b - 1.0)) + 1.0
        # lam = alpha*(x e^(1/x)/e - 1)/2 + beta, x = 1 - lam
        p = (2.0 * np.e / alpha) * (1.0 + alpha / 2.0 - beta)
        q = -2.0 * np.e / alpha
        branch = -1
    else:
        raise ValueError(f"unknown map {which!r}")
    x = _lambert_from_linear_exp(p, q, branch)
    return 1.0 - x


@dataclass(frozen=True)
class Thresholds:
    """Extremized fixed points of the two threshold maps."""

    sigma1: float
    lambda1: float
    sigma2: float
    lambda2: float

    @property
    def smooth_K(self) -> float:
        return 0.5 * self.lambda1

    @property
    def blowup_K(self) -> float:
        return 0.5 * self.lambda2


@lru_cache(maxsize=1)
def optimize_thresholds() -> Thresholds:
    """Maximize the lambda1 fixed point and minimize the lambda2 fixed point.

    The extrema over sigma give the strongest pulse thresholds the bound
    families can certify: Lambda1 = max_sigma lambda1*(sigma) and
    Lambda2 = min_sigma lambda2*(sigma) over (1/sqrt(2), 1).
    """

    def l1_star(sig):
        try:
            return fixed_point("lambda1", sig).lambda_star
        except NoFixedPointError:
            return -np.inf

    def l2_star(sig):
        try:
            return fixed_point("lambda2", sig).lambda_star
        except NoFixedPointError:
            return np.inf

    sig1, lam1 = optimize_scalar(l1_star, 0.1, 1.5, tol=1e-8, mode="max")
    sig2, lam2 = optimize_scalar(l2_star, _SQRT_HALF + 1e-6, 1.0 - 1e-6,
                                 tol=1e-8, mode="min")
    return Thresholds(float(sig1), float(lam1), float(sig2), float(lam2))


class PulseVerdict(enum.Enum):
    SMOOTH_FIRST_PERIOD = "smooth-first-period"
    BLOW_UP_FIRST_PERIOD = "blow-up-first-period"
    INDETERMINATE = "indeterminate"


def classify_pulse(K: float) -> PulseVerdict:
    """Classify a Gaussian pulse against the computed amplitude thresholds.

    K below Lambda1/2 certifies smoothness through the first oscillation;
    K above Lambda2/2 certifies blow-up within it; between the two the
    criteria are silent.
    """
    scenario = PulseScenario(K)
    th = optimize_thresholds()
    if scenario.K < th.smooth_K:
        return PulseVerdict.SMOOTH_FIRST_PERIOD
    if scenario.K > th.blowup_K:
        return PulseVerdict.BLOW_UP_FIRST_PERIOD
    return PulseVerdict.INDETERMINATE
