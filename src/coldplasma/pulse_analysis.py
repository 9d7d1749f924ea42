"""Gaussian-pulse calculus: amplitude maps, fixed points and thresholds.

For the Gaussian pulse the center characteristic starts at rest with
divergence lambda0 = 2K.  Its orbit maximum F+ depends on lambda0 alone,
which turns the critical anchors S1/S2 of the bound families into self-maps
of lambda0.  Their fixed points, extremized over the free parameter sigma,
give the smoothness threshold Lambda1 and the blow-up threshold Lambda2; the
pulse classifier compares K against Lambda1/2 and Lambda2/2.

Each threshold is one root of a closed-form equation in b = sigma^2.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .numerics import BracketError, exp_inf, expm1_inf, find_root

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
    "optimize_thresholds",
    "classify_pulse",
]

DEFAULT_SIGMA1 = 0.5032
DEFAULT_SIGMA2 = 0.9423

_SQRT_HALF = math.sqrt(0.5)


class NoFixedPointError(ValueError):
    """The requested map has no fixed point on (0, 1)."""


class PulseScenario:
    """Gaussian pulse of amplitude K; the center divergence is 2K.  K is
    read-only."""

    __slots__ = ("_K",)

    def __init__(self, K: float):
        if not 0.0 < K:
            raise ValueError(f"K must be positive, got {K}")
        if 2.0 * K >= 1.0:
            raise ValueError(f"inadmissible pulse: lambda0(0) = 2K = {2 * K} >= 1")
        self._K = K

    @property
    def K(self) -> float:
        return self._K

    def __eq__(self, other):
        return self._K == other._K if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._K)

    def __repr__(self):
        return f"PulseScenario(K={self._K!r})"

    @property
    def lambda0_at_origin(self) -> float:
        return 2.0 * self.K


def f_plus_of_lambda0(lam0: float) -> float:
    """Orbit velocity-factor maximum F+ for a centered resting state.

    The orbit through (F, G) = (0, lam0/2) in d = 2 has 1 + 2 F+^2 =
    X(lam0) := (1-lam0) e^(lam0/(1-lam0)); log X = 1/n - 1 + log n with
    n = 1 - lam0 is >= 0 for every lam0 < 1 and goes into expm1 directly.
    """
    if lam0 >= 1.0:
        raise ValueError(f"require lambda0 < 1 (positive density), got {lam0}")
    return math.sqrt(0.5 * expm1_inf(lam0 / (1.0 - lam0) + math.log1p(-lam0)))


def _check_map_domain(lam0: float, sigma: float) -> None:
    if not 0.0 < lam0 < 1.0:
        raise ValueError(f"require 0 < lambda0 < 1, got {lam0}")
    if sigma <= 0.0:
        raise ValueError(f"require sigma > 0, got {sigma}")


def lambda1_map(lam0: float, sigma1: float) -> float:
    """Self-map whose fixed point bounds the smooth-first-rotation region.

    lambda1 = (1 + 4 b - (2b+1)(1-lam0) e^(lam0/(1-lam0))) / (4 b (b+1)),
    b = sigma1^2; identically equal to the lower family's critical anchor
    S1(sigma1, F+(lam0)) + 1, where its power coefficient C1 vanishes.
    """
    _check_map_domain(lam0, sigma1)
    b = sigma1 * sigma1
    return (1.0 + 4.0 * b - (2.0 * b + 1.0) * (1.0 - lam0)
            * exp_inf(lam0 / (1.0 - lam0))) / (4.0 * b * (b + 1.0))


def lambda2_map(lam0: float, sigma2: float) -> float:
    """Self-map whose fixed point bounds the guaranteed-blow-up region.

    Equals the upper family's critical anchor S2(sigma2, F+(lam0)) + 1: the
    +1 converts the anchor from s to divergence units; the threshold extrema pin
    this convention (see the two-route identity tests).  Requires
    0 < sigma2 < 1, sigma2 != 1/sqrt(2).
    """
    _check_map_domain(lam0, sigma2)
    if sigma2 >= 1.0:
        raise ValueError("require sigma2 < 1")
    if abs(sigma2 - _SQRT_HALF) < 1e-9:
        raise ValueError("sigma2 = 1/sqrt(2) is singular for the upper family")
    b = sigma2 * sigma2
    fp2 = 0.5 * ((1.0 - lam0) * exp_inf(lam0 / (1.0 - lam0)) - 1.0)
    s2 = (2.0 * b - 1.0) * (fp2 * (2.0 * b + 1.0) - b * b) / (2.0 * b * (b - 1.0))
    return s2 + 1.0


class FixedPointResult(NamedTuple):
    """A located fixed point of one of the threshold maps."""

    which: str
    sigma: float
    lambda_star: float
    residual: float


_MAPS = {"lambda1": lambda1_map, "lambda2": lambda2_map}


def fixed_point(which: str, sigma: float) -> FixedPointResult:
    """Fixed point of the chosen threshold map on (0, 1) by one root find.

    Wherever a map has a fixed point it strictly decreases in lambda (lambda1
    for every sigma, lambda2 for sigma in (1/sqrt(2), 1)), so
    lambda - map(lambda) changes sign at most once: one bracket
    [1e-6, 1 - 1e-6] holds it, and no grid is scanned.  Near 1 the map
    overflows, which the root finder takes as an infinity of the right sign.
    Raises :class:`NoFixedPointError` when the bracket has no sign change
    (the lambda2 map has no fixed point for sigma2 <= 1/sqrt(2)).
    """
    if which not in _MAPS:
        raise ValueError(f"which must be 'lambda1' or 'lambda2', got {which!r}")
    mp = _MAPS[which]

    def g(lam):
        return lam - mp(lam, sigma)

    try:
        root = find_root(g, 1e-6, 1.0 - 1e-6, tol=1e-14)
    except BracketError:
        raise NoFixedPointError(
            f"{which} map has no fixed point on (0,1) at sigma={sigma}") from None
    return FixedPointResult(which, sigma, root, abs(g(root)))


class Thresholds(NamedTuple):
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


def _stationary_point(which: str, b: float) -> tuple[float, float]:
    """(n, X) = (1 - lambda, X) where the chosen map is stationary in b = sigma^2."""
    if which == "lambda1":
        D = 2.0 * b * b + 2.0 * b + 1.0
        return (2.0 * b + 1.0) ** 2 / (2.0 * D), (4.0 * b * b + 2.0 * b + 1.0) / D
    D = 4.0 * b * b - 2.0 * b + 1.0
    X = (1.0 - 2.0 * b + 2.0 * b * b + 8.0 * b ** 3 - 4.0 * b ** 4) / D
    return b * (b + 1.0) * (2.0 * b - 1.0) ** 2 / D, X


def _threshold(which: str, lo: float, hi: float) -> tuple[float, float]:
    """(sigma, Lambda) at the one root in b of log n + 1/n - 1 - log X(b)."""

    def g(b):
        n, X = _stationary_point(which, b)
        return math.log(n) + 1.0 / n - 1.0 - math.log(X)

    b = find_root(g, lo, hi, tol=1e-15)
    return math.sqrt(b), 1.0 - _stationary_point(which, b)[0]


def optimize_thresholds() -> Thresholds:
    """Maximize the lambda1 fixed point and minimize the lambda2 fixed point.

    The extrema over sigma give the strongest pulse thresholds the bound
    families can certify: Lambda1 = max_sigma lambda1*(sigma) and
    Lambda2 = min_sigma lambda2*(sigma) over (1/sqrt(2), 1).  Both maps see
    lambda only through X(lambda) = 1 + 2 F+^2; the fixed point of a map that
    decreases in lambda is extremal in b = sigma^2 where d map/db = 0 at
    fixed X, which is linear in X, so X and n = 1 - lambda are rational in b:
      lambda1: X = (4b^2+2b+1)/(2b^2+2b+1), n = (2b+1)^2/(2(2b^2+2b+1));
      lambda2: X = (1-2b+2b^2+8b^3-4b^4)/(4b^2-2b+1),
               n = b(b+1)(2b-1)^2/(4b^2-2b+1) (exact near b = 1/2).
    What is left is X(1 - n) = X(b): log n + 1/n - 1 = log X(b).  On each
    bracket n < 1 and both n and X strictly increase in b (for lambda2
    through their common factor 8b^3-6b^2+6b-1 > 0), while log n + 1/n - 1
    decreases in n < 1, so the difference has exactly one root.
    """
    sig1, lam1 = _threshold("lambda1", 0.01, 2.25)
    sig2, lam2 = _threshold("lambda2", (_SQRT_HALF + 1e-6) ** 2, (1.0 - 1e-6) ** 2)
    return Thresholds(sig1, lam1, sig2, lam2)


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
