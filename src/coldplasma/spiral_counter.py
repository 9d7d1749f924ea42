"""Compound bound spirals, certified revolution counts and lifetime bounds.

The outer spiral (curve L) alternates upper-family arcs above the axis with
lower-family arcs below it; the inner spiral (curve l) swaps the roles.
Each arc is a comparison curve anchored at the previous axis crossing with a
freshly evaluated velocity-factor bound F+, and ends at the curve's next
root.  Counting completed left-to-right crossing pairs yields the number of
oscillations guaranteed free of blow-up, and integrating dt = ds/(|s| sqrt(Z))
along each spiral turns the certified revolutions into two-sided estimates
of the smooth-solution lifetime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .chaplygin_bounds import BoundCurve, Side, sigma_curve
from .core_dynamics import RadialProfile, orbit_extremes, profile_divergences
from .numerics import BracketError, find_root, integrate_singular, linspace, linspace_point
from .pulse_analysis import DEFAULT_SIGMA1, DEFAULT_SIGMA2, f_plus_of_lambda0

__all__ = [
    "SpiralSegment",
    "Spiral",
    "LifetimeEstimate",
    "FieldLifetime",
    "build_spiral",
    "count_revolutions",
    "count_crossing_pairs",
    "lifetime",
    "segment_time",
    "guaranteed_field_lifetime",
]

_ROOT_TOL = 1e-14
_RIGHT_GRID = 4096   # points from s0 to just left of 0 that bracket an ascending root


@dataclass(frozen=True)
class SpiralSegment:
    """One arc of a compound spiral.

    ``lower_half`` selects the signed branch (D = -sqrt(Z) there, s runs
    right to left); on upper-half segments D = +sqrt(Z) and s increases.
    ``s_start`` and ``s_end`` are in traversal order.
    """

    curve: BoundCurve
    s_start: float
    s_end: float
    lower_half: bool

    @property
    def s_interval(self) -> tuple[float, float]:
        return (min(self.s_start, self.s_end), max(self.s_start, self.s_end))

    def sample(self, n: int = 200) -> tuple[list[float], list[float]]:
        """(s, D) polyline of the arc in traversal order, as two lists.

        The last sample is the arc's axis crossing, where D is 0 exactly,
        not the square root of Z's rounding error there.
        """
        s = linspace(self.s_start, self.s_end, n)
        d = [0.0 if z <= 0.0 else math.sqrt(z) for z in map(self.curve.value, s[:-1])]
        return s, ([-x for x in d] if self.lower_half else d) + [0.0]


@dataclass
class Spiral:
    """A compound bound spiral with its axis crossings (s-coordinates)."""

    kind: str                      # "outer" or "inner"
    start_lambda: float
    start_divv: float
    d: int
    sigma_pair: tuple[float, float]
    segments: list[SpiralSegment] = field(default_factory=list)
    crossings: list[float] = field(default_factory=list)
    stop_reason: str = ""

    @property
    def crossings_lambda(self) -> list[float]:
        return [s + 1.0 for s in self.crossings]

    def polyline(self, points_per_segment: int = 200) -> tuple[list[float], list[float]]:
        """Concatenated (lambda, D) samples of all segments, as two lists."""
        if not self.segments:
            return [self.start_lambda], [self.start_divv]
        lam, dd = [], []
        for seg in self.segments:
            s, dv = seg.sample(points_per_segment)
            lam += [x + 1.0 for x in s]
            dd += dv
        return lam, dd


def _left_root(curve: BoundCurve, s0: float) -> Optional[float]:
    """Root of the curve strictly left of s0, or None."""
    f = curve.value
    a = s0 - 1e-11 * max(1.0, abs(s0))
    if f(a) <= 0.0:
        return None
    step = 2e-3 * abs(s0)
    b = a - step
    for _ in range(400):
        if f(b) <= 0.0:
            return find_root(f, b, a, tol=_ROOT_TOL)
        a = b
        step *= 1.35
        b -= step
        if b < -1e4:
            return None
    return None


def _right_root(curve: BoundCurve, s0: float) -> Optional[float]:
    """Root of a sigma-family curve strictly right of s0 (toward 0-), or None.

    The bracket is ``[grid(i-1), grid(i)]`` for the first ``i`` with
    ``Z(grid(i)) <= 0`` on :data:`_RIGHT_GRID` even points from
    ``a = s0+`` to -1e-9, found by bisection: those points form a tail of
    the grid.  On s < 0 the curve ``Z = lin_a s + lin_b + C |s|**p`` is
    concave, so ``{Z > 0}`` is an interval and holds ``a``, or convex, and
    then monotone: its slope ``lin_a - C p |s|**(p-1)`` stays below
    ``lin_a <= 0`` where p > 1 (C > 0) and above ``lin_a > 0`` where p < 1
    (upper family with sigma**2 > 1/2).
    """
    f = curve.value
    a = s0 + 1e-11 * max(1.0, abs(s0))
    if f(a) <= 0.0:
        return None

    def grid(i):
        return linspace_point(a, -1e-9, _RIGHT_GRID, i)

    lo, hi = 1, _RIGHT_GRID     # the first index with Z <= 0 is in [lo, hi]; hi: none
    while lo < hi:
        mid = (lo + hi) // 2
        if f(grid(mid)) <= 0.0:
            hi = mid
        else:
            lo = mid + 1
    if lo == _RIGHT_GRID:
        return None
    return find_root(f, grid(lo - 1), grid(lo), tol=_ROOT_TOL)


def build_spiral(
    kind: str,
    start: tuple[float, float],
    fplus_rule: Optional[Callable[[float], float]] = None,
    sigma_pair: tuple[float, float] = (DEFAULT_SIGMA1, DEFAULT_SIGMA2),
    d: int = 2,
    max_rev: int = 16,
) -> Spiral:
    """Construct the compound spiral of the given kind from (lambda0, D0).

    ``fplus_rule`` maps the divergence at an axis crossing to the F+ bound
    used for the arcs issued there; it defaults to the centered-orbit map
    (valid at the symmetry center, where every crossing lies on a resting
    orbit) and is re-evaluated at every crossing.  Pass a constant rule for
    off-center characteristics, whose orbit F+ does not change along the
    characteristic.

    Construction stops when a lower-family (sigma1) descent can no longer be
    certified (its power coefficient turns nonnegative, so the curve never
    returns to the axis), when an arc has no further root, when a refreshed
    anchor escapes s < 0, or after ``max_rev`` full revolutions.
    """
    if kind not in ("outer", "inner"):
        raise ValueError(f"kind must be 'outer' or 'inner', got {kind!r}")
    lam0, D0 = start
    if lam0 >= 1.0:
        raise ValueError(f"start requires lambda0 < 1, got {lam0}")
    if fplus_rule is None:
        fplus_rule = f_plus_of_lambda0
    sig1, sig2 = sigma_pair

    spiral = Spiral(kind, lam0, D0, d, (sig1, sig2))
    s = lam0 - 1.0
    Z0 = D0 * D0

    if D0 < 0.0:
        going_down = True
    elif D0 > 0.0:
        going_down = False
    else:
        if lam0 == 0.0:
            spiral.stop_reason = "equilibrium start"
            return spiral
        going_down = lam0 > 0.0   # sign of dD/dt = -lambda at a resting crossing

    # curve family used on each half (outer: lower family below, upper above)
    desc_side = Side.LOWER if kind == "outer" else Side.UPPER
    asc_side = Side.UPPER if kind == "outer" else Side.LOWER
    sig_of = {Side.LOWER: sig1, Side.UPPER: sig2}

    f_plus = fplus_rule(lam0)
    z_anchor = Z0
    while len(spiral.crossings) < 2 * max_rev:
        side = desc_side if going_down else asc_side
        curve = sigma_curve(side, s, z_anchor, sig_of[side], f_plus, d)
        if going_down and side is Side.LOWER and curve.pow_coef >= 0.0:
            spiral.stop_reason = "lower curve unbounded (C1 >= 0)"
            break
        root = _left_root(curve, s) if going_down else _right_root(curve, s)
        if root is None:
            if not going_down and curve.value(-1e-9) > 0.0:
                spiral.stop_reason = "ascending arc reaches the vacuum line s = 0"
            else:
                spiral.stop_reason = "no further axis crossing on this arc"
            break
        spiral.segments.append(SpiralSegment(curve, s, root, going_down))
        spiral.crossings.append(root)
        s = root
        z_anchor = 0.0
        if s >= 0.0:
            spiral.stop_reason = "crossing escaped s < 0 (vacuum bound)"
            break
        f_plus = fplus_rule(s + 1.0)
        going_down = not going_down
    else:
        spiral.stop_reason = f"reached max_rev = {max_rev}"
    return spiral


def count_crossing_pairs(crossing_lambdas: Sequence[float]) -> int:
    """Completed revolutions in an ordered crossing sequence.

    A revolution completes each time a positive-side crossing follows a
    negative-side one (the trajectory has swept the lower half plane past
    the negative axis and returned).
    """
    n = 0
    seen_left = False
    for lam in crossing_lambdas:
        if lam < 0.0:
            seen_left = True
        elif seen_left:
            n += 1
            seen_left = False
    return n


def count_revolutions(spiral: Spiral) -> int:
    """Certified full revolutions of a built spiral (completed crossing pairs)."""
    return count_crossing_pairs(spiral.crossings_lambda)


@dataclass(frozen=True)
class LifetimeEstimate:
    """Two-sided estimate of the time to complete the certified revolutions."""

    T_lower: float
    T_upper: float
    revolutions: int


def segment_time(seg: SpiralSegment) -> float:
    """Passage time along one arc: integral of ds/(|s| sqrt(Z(s))).

    Z is evaluated as an increment from the nearer end of the arc, where it
    takes its anchor value at the start and 0 at the crossing, so the
    inverse-square-root singularity at a root is divided out exactly.
    """
    curve = seg.curve
    z_end = {seg.s_start: curve.Z0, seg.s_end: 0.0}

    def f(end, h):
        z = z_end[end] + curve.increment(end, h)
        # a Z that rounds to <= 0 gives NaN, which integrate_singular reports
        return 1.0 / (abs(end + h) * math.sqrt(z)) if z > 0.0 else math.nan

    return integrate_singular(f, *seg.s_interval)


def lifetime(spiral_inner: Spiral, spiral_outer: Spiral) -> LifetimeEstimate:
    """Lifetime bracket from a matched pair of spirals.

    Uses the revolutions certified by the outer spiral; both spirals
    contribute the passage time of the corresponding two-arcs-per-revolution
    prefix.  The inner spiral gives the lower estimate, the outer the upper.
    """
    if (spiral_inner.start_lambda, spiral_inner.start_divv) != (
        spiral_outer.start_lambda,
        spiral_outer.start_divv,
    ):
        raise ValueError("spirals must share the start point")
    n = min(count_revolutions(spiral_outer), count_revolutions(spiral_inner))
    if n == 0:
        return LifetimeEstimate(0.0, 0.0, 0)
    t_low = sum(segment_time(seg) for seg in spiral_inner.segments[: 2 * n])
    t_up = sum(segment_time(seg) for seg in spiral_outer.segments[: 2 * n])
    return LifetimeEstimate(t_low, t_up, n)


@dataclass(frozen=True)
class FieldLifetime:
    """Infimum of the guaranteed lifetime over a radius grid."""

    T_star: float
    r_at_min: Optional[float]
    per_radius: tuple[tuple[float, float], ...]   # (r0, T_lower) samples


def guaranteed_field_lifetime(
    profile: RadialProfile,
    r_grid: Sequence[float],
    sigma_pair: tuple[float, float] = (DEFAULT_SIGMA1, DEFAULT_SIGMA2),
    max_rev: int = 16,
) -> FieldLifetime:
    """Guaranteed smooth-solution lifetime: inf over the grid of T_lower(r0).

    Equilibrium characteristics contribute +inf (no oscillation, nothing to
    certify); characteristics whose spirals certify no full revolution
    contribute 0 (the method is silent there).  At the symmetry center the
    crossing-refreshed F+ rule applies; elsewhere the orbit's own F+ is used
    unchanged across arcs.
    """
    if len(r_grid) == 0:
        raise ValueError("empty radius grid")
    rows: list[tuple[float, float]] = []
    for r0 in r_grid:
        lam0, D0 = profile_divergences(profile, r0)
        F0, G0 = profile.F0(r0), profile.G0(r0)
        if abs(lam0) < 1e-14 and abs(D0) < 1e-14 and abs(F0) < 1e-14 and abs(G0) < 1e-14:
            rows.append((r0, math.inf))
            continue
        if r0 == 0.0:
            rule = None   # centered: refresh from the crossing divergence
        else:
            fp = orbit_extremes(F0, G0, profile.d).F_plus
            rule = lambda lam, fp=fp: fp
        outer = build_spiral("outer", (lam0, D0), rule, sigma_pair, profile.d, max_rev)
        inner = build_spiral("inner", (lam0, D0), rule, sigma_pair, profile.d, max_rev)
        est = lifetime(inner, outer)
        rows.append((r0, est.T_lower if est.revolutions > 0 else 0.0))
    r_min, t_star = min(rows, key=lambda row: row[1])
    return FieldLifetime(t_star, r_min, tuple(rows))
