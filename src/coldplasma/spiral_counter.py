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
from typing import NamedTuple, Optional, Sequence

from .chaplygin_bounds import BoundCurve, Side, sigma_curve
from .numerics import expm1_inf, integrate_singular, linspace, newton_root, power_inf
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

_SAMPLES_PER_ARC = 200   # points of SpiralSegment.sample


class SpiralSegment(NamedTuple):
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

    def sample(self) -> tuple[list[float], list[float]]:
        """(s, D) polyline of the arc in traversal order, as two lists of
        ``_SAMPLES_PER_ARC`` points.

        The first sample is the arc's anchor, where Z is Z0 exactly, and the
        last its axis crossing, where D is 0 exactly; neither is the square
        root of Z's rounding error there.
        """
        s = linspace(self.s_start, self.s_end, _SAMPLES_PER_ARC)
        z = [self.curve.Z0, *map(self.curve.value, s[1:-1])]
        d = [0.0 if zi <= 0.0 else math.sqrt(zi) for zi in z]
        return s, ([-x for x in d] if self.lower_half else d) + [0.0]


class Spiral:
    """A compound bound spiral with its axis crossings (s-coordinates)."""

    def __init__(
        self,
        kind: str,                 # "outer" or "inner"
        start_lambda: float,
        start_divv: float,
        d: int,
        sigma_pair: tuple[float, float],
        segments: Optional[list[SpiralSegment]] = None,
        crossings: Optional[list[float]] = None,
        stop_reason: str = "",
    ):
        self.kind = kind
        self.start_lambda = start_lambda
        self.start_divv = start_divv
        self.d = d
        self.sigma_pair = sigma_pair
        self.segments = [] if segments is None else segments
        self.crossings = [] if crossings is None else crossings
        self.stop_reason = stop_reason

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"Spiral({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    @property
    def crossings_lambda(self) -> list[float]:
        return [s + 1.0 for s in self.crossings]


def _arc_root(curve: BoundCurve, a: float, b: float) -> Optional[float]:
    """The first root of the curve met walking from ``a`` toward ``b``, or None.

    The walk takes steps of ``2e-3 |s0|`` (``s0`` the curve's anchor), each
    1.35 times the last, the final one clamped at ``b``, and hands the first
    step that ends with ``Z <= 0``, with Z at both its ends, to
    :func:`newton_root` on ``BoundCurve.value_slope``.  On s < 0 a
    sigma-family curve ``Z = lin_a s + lin_b + C |s|**p`` is concave, so
    ``{Z > 0}`` is an interval and holds ``a``, or convex, and then
    monotone: its slope ``lin_a - C p |s|**(p-1)`` stays below ``lin_a <= 0``
    where p > 1 (C > 0) and above ``lin_a > 0`` where p < 1 (upper family
    with sigma**2 > 1/2).  Either way ``{Z <= 0}`` on each side of a point
    with ``Z > 0`` is a tail, so the step found holds the only root on the
    way, and a ``Z`` still positive at ``b`` means none.
    """
    f = curve.value
    za = f(a)
    if za <= 0.0:
        return None
    step = math.copysign(2e-3 * abs(curve.s0), b - a)
    while a != b:
        x = min(a + step, b) if step > 0.0 else max(a + step, b)
        zx = f(x)
        if zx <= 0.0:
            if step > 0.0:
                return newton_root(curve.value_slope, a, x, za, zx)
            return newton_root(curve.value_slope, x, a, zx, za)
        a, za = x, zx
        step *= 1.35
    return None


def build_spiral(
    kind: str,
    start: tuple[float, float],
    f_plus: Optional[float] = None,
    sigma_pair: tuple[float, float] = (DEFAULT_SIGMA1, DEFAULT_SIGMA2),
    d: int = 2,
    max_rev: int = 16,
) -> Spiral:
    """Construct the compound spiral of the given kind from (lambda0, D0).

    ``f_plus`` is the F+ bound of every arc: pass the orbit's own F+, which
    does not change along the characteristic.  ``None`` (d = 2 only; other
    dimensions raise ValueError) takes F+ at the start and again at every
    axis crossing from :func:`f_plus_of_lambda0`, the F+ of the resting d = 2
    orbit through ``(F, G) = (0, lambda/2)``: this is the characteristic at
    the centre of a pulse at rest, where ``lambda = 2G`` and a crossing
    (``D = 2F = 0``) is a turning point of the orbit.

    Each arc runs from its anchor to the first root of its curve, left to
    ``s = -1e4`` on a descent and right to ``s = -1e-9`` on an ascent
    (:func:`_arc_root`).

    Construction stops when a lower-family (sigma1) descent can no longer be
    certified (its power coefficient turns nonnegative, so the curve never
    returns to the axis), when an arc has no further root, or after
    ``max_rev`` full revolutions.
    """
    if kind not in ("outer", "inner"):
        raise ValueError(f"kind must be 'outer' or 'inner', got {kind!r}")
    if max_rev < 1:
        raise ValueError(f"max_rev must be at least 1, got {max_rev}")
    lam0, D0 = start
    if lam0 >= 1.0:
        raise ValueError(f"start requires lambda0 < 1, got {lam0}")
    refresh = f_plus is None
    if refresh and d != 2:
        raise ValueError(f"f_plus=None takes F+ from the d = 2 resting-centre map, not d = {d}")
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

    if refresh:
        f_plus = f_plus_of_lambda0(lam0)
    z_anchor = Z0
    while len(spiral.crossings) < 2 * max_rev:
        side = desc_side if going_down else asc_side
        curve = sigma_curve(side, s, z_anchor, sig_of[side], f_plus, d)
        if going_down and side is Side.LOWER and curve.pow_coef >= 0.0:
            spiral.stop_reason = "lower curve unbounded (C1 >= 0)"
            break
        far = -1e4 if going_down else -1e-9
        nudge = 1e-11 * max(1.0, abs(s))
        root = _arc_root(curve, s - nudge if going_down else s + nudge, far)
        if root is None:
            if not going_down and curve.value(far) > 0.0:
                spiral.stop_reason = "ascending arc reaches the vacuum line s = 0"
            else:
                spiral.stop_reason = "no further axis crossing on this arc"
            break
        spiral.segments.append(SpiralSegment(curve, s, root, going_down))
        spiral.crossings.append(root)
        s = root
        z_anchor = 0.0
        if refresh:
            f_plus = f_plus_of_lambda0(s + 1.0)
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


class LifetimeEstimate(NamedTuple):
    """Two-sided estimate of the time to complete the certified revolutions."""

    T_lower: float
    T_upper: float
    revolutions: int


def segment_time(seg: SpiralSegment) -> float:
    """Passage time along one arc: integral of ds/(|s| sqrt(Z(s))).

    Z is evaluated as an increment from the nearer end of the arc, where it
    takes its anchor value at the start and 0 at the crossing, so the
    inverse-square-root singularity at a root is divided out exactly: Z(end
    + h) = Z_end + h (quad (2 end + h) + lin_a) + pow_coef |end|**expo
    expm1(expo log1p(h/end)), with each end's Z and power term taken once.
    """
    _, Z0, quad, lin_a, _, pow_coef, expo = seg.curve
    ends = {end: (z, pow_coef * power_inf(abs(end), expo))
            for end, z in ((seg.s_start, Z0), (seg.s_end, 0.0))}

    def f(end, h):
        z_end, power = ends[end]
        z = z_end + (h * (quad * (2.0 * end + h) + lin_a)
                     + power * expm1_inf(expo * math.log1p(h / end)))
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
    n = _certified_revolutions(spiral_inner, spiral_outer)
    return LifetimeEstimate(_passage_time(spiral_inner, n), _passage_time(spiral_outer, n), n)


def _certified_revolutions(spiral_inner: Spiral, spiral_outer: Spiral) -> int:
    """Revolutions whose passage time :func:`lifetime` brackets."""
    return min(count_revolutions(spiral_outer), count_revolutions(spiral_inner))


def _passage_time(spiral: Spiral, n: int) -> float:
    """Passage time of a spiral's first n revolutions: its first 2n arcs (0.0 for n = 0)."""
    return sum((segment_time(seg) for seg in spiral.segments[: 2 * n]), 0.0)


class FieldLifetime(NamedTuple):
    """Infimum of the guaranteed lifetime over a radius grid."""

    T_star: float
    r_at_min: Optional[float]
    per_radius: tuple[tuple[float, float], ...]   # (r0, T_lower) samples


def guaranteed_field_lifetime(runs: Sequence) -> FieldLifetime:
    """Guaranteed smooth-solution lifetime: inf over the grid of T_lower(r0).

    ``runs`` holds one :class:`~coldplasma.oracle.CharacteristicRun` per radius.
    The spirals of a run start at its (lambda0, D0), take its ``F_plus`` and
    :func:`build_spiral`'s default sigma pair and revolution cap.
    Equilibrium characteristics contribute +inf (no oscillation, nothing to
    certify); characteristics whose spirals certify no full revolution
    contribute 0 (the method is silent there).  Only the centre r0 = 0 of a
    d = 2 profile at rest there (F0(0) = 0) passes ``f_plus=None``, which
    refreshes F+ at every crossing (:func:`build_spiral`).
    Where every radius is at rest, ``T_star`` is inf and ``r_at_min`` None.
    """
    if len(runs) == 0:
        raise ValueError("empty radius grid")
    rows: list[tuple[float, float]] = []
    for run in runs:
        lam0, D0, F0, _ = run.start
        if all(abs(x) < 1e-14 for x in run.start):
            rows.append((run.r0, math.inf))
            continue
        centre_at_rest = run.r0 == 0.0 and run.d == 2 and F0 == 0.0
        fp = None if centre_at_rest else run.F_plus
        outer = build_spiral("outer", (lam0, D0), fp, d=run.d)
        inner = build_spiral("inner", (lam0, D0), fp, d=run.d)
        # T_lower of lifetime(inner, outer), without the outer spiral's arcs
        rows.append((run.r0, _passage_time(inner, _certified_revolutions(inner, outer))))
    r_min, t_star = min(rows, key=lambda row: row[1])
    return FieldLifetime(t_star, r_min if t_star < math.inf else None, tuple(rows))
