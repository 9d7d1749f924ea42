"""Ground-truth solution of the exact characteristic systems.

For radial data the state (F, G, lambda, D, r) obeys a closed five-variable
ODE system along each characteristic (the coupling term J is exact in radial
symmetry); d = 1 reproduces the one-dimensional dynamics, and spatially
constant factors reproduce the affine flows.  That system is singular at a
density blow-up, so the oracle solves its linearization instead.  Along a
characteristic the inverse density w = 1/(1 - lambda) and p = w' = D w obey

    w'' = 2(d-1) F w' - ((d-1) d F**2 + 1) w + 1,

a Hill equation driven by the (F, G) orbit (Magnus & Winkler, *Hill's
Equation*, 1966).  It is linear and smooth through a blow-up, which happens
exactly where w reaches 0; then lambda = 1 - 1/w and D = p/w.  Since
G' = F (1 - d G), r = r0 ((1 - d G0)/(1 - d G))**(1/d) needs no ODE.

For d = 2 and 3, (F, G) is periodic with T = ``period(F0, G0, d)``: one
period is integrated and the state at the start of each later period is an
iterate of an affine map (Floquet theory; Coddington & Levinson, *Theory of
Ordinary Differential Equations*, 1955, ch. 3).  For d = 1 the equation has
constant coefficients, w = 1 + A cos t + B sin t, the Lagrangian solution of
1D cold-plasma oscillations (Dawson, Phys. Rev. 113, 383, 1959), and (F, G)
follow the same law through v = 1/(1 - G), so no ODE runs.  The oracle
records the axis crossings D = 0 and the blow-up time, and verifies the
comparison-curve sandwich along arcs between crossings.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chaplygin_bounds import Side, sigma_curve
from .core_dynamics import (
    CharacteristicState,
    RadialProfile,
    orbit_extremes,
    period,
    profile_divergences,
    rhs_radial,
)
from .numerics import OdeTrajectory, QuadratureError, integrate
from .pulse_analysis import DEFAULT_SIGMA1, DEFAULT_SIGMA2
from .spiral_counter import count_crossing_pairs

__all__ = [
    "CharacteristicRun",
    "BlowupRecord",
    "run_characteristic",
    "detect_blowup",
    "count_revolutions_oracle",
    "sandwich_check",
    "blowup_sweep",
]

_SAMPLES_PER_ARC = 400   # oracle times compared against the envelope per arc
_ONE_D_NODES = 64        # trajectory nodes per 2 pi of the closed-form d = 1 runs
_XTOL = 4.0 * sys.float_info.epsilon   # relative stop of the root iterations
_MAXITER = 100


@dataclass(frozen=True)
class BlowupRecord:
    """Outcome of blow-up detection on one characteristic run."""

    detected: bool
    t_star: Optional[float] = None
    method: Optional[str] = None   # "inverse-density-zero": t* is the root of w


@dataclass
class CharacteristicRun:
    """One characteristic solution with its crossing log and blow-up time.

    ``trajectory`` holds the state (F, G, lambda, D, r) on its nodes and
    evaluates it at any time; ``t_star`` is the first zero of w (None when
    w stays positive up to ``t_max``).
    """

    profile: RadialProfile
    r0: float
    trajectory: OdeTrajectory
    crossing_times: np.ndarray       # times of D = 0 crossings (t > 0)
    crossing_lambdas: np.ndarray     # lambda at those crossings
    d_cap: float
    t_star: Optional[float] = None

    @property
    def d(self) -> int:
        return self.profile.d

    def state(self, t):
        """(F, G, lambda, D, r) at time t."""
        return self.trajectory(t)

    def characteristic_state(self, t) -> CharacteristicState:
        F, G, lam, Dv, r = self.trajectory(t)
        return CharacteristicState(float(t), float(lam), float(Dv),
                                   float(F), float(G), float(r))


def _period_rhs(d: int):
    """(F, G) with two fundamental solutions and one particular solution of
    the (w, p) system: 8 variables, on floats."""
    b_coef, a_coef = 2.0 * (d - 1), float((d - 1) * d)

    def rhs(t, y):
        F, G, w1, p1, w2, p2, wc, pc = y
        b, a = b_coef * F, a_coef * F * F + 1.0
        return (*rhs_radial(F, G, d), p1, b * p1 - a * w1, p2, b * p2 - a * w2,
                pc, b * pc - a * wc + 1.0)

    return rhs


class _Floquet:
    """(F, G, w, p) along a characteristic with d = 2 or 3, from one period.

    One integration carries (F, G) over a period T together with the
    fundamental solutions (w1, p1), (w2, p2) (the identity at t = 0) and the
    particular solution (wc, pc) (zero at t = 0) of the (w, p) system.  At
    t = kT + tau, (w, p) = w_k (w1, p1)(tau) + p_k (w2, p2)(tau) + (wc, pc)(tau),
    and the state at the start of period k + 1 is M (w_k, p_k) + c with M
    and c those solutions at tau = T.  Without a period (the point orbit, or
    one ``period`` cannot resolve) T is infinite: the integration spans
    ``[0, t_max]`` and k is always 0.
    """

    def __init__(self, F0, G0, w0, p0, d, t_max, tol):
        try:
            T = period(F0, G0, d)
        except (ValueError, QuadratureError):
            T = math.inf
        self.d = d
        self.one = one = integrate(_period_rhs(d), [F0, G0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                                   (0.0, min(T, t_max)), tol=tol, magnitude_cap=math.inf)
        n = max(1, math.ceil(t_max / T))     # periods begun before t_max
        m00, m10, m01, m11, c0, c1 = one.y[2:, -1].tolist()
        starts = [(w0, p0)]
        for _ in range(n - 1):
            w, p = starts[-1]
            starts.append((m00 * w + m01 * p + c0, m10 * w + m11 * p + c1))
        self.t0 = T * np.arange(n) if n > 1 else np.zeros(1)
        self.wk, self.pk = np.array(starts).T
        # the nodes of every period before t_max, then t_max itself
        tau, Y = one.t[:-1], one.y[:, :-1]
        t = (self.t0[:, None] + tau).ravel()
        keep = t < t_max
        nodes = [np.tile(Y[0], n), np.tile(Y[1], n),
                 (np.outer(self.wk, Y[2]) + np.outer(self.pk, Y[4]) + Y[6]).ravel(),
                 (np.outer(self.wk, Y[3]) + np.outer(self.pk, Y[5]) + Y[7]).ravel()]
        self.t = np.append(t[keep], t_max)
        self.nodes = [np.append(v[keep], e) for v, e in zip(nodes, self(t_max))]

    def __call__(self, t):
        """(F, G, w, p) at a time or an array of times."""
        t = np.asarray(t, dtype=float)
        k = np.maximum(np.searchsorted(self.t0, t, side="right") - 1, 0)
        Y = self.one(t - self.t0[k])
        wk, pk = self.wk[k], self.pk[k]
        return Y[0], Y[1], Y[2] * wk + Y[4] * pk + Y[6], Y[3] * wk + Y[5] * pk + Y[7]

    def hill(self, t):
        """(w, p, p') at an array of times."""
        F, _, w, p = self(t)
        d = self.d
        return w, p, 2.0 * (d - 1) * F * p - ((d - 1) * d * F * F + 1.0) * w + 1.0


class _Lagrangian:
    """(F, G, w, p) along a characteristic with d = 1, in closed form.

    There w'' = 1 - w, so w = 1 + A cos t + B sin t with A = w0 - 1 and
    B = p0, and v = 1/(1 - G) obeys the same equation with v' = F v.  The
    nodes are evenly spaced, ``_ONE_D_NODES`` per 2 pi.
    """

    def __init__(self, F0, G0, w0, p0, t_max):
        v0 = 1.0 / (1.0 - G0)
        self.coef = (w0 - 1.0, p0, v0 - 1.0, F0 * v0)
        n = math.ceil(t_max * _ONE_D_NODES / (2.0 * math.pi))
        self.t = np.linspace(0.0, t_max, n + 1)
        self.nodes = list(self(self.t))

    def __call__(self, t):
        A, B, a, b = self.coef
        c, s = np.cos(t), np.sin(t)
        v = 1.0 + a * c + b * s
        return (b * c - a * s) / v, 1.0 - 1.0 / v, 1.0 + A * c + B * s, B * c - A * s

    def hill(self, t):
        A, B, _, _ = self.coef
        c, s = np.cos(t), np.sin(t)
        w = 1.0 + A * c + B * s
        return w, B * c - A * s, 1.0 - w


def _roots(f, a, b, fa, fb) -> np.ndarray:
    """A zero of ``f`` in each bracket ``[a, b]`` (arrays), all at once.

    ``f(a)`` and ``f(b)`` differ in sign, or ``f(b)`` is 0 with ``f(a)``
    not; ``f(t)`` returns the value and the derivative at an array of times.
    Newton steps start from the secant through the ends.  Each iterate
    replaces the end of its bracket whose value has its sign, and a step
    that does not land strictly inside the bracket bisects it.  An iterate
    is settled when its value is 0, or its Newton step or its bracket is at
    most 4 eps relative; the iteration stops when all are.
    """
    a, b, fa = (np.array(v, dtype=float) for v in (a, b, fa))
    if not a.size:
        return a
    x = a - fa * (b - a) / (np.asarray(fb, dtype=float) - fa)
    for _ in range(_MAXITER):
        fx, dfx = f(x)
        same = np.sign(fx) == np.sign(fa)
        a, fa, b = np.where(same, x, a), np.where(same, fx, fa), np.where(same, b, x)
        x_new = x - np.divide(fx, dfx, out=np.full_like(x, np.nan), where=dfx != 0.0)
        xtol = _XTOL * np.abs(x)
        settled = (fx == 0.0) | (np.abs(x_new - x) <= xtol) | (b - a <= xtol)
        if settled.all():
            break
        inside = (a < x_new) & (x_new < b)
        x = np.where(settled, x, np.where(inside, x_new, 0.5 * (a + b)))
    return x


def run_characteristic(
    profile: RadialProfile,
    r0: float,
    t_max: float,
    tol: float = 1e-10,
    d_cap: float = 1e6,
) -> CharacteristicRun:
    """Solve the characteristic starting at radius r0 up to t_max.

    For d = 2 and 3 one period of the 8-variable system is integrated at
    ``tol`` (no magnitude guard); d = 1 is closed form.  Every sign change
    of p between nodes is a crossing D = 0, located on the flow by
    :func:`_roots` for all crossings at once.  The blow-up time is the first
    zero of w.  w can dip below 0 and return within one step, so its sign is
    tested at every node and at every minimum of w (a crossing where p turns
    from negative to positive), and the root is found before the first
    negative value.  A blow-up run's trajectory ends where lambda reaches
    ``-d_cap`` (status ``"terminal-event"``); ``d_cap`` moves neither t* nor
    any bounded run, which ends at t_max (``"completed"``).
    """
    d = profile.d
    F0, G0 = profile.F0(r0), profile.G0(r0)
    lam0, D0 = profile_divergences(profile, r0)
    if lam0 >= 1.0:
        raise ValueError(f"inadmissible start: lambda0({r0}) = {lam0} >= 1")
    if not t_max > 0.0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    if not d_cap > 0.0:
        raise ValueError(f"d_cap must be positive, got {d_cap}")
    w0 = 1.0 / (1.0 - lam0)
    if d == 1:
        flow = _Lagrangian(F0, G0, w0, D0 * w0, t_max)
    else:
        flow = _Floquet(F0, G0, w0, D0 * w0, d, t_max, tol)
    t, (F, G, w, p) = flow.t, flow.nodes
    sign = np.sign(p)
    i = np.flatnonzero((sign[:-1] != sign[1:]) & (sign[:-1] != 0.0))
    crossings = _roots(lambda x: flow.hill(x)[1:], t[i], t[i + 1], p[i], p[i + 1])
    minima = crossings[sign[i] < 0.0]
    negative = np.concatenate([t[w <= 0.0][:1], minima[flow.hill(minima)[0] <= 0.0][:1]])
    t_star, t_end, status = None, t_max, "completed"
    if negative.size:
        t_star = _falls_to(flow, t, w, 0.0, negative.min())
        t_end = _falls_to(flow, t, w, 1.0 / (1.0 + d_cap), t_star)   # lambda = -d_cap
        status = "terminal-event"

    ratio = 1.0 - d * G0

    def states(F, G, w, p):
        return np.array([F, G, 1.0 - 1.0 / w, p / w, r0 * (ratio / (1.0 - d * G)) ** (1.0 / d)])

    keep = t < t_end
    y = states(*(np.append(v[keep], e) for v, e in zip((F, G, w, p), flow(t_end))))
    traj = OdeTrajectory(np.append(t[keep], t_end), y, lambda tt: states(*flow(tt)),
                         status=status)
    times = crossings[crossings < t_end]
    at = traj(times)
    # rounding noise in p crosses 0 on an equilibrium: keep crossings of moving states
    moving = np.max(np.abs(at[:3]), axis=0) > 1e-12
    return CharacteristicRun(profile, r0, traj, times[moving], at[2][moving], d_cap, t_star)


def _falls_to(flow, t, w, level: float, t_below: float) -> float:
    """The time before ``t_below``, where w <= level, at which w falls to ``level``.

    The bracket starts at the last node before ``t_below`` with w above
    ``level``; with no such node, w starts at or below it and the time is 0.
    """
    above = np.flatnonzero((t < t_below) & (w > level))
    if not above.size:
        return 0.0
    k = above[-1]

    def f(x):
        wx, px, _ = flow.hill(x)
        return wx - level, px

    # w <= level at t_below (a node or a minimum); rounding in the evaluation must not flip it
    w_below = np.minimum(flow.hill(np.array([t_below]))[0] - level, 0.0)
    return float(_roots(f, t[k:k + 1], [t_below], w[k:k + 1] - level, w_below)[0])


def detect_blowup(run: CharacteristicRun) -> BlowupRecord:
    """The run's blow-up, if any: t* is the first zero of the inverse density w."""
    if run.t_star is None:
        return BlowupRecord(False)
    return BlowupRecord(True, run.t_star, "inverse-density-zero")


def count_revolutions_oracle(run: CharacteristicRun) -> int:
    """Full clockwise rotations of the (lambda, D) projection about the origin."""
    return count_crossing_pairs(run.crossing_lambdas)


def _arc_bounds(run: CharacteristicRun, k: int, f_plus: float,
                sigma_pair: tuple[float, float]):
    """Anchored bound pair for the k-th inter-crossing arc (k = 0: from t=0)."""
    if k == 0:
        lam_a, D_a = profile_divergences(run.profile, run.r0)
    else:
        st = run.state(run.crossing_times[k - 1])
        lam_a, D_a = st[2], 0.0
    s_a, Z_a = lam_a - 1.0, D_a * D_a
    lower = sigma_curve(Side.LOWER, s_a, Z_a, sigma_pair[0], f_plus, run.d)
    upper = sigma_curve(Side.UPPER, s_a, Z_a, sigma_pair[1], f_plus, run.d)
    return lower, upper


def sandwich_check(
    run: CharacteristicRun,
    sigma_pair: tuple[float, float] = (DEFAULT_SIGMA1, DEFAULT_SIGMA2),
    max_arcs: Optional[int] = None,
) -> float:
    """Largest signed escape of the oracle's Z(s) from the bound envelope.

    For each arc between consecutive axis crossings (plus the initial arc
    from t = 0), the lower/upper comparison curves are anchored at the arc's
    starting state with the orbit's F+ and the oracle's Z(s) is compared
    against [min, max] of the pair at _SAMPLES_PER_ARC times.  Negative
    return values mean the trajectory stayed strictly inside.
    """
    f_plus = orbit_extremes(run.profile.F0(run.r0), run.profile.G0(run.r0), run.d).F_plus
    stops = np.concatenate([[0.0], run.crossing_times])
    n_arcs = len(stops) - 1
    if max_arcs is not None:
        n_arcs = min(n_arcs, max_arcs)
    worst = -np.inf
    for k in range(n_arcs):
        lower, upper = _arc_bounds(run, k, f_plus, sigma_pair)
        tg = np.linspace(stops[k] + 1e-9, stops[k + 1] - 1e-9, _SAMPLES_PER_ARC)
        st = run.trajectory(tg)
        s_t = st[2] - 1.0
        z_t = st[3] ** 2
        z_a, z_b = lower.value(s_t), upper.value(s_t)
        z_lo, z_hi = np.minimum(z_a, z_b), np.maximum(z_a, z_b)
        worst = max(worst, float(np.max(z_lo - z_t)), float(np.max(z_t - z_hi)))
    return worst


def blowup_sweep(
    profile: RadialProfile,
    r_grid: Sequence[float],
    t_max: float = 400.0,
    tol: float = 1e-8,
    d_cap: float = 1e6,
) -> list[tuple[float, Optional[float]]]:
    """Blow-up time per starting radius (None where no blow-up by t_max)."""
    out: list[tuple[float, Optional[float]]] = []
    for r0 in r_grid:
        run = run_characteristic(profile, r0, t_max, tol=tol, d_cap=d_cap)
        rec = detect_blowup(run)
        out.append((r0, rec.t_star if rec.detected else None))
    return out
