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

For d = 2 and 3, (F, G) is periodic with T = ``period(F0, G0, d)`` and
reversible under (F, G, t) -> (-F, G, -t) (Lamb & Roberts, Physica D 112,
1998), and q = 1/(1 - d G) is an exact particular solution: half a period
is integrated from a turning point, the other half is its mirror, and the
homogeneous part moves from period to period by a unipotent map, a shear
written in closed form (Floquet theory; Coddington & Levinson, *Theory of
Ordinary Differential Equations*, 1955, ch. 3).  For d = 1 the equation has
constant coefficients, w = 1 + A cos t + B sin t, the Lagrangian solution of
1D cold-plasma oscillations (Dawson, Phys. Rev. 113, 383, 1959), and (F, G)
follow the same law through v = 1/(1 - G), so no ODE runs.  A run finds
the blow-up time at once, and the trajectory and the axis crossings D = 0
when they are first read; roots are found on one step's dense polynomial.
The oracle also verifies the comparison-curve sandwich along arcs between
crossings.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .chaplygin_bounds import Side, sigma_curve
from .core_dynamics import (
    RadialProfile,
    orbit_extremes,
    orbit_phase,
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
_W, _P = 2, 3       # indices of w and p in a flow's (F, G, w, p)
# the maxima on [0, 1] of x, x(1-x), x^2(1-x), ..., x^4(1-x)^3: the basis of
# the dense output's nesting of x and 1 - x
_BASIS_MAX = np.array([1.0, 1 / 4, 4 / 27, 1 / 16, 108 / 3125, 1 / 64, 6912 / 823543])


@dataclass(frozen=True)
class BlowupRecord:
    """Outcome of blow-up detection on one characteristic run."""

    detected: bool
    t_star: Optional[float] = None
    method: Optional[str] = None   # "inverse-density-zero": t* is the root of w


def _half_rhs(d: int):
    """(F, G) with the two fundamental solutions of the homogeneous (w, p)
    system: 6 variables, on floats."""
    b_coef, a_coef = 2.0 * (d - 1), float((d - 1) * d)

    def rhs(t, y):
        F, G, w1, p1, w2, p2 = y
        b, a = b_coef * F, a_coef * F * F + 1.0
        return (*rhs_radial(F, G, d), p1, b * p1 - a * w1, p2, b * p2 - a * w2)

    return rhs


def _horner(c, x):
    """The dense interpolant's nesting of x and 1 - x over the coefficients
    ``c`` (7 leading, then any shape that x broadcasts to), with its
    derivative in x."""
    xs = np.empty(c.shape[1:])
    xs[...] = x
    x1 = 1.0 - xs
    v, dv = c[6] * xs, c[6].copy()
    for n in range(5, -1, -1):
        v += c[n]
        if n % 2:
            dv *= x1
            dv -= v
            v *= x1
        else:
            dv *= xs
            dv += v
            v *= xs
    return v, dv


class _Floquet:
    """(F, G, w, p) along a characteristic with d = 2 or 3, from half a period.

    w = q + h with q = 1/(1 - d G), the exact particular solution
    (q' = d F q), and (h, h') a solution of the homogeneous system.  The
    flow is reversible, (F, G, t) -> (-F, G, -t), so one integration from a
    turning point (0, G_e) over [0, T/2] carries (F, G) and the fundamental
    matrix Phi = [[w1, w2], [p1, p2]] (the identity at the turning point,
    w1 even and w2 odd) for the whole period: F(T - tau) = -F(tau),
    G(T - tau) = G(tau) and Phi(tau) = R Phi(T - tau) R M with
    R = diag(1, -1), where the period map M turns (h, h') = Phi(tau) v
    into Phi(tau) M v at tau + T.

    M = [[1, 0], [n, 1]].  F q solves the homogeneous equation (use
    F' = -F**2 - G), is T-periodic and vanishes at the turning point, so it
    is a multiple of w2: M fixes (0, 1), and w2(T/2) = 0 as F(T/2) = 0.
    By Liouville det M = 1, since F = (log q)'/d integrates to 0 over a
    period.  At tau = -T/2, p1 odd and p2 even turn (p1, p2)(T/2) = (c, e)
    into c = -c + n e, so n = 2 c/e: the shear of the period function
    (Chicone, J. Differential Equations 69, 1987), Dawson's phase mixing.
    The start lies at the phase tau_s of :func:`orbit_phase` (0 when
    F0 = 0), polished by one Newton step onto the integrated orbit, and at
    tau = kT + sigma, (h, h') = Phi(sigma) M^k v = Phi(sigma) (v0,
    v1 + k n v0) with v = Phi(tau_s)^-1 u and u = (w0 - q0, p0 - d F0 q0)
    from the exact start data, so a spatially constant start has u = 0
    and w = q > 0 at every time.  Without a period (the point orbit, or
    one ``period`` cannot resolve) T is infinite, n = 0 and the
    integration spans [0, t_max] from (F0, G0).

    A period has P node positions: the half's step starts, then the same
    mirrored in reverse order, each starting the step it ends (the junction
    T/2, where F is 0, first).  The nodes are the positions of every period
    in [0, t_max), t = 0 when the start lies inside a step, and t_max; node
    i is position ``(i + offset) % P`` of period ``(i + offset) // P``.
    ``floquet`` holds T, the half period's steps, n and the residual
    w2(T/2), 0 but for the integration error (None without a period).
    """

    def __init__(self, F0, G0, w0, p0, d, t_max, tol):
        self.d = d
        try:
            T, G_e, tau = orbit_phase(F0, G0, d)
            F_e = 0.0
        except (ValueError, QuadratureError):
            T, F_e, G_e, tau = math.inf, F0, G0, 0.0
        self.T, self.half = T, 0.5 * T    # the half period is integrated whatever t_max
        self.one = one = integrate(_half_rhs(d), [F_e, G_e, 1.0, 0.0, 0.0, 1.0],
                                   (0.0, self.half if math.isfinite(T) else t_max), tol=tol)
        S = one.t.size - 1
        self.shear, self.floquet = 0.0, None
        tau_nodes, step = one.t[:S], np.arange(S)
        n, t0 = 1, np.zeros(1)
        if math.isfinite(T):
            a, c, b, e = one.y[2:, -1].tolist()      # Phi(T/2) = [[a, b], [c, e]]
            self.shear = 2.0 * c / e
            self.floquet = {"period": T, "half_period_steps": S, "shear": self.shear, "residual": b}
            tau_nodes = np.concatenate([tau_nodes, T - one.t[S:0:-1]])
            step = np.concatenate([step, step[::-1]])
            if F0:      # one Newton step of the phase onto the integrated orbit
                F, G, *_ = self._at(tau)
                dF, dG = rhs_radial(F, G, d)
                tau = (tau + ((F0 - F) * dF + (G0 - G) * dG) / (dF * dF + dG * dG)) % T
            n = math.ceil((tau + t_max) / T)   # periods begun before t_max
            t0 = T * np.arange(n) - tau
        self.t0, self._step = t0, step
        mirror = np.arange(step.size) >= S
        self._sign = sign = np.where(mirror, -1.0, 1.0)

        q0 = 1.0 / (1.0 - d * G0)
        u0, u1 = w0 - q0, p0 - (d * F0) * q0
        self.v = (u0, u1)                         # Phi(0) is the identity
        if tau and (u0 or u1):
            _, _, a, b, c, e = self._at(tau)
            det = a * e - b * c
            self.v = ((e * u0 - b * u1) / det, (a * u1 - c * u0) / det)

        Y = one.y[:, step + mirror]               # a mirrored position ends its step
        F, G = sign * Y[0], Y[1]
        F[S:S + 1] = 0.0                          # the junction at T/2
        q = 1.0 / (1.0 - d * G)
        c0, c1 = self.v[0], self._c1(np.arange(n)[:, None], mirror)
        w = q + c0 * Y[2] + c1 * Y[4]
        p = d * F * q + sign * (c0 * Y[3] + c1 * Y[5])
        t = (t0[:, None] + tau_nodes).ravel()
        first, last = np.searchsorted(t, [0.0, t_max])
        inside = first == t.size or t[first] > 0.0   # t = 0 lies inside a step
        self.offset = first - inside              # node i is flat position i + offset
        self._inner, self._fg = slice(first, last), (F, G)
        # (t, F, G, w, p) at t = 0 when it lies inside a step, and at t_max
        self._start = (0.0, *self(0.0)) if inside else None
        self._stop = (t_max, *self(t_max))
        self.t, self.w, self.p = (self._nodes(x, i) for i, x in ((0, t), (3, w), (4, p)))

    def _nodes(self, flat, i):
        """Node values from those at the positions of every period,
        ``flat``, and entry i of the ends."""
        head = [self._start[i]] if self._start else []
        return np.concatenate([head, flat.ravel()[self._inner], [self._stop[i]]])

    def _at(self, tau):
        """F, G and Phi = [[a, b], [c, e]] at a phase tau in [0, T), as
        (F, G, a, b, c, e)."""
        if tau <= self.half:
            F, G, a, c, b, e = self.one(tau).tolist()
            return F, G, a, b, c, e
        F, G, a, c, b, e = self.one(self.T - tau).tolist()
        n = self.shear                   # R Phi(T - tau) R M
        return -F, G, a - b * n, -b, e * n - c, e

    def _c1(self, k, mirror):
        """The weight of w2 (that of w1 is v0) in period k: v1 + k n v0 from
        M^k v, or -(v1 + (k + 1) n v0) from R M^(k+1) v where ``mirror``."""
        v0, v1 = self.v
        return np.where(mirror, -1.0, 1.0) * (v1 + (k + mirror) * self.shear * v0)

    def __call__(self, t):
        """(F, G, w, p) at a time or an array of times."""
        t = np.asarray(t, dtype=float)
        k = np.maximum(np.searchsorted(self.t0, t, side="right") - 1, 0)
        tau = t - self.t0[k]
        mirror = tau > self.half
        Y = self.one(np.where(mirror, self.T - tau, tau))
        sign = np.where(mirror, -1.0, 1.0)
        c0, c1 = self.v[0], self._c1(k, mirror)
        F, G = sign * Y[0], Y[1]
        q = 1.0 / (1.0 - self.d * G)
        return F, G, q + Y[2] * c0 + Y[4] * c1, self.d * F * q + sign * (Y[3] * c0 + Y[5] * c1)

    def fg(self):
        """F and G on the nodes."""
        return [self._nodes(np.tile(x, self.t0.size), i) for i, x in zip((1, 2), self._fg)]

    def _polynomials(self, i, j):
        """Rows d F, 1 - d G = 1/q and the homogeneous part of w (j = 2) or
        p (j = 3) on the brackets that start at nodes ``i``: their
        coefficients ``(len(i), 7, 3)`` and values at x = 0 ``(3, len(i))``,
        with the brackets' period k, step s and sign (-1: mirrored)."""
        k, pos = np.divmod(i + self.offset, self._step.size)
        s, sign = self._step[pos], self._sign[pos]
        c0, c1 = self.v[0], self._c1(k, sign < 0.0)
        d, dense = self.d, self.one.interpolant
        rows = np.zeros((s.size, 6, 3))          # of the step's 6 components
        rows[:, 0, 0], rows[:, 1, 1] = d * sign, -d
        rows[:, j, 2], rows[:, j + 2, 2] = (c0, c1) if j == _W else (sign * c0, sign * c1)
        base = np.einsum("nc,ncr->rn", dense.ys[s], rows)
        base[1] += 1.0
        return dense.coefficients(s) @ rows, base, k, s, sign

    def positive(self, i):
        """Where w is certainly positive on the brackets that start at nodes
        ``i``: each basis function of the step polynomial (see
        :func:`_horner`) is nonnegative on [0, 1] with the maximum in
        ``_BASIS_MAX``, so bounding each term bounds 1 - d G = 1/q on both
        sides and the homogeneous part below."""
        coef, base, *_ = self._polynomials(i, _W)
        pos, neg = np.maximum(coef, 0.0), np.minimum(coef, 0.0)
        u_min = base[1] + neg[:, :, 1] @ _BASIS_MAX
        u_max = base[1] + pos[:, :, 1] @ _BASIS_MAX
        h_min = base[2] + neg[:, :, 2] @ _BASIS_MAX
        return (u_min > 0.0) & (1.0 / u_max + h_min > 0.0)

    def on_brackets(self, i, j):
        """w (j = 2) or p (j = 3) on the brackets that start at nodes ``i``.

        Each bracket lies in one half step, so F, G and the homogeneous part
        are its polynomials: read at x, or at 1 - x (as T - tau) on a
        mirrored step, with the position's weights and, there, F and p
        turned.  w adds q(G) and p adds d F q, differentiated along the
        polynomials.  Returns ``f``: ``f(t)`` is the value and the
        derivative at an array of times, one per bracket.
        """
        coef, base, k, s, sign = self._polynomials(i, j)
        coef = np.ascontiguousarray(coef.transpose(1, 2, 0))
        dense = self.one.interpolant
        t0, h = self.t0[k], dense.h[s]
        off, dxdt = (np.where(sign < 0.0, self.T, 0.0) - dense.t[s]) / h, sign / h

        def f(t):
            v, dv = _horner(coef, (t - t0) * dxdt + off)
            v += base
            dv *= dxdt
            q = 1.0 / v[1]
            dq = q * q * dv[1]       # minus the derivative of q
            if j == _W:
                return q + v[2], dv[2] - dq
            return v[0] * q + v[2], dv[0] * q - v[0] * dq + dv[2]

        return f


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
        self.F, self.G, self.w, self.p = self(self.t)

    def __call__(self, t):
        A, B, a, b = self.coef
        c, s = np.cos(t), np.sin(t)
        v = 1.0 + a * c + b * s
        return (b * c - a * s) / v, 1.0 - 1.0 / v, 1.0 + A * c + B * s, B * c - A * s

    def fg(self):
        return self.F, self.G

    floquet = None

    def positive(self, i):
        """Where w = 1 + A cos t + B sin t >= 1 - hypot(A, B) is certainly
        positive on the brackets that start at nodes ``i``."""
        A, B, _, _ = self.coef
        return np.full(len(i), math.hypot(A, B) < 1.0)

    def on_brackets(self, i, j):
        """w (j = 2) or p (j = 3) and its derivative, at any times."""
        A, B, _, _ = self.coef

        def f(t):
            c, s = np.cos(t), np.sin(t)
            w, p = 1.0 + A * c + B * s, B * c - A * s
            return (w, p) if j == _W else (p, 1.0 - w)

        return f


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


def _falls_to(flow, level: float, t_below: float) -> float:
    """The time before ``t_below``, where w <= level, at which w falls to ``level``.

    The bracket starts at the last node before ``t_below`` with w above
    ``level`` and ends at the next node or at ``t_below``, whichever comes
    first, so it lies in one step; with no such node, w starts at or below
    ``level`` and the time is 0.
    """
    t = flow.t
    above = np.flatnonzero((t < t_below) & (flow.w > level))
    if not above.size:
        return 0.0
    k = above[-1:]
    end = np.minimum(t[k + 1], t_below)
    w_on = flow.on_brackets(k, _W)

    def f(x):
        wx, dwx = w_on(x)
        return wx - level, dwx

    # w <= level at the end; rounding in the evaluation must not flip it
    w_end = np.minimum(f(end)[0], 0.0)
    return float(_roots(f, t[k], end, flow.w[k] - level, w_end)[0])


class CharacteristicRun:
    """One characteristic solution: its blow-up time, and on first read its
    trajectory and crossing log.

    ``t_star``, the first zero of w (None when w stays positive up to
    t_max), is found when the run is made.  w can dip below 0 and return
    within one step, so its sign is tested at every node and at every
    minimum (a crossing where p turns from negative to positive) in the
    brackets that start before the first node with w <= 0, unless the
    flow's ``positive`` bound rules a dip out there, and t* is the root
    before the first such value.

    ``trajectory`` holds the state (F, G, lambda, D, r) on its nodes and
    evaluates it at any time; it ends at t_max (status ``"completed"``) or,
    after a blow-up, where lambda reaches ``-d_cap`` (``"terminal-event"``),
    so ``d_cap`` moves neither t* nor a bounded run.  ``crossing_times``
    and ``crossing_lambdas`` are the axis crossings D = 0 before that end:
    every sign change of p between nodes, located by :func:`_roots` for all
    crossings at once (the minima found for t* are reused), with lambda
    there from the trajectory.  The trajectory and the crossings are built
    on first read and cached.
    """

    def __init__(self, profile: RadialProfile, r0: float, flow, d_cap: float):
        self.profile, self.r0, self.d_cap, self._flow = profile, r0, d_cap, flow
        t, w, p = flow.t, flow.w, flow.p
        sign = np.sign(p)
        self._brackets = i = np.flatnonzero((sign[:-1] != sign[1:]) & (sign[:-1] != 0.0))
        first = np.flatnonzero(w <= 0.0)[:1]
        lows = i[(sign[i] < 0.0) & (i < (first[0] if first.size else t.size))]
        if lows.size:
            lows = lows[~flow.positive(lows)]
        self._lows, self._minima, below = lows, np.empty(0), t[first]
        if lows.size:
            self._minima = minima = _roots(flow.on_brackets(lows, _P), t[lows], t[lows + 1],
                                           p[lows], p[lows + 1])
            below = np.append(minima[flow.on_brackets(lows, _W)(minima)[0] <= 0.0][:1], below)
        self.t_star: Optional[float] = _falls_to(flow, 0.0, below.min()) if below.size else None

    @property
    def d(self) -> int:
        return self.profile.d

    @property
    def floquet(self) -> Optional[dict]:
        """The period map [[1, 0], [shear, 1]] of a d = 2, 3 run with a
        period: ``period`` T, ``half_period_steps`` (the DOP853 steps over
        T/2), ``shear`` and the ``residual`` w2(T/2), 0 but for the
        integration error; None for d = 1 or without a period."""
        return self._flow.floquet

    @cached_property
    def trajectory(self) -> OdeTrajectory:
        flow, d, r0 = self._flow, self.d, self.r0
        t_end, status = flow.t[-1], "completed"
        if self.t_star is not None:    # lambda = -d_cap
            t_end, status = _falls_to(flow, 1.0 / (1.0 + self.d_cap), self.t_star), "terminal-event"
        ratio = 1.0 - d * self.profile.G0(r0)

        # reads no attribute of the run: the run holds the trajectory, and a
        # reference back would leave every run to the cycle collector
        def states(F, G, w, p):
            return np.array([F, G, 1.0 - 1.0 / w, p / w, r0 * (ratio / (1.0 - d * G)) ** (1.0 / d)])

        keep = flow.t < t_end
        y = states(*(np.append(v[keep], e)
                     for v, e in zip((*flow.fg(), flow.w, flow.p), flow(t_end))))
        return OdeTrajectory(np.append(flow.t[keep], t_end), y, lambda tt: states(*flow(tt)),
                             status=status)

    @cached_property
    def _crossings(self) -> tuple[np.ndarray, np.ndarray]:
        traj, flow = self.trajectory, self._flow
        t, p, t_end = flow.t, flow.p, traj.t[-1]
        i = self._brackets[t[self._brackets] < t_end]
        roots = np.full(t.size, np.nan)
        roots[self._lows] = self._minima
        todo = i[np.isnan(roots[i])]
        roots[todo] = _roots(flow.on_brackets(todo, _P), t[todo], t[todo + 1], p[todo], p[todo + 1])
        times = roots[i]
        times = times[times < t_end]
        at = traj(times)
        # rounding noise in p crosses 0 on an equilibrium: keep crossings of moving states
        moving = np.max(np.abs(at[:3]), axis=0) > 1e-12
        return times[moving], at[2][moving]

    @property
    def crossing_times(self) -> np.ndarray:
        """Times of the D = 0 crossings (t > 0)."""
        return self._crossings[0]

    @property
    def crossing_lambdas(self) -> np.ndarray:
        """lambda at those crossings."""
        return self._crossings[1]


def run_characteristic(
    profile: RadialProfile,
    r0: float,
    t_max: float,
    tol: float = 1e-10,
    d_cap: float = 1e6,
) -> CharacteristicRun:
    """Solve the characteristic starting at radius r0 up to t_max.

    For d = 2 and 3, (F, G) and the fundamental matrix, 6 variables, are
    integrated at ``tol`` over half a period from a turning point (over
    [0, t_max] from the start when the orbit has no period), and the rest
    of the run is mirrored from it, with the odd solution's weight growing
    by the period map's shear each period; d = 1 is closed form.  The
    run computes two things at once: this flow, with w and p on its nodes,
    and the blow-up time t*, from the minima of w on the step polynomials
    of the brackets before the first node with w <= 0.  Its trajectory
    (ending where lambda reaches ``-d_cap`` after a blow-up) and its
    crossings are built when first read; see :class:`CharacteristicRun`.
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
    return CharacteristicRun(profile, r0, flow, d_cap)


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
        st = run.trajectory(run.crossing_times[k - 1])
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
) -> list[tuple[float, Optional[float]]]:
    """Blow-up time per starting radius (None where no blow-up by t_max)."""
    out: list[tuple[float, Optional[float]]] = []
    for r0 in r_grid:
        run = run_characteristic(profile, r0, t_max, tol=tol)
        rec = detect_blowup(run)
        out.append((r0, rec.t_star if rec.detected else None))
    return out
