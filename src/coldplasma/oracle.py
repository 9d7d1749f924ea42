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

For d = 2 and 3, (F, G) is periodic with T = ``period(F0, G0, d)`` (2 pi,
the plasma period, on a point orbit) and reversible under (F, G, t) ->
(-F, G, -t) (Lamb & Roberts, Physica D 112, 1998), and q = 1/(1 - d G) is
an exact particular solution: half a period is integrated from a turning
point, the other half is its mirror, and the homogeneous part moves from
period to period by a unipotent map, a shear written in closed form
(Floquet theory; Coddington & Levinson, *Theory of Ordinary Differential
Equations*, 1955, ch. 3).  For d = 1 the equation has constant
coefficients, w = 1 + A cos t + B sin t, the Lagrangian solution of 1D
cold-plasma oscillations (Dawson, Phys. Rev. 113, 383, 1959), and (F, G)
follow the same law through v = 1/(1 - G), so no ODE runs, nor at the
rest state F0 = G0 = 0 of any d (or within rounding of it), where
w'' = 1 - w.  A run finds
the blow-up time at once, by a bisection over windows of one period's
brackets up to t_max (which may be infinite), which reads two windows at
any horizon where w stays positive, or without a search where the
homogeneous part is 0 and w = q > 0 for all time, and builds its nodes,
trajectory and axis crossings D = 0 only when they are first read; roots
are found on one step's dense polynomial.
The oracle also verifies the comparison-curve sandwich along arcs between
crossings.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .chaplygin_bounds import Side, sigma_curve
from .core_dynamics import (
    RadialProfile,
    orbit_extremes,
    orbit_phase,
    profile_divergences,
    rhs_radial,
)
from .numerics import OdeTrajectory, integrate, newton_root
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
_SECTIONS = 64           # windows tested per round of the bisection after its first two
_MAX_PERIODS = 2 ** 52   # periods searched at most (k + 1 stays exact)
_MAX_NODES = 2 ** 22     # nodes a trajectory is built on at most (5 arrays of 32 MiB)
_W, _P = 2, 3       # indices of w and p in a flow's (F, G, w, p)
# the maxima on [0, 1] of x, x(1-x), x^2(1-x), ..., x^4(1-x)^3: the basis of
# the dense output's nesting of x and 1 - x
_BASIS_MAX = (1.0, 1 / 4, 4 / 27, 1 / 16, 108 / 3125, 1 / 64, 6912 / 823543)


class BlowupRecord(NamedTuple):
    """Outcome of blow-up detection on one characteristic run."""

    detected: bool
    t_star: Optional[float] = None
    method: Optional[str] = None   # "inverse-density-zero": t* is the root of w


def _half_rhs(d: int):
    """(F, G) with the even solution (w1, p1) of the homogeneous (w, p)
    system: 4 variables, on floats."""
    b_coef, a_coef = 2.0 * (d - 1), float((d - 1) * d)

    def rhs(t, y):
        F, G, w1, p1 = y
        return (*rhs_radial(F, G, d), p1, b_coef * F * p1 - (a_coef * F * F + 1.0) * w1)

    return rhs


def _bracket(c, base, t0, dxdt, off, c1, odd, d, j):
    """w (j = 2) or p (j = 3) and its derivative at a time, in floats, on one
    bracket: F, G, c0 w1 and c0 p1 (F and p1 turned on a mirrored step) have
    the coefficients ``c`` (7 rows of 4) of the dense output's nesting of x
    and 1 - x and the values ``base`` at x = 0, with x = (t - t0) dxdt + off.
    ``odd`` gives q = 1/(1 - d G) and the odd solution (w2, p2) at (F, G),
    with the weight ``c1``; w' is p, and p' the Hill equation's."""
    b0, b1, b2, b3 = base

    def g(t):
        x = (t - t0) * dxdt + off
        x1 = 1.0 - x
        v0 = v1 = v2 = v3 = 0.0
        for n, (a0, a1, a2, a3) in enumerate(reversed(c)):   # degree 6 first: x where even
            y = x1 if n % 2 else x
            v0, v1, v2, v3 = (v0 + a0) * y, (v1 + a1) * y, (v2 + a2) * y, (v3 + a3) * y
        F = v0 + b0
        q, w2, p2 = odd(F, v1 + b1)
        w, p = q + c1 * w2 + (v2 + b2), d * F * q + c1 * p2 + (v3 + b3)
        if j == _W:
            return w, p
        return p, 2.0 * (d - 1) * F * p - ((d - 1) * d * F * F + 1.0) * w + 1.0

    return g


class _Floquet:
    """(F, G, w, p) along a characteristic with d = 2 or 3, from half a period.

    w = q + h with q = 1/(1 - d G), the exact particular solution
    (q' = d F q), and (h, h') a solution of the homogeneous system.  The
    flow is reversible, (F, G, t) -> (-F, G, -t), so one integration of
    (F, G) and the even solution (w1, p1) = (1, 0) from a turning point
    (0, G_e) over [0, T/2] covers the period.  The odd solution is closed
    form: F' = -F**2 - G gives (F q)' = q ((d-1) F**2 - G), so F q is a
    periodic homogeneous solution, 0 at the turning point, and
    w2 = -F q/(G_e q_e), p2 = q (G - (d-1) F**2)/(G_e q_e) (:meth:`_odd`,
    at the integrated (F, G)).  With Phi = [[w1, w2], [p1, p2]],
    F(T - tau) = -F(tau), G(T - tau) = G(tau) and Phi(tau) =
    R Phi(T - tau) R M with R = diag(1, -1), where the period map M turns
    (h, h') = Phi(tau) v into Phi(tau) M v at tau + T.

    M = [[1, 0], [n, 1]]: w2 is periodic, and w2(T/2) = 0 as F(T/2) = 0.
    By Liouville det M = 1, since F = (log q)'/d integrates to 0 over a
    period.  At tau = -T/2, p1 odd and p2 even turn (p1, p2)(T/2) = (c, e)
    into c = -c + n e, so n = 2 c/e: the shear of the period function
    (Chicone, J. Differential Equations 69, 1987), Dawson's phase mixing.
    The start lies at the phase tau_s of :func:`orbit_phase` (0 where
    F0 = 0 off a point orbit), polished by one Newton step onto the
    integrated orbit, and at tau = kT + sigma, (h, h') = Phi(sigma) M^k v
    = Phi(sigma) (v0, v1 + k n v0) with v = Phi(tau_s)^-1 u and
    u = (w0 - q0, p0 - d F0 q0) from the exact start data, so a spatially
    constant start has u = 0 and w = q > 0 at every time.  Every orbit but
    the rest state, which :func:`run_characteristic` solves in closed
    form, has a finite T (2 pi on a point orbit); one ``period`` cannot
    resolve raises, and so does a start with u != 0 whose half period the
    integration does not complete (``"singular-step"`` at the spike where G
    reaches G-): its t* would be read from values the integration never
    reached.  With u = 0, w = q needs no half period.

    A period has P node positions: the half's step starts, then the same
    mirrored in reverse order, each starting the step it ends (the junction
    T/2, where F is 0, first).  Node f (a flat index) is position f mod P
    of period k = f div P, at (kT - tau_s) + its phase; the run's nodes are
    those in [0, t_max) from ``first`` on, after t = 0 when the start lies
    inside a step (``inside``) and before t_max, and node i of
    :meth:`nodes` is flat node i + ``offset``.  No node value is built
    before it is read.  ``floquet`` holds T, the half period's steps and
    status, n with its ``shear_error`` and the turning-point miss
    |F(T/2)|/F+ (F+ = G_e on a point orbit, where F+ rounds to 0), 0 but
    for the integration error, as is w2(T/2) = -F(T/2) q/(G_e q_e).
    """

    def __init__(self, F0, G0, w0, p0, d, t_max, tol):
        self.d, self.t_max, self.tol, self._orbit = d, t_max, tol, (F0, G0)
        T, G_e, tau = orbit_phase(F0, G0, d)
        self.T, self.half = T, 0.5 * T    # the half period is integrated whatever t_max
        self._turn = (G_e, 1.0 - d * G_e)        # G_e and 1/q_e
        self.one = one = integrate(_half_rhs(d), [0.0, G_e, 1.0, 0.0], (0.0, self.half), tol=tol)
        S = one.t.size - 1
        F, G, _, c = one.y[:, -1].tolist()
        self.shear = 2.0 * c / self._odd(F, G)[2]    # n = 2 p1/p2 at T/2
        tau_nodes = np.concatenate([one.t[:S], T - one.t[S:0:-1]])
        step = np.concatenate([np.arange(S), np.arange(S)[::-1]])
        if F0:      # one Newton step of the phase onto the integrated orbit
            F, G, *_ = self._at(tau)
            dF, dG = rhs_radial(F, G, d)
            speed = dF * dF + dG * dG      # 0 only where it underflows, on orbits below 1e-154
            if speed:
                tau = (tau + ((F0 - F) * dF + (G0 - G) * dG) / speed) % T
            tau = tau if tau < T else 0.0       # a phase that rounds to T is phase 0
        self.tau, self._step = tau, step
        mirror = np.arange(step.size) >= S
        self._sign = sign = np.where(mirror, -1.0, 1.0)

        q0 = 1.0 / (1.0 - d * G0)
        u0, u1 = w0 - q0, p0 - (d * F0) * q0
        if (u0 or u1) and one.status != "completed":    # its mirror is not the period's
            raise ValueError(f"half period of the orbit through F0={F0}, G0={G0}, d={d}: "
                             f"the integration stops at t = {float(one.t[-1])!r} ({one.status}), "
                             f"short of T/2 = {self.half!r}")
        self.v = (u0, u1)                         # Phi(0) is the identity
        if tau and (u0 or u1):
            _, _, a, b, c, e = self._at(tau)
            det = a * e - b * c
            self.v = ((e * u0 - b * u1) / det, (a * u1 - c * u0) / det)

        # per position: its phase, F, G, the parts of w and p that do not
        # move with k, w2 and p2 (whose weight c1 does) and its mirror flag
        Y = one.y[:, step + mirror]               # a mirrored position ends its step
        F, G = sign * Y[0], Y[1]
        q, w2, p2 = self._odd(F, G)               # at the integrated F, as on the brackets
        F[S:S + 1] = 0.0                          # the junction at T/2
        c0 = self.v[0]
        self._table = np.array([tau_nodes, F, G, q + c0 * Y[2], d * F * q + sign * c0 * Y[3], w2, p2, mirror])
        self._slope = (self.shear * c0) * w2      # of w at a node, per period
        t = tau_nodes - tau                       # period 0; the next one starts at T - tau > 0
        self.first = first = int(np.searchsorted(t, 0.0))
        self.inside = first == step.size or bool(t[first] > 0.0)   # t = 0 lies inside a step
        self.offset = first - self.inside

    @cached_property
    def floquet(self) -> dict:
        F_plus = orbit_extremes(*self._orbit, self.d).F_plus or float(self.one.y[1, 0])  # or G_e
        return {"period": self.T, "half_period_steps": self.one.t.size - 1,
                "half_period_status": self.one.status, "shear": self.shear, "shear_error": self.shear_error,
                "turning_point_miss": abs(float(self.one.y[0, -1])) / F_plus}

    @cached_property
    def shear_error(self) -> float:
        """An estimate of the error of n = 2 c/e, (c, e) = (p1, p2) at the
        end of the half period.  That end lies dt = w2/e past the turning
        point, where w2 = 0, so c and e are off by (p1', p2') dt, with
        p' = 2(d-1) F p - ((d-1) d F**2 + 1) w; the integration adds up to
        tol (1 + |c|) to c and tol (1 + |e|) to e.  On the orbits of
        Gaussian pulses (K = 0.222 to 0.49) and of moving 2D and 3D pulses
        it exceeds the error against tol 1e-13: by 1.15 times at least at
        tol 1e-7, 1.2 times at 1e-8, 1.7 times at 1e-9 and 2.0 at 1e-10."""
        F, G, w1, c = self.one.y[:, -1].tolist()
        _, w2, e = self._odd(F, G)
        d, n, tol = self.d, self.shear, self.tol
        b, a = 2.0 * (d - 1) * F, (d - 1) * d * F * F + 1.0
        dt = w2 / e
        dc, de = (b * c - a * w1) * dt, (b * e - a * w2) * dt
        return (abs(2.0 * dc - n * de) + tol * (2.0 * (1.0 + abs(c)) + abs(n) * (1.0 + abs(e)))) / abs(e)

    def _odd(self, F, G):
        """q = 1/(1 - d G) and the odd solution (w2, p2) at states (F, G)."""
        G_e, u_e = self._turn          # F/G_e first: O(1) where F and G_e are tiny
        q = 1.0 / (1.0 - self.d * G)
        return q, -(F / G_e) * (q * u_e), ((G - (self.d - 1) * F * F) / G_e) * (q * u_e)

    def _at(self, tau):
        """F, G and Phi = [[a, b], [c, e]] at a phase tau in [0, T), as
        (F, G, a, b, c, e)."""
        mirror = tau > self.half
        F, G, a, c = self.one(self.T - tau if mirror else tau).tolist()
        _, b, e = self._odd(F, G)
        n = self.shear                   # R Phi(T - tau) R M
        return (-F, G, a - b * n, -b, e * n - c, e) if mirror else (F, G, a, b, c, e)

    def _c1(self, k, mirror):
        """The weight of w2 (that of w1 is v0) in period k: v1 + k n v0 from
        M^k v, or v1 + (k + 1) n v0 where ``mirror`` (R M^(k+1) v), F turned."""
        v0, v1 = self.v
        return v1 + (k + mirror) * self.shear * v0

    def _t0(self, k):
        """The time of phase 0 of period k."""
        return self.T * k - self.tau

    def _node(self, f, times=True):
        """t (if ``times``), w and p at the nodes ``f`` (flat indices, an array)."""
        k, j = np.divmod(f, self._step.size)
        tau, _, _, wq, pq, w2, p2, mirror = self._table[:, j]
        c1 = self._c1(k, mirror)
        wp = (wq + c1 * w2, pq + c1 * p2)
        return (self._t0(k) + tau, *wp) if times else wp

    def _count(self, t_end):
        """The first node at or after ``t_end``, a flat index."""
        k = max(math.ceil((self.tau + t_end) / self.T) - 1, 0)
        return k * self._step.size + int(np.searchsorted(self._t0(k) + self._table[0], t_end))

    def size(self, t_end) -> int:
        """The number of nodes :meth:`nodes` gives up to ``t_end``."""
        return self._count(t_end) - self.first + (self.inside and t_end > 0.0) + 1

    def nodes(self, t_end):
        """t, F, G, w and p on the nodes in [0, t_end) and at ``t_end``."""
        f = np.arange(self.first, self._count(t_end))
        t, w, p = self._node(f)
        j = f % self._step.size
        head = [(0.0, *self(0.0))] if self.inside and t_end > 0.0 else []
        tail = (t_end, *self(t_end))
        return [np.concatenate([[h[i] for h in head], x, [tail[i]]])
                for i, x in enumerate((t, *self._table[1:3, j], w, p))]

    def __call__(self, t):
        """(F, G, w, p) at a time or an array of times."""
        t = np.asarray(t, dtype=float)
        k = np.floor((t + self.tau) / self.T)     # the last period that starts at or before t
        k -= self._t0(k) > t
        k = np.maximum(k + (self._t0(k + 1.0) <= t), 0.0)
        tau = t - self._t0(k)
        mirror = tau > self.half
        Y = self.one(np.where(mirror, self.T - tau, tau))
        sign, c0, c1 = np.where(mirror, -1.0, 1.0), self.v[0], self._c1(k, mirror)
        F, G = sign * Y[0], Y[1]
        q, w2, p2 = self._odd(F, G)
        return F, G, q + Y[2] * c0 + w2 * c1, self.d * F * q + sign * Y[3] * c0 + p2 * c1

    def _polynomials(self, f):
        """F, G, c0 w1 and c0 p1 (F and p1 turned on a mirrored step) on the
        brackets that start at nodes ``f``: their coefficients
        ``(len(f), 7, 4)`` and values at x = 0 ``(len(f), 4)``, with the
        brackets' weight c1 of w2, period k, step s and sign (-1: mirrored)."""
        k, pos = np.divmod(f, self._step.size)
        s, sign = self._step[pos], self._sign[pos]
        c0, dense = self.v[0], self.one.interpolant
        scale = np.stack([sign, np.ones_like(sign), np.full_like(sign, c0), c0 * sign], axis=1)
        c1 = self._c1(k, sign < 0.0)
        return dense.coefficients(s) * scale[:, None], dense.ys[s] * scale, c1, k, s, sign

    def _pieces(self, f):
        """The brackets that start at nodes ``f``, from one gather of their
        polynomials: per bracket, in floats, the coefficients (7 rows of 4)
        and base of F, G, c0 w1 and c0 p1 (see :meth:`_polynomials`), the
        time of its period's phase 0, dx/dt, x at that time, and c1; the
        arguments of :func:`_bracket` and, with ``c1``, of :meth:`positive`.

        Each bracket lies in one half step, so F, G and the even solution
        are its polynomials: read at x, or at 1 - x (as T - tau) on a
        mirrored step, with the position's weights and, there, F and p1
        turned.
        """
        coef, base, c1, k, s, sign = self._polynomials(f)
        dense = self.one.interpolant
        h = dense.h[s]
        off, dxdt = (np.where(sign < 0.0, self.T, 0.0) - dense.t[s]) / h, sign / h
        return list(zip(coef.tolist(), base.tolist(), self._t0(k).tolist(), dxdt.tolist(),
                        off.tolist(), c1.tolist()))

    def positive(self, coef, base, c1) -> bool:
        """Whether w is certainly positive on one bracket, from its piece
        (see :meth:`_pieces`), in floats: each basis function of the step
        polynomial (see :func:`_bracket`) is nonnegative on [0, 1] with the
        maximum in ``_BASIS_MAX``, so bounding each term bounds
        u = 1 - d G = 1/q on both sides and m = 1 - c1 (F/G_e)/q_e and
        c0 w1 below, and w = m/u + c0 w1 > 0 where u_min > 0 and
        m_min + u min(c0 w1) > 0, u = u_max where m_min >= 0, else u_min."""
        (G_e, u_e), d = self._turn, self.d
        c = -c1 * u_e                          # m = 1 + c F/G_e
        m_lo = u_lo = u_hi = h_lo = 0.0        # the sums over the basis
        for (a0, a1, a2, _), top in zip(coef, _BASIS_MAX):
            x, g = c * (a0 / G_e), -d * a1     # a NaN term lands in a lower sum and fails the test
            if not x >= 0.0:
                m_lo += x * top
            if g >= 0.0:
                u_hi += g * top
            else:
                u_lo += g * top
            if not a2 >= 0.0:
                h_lo += a2 * top
        m_min = 1.0 + c * (base[0] / G_e) + m_lo
        u_min, u_max = 1.0 - d * base[1] + u_lo, 1.0 - d * base[1] + u_hi
        return u_min > 0.0 and m_min + (u_max if m_min >= 0.0 else u_min) * (base[2] + h_lo) > 0.0

    def brackets(self, f, j):
        """w (j = 2) or p (j = 3) on the brackets that start at nodes ``f``,
        from one gather of their polynomials: one :func:`_bracket` each."""
        return [_bracket(*piece, self._odd, self.d, j) for piece in self._pieces(f)]

    def first_zero(self) -> Optional[float]:
        """t*, the first zero of w in [0, t_max] (None where w stays
        positive): decided without a search where v = (0, 0), else found
        by :meth:`_search_zero`.

        With v = (0, 0) the homogeneous part is 0, so w = q = 1/(1 - d G)
        exactly; and G' = F (1 - d G) gives 1 - d G = (1 - d G0) exp(-d I)
        > 0 along the orbit, I the integral of F from 0 to t, so w never
        reaches 0, and no node, bound or polynomial is read.  Every
        spatially constant start has v = (0, 0) exactly (u = 0), and so
        does the center r0 = 0 of every radial profile, where
        lambda0 = d G0 and D0 = d F0.
        """
        if self.v == (0.0, 0.0):
            return None
        return self._search_zero()

    def _search_zero(self) -> Optional[float]:
        """t*, the first zero of w in [0, t_max] (None where w stays
        positive), found by a bisection over windows of one period.

        At t_max = inf, where n v0 = 0 or n is 0 within ``shear_error``,
        w repeats each period, so the search runs to t = T, one period
        from the start: a shear the integration cannot tell from 0 breaks
        no run.

        At a fixed phase w(kT + sigma) = A(sigma) + k B(sigma) is affine in
        the period k (B = n v0 w2; mirrored, its turn), so the minimum of w
        over a bracket, a minimum of affine functions, is concave in k.
        Window m, the P whole brackets from node min(first + m P,
        last - 1 - P) on, holds each node position once, a period (in the
        last window at most one) after window m - 1.  Where window 0 stays
        positive, each bracket thus reaches 0 from some period on, if ever,
        and "w reaches 0 in window m" (:meth:`_below`) is monotone in m.
        The first round tests window 0 and the last; the second the window
        where a node value A + m B first falls to 0, ceil(-A/B), and the
        two before it; the next ones ``_SECTIONS`` windows each.  t* lies
        on the first bracket that reaches 0 in the first window that does;
        the partial brackets from t = 0 and to t_max are tested as they
        are, by :meth:`_edge`, where their whole brackets reach 0.  Past
        ``_MAX_PERIODS`` + 1 periods a horizon is searched as inf is.
        """
        P, first, t_end = self._step.size, self.first, self.t_max
        if math.isinf(t_end) and (not self._slope.any() or abs(self.shear) <= self.shear_error):
            t_end = self.T
        last = self._count(t_end) if t_end < self._t0(_MAX_PERIODS + 1) else None
        end = last - 1 if last is not None else (_MAX_PERIODS + 1) * P   # whole brackets [first, end)
        top = max(-((first + P - end) // P), 0)                            # the last window

        def start(m):
            return max(first, min(first + m * P, end - P))

        def windows(ms):        # the brackets of the windows ``ms`` (ascending), each once
            s = [start(m) for m in ms]
            return [np.arange(max(a, b), min(a + P, end)) for a, b in zip(s, [first] + [x + P for x in s])]

        # the whole brackets of the partial ones, from t = 0 and to t_max
        edges = (([first - 1] if self.inside else []) +
                 ([last - 1] if last is not None and last > first else []))
        f, ta, wa, below = self._test(np.concatenate([*windows(sorted({0, top})), np.array(edges, dtype=int)]))
        reach = set(f[below < np.inf].tolist())
        ms, lo, hi, best = [0, top], -1, top + 1, None   # windows up to lo stay positive; hi reaches 0
        while True:
            hit = np.flatnonzero((below < np.inf) & (f >= first) & (f < end))
            if hit.size:
                i = hit[0]
                hi = next(m for m in ms if f[i] < start(m) + P)
                lo = max([lo] + [m for m in ms if m < hi])
                best = (f[i], ta[i], wa[i], below[i])
            else:
                lo = max(lo, ms[-1])
            if hi - lo <= 1:
                break
            if ms[0] == 0:      # after the first round: where a node value A + m B falls to 0
                j = first + np.arange(P)
                A, B = self._node(j, times=False)[0], self._slope[j % P]
                with np.errstate(divide="ignore", over="ignore"):
                    k = np.ceil(-A[B < 0.0] / B[B < 0.0])
                h = max(int(min(k.min(), hi)) if k.size else hi, lo + 1)
                ms = [m for m in (h - 2, h - 1, h) if lo < m < hi]
            else:
                ms = sorted({lo + 1 + i * (hi - lo - 1) // _SECTIONS for i in range(_SECTIONS)})
            f, ta, wa, below = self._test(np.concatenate(windows(ms)))

        found = None
        if first - 1 in reach:                 # from t = 0 to the first node
            b = self._node(np.array([first])) if last is None or first < last else self._at_time(t_end)
            found = self._edge(first - 1, self._at_time(0.0), b)
        if found is None and best is not None:
            found = self._t_star_on(*best)
        if found is None and last is not None and last > first and last - 1 in reach:
            found = self._edge(last - 1, self._node(np.array([last - 1])), self._at_time(t_end))
        return found

    def _test(self, f):
        """The brackets of nodes ``f`` up to the first node from ``first``
        on with w <= 0 (no later one can hold t*), with t and w at their
        start and where w first reaches 0 on them (:meth:`_below`):
        (f, t, w, below)."""
        t, w, p = self._node(np.concatenate([f, f + 1]))    # both ends at once
        ta, wa, pa, b = t[:f.size], w[:f.size], p[:f.size], (t[f.size:], w[f.size:], p[f.size:])
        n = np.concatenate([f[(wa <= 0.0) & (f >= self.first)], f[b[1] <= 0.0] + 1])
        if n.size:
            keep = f <= n.min()
            f, ta, wa, pa, b = f[keep], ta[keep], wa[keep], pa[keep], [x[keep] for x in b]
        return f, ta, wa, self._below(f, (ta, wa, pa), b)

    def _below(self, f, a, b):
        """Where w first reaches 0 on the brackets of nodes ``f`` with ends
        ``a`` and ``b``, each (t, w, p): at the start where w <= 0 there,
        else at the minimum (where p turns from negative to nonnegative and
        :meth:`positive` does not rule it out) where w <= 0 there, else at
        the end where w <= 0 there; inf where w stays positive.  That is
        where the bracket of t*'s root ends.  The brackets with a minimum
        are gathered once (:meth:`_pieces`), for their bounds and the
        :func:`_bracket` closures of p and w."""
        (ta, wa, pa), (tb, wb, pb) = a, b
        below = np.where(wb <= 0.0, tb, np.inf)
        i = np.flatnonzero((pa < 0.0) & (pb >= 0.0))
        if i.size:
            ends = zip(ta[i].tolist(), tb[i].tolist(), pa[i].tolist(), pb[i].tolist())
            for n, piece, ab in zip(i.tolist(), self._pieces(f[i]), ends):
                coef, base, *_, c1 = piece
                if self.positive(coef, base, c1):
                    continue
                x = newton_root(_bracket(*piece, self._odd, self.d, _P), *ab)
                w = _bracket(*piece, self._odd, self.d, _W)
                if w(x)[0] <= 0.0:
                    below[n] = x
        return np.where(wa <= 0.0, ta, below)

    def _at_time(self, t):
        """t, w and p at a time, each an array of one."""
        _, _, w, p = self(t)
        return np.array([t]), np.array([w]), np.array([p])

    def _edge(self, f, a, b):
        """t* on one partial bracket of the polynomial of node ``f``, or None."""
        below = self._below(np.array([f]), a, b)[0]
        return None if below == np.inf else self._t_star_on(f, a[0][0], a[1][0], below)

    def _t_star_on(self, f, ta, wa, below):
        """The zero of w on the bracket of node ``f`` from ``ta`` to ``below``."""
        if wa <= 0.0:
            return float(ta)
        w = self.brackets(np.array([f]), _W)[0]    # w <= 0 at ``below``: rounding must not flip it
        return newton_root(w, float(ta), float(below), float(wa), min(w(float(below))[0], 0.0))


class _Lagrangian:
    """(F, G, w, p) along a characteristic with d = 1, or at rest
    (F0 = G0 = 0, where F = G = 0 for all time, or to rounding on an orbit
    of subnormal amplitude) with any d, in closed form.

    There w'' = 1 - w, so w = 1 + A cos t + B sin t with A = w0 - 1 and
    B = p0, and v = 1/(1 - G) obeys the same equation with v' = F v.  The
    nodes are evenly spaced, ``_ONE_D_NODES`` per 2 pi over [0, t_max]
    (over [0, t_end] when t_max is inf), and built when read, only up to
    t_end.
    """

    floquet, offset = None, 0

    def __init__(self, F0, G0, w0, p0, t_max):
        v0 = 1.0 / (1.0 - G0)
        self.coef, self.t_max = (w0 - 1.0, p0, v0 - 1.0, F0 * v0), t_max

    def __call__(self, t):
        A, B, a, b = self.coef
        c, s = np.cos(t), np.sin(t)
        v = 1.0 + a * c + b * s
        return (b * c - a * s) / v, 1.0 - 1.0 / v, 1.0 + A * c + B * s, B * c - A * s

    def _grid(self, t_end):
        """The node spacing, span/m with m = ceil(span ``_ONE_D_NODES``/(2 pi)),
        and a count of nodes i span/m from i = 0 on that covers those before
        ``t_end``: the nodes of ``np.linspace(0, span, m + 1)`` but its
        last, span >= t_end."""
        span = self.t_max if math.isfinite(self.t_max) else t_end
        m = math.ceil(span * _ONE_D_NODES / (2.0 * math.pi))
        if not m:                    # span = 0
            return 0.0, 0
        step = span / m
        return step, min(m, math.floor(t_end / step) + 2)

    def size(self, t_end) -> int:
        """The number of nodes :meth:`nodes` gives up to ``t_end``, or one
        or two more."""
        return self._grid(t_end)[1] + 1

    def nodes(self, t_end):
        """t, F, G, w and p on the nodes in [0, t_end) and at ``t_end``."""
        step, n = self._grid(t_end)
        t = np.arange(n, dtype=float) * step
        t = np.append(t[t < t_end], t_end)
        return [t, *self(t)]

    def first_zero(self) -> Optional[float]:
        """t*: with R = hypot(A, B) and phi = atan2(B, A), w = 1 + R cos(t - phi)
        first falls to 0 where t - phi = arccos(-1/R) (mod 2 pi), if R >= 1."""
        A, B, _, _ = self.coef
        R = math.hypot(A, B)
        if R < 1.0:
            return None
        t = (math.atan2(B, A) + math.acos(-1.0 / R)) % (2.0 * math.pi)
        return t if t <= self.t_max else None

    def brackets(self, f, j):
        """w (j = 2) or p (j = 3) and its derivative at a time, in floats: one
        closure, the same on every bracket ``f``."""
        A, B, _, _ = self.coef

        def g(t):
            c, s = np.cos(t), np.sin(t)
            w, p = 1.0 + A * c + B * s, B * c - A * s
            return (float(w), float(p)) if j == _W else (float(p), float(1.0 - w))

        return [g] * len(f)


def _falls_to(flow, nodes, level: float, t_below: float) -> float:
    """The time before ``t_below``, where w <= level, at which w falls to
    ``level``, from the flow's ``nodes`` (t, F, G, w, p) up to ``t_below``.

    The bracket starts at the last node before ``t_below`` with w above
    ``level`` and ends at the next node or at ``t_below``, whichever comes
    first, so it lies in one step; with no such node, w starts at or below
    ``level`` and the time is 0.
    """
    t, w = nodes[0], nodes[3]
    above = np.flatnonzero((t < t_below) & (w > level))
    if not above.size:
        return 0.0
    k = above[-1]
    on = flow.brackets(np.array([k + flow.offset]), _W)[0]

    def g(x):
        wx, dwx = on(x)
        return wx - level, dwx

    b = float(min(t[k + 1], t_below))     # w <= level at b: rounding must not flip it
    return newton_root(g, float(t[k]), b, float(w[k]) - level, min(g(b)[0], 0.0))


class CharacteristicRun:
    """One characteristic solution: its blow-up time, and on first read its
    trajectory and crossing log.

    ``t_star``, the first zero of w (None when w stays positive up to
    t_max), is found when the run is made, by the flow's ``first_zero``:
    for d = 2, 3 by a bisection over windows of one period's brackets (see
    :meth:`_Floquet._search_zero`), which reads two windows at any horizon
    where w stays positive, and where it reaches 0 adds a round of up to
    three windows and rounds of ``_SECTIONS``; in closed form for d = 1
    and the rest state.  No search runs where the homogeneous part is 0, v = (0, 0), as at
    every spatially constant start and every center: there
    w = q = 1/(1 - d G), and 1 - d G = (1 - d G0) exp(-d I) > 0 with I the
    integral of F, so t* is None.  So t_max may be inf, where a shear that
    is 0 within its error (``floquet["shear_error"]``) counts as 0.

    ``trajectory`` holds the state (F, G, lambda, D, r) on its nodes and
    evaluates it at any time; it ends at t_max (status ``"completed"``) or,
    after a blow-up, where lambda reaches ``-d_cap`` (``"terminal-event"``),
    so ``d_cap`` moves neither t* nor a bounded run; a run that never
    breaks up to t_max = inf has no end, and reading it raises ValueError,
    as does reading one of more than ``_MAX_NODES`` nodes, before any of
    them is built (the flow's ``size`` counts them in O(1)).
    ``crossing_times`` and ``crossing_lambdas`` are the axis crossings
    D = 0 before that end: every sign change of p between nodes, located by
    :func:`newton_root` on each bracket from one gather of all their step
    polynomials, with lambda there from the trajectory.  The nodes, the
    trajectory and the crossings are built on first read and cached.
    """

    def __init__(self, profile: RadialProfile, r0: float, flow, d_cap: float):
        self.profile, self.r0, self.d_cap, self._flow = profile, r0, d_cap, flow
        self.t_star: Optional[float] = flow.first_zero()

    @property
    def d(self) -> int:
        return self.profile.d

    @property
    def floquet(self) -> Optional[dict]:
        """The period map [[1, 0], [shear, 1]] of a d = 2, 3 run with a
        period: ``period`` T, ``half_period_steps`` and ``half_period_status``
        (the DOP853 run over T/2: ``"singular-step"`` where a start with u = 0
        mirrors a half that stops short), ``shear``, ``shear_error`` (see
        :attr:`_Floquet.shear_error`) and ``turning_point_miss`` |F(T/2)|/F+,
        where the half period ends against the turning point it should reach
        (0 but for the integration error); None for the closed forms."""
        return self._flow.floquet

    @cached_property
    def _nodes(self) -> list:
        """t, F, G, w and p on the trajectory's nodes, up to its end."""
        flow = self._flow
        if self.t_star is None and math.isinf(flow.t_max):
            raise ValueError("t_max = inf and no blow-up (w stays positive, or its shear is "
                             "0 within its error): the trajectory has no end")
        t_end = flow.t_max if self.t_star is None else self.t_star
        size = flow.size(t_end)
        if size > _MAX_NODES:
            raise ValueError(f"the trajectory to t = {t_end!r} has {size} nodes, more than the "
                             f"{_MAX_NODES} a run builds")
        if self.t_star is None:
            return flow.nodes(t_end)
        # the end, lambda = -d_cap, from t and w up to t*, and the nodes before
        # it; for d = 1, G = lambda is infinite at t*, where only w is read
        with np.errstate(divide="ignore", invalid="ignore"):
            upto = flow.nodes(t_end)
        stop = _falls_to(flow, upto, 1.0 / (1.0 + self.d_cap), t_end)
        keep = upto[0] < stop
        return [np.append(x[keep], end) for x, end in zip(upto, (stop, *flow(stop)))]

    @cached_property
    def trajectory(self) -> OdeTrajectory:
        flow, d, r0 = self._flow, self.d, self.r0
        t, *state = self._nodes
        ratio = 1.0 - d * self.profile.G0(r0)

        # reads no attribute of the run: the run holds the trajectory, and a
        # reference back would leave every run to the cycle collector
        def states(F, G, w, p):
            return np.array([F, G, 1.0 - 1.0 / w, p / w, r0 * (ratio / (1.0 - d * G)) ** (1.0 / d)])

        return OdeTrajectory(t, states(*state), lambda tt: states(*flow(tt)),
                             status="completed" if self.t_star is None else "terminal-event")

    @cached_property
    def _crossings(self) -> tuple[np.ndarray, np.ndarray]:
        traj, flow = self.trajectory, self._flow
        t, p = self._nodes[0], self._nodes[4]
        sign = np.sign(p)
        i = np.flatnonzero((sign[:-1] != sign[1:]) & (sign[:-1] != 0.0))
        ends = zip(flow.brackets(i + flow.offset, _P), t[i].tolist(), t[i + 1].tolist(),
                   p[i].tolist(), p[i + 1].tolist())
        times = np.fromiter((newton_root(*bracket) for bracket in ends), float, count=i.size)
        times = times[times < t[-1]]
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

    For d = 2 and 3, (F, G) and the even solution, 4 variables, are
    integrated at ``tol`` over half a period from a turning point, the odd
    solution is closed form, and the rest of the run is mirrored from it,
    with the odd solution's weight growing by the period map's shear each
    period.  d = 1 is closed form, and so is the rest state F0 = G0 = 0 of
    any d, where w'' = 1 - w (and an orbit of subnormal amplitude).  An
    orbit ``period`` cannot resolve raises ValueError, at any t_max, and so
    does a start off the particular solution w = q whose half period the
    integration does not complete.  The run finds the blow-up time t* at
    once, for d = 2, 3 by a bisection over windows of one period's
    brackets, which reads two windows where the run does not break
    whatever t_max, so ``t_max`` may be ``math.inf``.  Its
    nodes, its trajectory (ending where lambda reaches ``-d_cap`` after a
    blow-up) and its crossings are built when first read; see
    :class:`CharacteristicRun`.
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
    if d == 1 or math.hypot(F0, G0) < sys.float_info.min:
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


def _arc_bounds(run: CharacteristicRun, k: int, f_plus: float):
    """Anchored bound pair for the k-th inter-crossing arc (k = 0: from t=0)."""
    if k == 0:
        lam_a, D_a = profile_divergences(run.profile, run.r0)
    else:
        st = run.trajectory(run.crossing_times[k - 1])
        lam_a, D_a = st[2], 0.0
    s_a, Z_a = lam_a - 1.0, D_a * D_a
    lower = sigma_curve(Side.LOWER, s_a, Z_a, DEFAULT_SIGMA1, f_plus, run.d)
    upper = sigma_curve(Side.UPPER, s_a, Z_a, DEFAULT_SIGMA2, f_plus, run.d)
    return lower, upper


def sandwich_check(run: CharacteristicRun, max_arcs: Optional[int] = None) -> float:
    """Largest signed escape of the oracle's Z(s) from the bound envelope.

    For each arc between consecutive axis crossings (plus the initial arc
    from t = 0), the lower/upper comparison curves, of sigma DEFAULT_SIGMA1
    and DEFAULT_SIGMA2, are anchored at the arc's starting state with the
    orbit's F+ and the oracle's Z(s) is compared against [min, max] of the
    pair at _SAMPLES_PER_ARC times.  Negative return values mean the
    trajectory stayed strictly inside.
    """
    f_plus = orbit_extremes(run.profile.F0(run.r0), run.profile.G0(run.r0), run.d).F_plus
    stops = np.concatenate([[0.0], run.crossing_times])
    n_arcs = len(stops) - 1
    if max_arcs is not None:
        n_arcs = min(n_arcs, max_arcs)
    worst = -np.inf
    for k in range(n_arcs):
        lower, upper = _arc_bounds(run, k, f_plus)
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
    """Blow-up time per starting radius (None where no blow-up by t_max,
    which may be ``math.inf``: see :class:`CharacteristicRun`)."""
    out: list[tuple[float, Optional[float]]] = []
    for r0 in r_grid:
        run = run_characteristic(profile, r0, t_max, tol=tol)
        rec = detect_blowup(run)
        out.append((r0, rec.t_star if rec.detected else None))
    return out
