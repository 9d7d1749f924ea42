"""Numerical kernels shared by the physics modules.

Adaptive ODE integration with event detection (backed by scipy's DOP853),
real Lambert W on branches 0 and -1, bracketed root finding, quadrature for
integrands with inverse-square-root endpoint singularities, and a golden
section scalar optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

__all__ = [
    "BracketError",
    "QuadratureError",
    "EventRecord",
    "OdeTrajectory",
    "integrate",
    "lambert_w",
    "find_root",
    "integrate_singular",
    "optimize_scalar",
]

_INV_E = np.exp(-1.0)
_GOLDEN = 0.5 * (np.sqrt(5.0) - 1.0)
_QUAD_TOL = 1e-12   # absolute and relative target of integrate_singular


class BracketError(ValueError):
    """The supplied interval does not bracket a root."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""


@dataclass
class EventRecord:
    """One located zero crossing of an event function."""

    index: int
    time: float
    state: np.ndarray


@dataclass
class OdeTrajectory:
    """Result of an adaptive integration.

    ``status`` is one of ``"completed"``, ``"terminal-event"`` (the magnitude
    guard fired) or ``"singular-step"`` (step size underflow, which we treat
    as a suspected finite-time singularity).  ``interpolant`` is the dense
    output valid on ``[t[0], t[-1]]``.
    """

    t: np.ndarray
    y: np.ndarray
    interpolant: Callable[[float], np.ndarray]
    events: list[EventRecord] = field(default_factory=list)
    status: str = "completed"
    message: str = ""

    def __call__(self, t):
        return self.interpolant(t)

    @property
    def final_state(self) -> np.ndarray:
        return self.y[:, -1]


def integrate(
    rhs: Callable[[float, np.ndarray], Sequence[float]],
    y0: Sequence[float],
    t_span: tuple[float, float],
    tol: float = 1e-10,
    events: Sequence[Callable[[float, np.ndarray], float]] = (),
    magnitude_cap: float = 1e6,
) -> OdeTrajectory:
    """Integrate ``y' = rhs(t, y)`` adaptively with dense output.

    Event functions are scalar; their sign changes are located on the dense
    output.  A terminal guard stops the run once ``max|y|`` exceeds
    ``magnitude_cap`` (the blow-up guard).  Identical inputs always produce
    identical trajectories.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def guard(t, y):
        return np.max(np.abs(y)) - magnitude_cap

    guard.terminal = True

    sol = solve_ivp(
        rhs,
        t_span,
        np.asarray(y0, dtype=float),
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=True,
        events=list(events) + [guard],
    )

    recs: list[EventRecord] = []
    for idx in range(len(events)):
        for te in sol.t_events[idx]:
            recs.append(EventRecord(idx, float(te), sol.sol(te)))
    recs.sort(key=lambda r: r.time)

    if sol.status == 1:
        status = "terminal-event"
    elif sol.status == 0:
        status = "completed"
    else:
        status = "singular-step"
    return OdeTrajectory(sol.t, sol.y, sol.sol, recs, status, sol.message or "")


def _halley(w: float, x: float, max_iter: int = 50) -> float:
    for _ in range(max_iter):
        ew = np.exp(w)
        f = w * ew - x
        if f == 0.0:
            return w
        wp1 = w + 1.0
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
        w -= step
        if abs(step) <= 1e-16 * max(1.0, abs(w)):
            break
    return w


def _branch_point_series(x: float, branch: int) -> float:
    # expansion around w = -1, p = +/-sqrt(2(e x + 1)); Corless et al. coefficients
    p = np.sqrt(2.0 * (np.e * x + 1.0))
    if branch == -1:
        p = -p
    return -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0 - 43.0 * p**4 / 540.0


def lambert_w(branch: int, x: float) -> float:
    """Real Lambert W: the solution w of ``w e^w = x`` on the given branch.

    Branch 0 is defined on ``[-1/e, inf)`` with values >= -1; branch -1 on
    ``[-1/e, 0)`` with values <= -1.  Residual ``|w e^w - x|`` stays below
    1e-12 across both branch domains.
    """
    if branch not in (0, -1):
        raise ValueError(f"branch must be 0 or -1, got {branch}")
    x = float(x)
    if x < -_INV_E - 1e-14:
        raise ValueError(f"x={x} below the branch point -1/e")
    x = max(x, -_INV_E)
    if branch == -1 and x >= 0.0:
        raise ValueError("branch -1 requires x < 0")

    if x == 0.0:
        return 0.0
    near_branch_point = abs(x + _INV_E) < 1e-4
    if near_branch_point:
        w = _branch_point_series(x, branch)
        if abs(x + _INV_E) < 1e-12:
            return w
        return _halley(w, x)

    if branch == 0:
        if x > np.e:
            lx = np.log(x)
            w = lx - np.log(lx)
        else:
            w = x / (1.0 + x) if x < 0.5 else np.log1p(x)
    else:
        lx = np.log(-x)
        w = lx - np.log(-lx)
    return _halley(w, x)


def find_root(f: Callable[[float], float], a: float, b: float, tol: float = 1e-12) -> float:
    """Root of ``f`` inside the bracket ``[a, b]`` (Brent's method).

    Raises :class:`BracketError` when ``f(a)`` and ``f(b)`` do not differ in
    sign.  The result never leaves the initial bracket.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if np.sign(fa) == np.sign(fb):
        raise BracketError(f"no sign change on [{a}, {b}]: f(a)={fa}, f(b)={fb}")
    return float(brentq(f, a, b, xtol=tol, maxiter=200))


def integrate_singular(f: Callable[[float, float], float], a: float, b: float) -> float:
    """Integral over ``[a, b]`` of an integrand with inverse-square-root ends.

    ``f(end, h)`` is the integrand at ``end + h``, with ``end`` in ``{a, b}``
    and ``h`` the offset toward the interior.  Taking the end and the offset
    apart lets the caller evaluate its integrand as an increment from the
    end, so a ``1/sqrt`` singularity at a root is divided out exactly.  Each
    half of the interval is integrated in ``u`` with ``h = +/-u**2``, which
    leaves a bounded integrand; a failure message from quad or a non-finite
    value raises :class:`QuadratureError`.
    """
    if not b > a:
        raise ValueError("require b > a")
    w = np.sqrt(0.5 * (b - a))
    total = 0.0
    for end, sign in ((a, 1.0), (b, -1.0)):
        val, _, _, *msg = quad(lambda u: 2.0 * u * f(end, sign * u * u), 0.0, w,
                               epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, full_output=1)
        if msg or not np.isfinite(val):
            detail = msg[0] if msg else f"non-finite value {val}"
            raise QuadratureError(f"quadrature on [{a}, {b}] from {end}: {detail}")
        total += val
    return total


def optimize_scalar(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-12,
    mode: str = "min",
) -> tuple[float, float]:
    """Golden section search for the extremum of a unimodal ``f`` on ``[a, b]``.

    Returns ``(x_star, f(x_star))`` with ``f`` evaluated in the caller's
    orientation regardless of ``mode``.  Unimodality is the caller's
    responsibility; for non-unimodal inputs the result is the best point in
    the shrinking bracket sequence.
    """
    if mode not in ("min", "max"):
        raise ValueError("mode must be 'min' or 'max'")
    sign = 1.0 if mode == "min" else -1.0

    lo, hi = float(a), float(b)
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = sign * f(c), sign * f(d)
    for _ in range(300):
        if hi - lo <= tol:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = sign * f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = sign * f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)
