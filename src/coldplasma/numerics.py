"""Numerical kernels shared by the physics modules.

Adaptive ODE integration with dense output, events and a blow-up guard
(DOP853 with the step control of scipy's ``solve_ivp``, whose accepted steps
and values it reproduces), real Lambert W on branches 0 and -1, bracketed
root finding (Brent's method), quadrature for integrands with
inverse-square-root endpoint singularities (adaptive 21-point
Gauss-Kronrod), and a golden section scalar optimizer.  numpy is the only
dependency.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _dop853_tables as _dop

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
_QUAD_LIMIT = 50    # most panels integrate_singular splits one half into
_ROOT_RTOL = 4.0 * sys.float_info.epsilon   # relative part of find_root's stop
_ROOT_MAXITER = 200

# QUADPACK qk21: Kronrod abscissae xgk(1..10) on [-1, 1], the even entries
# being the 10-point Gauss nodes, their Kronrod weights wgk(1..11) (the last
# one at the centre) and the Gauss weights wg(1..5) of xgk(2), xgk(4), ...
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min

# DOP853 step control, as in scipy's ``RungeKutta``: the error estimate is
# O(h**8), so a step is rescaled by SAFETY * err**(-1/8) within the factors
_A, _B, _E3, _E5, _D = _dop.A, _dop.B, _dop.E3, _dop.E5, _dop.D
_C_LIST = _dop.C.tolist()
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERR_EXP = -1 / 8
# the stages the dense output reads: rows 1-4 have zero weight in A[13:16] and D
_KEPT_STAGES = [0, *range(5, _dop.N_STAGES + 1)]
_ROOT_XTOL = 4.0 * _EPMACH   # event roots: the absolute part of find_root's stop


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
    output valid on ``[t[0], t[-1]]``, at a scalar or an array of times; it
    keeps ``rhs`` and calls it, three times per step, the first time it
    reads a step whose dense output the run did not need.
    """

    t: np.ndarray
    y: np.ndarray
    interpolant: Callable[[float], np.ndarray]
    events: list[EventRecord] = field(default_factory=list)
    status: str = "completed"

    def __call__(self, t):
        return self.interpolant(t)

    @property
    def final_state(self) -> np.ndarray:
        return self.y[:, -1]


def _rms(x: np.ndarray) -> float:
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(rhs, t0: float, y0: np.ndarray, f0: np.ndarray, t_end: float,
                  tol: float) -> float:
    """First step size (Hairer, Norsett & Wanner, sec. II.4), one rhs call."""
    span = t_end - t0
    scale = tol + np.abs(y0) * tol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = np.asarray(rhs(t0 + h0, (y0 + h0 * f0).tolist()), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERR_EXP
    return min(100 * h0, h1, span)


def _horner(coefs: list, x: float, y_old: list) -> list:
    """DOP853 dense polynomial of one step at ``x = (t - t_old)/h``, in floats.

    ``coefs`` holds the 7 coefficients of each component; the nesting
    alternates the factors ``x`` and ``1 - x`` (Hairer's ``contd8``).  The
    operations, from ``0.0 + c6`` on, are those of :func:`_dense_output`,
    so the values agree to the bit.
    """
    x1 = 1.0 - x
    return [((((((((0.0 + c6) * x + c5) * x1 + c4) * x + c3) * x1 + c2) * x + c1) * x1 + c0)
             * x + y0) for (c0, c1, c2, c3, c4, c5, c6), y0 in zip(coefs, y_old)]


def _dense_coefficients(rhs, t: float, h: float, y: np.ndarray, y_new: np.ndarray,
                        K: np.ndarray) -> np.ndarray:
    """The 7 coefficients ``F`` of one accepted step's dense polynomial.

    ``K`` holds the step's stages 0-12 (12 is the derivative at its end);
    this fills the extra stages 13-15, three ``rhs`` calls, and returns
    ``F`` of shape ``(7, n)``.  Rows 1-4 of ``K`` have zero weight here, so
    a ``K`` rebuilt from :data:`_KEPT_STAGES` with zeros there gives the
    same ``F``.
    """
    ylist = y.tolist()
    for s in range(_dop.N_STAGES + 1, _dop.N_STAGES_EXTENDED):
        K[s] = rhs(t + _C_LIST[s] * h,
                   [u + v * h for u, v in zip(ylist, K[:s].T.dot(_A[s, :s]).tolist())])
    F = np.empty((_dop.INTERPOLATOR_POWER, y.size))
    dy = y_new - y
    f, f_new = K[0], K[_dop.N_STAGES]
    F[0] = dy
    F[1] = h * f - dy
    F[2] = 2 * dy - h * (f_new + f)
    F[3:] = h * _D.dot(K)
    return F


def _dense_output(rhs, ts: np.ndarray, ys: np.ndarray, hs: list, Fs: list):
    """Interpolant over the stored steps: step ``i`` starts at ``ts[i]``, ``ys[i]``.

    ``Fs[i]`` is step ``i``'s coefficient array ``F``, or, for a step whose
    dense output nobody has read yet, its stages :data:`_KEPT_STAGES`; the
    first call that needs such a step builds ``F`` by
    :func:`_dense_coefficients` (three ``rhs`` calls) and keeps it.  It
    takes a scalar ``t`` (giving shape ``(n,)``) or an array (``(n, m)``).
    A time on a breakpoint takes the earlier step; times outside
    ``[ts[0], ts[-1]]`` extrapolate the first or last step.
    """
    h, y_old = np.array(hs), ys[:len(hs)]
    last, n = len(hs) - 1, ys.shape[1]

    def coefficients(i):
        F = Fs[i]
        if F.shape[0] != _dop.INTERPOLATOR_POWER:   # ys[i + 1] is its end: a guard stop is built
            K = np.zeros((_dop.N_STAGES_EXTENDED, F.shape[1]))
            K[_KEPT_STAGES] = F
            F = Fs[i] = _dense_coefficients(rhs, float(ts[i]), hs[i], ys[i], ys[i + 1], K)
        return F

    def interpolant(t):
        t = np.asarray(t, dtype=float)
        seg = np.clip(np.searchsorted(ts, t) - 1, 0, last)
        F = np.array([coefficients(i) for i in seg.ravel().tolist()]).reshape(
            seg.shape + (_dop.INTERPOLATOR_POWER, n))
        x = ((t - ts[seg]) / h[seg])[..., None]
        x1 = 1.0 - x
        y = np.zeros(x.shape[:-1] + (n,))
        for i in range(6, -1, -1):
            y += F[..., i, :]
            y *= x if i % 2 == 0 else x1
        y += y_old[seg]
        return y.T

    return interpolant


def integrate(
    rhs: Callable[[float, list], Sequence[float]],
    y0: Sequence[float],
    t_span: tuple[float, float],
    tol: float = 1e-10,
    events: Sequence[Callable[[float, list], float]] = (),
    magnitude_cap: float = 1e6,
) -> OdeTrajectory:
    """Integrate ``y' = rhs(t, y)`` forward in time by DOP853 with dense output.

    Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, *Solving ODEs I*,
    sec. II.4-II.6 and II.10) with the step control of scipy's ``DOP853``
    at ``rtol = atol = tol``, so a run takes the same accepted steps and
    gives the same numbers as ``solve_ivp(method="DOP853")``.  ``rhs`` and
    the event functions receive the state as a list of floats; ``rhs`` is
    called only through the argument given.  Event functions are scalar;
    each sign change over a step is located on that step's dense polynomial
    by :func:`find_root`, and the event's state is that polynomial at the
    root (the interpolant's value there).  A terminal guard stops the run at
    the time ``max|y|`` reaches ``magnitude_cap`` (the blow-up guard); events
    past that time are dropped.  A step below ten spacings of the floats at
    ``t`` ends the run as ``"singular-step"``.  Identical inputs always
    produce identical trajectories.

    Each accepted step costs 12 ``rhs`` calls.  The 3 extra stages of its
    dense output are paid on the step itself only when an event or the
    guard changes sign over it; any other step keeps the stages they read
    and builds its polynomial on the interpolant's first read, so the calls
    and values match ``solve_ivp`` once every step has been read.
    """
    if not tol >= 100 * _EPMACH:
        raise ValueError(f"tol must be at least 100 eps, got {tol}")
    t, t_end = float(t_span[0]), float(t_span[1])
    if not t_end > t:
        raise ValueError(f"integrate runs forward only: t_span = {t_span}")
    y = np.array(y0, dtype=float)
    n = y.size
    events = list(events)

    def guard(t, y):
        return max(map(abs, y)) - magnitude_cap

    checks = events + [guard]
    K = np.empty((_dop.N_STAGES_EXTENDED, n))
    # stage s evaluates rhs at t + c_s h, y + h (a_s . rows 0..s-1 of K)
    stages = [(s, _A[s, :s], K[:s].T, _C_LIST[s]) for s in range(1, _dop.N_STAGES)]
    K_step, K_err = K[:_dop.N_STAGES].T, K[:_dop.N_STAGES + 1].T

    f = np.asarray(rhs(t, y.tolist()), dtype=float)
    h_abs = _initial_step(rhs, t, y, f, t_end, tol)
    ylist = y.tolist()
    g = [ev(t, ylist) for ev in checks]
    ts, ys, hs, Fs = [t], [y], [], []
    hits: list[list[tuple]] = [[] for _ in events]
    status = "completed"
    while True:
        min_step = 10.0 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:    # a NaN step (rhs NaN at the start) stops too
                status = "singular-step"
                break
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, a, KsT, c in stages:
                K[s] = rhs(t + c * h, [u + v * h for u, v in zip(ylist, KsT.dot(a).tolist())])
            y_new = y + h * K_step.dot(_B)
            ylist_new = y_new.tolist()
            f_new = np.asarray(rhs(t + h, ylist_new), dtype=float)
            K[_dop.N_STAGES] = f_new
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            err5, err3 = K_err.dot(_E5) / scale, K_err.dot(_E3) / scale
            e5, e3 = math.sqrt(err5.dot(err5)) ** 2, math.sqrt(err3.dot(err3)) ** 2
            err = 0.0 if e5 == 0 and e3 == 0 else h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXP)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP)
            rejected = True
        if status == "singular-step":
            break

        g_new = [ev(t_new, ylist_new) for ev in checks]
        # scipy's rule: a sign change over the step, or a zero at either end
        active = [i for i, (a, b) in enumerate(zip(g, g_new)) if a <= 0.0 <= b or b <= 0.0 <= a]
        if active:
            F = _dense_coefficients(rhs, t, h, y, y_new, K)
            coef = F.T.tolist()
            roots = [(find_root(lambda tt, ev=checks[i]: ev(tt, _horner(coef, (tt - t) / h, ylist)),
                                t, t_new, tol=_ROOT_XTOL), i) for i in active]
            for root, i in sorted(roots):
                if i == len(events):
                    status = "terminal-event"
                    t_stop = root
                    break
                # the interpolant gives a root on the step's start the
                # earlier step's value, so its state is read after the run
                hits[i].append((root, None if root == t else
                                np.array(_horner(coef, (root - t) / h, ylist))))
        else:
            F = K[_KEPT_STAGES]
        g = g_new
        if status == "terminal-event":
            # a guard root on the step's start leaves that point as the last one
            if not (len(ts) > 1 and t_stop == ts[-1]):
                ts.append(t_stop)
                ys.append(np.array(_horner(coef, (t_stop - t) / h, ylist)))
                hs.append(h)
                Fs.append(F)
            break
        ts.append(t_new)
        ys.append(y_new)
        hs.append(h)
        Fs.append(F)
        t, y, ylist, f = t_new, y_new, ylist_new, f_new
        if t_new >= t_end:
            break

    t_arr, y_arr = np.array(ts), np.array(ys)
    interpolant = _dense_output(rhs, t_arr, y_arr, hs, Fs)
    recs = sorted((EventRecord(i, te, interpolant(te) if state is None else state)
                   for i, found in enumerate(hits) for te, state in found),
                  key=lambda r: r.time)
    return OdeTrajectory(t_arr, y_arr.T, interpolant, recs, status)


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

    Brent 1973, ch. 4 (zeroin), in the step order of scipy's ``brentq``:
    ``xcur`` is the best point, ``xblk`` the other end of the bracket and
    ``xpre`` the previous point.  A step interpolates (the secant, or
    inverse quadratic interpolation through three distinct points) when it
    lands well inside the bracket and shrinks faster than the step before
    last; otherwise it bisects.  The iteration stops when the bracket is
    narrower than ``tol + 4 eps |x|``, so the result never leaves the
    initial bracket.  Raises :class:`BracketError` when ``f(a)`` and
    ``f(b)`` do not differ in sign, ``ValueError`` on a NaN value and
    ``RuntimeError`` after 200 iterations.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise BracketError(f"no sign change on [{a}, {b}]: f(a)={fpre}, f(b)={fcur}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (tol + _ROOT_RTOL * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # a zero denominator gives an infinite step, which bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"find_root: no convergence on [{a}, {b}] after {_ROOT_MAXITER} iterations")


def _qk21(g: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """QUADPACK ``qk21`` on ``[lo, hi]``, ``lo < hi``: Kronrod value and error estimate.

    The sums run in qk21's order, Gauss nodes first.  The error estimate is
    ``resasc * min(1, (200 |K21 - G10| / resasc)**1.5)``, raised to at least
    ``50 eps`` times the integral of ``|g|``.
    """
    centr, hlgth = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fc = g(centr)
    resg, resk = 0.0, _WGK[10] * fc
    resabs = abs(resk)
    pairs = [None] * 10
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _XGK[j]
        f1, f2 = g(centr - absc), g(centr + absc)
        pairs[j] = (f1, f2)
        fsum = f1 + f2
        if j % 2:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    reskh = 0.5 * resk
    resasc = _WGK[10] * abs(fc - reskh)
    for j, (f1, f2) in enumerate(pairs):
        resasc += _WGK[j] * (abs(f1 - reskh) + abs(f2 - reskh))
    resabs, resasc = resabs * hlgth, resasc * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (ratio ** 1.5 if ratio < 1.0 else 1.0)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(50.0 * _EPMACH * resabs, abserr)
    return resk * hlgth, abserr


def _adaptive_gk21(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Integral of ``g`` over ``[lo, hi]`` by global adaptive G10K21.

    The panel with the largest error estimate is bisected until the summed
    estimate is at most ``max(_QUAD_TOL, _QUAD_TOL |I|)``.  Needing more
    than ``_QUAD_LIMIT`` panels, or a non-finite value, raises
    :class:`QuadratureError`.
    """
    total, error = _qk21(g, lo, hi)
    panels = [(error, lo, hi, total)]
    while True:
        if not (math.isfinite(total) and math.isfinite(error)):
            raise QuadratureError(f"non-finite value {total} (error {error})")
        if error <= max(_QUAD_TOL, _QUAD_TOL * abs(total)):
            return total
        if len(panels) == _QUAD_LIMIT:
            raise QuadratureError(
                f"error estimate {error:.3g} above tolerance after {_QUAD_LIMIT} panels")
        worst = max(panels)
        panels.remove(worst)
        _, a, b, _ = worst
        mid = 0.5 * (a + b)
        for p, q in ((a, mid), (mid, b)):
            val, err = _qk21(g, p, q)
            panels.append((err, p, q, val))
        total = sum(p[3] for p in panels)
        error = sum(p[0] for p in panels)


def integrate_singular(f: Callable[[float, float], float], a: float, b: float) -> float:
    """Integral over ``[a, b]`` of an integrand with inverse-square-root ends.

    ``f(end, h)`` is the integrand at ``end + h``, with ``end`` in ``{a, b}``
    and ``h`` the offset toward the interior.  Taking the end and the offset
    apart lets the caller evaluate its integrand as an increment from the
    end, so a ``1/sqrt`` singularity at a root is divided out exactly.  Each
    half of the interval is integrated in ``u`` with ``h = +/-u**2``, which
    leaves a bounded integrand, by adaptive G10K21 (:func:`_adaptive_gk21`);
    a half that fails raises :class:`QuadratureError` naming the interval.
    """
    if not b > a:
        raise ValueError("require b > a")
    w = math.sqrt(0.5 * (b - a))
    total = 0.0
    for end, sign in ((a, 1.0), (b, -1.0)):
        try:
            total += _adaptive_gk21(lambda u: 2.0 * u * float(f(end, sign * u * u)), 0.0, w)
        except QuadratureError as exc:
            raise QuadratureError(f"quadrature on [{a}, {b}] from {end}: {exc}") from None
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
