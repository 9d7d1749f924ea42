"""Numerical kernels shared by the physics modules.

Adaptive ODE integration with dense output (DOP853 with the step control
of scipy's ``solve_ivp``, whose accepted steps and values it reproduces;
no events and no magnitude guard), real Lambert W on branches 0 and -1,
bracketed root finding (Brent's method, and a bracketed Newton iteration
for functions that give their derivative), quadrature for integrands with
inverse-square-root endpoint singularities (adaptive 21-point
Gauss-Kronrod), a golden section scalar optimizer, ``linspace``, and
``exp``, ``expm1`` and ``power`` that overflow to +inf as numpy's do.  All
of it runs on floats and ``math``; only the DOP853 engine, in ``_dop853``,
needs numpy, and :func:`integrate` imports it on its first call.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BracketError",
    "QuadratureError",
    "OdeTrajectory",
    "integrate",
    "lambert_w",
    "find_root",
    "newton_root",
    "integrate_singular",
    "optimize_scalar",
    "linspace",
    "exp_inf",
    "expm1_inf",
    "power_inf",
]

_INV_E = math.exp(-1.0)
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)
_QUAD_TOL = 1e-12   # absolute and relative target of integrate_singular
_QUAD_LIMIT = 50    # most panels integrate_singular splits one half into
_ROOT_RTOL = 4.0 * sys.float_info.epsilon   # relative part of find_root's stop
_ROOT_MAXITER = 200
_NEWTON_XTOL = 4.0 * sys.float_info.epsilon   # relative stop of newton_root
_NEWTON_MAXITER = 100

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


class BracketError(ValueError):
    """The supplied interval does not bracket a root."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""


class OdeTrajectory:
    """Result of an adaptive integration.

    ``status`` is ``"completed"`` or, from :func:`integrate`,
    ``"singular-step"`` (a NaN or a step size underflow, which we treat as a
    suspected finite-time singularity); the oracle's trajectory after a
    blow-up ends where lambda reaches ``-d_cap``, as ``"terminal-event"``.
    ``interpolant`` is the dense output valid on ``[t[0], t[-1]]``, at a
    scalar or an array of times; it keeps ``rhs`` and calls it, three times
    per step, the first time it reads a step.  Its ``build(i)`` gives
    step ``i``'s polynomial, each component's 7 coefficients in one
    ``(7, n)`` array (``coefficients(steps)`` those of an index array), and
    its ``t`` and ``h`` the steps' starts and sizes, so a caller can work
    on one step's polynomial without searching the steps.
    """

    def __init__(self, t: np.ndarray, y: np.ndarray,
                 interpolant: Callable[[float], np.ndarray], status: str = "completed"):
        self.t = t
        self.y = y
        self.interpolant = interpolant
        self.status = status

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"OdeTrajectory({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    def __call__(self, t):
        return self.interpolant(t)

    @property
    def final_state(self) -> np.ndarray:
        return self.y[:, -1]


def integrate(
    rhs: Callable[[float, list], Sequence[float]],
    y0: Sequence[float],
    t_span: tuple[float, float],
    tol: float = 1e-10,
) -> OdeTrajectory:
    """Integrate ``y' = rhs(t, y)`` forward in time by DOP853 with dense output.

    Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, *Solving ODEs I*,
    sec. II.4-II.6 and II.10) with the step control of scipy's ``DOP853``
    at ``rtol = atol = tol``, so a run takes the same accepted steps and
    gives the same numbers as ``solve_ivp(method="DOP853")``.  ``rhs``
    receives the state as a list of floats and is called only through the
    argument given.  The run ends at ``t_span[1]`` (``"completed"``) or,
    when the step size is NaN or below ten spacings of the floats at ``t``,
    as ``"singular-step"``, the status ``solve_ivp`` reports as -1.
    Identical inputs always produce identical trajectories.

    Each accepted step costs 12 ``rhs`` calls.  It keeps the stages its
    dense output reads, and the interpolant builds the step's polynomial,
    with 3 more ``rhs`` calls, the first time it reads the step; so the
    calls and values match ``solve_ivp`` once every step has been read.
    The engine and its numpy arrays live in ``_dop853``, imported on the
    first call.
    """
    from ._dop853 import dop853

    return dop853(rhs, y0, t_span, tol)


def _halley(w: float, x: float, max_iter: int = 50) -> float:
    for _ in range(max_iter):
        ew = math.exp(w)
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
    p = math.sqrt(2.0 * (math.e * x + 1.0))
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
        if x > math.e:
            lx = math.log(x)
            w = lx - math.log(lx)
        else:
            w = x / (1.0 + x) if x < 0.5 else math.log1p(x)
    else:
        lx = math.log(-x)
        w = lx - math.log(-lx)
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
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if math.isnan(fpre) or math.isnan(fcur):
        raise ValueError(f"the function value at x={xpre if math.isnan(fpre) else xcur} is NaN")
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
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ValueError(f"the function value at x={xcur} is NaN")
    raise RuntimeError(f"find_root: no convergence on [{a}, {b}] after {_ROOT_MAXITER} iterations")


def newton_root(g: Callable[[float], tuple[float, float]], a: float, b: float,
                ga: float, gb: float) -> float:
    """A zero of ``g`` in the bracket [a, b], a < b, in floats.

    ``ga`` = g(a) and ``gb`` = g(b) differ in sign, or one is 0 and the
    other not (then the secant starts on that end); ``g(x)`` returns the
    value and the derivative at a point, as floats.  Newton steps start
    from the secant through the ends.  Each iterate replaces the end of the
    bracket whose value has its sign, and a step that does not land
    strictly inside the bracket bisects it.  The iteration stops at a value
    0, or where the Newton step or the bracket is at most 4 eps relative.
    The oracle finds t*, a trajectory's end, the minima of w and the
    crossings this way, one bracket at a time, and the spiral layer each
    arc's axis crossing.
    """
    x = a - ga * (b - a) / (gb - ga)
    for _ in range(_NEWTON_MAXITER):
        gx, dgx = g(x)
        if (gx > 0.0) - (gx < 0.0) == (ga > 0.0) - (ga < 0.0):
            a, ga = x, gx
        else:
            b = x
        x_new = x - gx / dgx if dgx != 0.0 else math.nan
        xtol = _NEWTON_XTOL * abs(x)
        if gx == 0.0 or abs(x_new - x) <= xtol or b - a <= xtol:
            break
        x = x_new if a < x_new < b else 0.5 * (a + b)
    return x


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
            total += _adaptive_gk21(lambda u: 2.0 * u * f(end, sign * u * u), 0.0, w)
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


def linspace(a: float, b: float, n: int) -> list[float]:
    """``n`` evenly spaced floats from ``a`` to ``b``, ends included: the same
    floats as ``numpy.linspace(a, b, n).tolist()``, which takes ``i * step + a``
    with ``step = (b - a)/(n - 1)``, or ``i/(n - 1) * (b - a) + a`` where that
    step underflows to 0, and ``b`` itself last."""
    if n < 2:
        return [float(a)] * n
    step = (b - a) / (n - 1)
    head = [i * step + a if step else i / (n - 1) * (b - a) + a for i in range(n - 1)]
    return head + [float(b)]


def exp_inf(x: float) -> float:
    """``math.exp(x)``, or +inf where it overflows, as numpy's ``exp`` gives."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def expm1_inf(x: float) -> float:
    """``math.expm1(x)``, or +inf where it overflows, as numpy's ``expm1`` gives."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def power_inf(x, p):
    """``x ** p`` for ``x >= 0``, a float or an ndarray; a float result beyond
    the float range (``0 ** p`` for ``p < 0`` included) is +inf, as numpy's
    ``power`` gives."""
    try:
        return x ** p
    except (OverflowError, ZeroDivisionError):
        return math.inf
