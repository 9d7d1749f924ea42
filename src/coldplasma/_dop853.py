"""The DOP853 engine behind :func:`coldplasma.numerics.integrate`.

Dormand-Prince 8(5,3) as in Hairer, Norsett & Wanner, *Solving Ordinary
Differential Equations I* (2nd ed., 1993), sec. II.10, in the layout of
Hairer's Fortran code ``dop853.f``: stages 0-11 advance the step and stage
12 is the derivative at its end (FSAL); ``B`` weights the 8th-order
solution, ``E5``/``E3`` the 5th- and 3rd-order error estimates, and the
extra stages 13-15 with ``D`` give the 7th-degree dense output.  The
numbers and the way ``E3`` is formed from ``B`` are those of scipy's
``dop853_coefficients``, so the engine built on them reproduces scipy's
``DOP853`` bit for bit.  A run stores each accepted step's stages and
builds its dense polynomial only when the interpolant first reads it.

With the oracle, it is the only module of the package that imports numpy;
``numerics.integrate`` imports it on its first call, so code that runs no
ODE never loads numpy.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .numerics import OdeTrajectory

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138


B = A[N_STAGES, :N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# The first 3 rows of the dense output come from the step itself.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

# Step control, as in scipy's ``RungeKutta``: the error estimate is O(h**8),
# so a step is rescaled by SAFETY * err**(-1/8) within the factors
_C_LIST = C.tolist()
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERR_EXP = -1 / 8
# the stages the dense output reads: rows 1-4 have zero weight in A[13:16] and D
_KEPT_STAGES = np.array([0, *range(5, N_STAGES + 1)])
_EPS = sys.float_info.epsilon


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
    for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
        K[s] = rhs(t + _C_LIST[s] * h,
                   [u + v * h for u, v in zip(ylist, K[:s].T.dot(A[s, :s]).tolist())])
    F = np.empty((INTERPOLATOR_POWER, y.size))
    dy = y_new - y
    f, f_new = K[0], K[N_STAGES]
    F[0] = dy
    F[1] = h * f - dy
    F[2] = 2 * dy - h * (f_new + f)
    F[3:] = h * D.dot(K)
    return F


class _DenseOutput:
    """Interpolant over the stored steps: step ``i`` starts at ``t[i]``, ``ys[i]``.

    ``stages[i]`` holds step ``i``'s stages :data:`_KEPT_STAGES`.  The
    coefficients of every step live in one ``(steps, 7, n)`` array, filled
    lazily: the first read that needs a step builds its ``F`` by
    :func:`_dense_coefficients` (three ``rhs`` calls) and keeps it.
    A call takes a scalar ``t`` (giving shape ``(n,)``) or an array of
    any shape (``(n,) + t.shape``).  A time on a breakpoint takes the
    earlier step; times outside ``[t[0], t[-1]]`` extrapolate the first or
    last step.  A run that stored no step gives its initial state at every
    time.
    """

    def __init__(self, rhs, ts: np.ndarray, ys: np.ndarray, hs: list, stages: list):
        self.rhs, self.t, self.ys, self.h = rhs, ts, ys, np.array(hs)
        self.stages = stages
        self.coef = np.empty((len(hs), INTERPOLATOR_POWER, ys.shape[1]))
        self.built = np.zeros(len(hs), dtype=bool)

    def coefficients(self, steps) -> np.ndarray:
        """The coefficients of the given steps (an index array): shape ``steps.shape + (7, n)``."""
        steps = np.asarray(steps)
        if not self.built[steps].all():
            need = np.zeros_like(self.built)
            need[steps] = True
            for i in np.flatnonzero(need & ~self.built).tolist():
                K = np.zeros((N_STAGES_EXTENDED, self.ys.shape[1]))
                K[_KEPT_STAGES] = self.stages[i]
                self.coef[i] = _dense_coefficients(self.rhs, float(self.t[i]), float(self.h[i]),
                                                   self.ys[i], self.ys[i + 1], K)
                self.built[i] = True
        return self.coef[steps]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if not self.h.size:
            return np.moveaxis(np.broadcast_to(self.ys[0], t.shape + self.ys.shape[1:]), -1, 0).copy()
        seg = np.clip(np.searchsorted(self.t, t) - 1, 0, self.h.size - 1)
        F = self.coefficients(seg)
        x = ((t - self.t[seg]) / self.h[seg])[..., None]
        x1 = 1.0 - x
        y = np.zeros(x.shape[:-1] + self.ys.shape[1:])
        for i in range(6, -1, -1):
            y += F[..., i, :]
            y *= x if i % 2 == 0 else x1
        y += self.ys[seg]
        return np.moveaxis(y, -1, 0)


def dop853(rhs, y0, t_span, tol) -> OdeTrajectory:
    """The run of :func:`coldplasma.numerics.integrate`, which documents it."""
    if not tol >= 100 * _EPS:
        raise ValueError(f"tol must be at least 100 eps, got {tol}")
    t, t_end = float(t_span[0]), float(t_span[1])
    if not t_end > t:
        raise ValueError(f"integrate runs forward only: t_span = {t_span}")
    y = np.array(y0, dtype=float)
    n = y.size
    K = np.empty((N_STAGES_EXTENDED, n))
    # stage s evaluates rhs at t + c_s h, y + h (a_s . rows 0..s-1 of K)
    stages = [(s, A[s, :s], K[:s].T, _C_LIST[s]) for s in range(1, N_STAGES)]
    K_step, K_err = K[:N_STAGES].T, K[:N_STAGES + 1].T
    abs_y = np.abs(y)

    K[0] = rhs(t, y.tolist())       # row 0 holds the derivative at t: FSAL copies row 12 there
    h_abs = _initial_step(rhs, t, y, K[0], t_end, tol)
    ylist = y.tolist()
    ts, ys, hs, kept = [t], [y], [], []
    status = "completed"
    while status == "completed" and t < t_end:
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
            for s, a, KsT, c in stages:
                K[s] = rhs(t + c * h, [u + v * h for u, v in zip(ylist, KsT.dot(a).tolist())])
            y_new = y + h * K_step.dot(B)
            ylist_new = y_new.tolist()
            K[N_STAGES] = rhs(t + h, ylist_new)
            abs_new = np.abs(y_new)
            scale = np.maximum(abs_y, abs_new)      # then the error norm works in place
            scale *= tol
            scale += tol
            err5 = K_err.dot(E5)
            err5 /= scale
            err3 = K_err.dot(E3)
            err3 /= scale
            e5, e3 = math.sqrt(err5.dot(err5)) ** 2, math.sqrt(err3.dot(err3)) ** 2
            err = 0.0 if e5 == 0 and e3 == 0 else h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXP)
                h_abs *= min(1, factor) if rejected else factor
                ts.append(t_new)
                ys.append(y_new)
                hs.append(h)
                kept.append(K.take(_KEPT_STAGES, axis=0))
                K[0] = K[N_STAGES]
                t, y, ylist, abs_y = t_new, y_new, ylist_new, abs_new
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP)
            rejected = True

    t_arr, y_arr = np.array(ts), np.array(ys)
    return OdeTrajectory(t_arr, y_arr.T, _DenseOutput(rhs, t_arr, y_arr, hs, kept), status)
