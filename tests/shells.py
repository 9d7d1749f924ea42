"""Dawson's charge shells: a breaking time that shares no dynamics with the oracle.

Until shells cross, the charge inside a radial shell is conserved (Dawson,
Phys. Rev. 113, 383, 1959).  With v = F r and E = G r, the shell that starts
at r0 obeys

    r'' = -r/d + M/(d r^(d-1)),   M = r0^d (1 - d G0(r0)),
    r(0) = r0,   r'(0) = r0 F0(r0),

and the density blows up where rho = dr/dr0 first reaches 0.  As
dM/dr0 = d r0^(d-1) (1 - lambda0(r0)), rho obeys

    rho'' = -rho/d - (d-1) M rho/(d r^d) + r0^(d-1) (1 - lambda0)/r^(d-1),
    rho(0) = 1,   rho'(0) = F0 + r0 F0' = D0 - (d-1) F0.

One oscillator and its variational equation per shell: no Hill equation, no
period map and no (F, G).  The centre r0 = 0 is singular here.
"""

from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from coldplasma.core_dynamics import profile_divergences


class Undecided(RuntimeError):
    """scipy stopped short of t_max before rho reached 0."""


def shell_t_star(profile, r0, t_max):
    """The first zero of rho = dr/dr0 in (0, t_max], or None where rho stays
    positive, by scipy's DOP853 at rtol 1e-12 and atol 1e-14.

    rho can dip below 0 and come back within one step, which a sign-change
    event misses; so the minima of rho (rho' rising through 0) are located
    too, and the first one with rho <= 0 brackets the zero with the minimum
    before it.  Raises :class:`Undecided` where scipy cannot finish.
    """
    d = profile.d
    F0, G0 = profile.F0(r0), profile.G0(r0)
    lam0, D0 = profile_divergences(profile, r0)
    M = r0**d * (1.0 - d * G0)
    source = r0 ** (d - 1) * (1.0 - lam0)

    def rhs(t, y):
        r, dr, rho, drho = y
        return [dr, (M / r ** (d - 1) - r) / d,
                drho, -rho / d - (d - 1) * M * rho / (d * r**d) + source / r ** (d - 1)]

    def zero(t, y):
        return y[2]

    def minimum(t, y):
        return y[3]

    zero.terminal, zero.direction, minimum.direction = True, -1.0, 1.0
    sol = solve_ivp(rhs, (0.0, t_max), [r0, r0 * F0, 1.0, D0 - (d - 1) * F0], method="DOP853",
                    rtol=1e-12, atol=1e-14, events=(zero, minimum), dense_output=True)
    t_star = sol.t_events[0][0] if sol.t_events[0].size else None
    before = 0.0
    for t, y in zip(sol.t_events[1], sol.y_events[1]):
        if t_star is not None and t >= t_star:
            break
        if y[2] <= 0.0:
            t_star = t if y[2] == 0.0 else brentq(lambda s: sol.sol(s)[2], before, t, xtol=1e-15)
            break
        before = t
    if t_star is None and sol.status < 0:
        raise Undecided(f"r0 = {r0}: {sol.message} at t = {sol.t[-1]}")
    return None if t_star is None else float(t_star)
