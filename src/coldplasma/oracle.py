"""Ground-truth integration of the exact characteristic systems.

For radial data the state (F, G, lambda, D, r) obeys a closed five-variable
ODE system along each characteristic (the coupling term J is exact in radial
symmetry); d = 1 reproduces the one-dimensional dynamics, and spatially
constant factors reproduce the affine flows.  The oracle records axis
crossings D = 0, detects density blow-up (D running to minus infinity in
finite time, recognized from the linear late-time behavior of 1/D) and
verifies the comparison-curve sandwich along arcs between crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chaplygin_bounds import Side, sigma_curve
from .core_dynamics import (
    CharacteristicState,
    RadialProfile,
    j_exact_radial,
    orbit_extremes,
    profile_divergences,
    rhs_divergence,
    rhs_radial,
)
from .numerics import OdeTrajectory, integrate
from .pulse_analysis import DEFAULT_SIGMA1, DEFAULT_SIGMA2
from .spiral_counter import count_crossing_pairs

__all__ = [
    "CharacteristicRun",
    "BlowupRecord",
    "run_characteristic",
    "detect_blowup",
    "extrapolate_blowup_time",
    "count_revolutions_oracle",
    "sandwich_check",
    "blowup_sweep",
]

_SAMPLES_PER_ARC = 400   # oracle times compared against the envelope per arc


@dataclass(frozen=True)
class BlowupRecord:
    """Outcome of blow-up detection on one characteristic run."""

    detected: bool
    t_star: Optional[float] = None
    method: Optional[str] = None   # "extrapolation" or "threshold"


@dataclass
class CharacteristicRun:
    """One characteristic integration with its crossing log."""

    profile: RadialProfile
    r0: float
    trajectory: OdeTrajectory
    crossing_times: np.ndarray       # times of D = 0 crossings (t > 0)
    crossing_lambdas: np.ndarray     # lambda at those crossings
    d_cap: float

    @property
    def d(self) -> int:
        return self.profile.d

    def state(self, t):
        """(F, G, lambda, D, r) at time t via the dense interpolant."""
        return self.trajectory(t)

    def characteristic_state(self, t) -> CharacteristicState:
        F, G, lam, Dv, r = self.trajectory(t)
        return CharacteristicState(float(t), float(lam), float(Dv),
                                   float(F), float(G), float(r))


def run_characteristic(
    profile: RadialProfile,
    r0: float,
    t_max: float,
    tol: float = 1e-10,
    d_cap: float = 1e6,
) -> CharacteristicRun:
    """Integrate the characteristic starting at radius r0 up to t_max.

    Events record every crossing of the axis D = 0; a terminal magnitude
    guard (default 1e6 on F, G, lambda, D) stops runs headed into a
    singularity.  Step-size underflow is treated the same way (suspected
    singularity) and shows up in the trajectory status.
    """
    d = profile.d
    F0, G0 = profile.F0(r0), profile.G0(r0)
    lam0, D0 = profile_divergences(profile, r0)
    if lam0 >= 1.0:
        raise ValueError(f"inadmissible start: lambda0({r0}) = {lam0} >= 1")

    def rhs(t, y):
        F, G, lam, Dv, r = y
        return (*rhs_radial(F, G, d), *rhs_divergence(lam, Dv, j_exact_radial(F, Dv, d)), F * r)

    def crossing(t, y):
        return y[3]

    traj = integrate(
        rhs,
        [F0, G0, lam0, D0, r0],
        (0.0, t_max),
        tol=tol,
        events=[crossing],
        magnitude_cap=d_cap,
    )
    # an identically-zero D (equilibrium) trips the event at every step;
    # keep only transversal crossings of moving states
    kept = [e for e in traj.events if e.time > 1e-12 and np.max(np.abs(e.state[:4])) > 1e-12]
    times = np.array([e.time for e in kept])
    lams = np.array([e.state[2] for e in kept])
    return CharacteristicRun(profile, r0, traj, times, lams, d_cap)


def extrapolate_blowup_time(times: np.ndarray, d_values: np.ndarray) -> Optional[float]:
    """Estimate the singularity time from late samples of a diverging D.

    Near blow-up D behaves like -1/(t* - t), so 1/D is locally linear in t;
    a least-squares line through the last samples with |D| > 1e3 is
    extrapolated to its zero.  Returns None when too few samples qualify.
    """
    mask = np.abs(d_values) > 1e3
    if np.count_nonzero(mask) < 3:
        return None
    tt = times[mask][-20:]
    dd = d_values[mask][-20:]
    slope, intercept = np.polyfit(tt, 1.0 / dd, 1)
    if slope == 0.0:
        return None
    return float(-intercept / slope)


def detect_blowup(run: CharacteristicRun) -> BlowupRecord:
    """Decide whether the run ended in a density blow-up and estimate t*.

    A run that hit the magnitude guard (or a step-size underflow) with D
    diving to large negative values is a blow-up; the singularity time is
    extrapolated from the tail of 1/D, falling back to the stopping time
    when the tail is too short.
    """
    traj = run.trajectory
    if traj.status == "completed":
        return BlowupRecord(False)
    D_end = traj.final_state[3]
    if D_end > 0.0:
        return BlowupRecord(False)
    t_star = extrapolate_blowup_time(traj.t, traj.y[3])
    if t_star is None:
        return BlowupRecord(True, float(traj.t[-1]), "threshold")
    return BlowupRecord(True, t_star, "extrapolation")


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
