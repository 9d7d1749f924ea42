import gc
import math
import random
import weakref

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from coldplasma.core_dynamics import (
    RadialProfile,
    constant_profile,
    gaussian_profile,
    orbit_phase,
    period,
    profile_divergences,
    rhs_radial,
)
from coldplasma import oracle
from coldplasma.numerics import BracketError, find_root, integrate
from coldplasma.oracle import (
    _Floquet,
    blowup_sweep,
    count_revolutions_oracle,
    detect_blowup,
    run_characteristic,
    sandwich_check,
)
from references import j_exact_radial, positive_bound, rhs_divergence
from shells import shell_t_star


def one_d_point_profile(lam0, D0):
    """A d=1 profile whose center characteristic carries the point data (lam0, D0)."""
    return constant_profile(D0, lam0, 1)


def direct_system(profile, r0):
    """The five-variable characteristic system (F, G, lambda, D, r) and its start at r0."""
    d = profile.d

    def rhs(t, y):
        F, G, lam, Dv, r = y
        return (*rhs_radial(F, G, d), *rhs_divergence(lam, Dv, j_exact_radial(F, Dv, d)), F * r)

    lam0, D0 = profile_divergences(profile, r0)
    return rhs, [profile.F0(r0), profile.G0(r0), lam0, D0, r0]


def direct_run(profile, r0, t_end, tol=1e-12):
    """That system integrated directly by DOP853: the reference for the linearized oracle."""
    rhs, y0 = direct_system(profile, r0)
    return integrate(rhs, y0, (0.0, t_end), tol=tol)


def full_period_run(F0, G0, d, tol=1e-12):
    """(F, G) with two fundamental solutions and the particular solution
    with zero start of the (w, p) system over one whole period from
    (F0, G0): 8 variables, the reference for the half-period oracle."""
    b_coef, a_coef = 2.0 * (d - 1), float((d - 1) * d)

    def rhs(t, y):
        F, G, w1, p1, w2, p2, wc, pc = y
        b, a = b_coef * F, a_coef * F * F + 1.0
        return (*rhs_radial(F, G, d), p1, b * p1 - a * w1, p2, b * p2 - a * w2,
                pc, b * pc - a * wc + 1.0)

    return integrate(rhs, [F0, G0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0], (0.0, period(F0, G0, d)), tol=tol)


def moving_pulse(K, c, d, width=1.0):
    """G0 = K exp(-(r/w)**2) and F0 = c exp(-(r/w)**2) in dimension d, w the
    width: a start off any turning point, with a homogeneous part, at every
    radius but 0."""
    def bump(r):
        x = r / width
        return math.exp(-x * x)

    return RadialProfile(G0=lambda r: K * bump(r), F0=lambda r: c * bump(r), d=d,
                         dG0=lambda r: -2.0 * K * r / (width * width) * bump(r),
                         dF0=lambda r: -2.0 * c * r / (width * width) * bump(r))


def random_pulses(n, seed):
    """``n`` seeded moving pulses, each with its radii 0.3, 0.9 and 1.5 widths:
    d in {2, 3}, K ~ U(0.05, 0.9/d - 0.05), c ~ U(-0.4, 0.4), w ~ U(0.6, 1.6)."""
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        d = rng.choice((2, 3))
        K, c, w = rng.uniform(0.05, 0.9 / d - 0.05), rng.uniform(-0.4, 0.4), rng.uniform(0.6, 1.6)
        cases.append((moving_pulse(K, c, d, w), (0.3 * w, 0.9 * w, 1.5 * w)))
    return cases


def gaussian(K, d):
    """The pulse G0 = K exp(-r**2), F0 = 0, in dimension d."""
    return RadialProfile(G0=lambda r: K * math.exp(-r * r), F0=lambda r: 0.0, d=d,
                         dG0=lambda r: -2.0 * K * r * math.exp(-r * r), dF0=lambda r: 0.0)


def assert_divergences_agree(run, direct, times, tol=1e-8):
    got, want = run.trajectory(times)[2:4], direct(times)[2:4]
    assert np.all(np.abs(got - want) <= tol * (1.0 + np.abs(want))), (got, want)


class TestRunCharacteristic:
    def test_zero_profile_equilibrium(self):
        run = run_characteristic(constant_profile(0.0, 0.0, 2), 0.5, 10.0, tol=1e-10)
        assert run.trajectory.status == "completed"
        assert np.max(np.abs(run.trajectory.y[:4])) < 1e-12
        assert len(run.crossing_times) == 0

    def test_center_is_affine_and_bounded(self, center_run_k01):
        run = center_run_k01
        assert run.trajectory.status == "completed"
        y = run.trajectory.y
        # at the symmetry center the divergences collapse onto the factors
        assert np.max(np.abs(y[2] - 2.0 * y[1])) < 1e-9
        assert np.max(np.abs(y[3] - 2.0 * y[0])) < 1e-9
        # and the radius stays pinned at zero
        assert np.max(np.abs(y[4])) == 0.0

    def test_center_completes_three_revolutions(self, center_run_k01):
        assert count_revolutions_oracle(center_run_k01) >= 3

    def test_center_collapse_holds_in_3d(self):
        import numpy as np
        from coldplasma.core_dynamics import RadialProfile

        profile = RadialProfile(
            G0=lambda r: 0.08 * np.exp(-r * r),
            F0=lambda r: 0.0,
            d=3,
            dG0=lambda r: -2.0 * r * 0.08 * np.exp(-r * r),
            dF0=lambda r: 0.0,
        )
        run = run_characteristic(profile, 0.0, 15.0, tol=1e-11)
        y = run.trajectory.y
        assert np.max(np.abs(y[2] - 3.0 * y[1])) < 1e-8
        assert np.max(np.abs(y[3] - 3.0 * y[0])) < 1e-8

    def test_typed_state_accessor(self, center_run_k01):
        F, G, lam, Dv, r = center_run_k01.trajectory(1.0)
        assert 1.0 - lam > 0.0      # the density
        assert r == 0.0

    def test_trajectory_is_built_once(self):
        run = run_characteristic(gaussian_profile(0.1), 0.8, 25.0)
        assert run.trajectory is run.trajectory
        assert run.crossing_times is run.crossing_times

    def test_run_is_freed_without_the_cycle_collector(self):
        # the built trajectory must not refer back to its run, or every run
        # of a loop stays in memory until a collection
        gc.disable()
        try:
            run = run_characteristic(gaussian_profile(0.45), 0.894, 400.0, tol=1e-8)
            assert run.t_star is not None and len(run.crossing_times)
            ref = weakref.ref(run)
            del run
            assert ref() is None
        finally:
            gc.enable()

    def test_density_stays_nonnegative(self, center_run_k01):
        lam = center_run_k01.trajectory.y[2]
        assert np.max(lam) < 1.0 + 1e-8

    def test_inadmissible_profile_rejected_at_construction(self):
        with pytest.raises(ValueError):
            constant_profile(0.0, 0.4, 3)   # lambda0 = 1.2 everywhere

    def test_inadmissible_start_rejected(self):
        # a profile object that dodges construction-time validation still
        # cannot start a run where the density would be negative
        profile = constant_profile(0.0, 0.2, 3)
        profile.G0 = lambda r: 0.4
        profile.dG0 = lambda r: 0.0
        with pytest.raises(ValueError):
            run_characteristic(profile, 0.0, 1.0)


class TestBlowupDetection:
    def test_bounded_run_not_detected(self, center_run_k01):
        assert not detect_blowup(center_run_k01).detected

    def test_1d_supercritical_point_blows_up(self):
        run = run_characteristic(one_d_point_profile(0.6, 0.0), 0.0, 200.0, tol=1e-10)
        rec = detect_blowup(run)
        assert rec.detected
        assert rec.t_star is not None and np.isfinite(rec.t_star)


class TestOneDimensionalCriterion:
    def test_subcritical_sample_bounded(self, rng):
        for _ in range(3):
            while True:
                lam0 = rng.uniform(-1.0, 0.45)
                D0 = rng.uniform(-0.8, 0.8)
                if D0 * D0 + 2.0 * lam0 - 1.0 < -0.05:
                    break
            run = run_characteristic(one_d_point_profile(lam0, D0), 0.0, 60.0, tol=1e-9)
            assert run.trajectory.status == "completed"

    def test_supercritical_sample_blows_up(self, rng):
        for _ in range(3):
            while True:
                lam0 = rng.uniform(-0.5, 0.95)
                D0 = rng.uniform(-1.5, 1.5)
                if D0 * D0 + 2.0 * lam0 - 1.0 > 0.05 and lam0 < 1.0:
                    break
            run = run_characteristic(one_d_point_profile(lam0, D0), 0.0, 300.0, tol=1e-9)
            assert detect_blowup(run).detected


class TestCrossingLog:
    @pytest.mark.parametrize("r0", [0.0, 0.8])
    def test_crossing_lambdas_are_the_interpolant(self, r0):
        run = run_characteristic(gaussian_profile(0.1), r0, 25.0, tol=1e-10)
        assert len(run.crossing_times) >= 4
        want = np.array([run.trajectory(t)[2] for t in run.crossing_times])
        assert run.crossing_lambdas.tobytes() == want.tobytes()


class TestSandwich:
    def test_equilibrium_violation_is_vacuous(self):
        run = run_characteristic(gaussian_profile(1e-8), 0.0, 10.0, tol=1e-10)
        # no crossings recorded on a near-equilibrium short run: nothing to check
        v = sandwich_check(run) if len(run.crossing_times) else -np.inf
        assert v <= 0.0 or v < 1e-10

    def test_center_run_inside_envelope(self, center_run_k01):
        v = sandwich_check(center_run_k01, max_arcs=6)
        assert v < 1e-6

    def test_offcenter_run_inside_envelope(self):
        run = run_characteristic(gaussian_profile(0.1), 0.8, 25.0, tol=1e-11)
        v = sandwich_check(run, max_arcs=6)
        assert v < 1e-6


class TestAffineGlobalSmoothness:
    @pytest.mark.parametrize("d", [2, 3])
    def test_sample_constant_profiles_stay_bounded(self, d, rng):
        for _ in range(4):
            F0 = rng.uniform(-0.4, 0.4)
            G0 = rng.uniform(-0.6, 0.9 / d)
            profile = constant_profile(F0, G0, d)
            run = run_characteristic(profile, 1.0, 100.0, tol=1e-9)
            assert run.trajectory.status == "completed"
            assert not detect_blowup(run).detected

    def test_starts_near_the_vacuum_line_stay_bounded(self, rng):
        # w = 1/(1 - d G) > 0 at every time.  Up to d G0 = 0.99 the orbits
        # swing to G- = -2.6e49 (the first start), where w is 1.9e-50: a w
        # combined from a numerical particular solution lost its sign there
        # and the first two starts reported t* = 4.4809 and 1.8729
        starts = [(0.3453357560128335, 0.4947984459018959, 2),
                  (-0.18741567765598877, 0.49496380500106, 2)]
        for d in (2, 3):
            starts += [(rng.uniform(-0.4, 0.4), rng.uniform(0.85, 0.99) / d, d) for _ in range(6)]
        for F0, G0, d in starts:
            run = run_characteristic(constant_profile(F0, G0, d), 1.0, 200.0, tol=1e-9)
            assert run.trajectory.status == "completed", (F0, G0, d)
            assert not detect_blowup(run).detected, (F0, G0, d, run.t_star)


class TestOneDimensionalExact:
    """d = 1 against its exact solution w = 1/(1 - lambda) = 1 + A cos t + B sin t."""

    @staticmethod
    def starts(rng):
        out = [(rng.uniform(-1.0, 0.9), rng.uniform(-1.5, 1.5)) for _ in range(12)]
        for _ in range(8):     # within 1e-3 of the critical line D0**2 + 2 lam0 - 1 = 0
            D0 = rng.uniform(-1.2, 1.2)
            out.append((0.5 * (1.0 - D0 * D0 + rng.uniform(-1e-3, 1e-3)), D0))
        return out

    @staticmethod
    def first_zero(lam0, D0):
        """First t > 0 with 1 + A cos t + B sin t = 0, or None: with
        R = hypot(A, B) and phi = atan2(B, A), w = 1 + R cos(t - phi) turns
        negative where t - phi = arccos(-1/R) (mod 2 pi)."""
        A, B = lam0 / (1.0 - lam0), D0 / (1.0 - lam0)
        R = math.hypot(A, B)
        if R < 1.0:
            return None
        return (math.atan2(B, A) + math.acos(-1.0 / R)) % (2.0 * math.pi)

    def test_verdict_time_and_states(self, rng):
        near_critical_blowups = 0
        for lam0, D0 in self.starts(rng):
            profile = one_d_point_profile(lam0, D0)
            run = run_characteristic(profile, 0.0, 20.0)
            rec = detect_blowup(run)
            critical = D0 * D0 + 2.0 * lam0 - 1.0
            assert rec.detected == (critical > 0.0), (lam0, D0)
            t_exact = self.first_zero(lam0, D0)
            if rec.detected:
                assert abs(rec.t_star - t_exact) <= 1e-12 * max(1.0, t_exact), (lam0, D0)
                near_critical_blowups += abs(critical) < 1e-3
                times = t_exact * np.array([0.2, 0.5, 0.8])
            else:
                assert t_exact is None and run.trajectory.status == "completed"
                times = np.array([3.0, 11.0, 19.0])
            assert_divergences_agree(run, direct_run(profile, 0.0, times[-1]), times)
        assert near_critical_blowups >= 2


class TestFloquetAgainstDirect:
    """d = 2, 3: half an integrated period, its mirror and the period map against a direct run."""

    @pytest.mark.parametrize("case", ["gauss-2d", "gauss-3d", "constant-2d", "constant-3d"])
    def test_states_agree(self, case):
        profile, r0 = {
            "gauss-2d": (gaussian_profile(0.1), 0.8),
            "gauss-3d": (gaussian(0.08, 3), 0.7),
            "constant-2d": (constant_profile(0.15, 0.2, 2), 1.0),
            "constant-3d": (constant_profile(-0.2, 0.1, 3), 1.0),
        }[case]
        run = run_characteristic(profile, r0, 20.0)
        assert run.trajectory.status == "completed"
        times = np.array([3.0, 11.0, 19.0])
        assert_divergences_agree(run, direct_run(profile, r0, 20.0), times)

    def test_blowup_times_converge(self):
        profile, grid = gaussian_profile(0.45), np.linspace(0.0, 3.0, 48)
        t_star = {}
        for r0 in grid:
            rec = detect_blowup(run_characteristic(profile, r0, 400.0, tol=1e-10))
            if rec.detected:
                t_star[r0] = rec.t_star
        assert len(t_star) == 16
        fine = {r0: detect_blowup(run_characteristic(profile, r0, 400.0, tol=1e-12)).t_star
                for r0 in t_star}
        for r0, t in t_star.items():
            assert abs(t - fine[r0]) <= 1e-9 * fine[r0], (r0, t, fine[r0])
        # at r0 = 0.894 and 0.957 ([14] and [15]) w dips below 0 and returns
        # within one step of a tol 1e-8 run, so a sign test at the nodes alone
        # finds a zero a period later; a magnitude guard (|lambda| = 1e6) on
        # the direct system, a terminal event of solve_ivp, trips just before
        # the first zero
        def guard(t, y):
            return np.max(np.abs(y)) - 1e6
        guard.terminal = True

        for r0 in grid[14:16]:
            t = detect_blowup(run_characteristic(profile, r0, 400.0, tol=1e-8)).t_star
            rhs, y0 = direct_system(profile, r0)
            ref = solve_ivp(rhs, (0.0, 400.0), y0, method="DOP853", rtol=1e-10, atol=1e-10,
                            events=guard)
            assert ref.status == 1
            assert 0.0 < t - ref.t[-1] < 1e-3, (r0, t, ref.t[-1])


class TestLazyRun:
    """t* is found when the run is made; the trajectory and crossings on first read."""

    @pytest.mark.parametrize("case", ["breaking-2d", "gauss-3d", "gauss-1d"])
    def test_sweep_t_star_is_the_run_t_star(self, case):
        profile, grid, t_max = {
            "breaking-2d": (gaussian_profile(0.45), np.linspace(0.0, 3.0, 48), 400.0),
            "gauss-3d": (gaussian(0.3, 3), np.linspace(0.0, 3.0, 24), 100.0),
            "gauss-1d": (gaussian(0.6, 1), np.linspace(0.0, 3.0, 24), 100.0),
        }[case]
        swept = blowup_sweep(profile, grid, t_max=t_max, tol=1e-8)
        assert any(t is not None for _, t in swept)
        for r0, t in swept:
            assert t == run_characteristic(profile, r0, t_max, tol=1e-8).t_star, r0

    @pytest.mark.parametrize("case", ["1d-blowup", "1d-bounded", "2d-blowup", "2d-bounded",
                                      "3d-blowup", "3d-bounded"])
    def test_crossings_are_roots_of_p_on_the_trajectory(self, case):
        profile, r0, t_max, tol = {
            "1d-blowup": (one_d_point_profile(0.3, 0.9), 0.0, 20.0, 1e-10),
            "1d-bounded": (one_d_point_profile(0.2, 0.3), 0.0, 20.0, 1e-10),
            # w dips below 0 and returns within one step before t*
            "2d-blowup": (gaussian_profile(0.45), np.linspace(0.0, 3.0, 48)[14], 400.0, 1e-8),
            "2d-bounded": (gaussian_profile(0.1), 0.8, 25.0, 1e-10),
            "3d-blowup": (gaussian(0.3, 3), np.linspace(0.0, 3.0, 24)[2], 100.0, 1e-10),
            "3d-bounded": (gaussian(0.08, 3), 0.7, 20.0, 1e-10),
        }[case]
        run = run_characteristic(profile, r0, t_max, tol=tol)
        assert (run.t_star is not None) == case.endswith("blowup")
        assert len(run.crossing_times) >= 1
        traj = run.trajectory

        def p(t):
            _, _, lam, Dv, _ = traj(t)
            return Dv / (1.0 - lam)

        for t in run.crossing_times:
            k = np.searchsorted(traj.t, t)
            root = find_root(p, traj.t[k - 1], traj.t[k], tol=1e-300)
            assert abs(root - t) <= 1e-12 * t, (t, root)


class TestHalfPeriod:
    """The half period from a turning point, its mirror and the start's phase."""

    @pytest.mark.parametrize("case", ["2d-bounded", "3d-bounded", "2d-blowup", "3d-blowup"])
    def test_moving_starts_against_direct(self, case):
        # F0 != 0 puts the start off the turning point and gives w a
        # homogeneous part, so the phase and the mirror are both read
        (K, c, d), r0 = {
            "2d-bounded": ((0.45, -0.5, 2), 1.2),
            "3d-bounded": ((0.3, 0.6, 3), 0.9),
            "2d-blowup": ((0.45, 0.5, 2), 0.6),
            "3d-blowup": ((0.3, -0.6, 3), 0.3),
        }[case]
        profile = moving_pulse(K, c, d)
        run = run_characteristic(profile, r0, 20.0)
        direct = direct_run(profile, r0, 20.0)
        assert (run.t_star is not None) == case.endswith("blowup")
        # in both halves of each of the first three periods, before t*
        times = run.floquet["period"] * (np.arange(3)[:, None] + [0.25, 0.75]).ravel()
        if run.t_star is not None:
            times = times[times < run.t_star]
            # the direct system runs into the singularity and stops there
            assert direct.status == "singular-step"
            assert abs(direct.t[-1] - run.t_star) <= 1e-7 * run.t_star, (direct.t[-1], run.t_star)
        assert times.size >= 4
        assert_divergences_agree(run, direct, times)

    @pytest.mark.parametrize("c", [1e-9, -1e-9])
    def test_start_next_to_a_turning_point(self, c):
        # with |F0| = 1e-9, G0 lies within rounding of a turning point, where
        # the phase quadrature sees no interval; one Newton step of the phase
        # onto the integrated orbit places the start (2.8e-9 off without it)
        profile = moving_pulse(0.3, c, 2)
        run = run_characteristic(profile, 0.5, 20.0)
        times = run.floquet["period"] * (np.arange(3)[:, None] + [0.25, 0.75]).ravel()
        assert_divergences_agree(run, direct_run(profile, 0.5, 20.0), times, tol=1e-9)

    @pytest.mark.parametrize("orbit", [(0.0, 0.1, 2), (0.0, 0.45, 2), (0.0, 0.08, 3), (0.0, -0.3, 3)])
    def test_period_map_against_a_full_period(self, orbit):
        F0, G0, d = orbit
        full = full_period_run(F0, G0, d)
        F, G, w1, p1, w2, p2, wc, pc = full.y
        # q = 1/(1 - d G) is a particular solution: the one with zero start
        # is q less the homogeneous solution through (q0, q0') = (q0, d F0 q0)
        q, q0 = 1.0 / (1.0 - d * G), 1.0 / (1.0 - d * G0)
        assert np.max(np.abs(wc - (q - q0 * w1 - d * F0 * q0 * w2))) <= 1e-10
        # F q solves the homogeneous equation and is 0 at the turning point,
        # so it is the odd solution w2 times (F q)'(0) = -G0 q0, and p2 its
        # derivative: the oracle integrates neither
        assert np.max(np.abs(w2 + F * q / (G0 * q0))) <= 1e-9
        assert np.max(np.abs(p2 - q * (G - (d - 1) * F * F) / (G0 * q0))) <= 1e-9
        shear = run_characteristic(constant_profile(F0, G0, d), 1.0, 10.0, tol=1e-12).floquet["shear"]
        M = np.array([[1.0, 0.0], [shear, 1.0]])
        assert np.max(np.abs(M - [[w1[-1], w2[-1]], [p1[-1], p2[-1]]])) <= 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("G0", [0.02, 0.1, 0.2, 0.3])
    def test_odd_solution_vanishes_at_the_half_period(self, G0, d):
        # w2 = -F q/(G0 q0) at the end of the half period, where F is 0
        F, G = run_characteristic(constant_profile(0.0, G0, d), 1.0, 1.0, tol=1e-12)._flow.one.y[:2, -1]
        assert abs(F * (1.0 - d * G0) / (G0 * (1.0 - d * G))) <= 1e-11

    def test_no_drift_over_thousands_of_periods(self):
        # t* comes after 3566 periods: an error in the period map compounds
        # with every period, so t* must not move with tol
        profile = gaussian_profile(0.222)
        coarse, fine = (run_characteristic(profile, 0.05, 50000.0, tol=tol).t_star
                        for tol in (1e-8, 1e-12))
        assert abs(coarse - fine) <= 1e-6 * fine, (coarse, fine)

    @pytest.mark.parametrize("r0", [0.01, 0.03, 0.06])
    def test_extreme_orbit_stays_finite(self, r0):
        # G- = -4.1e19, F+ = 3.9e9 and det Phi(T/2) = 3.5e-20 at r0 = 0.01:
        # no node may overflow or turn NaN (a RuntimeWarning fails the test)
        profile = gaussian_profile(0.49)
        run = run_characteristic(profile, r0, 400.0, tol=1e-8)
        assert np.all(np.isfinite(run._flow.nodes(400.0)[3]))
        direct = direct_run(profile, r0, 400.0)
        assert direct.status == "singular-step"
        assert abs(run.t_star - direct.t[-1]) <= 1e-8 * direct.t[-1], (run.t_star, direct.t[-1])

    def test_turning_point_miss(self):
        # the half period ends at T/2 from period's quadrature, where F must
        # be 0: on breaking-sweep's orbits |F(T/2)|/F+ is at most 3.1e-7 (at
        # the center), but at K = 0.49, r0 = 0.01 (F+ = 3.9e9) F(T/2) = 5.7e8
        # while w2(T/2) = -F q/(G_e q_e) reads -2.4e-10, as q is 1.0e-17 there
        profile = gaussian_profile(0.45)
        misses = [run_characteristic(profile, r0, 400.0, tol=1e-8).floquet["turning_point_miss"]
                  for r0 in np.linspace(0.0, 3.0, 48)]
        assert max(misses) <= 1e-6, max(misses)
        run = run_characteristic(gaussian_profile(0.49), 0.01, 400.0, tol=1e-8)
        F, G = run._flow.one.y[:2, -1]
        G_e = run._flow.one.y[1, 0]
        w2 = -F * (1.0 - 2.0 * G_e) / (G_e * (1.0 - 2.0 * G))
        assert run.floquet["turning_point_miss"] > 0.1 and abs(w2) < 1e-9, (run.floquet, w2)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_shear_error_bounds_the_error(self, tol):
        # against tol 1e-13, on breaking-sweep's orbits and a moving 3D pulse
        for profile, grid in ((gaussian_profile(0.45), np.linspace(0.0, 3.0, 48)),
                              (moving_pulse(0.3, -0.6, 3), np.linspace(0.0, 2.0, 11))):
            for r0 in grid:
                flow = run_characteristic(profile, r0, 1.0, tol=tol)._flow
                exact = run_characteristic(profile, r0, 1.0, tol=1e-13)._flow.shear
                assert abs(flow.shear - exact) <= flow.shear_error, (r0, flow.shear, exact)

    @pytest.mark.parametrize("case", ["breaking-2d", "moving-2d", "moving-3d"])
    def test_positive_bound_holds_on_the_brackets(self, case):
        # the bound that spares a minimum's root must never pass a bracket
        # where w reaches 0; these runs blow up, so some brackets do
        profile, r0 = {
            "breaking-2d": (gaussian_profile(0.45), np.linspace(0.0, 3.0, 48)[14]),
            "moving-2d": (moving_pulse(0.45, 0.5, 2), 0.6),
            "moving-3d": (moving_pulse(0.3, -0.6, 3), 0.3),
        }[case]
        flow = run_characteristic(profile, r0, 400.0, tol=1e-8)._flow
        t = flow.nodes(400.0)[0]
        i = np.arange(t.size - 1) + flow.offset
        certain = float_bound(flow, i)
        assert certain.tolist() == positive_bound(flow, i).tolist()
        x = t[:-1] + np.linspace(0.0, 1.0, 65)[:, None] * np.diff(t)
        lowest = np.min(flow(x.ravel())[2].reshape(x.shape), axis=0)
        assert certain.any() and (lowest <= 0.0).any()
        assert np.all(lowest[certain] > 0.0)

    def test_float_bound_decides_as_the_numpy_form(self):
        # on every bracket of breaking-sweep's 48 radii up to t = 400: the
        # bound summed term by term in floats, against the matrix products
        # it replaced
        certain = 0
        for r0 in np.linspace(0.0, 3.0, 48):
            flow = run_characteristic(gaussian_profile(0.45), r0, 400.0, tol=1e-8)._flow
            i = np.arange(flow.size(400.0) - 1) + flow.offset
            got = float_bound(flow, i)
            assert got.tolist() == positive_bound(flow, i).tolist(), r0
            certain += got.sum()
        assert certain > 0

    def test_a_round_gathers_its_polynomials_once(self, monkeypatch):
        # the bounds, and the p and w brackets of each minimum not ruled out,
        # read one gather of the round's brackets with a minimum
        gathered, roots, rounds = [], [], []
        gather, below, root = _Floquet._polynomials, _Floquet._below, oracle.newton_root

        def counted_gather(flow, f):
            gathered.append(np.size(f))
            return gather(flow, f)

        def counted_root(*args):
            roots.append(args)
            return root(*args)

        def counted_below(flow, f, a, b):
            start = len(gathered), len(roots)
            out = below(flow, f, a, b)
            rounds.append((gathered[start[0]:], len(roots) - start[1]))
            return out

        monkeypatch.setattr(_Floquet, "_polynomials", counted_gather)
        monkeypatch.setattr(_Floquet, "_below", counted_below)
        monkeypatch.setattr(oracle, "newton_root", counted_root)
        run = run_characteristic(gaussian_profile(0.45), np.linspace(0.0, 3.0, 48)[14], 400.0, tol=1e-8)
        assert run.t_star is not None
        assert any(rooted for _, rooted in rounds), rounds      # some minima were rooted
        assert all(len(g) <= 1 for g, _ in rounds), rounds

    @pytest.mark.parametrize("case", ["oracle-run", "crossings-84", "breaking-sweep"])
    def test_roots_agree_with_brent(self, case, monkeypatch):
        # every bracket root of the crossings, of t* and of the minima of w,
        # against Brent's method on the same bracket function
        calls = []
        root = oracle.newton_root

        def recorded(g, a, b, ga, gb):
            x = root(g, a, b, ga, gb)
            calls.append((g, a, b, ga, gb, x))
            return x

        monkeypatch.setattr(oracle, "newton_root", recorded)
        if case == "breaking-sweep":
            found = {t for _, t in blowup_sweep(gaussian_profile(0.45), np.linspace(0.0, 3.0, 48),
                                                400.0, 1e-8) if t is not None}
            assert len(found) == 16 and found <= {x for *_, x in calls}
        else:
            K, r0, t_max, tol = {"oracle-run": (0.1, 0.0, 25.0, 1e-10),
                                 "crossings-84": (0.3, 0.6, 400.0, 1e-10)}[case]
            run = run_characteristic(gaussian_profile(K), r0, t_max, tol=tol)
            calls.clear()
            times = run.crossing_times
            assert times.size == {"oracle-run": 7, "crossings-84": 84}[case]
            assert set(times.tolist()) <= {x for *_, x in calls}
        for g, a, b, ga, gb, x in calls:
            try:
                want = find_root(lambda t: g(t)[0], a, b, tol=1e-300)
            except BracketError:   # the ends' signs hold only on the values the iteration is given
                want = find_root(lambda t: ga if t == a else gb if t == b else g(t)[0], a, b, tol=1e-300)
            assert abs(x - want) <= 8.0 * np.finfo(float).eps * abs(want), (a, b, x, want)

    def test_breaking_sweep_work(self, ode_steps):
        # one DOP853 run of half a period per radius; the whole period took 856 steps
        blowup_sweep(gaussian_profile(0.45), np.linspace(0.0, 3.0, 48), 400.0, 1e-8)
        assert len(ode_steps) == 48
        assert sum(ode_steps) <= 480

    def test_crossings_share_one_gather(self, monkeypatch):
        # 1605 crossings, each rooted on its own bracket: their polynomials
        # are gathered at once, not once per crossing
        run = run_characteristic(gaussian_profile(0.222), 0.05, 5000.0, tol=1e-8)
        gathered, gather = [], _Floquet._polynomials

        def counted(flow, f):
            gathered.append(np.size(f))
            return gather(flow, f)

        monkeypatch.setattr(_Floquet, "_polynomials", counted)
        assert run.crossing_times.size == 1605
        assert len(gathered) == 1 and gathered[0] >= 1605, gathered


class TestShearIdentity:
    """The shear against the derivative of the period: n v0 = w0 r0 T'(r0)
    G_e q_e / q0, with q = 1/(1 - d G) at the turning point G_e and at the
    start (ROADMAP item 10), a route that shares nothing with the Hill
    equation's rhs.  w is the Jacobian of the orbit family, and its growth
    k n v0 per period is the phase drift of neighbouring orbits."""

    @pytest.mark.parametrize("profile, radii", [
        (gaussian(0.222, 2), (0.1, 0.4, 0.8, 1.3, 2.0)),
        (gaussian(0.45, 2), (0.1, 0.4, 0.8, 1.3, 2.0)),
        (moving_pulse(0.2, 0.3, 2), (0.3, 0.9, 1.5)),
        (moving_pulse(0.2, 0.3, 3), (0.3, 0.9, 1.5)),
        (moving_pulse(0.1, -0.4, 2), (0.3, 0.9, 1.5)),
        (moving_pulse(0.1, -0.4, 3), (0.3, 0.9, 1.5)),
        *random_pulses(8, seed=1),
    ], ids=["gaussian-0.222", "gaussian-0.45", "moving-2d", "moving-3d", "moving-back-2d",
            "moving-back-3d", *(f"random-{i}" for i in range(8))])
    def test_shear_is_the_derivative_of_the_period(self, profile, radii):
        # T' by central differences: the ratio is 1 within 3.5e-8 on these
        d = profile.d

        def T(r):
            return period(profile.F0(r), profile.G0(r), d)

        for r0 in radii:
            h = 1e-5 * max(r0, 1.0)
            dT = (T(r0 + h) - T(r0 - h)) / (2.0 * h)
            G0, G_e = profile.G0(r0), orbit_phase(profile.F0(r0), profile.G0(r0), d)[1]
            w0 = 1.0 / (1.0 - profile_divergences(profile, r0)[0])
            want = w0 * r0 * dT * G_e * (1.0 - d * G0) / (1.0 - d * G_e)
            run = run_characteristic(profile, r0, 1.0, tol=1e-12)
            got = run.floquet["shear"] * run._flow.v[0]
            assert abs(got / want - 1.0) <= 1e-6, (r0, got, want)


class TestDensityIdentity:
    """The oracle's w = 1/(1 - lambda) against the Lagrangian Jacobian of
    r = r0 (q/q0)**(1/d), q = 1/(1 - d G):

        w(t) = w0 (q/q0) (1 - r0 q0 G0'(r0) + r0 q dG(t; r0)/dr0),

    with dG/dr0 by central differences of the oracle's own G (ROADMAP item
    10), a route that does not share the Hill equation's rhs."""

    @pytest.mark.parametrize("r0", [0.3, 0.9])
    def test_w_is_the_jacobian_of_the_orbit_family(self, r0):
        # measured: 2.2e-10 at r0 = 0.3 and 4.9e-11 at 0.9
        profile, d, h = gaussian(0.3, 2), 2, 1e-5
        times = np.linspace(0.7, 60.2, 50)

        def state(r):
            return run_characteristic(profile, r, 61.0, tol=1e-12).trajectory(times)

        _, G, lam, _, _ = state(r0)
        dG = (state(r0 + h)[1] - state(r0 - h)[1]) / (2.0 * h)
        q, q0 = 1.0 / (1.0 - d * G), 1.0 / (1.0 - d * profile.G0(r0))
        w0 = 1.0 / (1.0 - profile_divergences(profile, r0)[0])
        want = w0 * q / q0 * (1.0 - r0 * q0 * profile.G0_prime(r0) + r0 * q * dG)
        assert np.max(np.abs(1.0 / (1.0 - lam) - want)) <= 1e-8


class TestHorizon:
    """t* is searched by a bisection over windows of one period: it does not
    depend on t_max, and a run that does not break reads two windows at any
    horizon."""

    def test_t_star_does_not_depend_on_the_horizon(self):
        profile, grid = gaussian_profile(0.45), np.linspace(0.0, 3.0, 48)
        short, long_, endless = (blowup_sweep(profile, grid, t_max, 1e-8)
                                 for t_max in (400.0, 20000.0, math.inf))
        assert sum(t is not None for _, t in short) == 16
        for (r0, a), (_, b), (_, c) in zip(short, long_, endless):
            if a is not None:
                assert a == b == c, (r0, a, b, c)
            elif b is not None:       # breaks after 400
                assert b == c and b > 400.0, (r0, b, c)
            else:                     # after 20000, and only where n v0 is told from 0
                flow = run_characteristic(profile, r0, 1.0, tol=1e-8)._flow
                resolved = flow.v[0] != 0.0 and abs(flow.shear) > flow.shear_error
                assert (c is not None) == resolved and (c is None or c > 20000.0), (r0, c)
        # the center has v = 0: w = q for all time
        assert endless[0] == (0.0, None)
        # from r0 = 2.81 on the shear is within its error, 3e-8 (its sign
        # flips between r0 = 2.87 and 2.94): no t* from noise
        assert [t for _, t in endless[44:]] == [None] * 4
        assert endless[43][1] > 1e10

    @pytest.mark.parametrize("r0", [1.6, 1.8, 2.0, 2.2, 2.5])
    def test_search_cost_does_not_grow_with_the_horizon(self, r0, floquet_reads):
        # every node value, bound and bracket root the search reads goes
        # through _node, _below and the gather of _polynomials that the
        # bounds read: count what they are given (every radius has v != 0
        # and no t* at either horizon; on r0 = 1.6 to 2.0 a search per node
        # position gave the bound more brackets at 20000, as more of them
        # held a minimum of w in a longer range)
        read = floquet_reads("_node", "_below", "_polynomials")
        profile, cost = gaussian_profile(0.45), []
        for t_max in (400.0, 20000.0):
            read.clear()
            assert run_characteristic(profile, r0, t_max, tol=1e-8).t_star is None
            cost.append(list(read))
        assert cost[0] == cost[1] and sum(cost[0]) > 0, cost

    def test_a_trajectory_too_long_to_build_fails_fast(self, monkeypatch):
        # t* = 9.70e6 after 1.6 million periods: its trajectory would take
        # 18,523,006 nodes, and its crossings about 1 GB (t* is 9.6924e6 at
        # tol 1e-13)
        run = run_characteristic(gaussian_profile(0.45), 2.17, math.inf, tol=1e-8)
        assert abs(run.t_star - 9698609.324) <= 1e-2, run.t_star

        def build(*args):
            raise AssertionError("a node array was built")

        monkeypatch.setattr(_Floquet, "nodes", build)
        with pytest.raises(ValueError, match="18523006 nodes, more than the 4194304"):
            run.crossing_times

    def test_one_d_nodes_are_counted_from_their_spacing(self):
        # R < 1: no blow-up, and 1.0e8 nodes of spacing pi/32 up to t_max
        with pytest.raises(ValueError, match="more than the 4194304"):
            run_characteristic(one_d_point_profile(0.1, 0.2), 0.0, 1e7).trajectory
        # t* < 2 pi: only the nodes before it are built, whatever t_max
        run = run_characteristic(one_d_point_profile(0.3, 0.9), 0.0, 1e9)
        assert run.trajectory.t.size < 100 and run.trajectory.status == "terminal-event"

    def test_nodes_are_built_only_when_read(self):
        # 3566 periods before t*: no node is built for the search
        run = run_characteristic(gaussian_profile(0.222), 0.05, 50000.0, tol=1e-8)
        assert abs(run.t_star - 22208.32562) <= 1e-5, run.t_star
        assert "_nodes" not in run.__dict__
        traj = run.trajectory
        assert "_nodes" in run.__dict__
        assert traj.status == "terminal-event" and traj.t[-1] < run.t_star

    @staticmethod
    def rest_at_one(F_far, G_far):
        """(F0, G0) = (F_far, G_far) at r0 = 1, with lambda0 = 0.8 + 2 G_far
        and D0 = -0.5 + 2 F_far."""
        return RadialProfile(
            G0=lambda r: G_far + 0.8 * (r - 1.0) * math.exp(-4.0 * (r - 1.0) ** 2),
            F0=lambda r: F_far - 0.5 * (r - 1.0) * math.exp(-4.0 * (r - 1.0) ** 2), d=2,
            dG0=lambda r: 0.8 * math.exp(-4.0 * (r - 1.0) ** 2) * (1.0 - 8.0 * (r - 1.0) ** 2),
            dF0=lambda r: -0.5 * math.exp(-4.0 * (r - 1.0) ** 2) * (1.0 - 8.0 * (r - 1.0) ** 2))

    def test_orbit_without_a_period_breaks_in_its_last_step(self):
        # F0 = G0 = 0 at r0 = 1 with lambda0 = 0.8 and D0 = -0.5: at rest
        # w'' = 1 - w in every dimension, so w = 1 + A cos t + B sin t in
        # closed form; a horizon just past t* puts the zero in the last
        # bracket, and at t_max = inf t* is the same
        profile = self.rest_at_one(0.0, 0.0)
        exact = TestOneDimensionalExact.first_zero(*profile_divergences(profile, 1.0))
        for t_max in (exact * (1.0 + 1e-9), exact * 1.01, 10.0, math.inf):
            run = run_characteristic(profile, 1.0, t_max, tol=1e-10)
            assert run.floquet is None and abs(run.t_star - exact) <= 1e-9 * exact, (t_max, run.t_star)

    @pytest.mark.parametrize("F_far, G_far", [(0.0, 1e-14), (0.0, 1e-300), (1e-200, 0.0), (1e-300, 1e-14)])
    def test_point_orbit_breaks_as_the_rest_state(self, F_far, G_far):
        # a start on a point orbit: its period is 2 pi, its half period is
        # integrated, and F, G of its size leave the Hill equation that of
        # the rest state; at 1e-200 the Newton step of the phase underflows
        # (it is skipped), and at F0/G0 = 1e-286 the phase rounds to 2 pi
        profile = self.rest_at_one(F_far, G_far)
        exact = TestOneDimensionalExact.first_zero(*profile_divergences(profile, 1.0))
        for t_max in (exact * (1.0 + 1e-9), exact * 1.01, 10.0, math.inf):
            run = run_characteristic(profile, 1.0, t_max, tol=1e-10)
            assert run.floquet["period"] == 2.0 * math.pi
            assert abs(run.t_star - exact) <= 1e-9 * exact, (t_max, run.t_star)
            assert np.all(np.diff(run.trajectory.t) > 0.0)

    @pytest.mark.parametrize("F_far, G_far", [(0.0, 1e-310), (1e-310, 0.0), (0.0, 5e-324)])
    def test_subnormal_orbit_is_the_rest_state(self, F_far, G_far):
        # the odd solution's closed form reads F/G_e, which has no digits
        # left on an orbit of subnormal amplitude (t* read 1.82 against
        # 1.23 at 5e-324): there the Hill equation is the rest state's
        profile = self.rest_at_one(F_far, G_far)
        exact = TestOneDimensionalExact.first_zero(*profile_divergences(profile, 1.0))
        run = run_characteristic(profile, 1.0, 10.0, tol=1e-10)
        assert run.floquet is None and abs(run.t_star - exact) <= 1e-12 * exact, run.t_star

    @pytest.mark.parametrize("t_max", [10.0, math.inf])
    def test_orbit_without_a_period_is_rejected(self, t_max):
        # G0 = 0.4995, next to the vacuum point 1/2: period cannot resolve
        # the orbit, at any horizon
        with pytest.raises(ValueError, match=r"period of the orbit through F0=0\.0, G0=0\.4995, d=2"):
            run_characteristic(constant_profile(0.0, 0.4995, 2), 1.0, t_max)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    @pytest.mark.parametrize("K,r0", [(0.499, 0.1), (0.495, 0.05)])
    def test_half_period_that_stops_short_is_rejected(self, K, r0, tol):
        # the half period ends "singular-step" 2e-13 to 1.7e-9 short of T/2,
        # at the spike where G reaches G-; mirrored, it put t* of K = 0.499,
        # r0 = 0.1 within 5e-10 of T/2, where the integration had stopped
        for t_max in (1.0, math.inf):
            with pytest.raises(ValueError, match=r"half period of the orbit through .* short of T/2"):
                run_characteristic(gaussian_profile(K), r0, t_max, tol=tol)

    def test_half_period_that_completes_still_breaks(self):
        # next to the rejected radii the half period completes, and Dawson's
        # shells (tests/shells.py) break at the same time
        profile, t_star = gaussian_profile(0.495), 2.26783673861588
        for tol, rel in ((1e-8, 1e-9), (1e-10, 1e-11), (1e-12, 1e-13)):
            assert abs(run_characteristic(profile, 0.1, 40.0, tol=tol).t_star - t_star) <= rel * t_star
        assert abs(shell_t_star(profile, 0.1, 40.0) - t_star) <= 1e-13 * t_star

    def test_start_on_the_particular_solution_reads_no_half_period(self):
        # at the K = 0.495 centre u = 0, so w = q > 0 exactly, though the
        # half period stops short of T/2 as at the radii beside it
        run = run_characteristic(gaussian_profile(0.495), 0.0, math.inf, tol=1e-10)
        assert run.t_star is None and run._flow.one.status == "singular-step"

    def test_the_half_period_status_is_reported(self):
        # a u = 0 start mirrors a half period that stops short: floquet says
        # so, as it says that a breaking-sweep radius completes its own
        start = constant_profile(0.3453357560128335, 0.4947984459018959, 2)
        floquet = run_characteristic(start, 1.0, 200.0, tol=1e-9).floquet
        assert floquet["half_period_status"] == "singular-step"
        floquet = run_characteristic(gaussian_profile(0.45), np.linspace(0.0, 3.0, 48)[14], 400.0, tol=1e-8).floquet
        assert floquet["half_period_status"] == "completed"

    @pytest.mark.parametrize("r0", [0.5, 2.9, 3.5])
    def test_horizons_past_the_period_cap(self, r0):
        # past _MAX_PERIODS + 1 periods the search stops there, as at inf;
        # the count of periods to 1e30 overflowed a C long (at inf, r0 = 2.9
        # and 3.5 give None: their shear is 0 within its error)
        profile = gaussian_profile(0.45)
        t_star = run_characteristic(profile, r0, 1e15, tol=1e-8).t_star
        assert t_star is not None
        for t_max in (1e30, 1e300):
            assert repr(run_characteristic(profile, r0, t_max, tol=1e-8).t_star) == repr(t_star), t_max

    def test_infinite_horizon(self):
        profile = gaussian_profile(0.45)
        run = run_characteristic(profile, 0.0, math.inf, tol=1e-8)
        assert run.t_star is None
        with pytest.raises(ValueError, match="no end"):
            run.trajectory
        # a breaking run ends where lambda reaches -d_cap, as with a finite horizon
        finite, endless = (run_characteristic(profile, 0.894, t_max, tol=1e-8) for t_max in (400.0, math.inf))
        assert endless.trajectory.t.tobytes() == finite.trajectory.t.tobytes()
        # the rest state is closed form: w = 1 for all time
        rest = run_characteristic(constant_profile(0.0, 0.0, 2), 1.0, math.inf)
        assert rest.t_star is None and rest.floquet is None
        # d = 1 is closed form: its t* lies within the first 2 pi
        one_d = one_d_point_profile(0.3, 0.9)
        assert run_characteristic(one_d, 0.0, math.inf).t_star == run_characteristic(one_d, 0.0, 20.0).t_star


def float_bound(flow, f):
    """``_Floquet.positive`` on the brackets that start at nodes ``f``, as an array."""
    return np.array([flow.positive(coef, base, c1) for coef, base, *_, c1 in flow._pieces(f)])


def scanned_t_star(flow):
    """t* from a scan of every bracket of a ``_Floquet`` flow's nodes up to
    t_max: the first bracket where ``_below`` finds that w reaches 0,
    rooted by ``_t_star_on`` (None where there is none)."""
    t, _, _, w, p = flow.nodes(flow.t_max)
    f = np.arange(t.size - 1) + flow.offset
    below = flow._below(f, (t[:-1], w[:-1], p[:-1]), (t[1:], w[1:], p[1:]))
    hit = np.flatnonzero(below < np.inf)
    if not hit.size:
        return None
    i = hit[0]
    return flow._t_star_on(f[i], t[i], w[i], below[i])


class TestSearchAgainstScan:
    """The window bisection gives the t* of a scan of every bracket, bit for bit."""

    @pytest.mark.parametrize("K, n_r, t_max, breaking", [(0.45, 48, 400.0, 16), (0.222, 16, 150.0, 0)],
                             ids=["breaking-sweep", "readme-sweep"])
    def test_sweep_grids(self, K, n_r, t_max, breaking):
        profile = gaussian_profile(K)
        runs = [run_characteristic(profile, r0, t_max, tol=1e-8) for r0 in np.linspace(0.0, 3.0, n_r)]
        assert sum(run.t_star is not None for run in runs) == breaking
        for run in runs:
            assert repr(run.t_star) == repr(scanned_t_star(run._flow)), run.r0

    def test_moving_pulses(self):
        # amplitudes up to 0.9/d, so that about a sixth of the runs break,
        # on horizons log-uniform in [0.5, 2000]
        rng = np.random.default_rng(2022)
        broken = 0
        for i in range(320):
            d = 2 + i % 2
            K, c, r0 = rng.uniform(0.1, 0.9 / d), rng.uniform(-0.5, 0.5), rng.uniform(0.05, 1.5)
            t_max = float(np.exp(rng.uniform(math.log(0.5), math.log(2000.0))))
            run = run_characteristic(moving_pulse(K, c, d), r0, t_max, tol=(1e-8, 1e-10)[i % 4 // 2])
            assert repr(run.t_star) == repr(scanned_t_star(run._flow)), (K, c, d, r0, t_max)
            broken += run.t_star is not None
        assert broken >= 40, broken

    @pytest.mark.parametrize("start, head", [((0.1, 0.1, 0.01, -1.0, 2), True),
                                             ((0.2, -0.1, 0.05, -0.5, 3), True),
                                             ((-0.3, 0.05, 0.02, -2.0, 2), True),
                                             ((0.1, 0.1, 0.01, 0.0, 2), False)])
    def test_partial_brackets(self, start, head):
        # (F0, G0, w0, p0, d): w0 small and falling reaches 0 between t = 0
        # and the first node (``head``); horizons just past t* put the zero
        # in the bracket to t_max
        t_star = _Floquet(*start, 100.0, 1e-10).first_zero()
        for t_max in (0.5 * t_star, t_star * (1.0 + 1e-9), 1.01 * t_star, 100.0):
            flow = _Floquet(*start, t_max, 1e-10)
            assert flow.inside and (t_star < flow._node(np.array([flow.first]))[0][0]) == head
            assert repr(flow.first_zero()) == repr(scanned_t_star(flow)), t_max


def _constant_starts():
    """Spatially constant starts from criterion 10's distribution."""
    starts = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for i in range(6):
            d = 2 + i % 2
            starts.append((rng.uniform(-0.4, 0.4), rng.uniform(-0.6, 0.85 / d), d))
    return starts


class TestNoHomogeneousPart:
    """v = (0, 0): w = q = 1/(1 - d G) > 0 for all time, decided without a search."""

    CASES = ([pytest.param(constant_profile(*s), 1.0, id=f"constant-{s[2]}d-{i}")
              for i, s in enumerate(_constant_starts())]
             + [pytest.param(gaussian_profile(K), 0.0, id=f"center-K{K}")
                for K in (0.05, 0.1, 0.222, 0.45, 0.49)]
             + [pytest.param(moving_pulse(K, c, d), 0.0, id=f"moving-center-{d}d-{c}")
                for d in (2, 3) for K, c in ((0.2, 0.3), (0.3, -0.2))])

    @pytest.mark.parametrize("profile, r0", CASES)
    def test_decision_against_the_search(self, profile, r0):
        for t_max in (400.0, math.inf):
            run = run_characteristic(profile, r0, t_max, tol=1e-8)
            assert run._flow.v == (0.0, 0.0) and run.t_star is None
            assert run._flow._search_zero() is None, t_max     # the search on the same flow
        # on the nodes of a trajectory read, w is q(G) bit for bit
        run = run_characteristic(profile, r0, 400.0, tol=1e-8)
        assert run.trajectory.status == "completed"
        t, F, G, w, p = run._nodes
        assert t.size > 100 and w.tobytes() == (1.0 / (1.0 - profile.d * G)).tobytes()

    def test_no_search_is_made(self, floquet_reads):
        read = floquet_reads("_node", "_below", "_polynomials")
        for profile, r0 in ((gaussian_profile(0.45), 0.0), (constant_profile(0.3, 0.2, 3), 1.0)):
            for t_max in (400.0, math.inf):
                assert run_characteristic(profile, r0, t_max, tol=1e-8).t_star is None
        assert read == []

    def test_times_of_any_shape(self):
        grid = np.linspace(1.0, 2.0, 6).reshape(2, 3)
        for run in (run_characteristic(gaussian_profile(0.3), 0.6, 40.0),
                    run_characteristic(one_d_point_profile(0.3, 0.9), 0.0, 40.0)):
            got = run.trajectory(grid)
            assert got.shape == (5, 2, 3)
            assert got.tobytes() == run.trajectory(grid.ravel()).reshape(5, 2, 3).tobytes()
