import math

import numpy as np
import pytest

from coldplasma.core_dynamics import (
    RadialProfile,
    constant_profile,
    gaussian_profile,
    j_exact_radial,
    profile_divergences,
    rhs_divergence,
    rhs_radial,
)
from coldplasma.numerics import integrate
from coldplasma.oracle import (
    count_revolutions_oracle,
    detect_blowup,
    run_characteristic,
    sandwich_check,
)


def one_d_point_profile(lam0, D0):
    """A d=1 profile whose center characteristic carries the point data (lam0, D0)."""
    return constant_profile(D0, lam0, 1)


def direct_run(profile, r0, t_end, tol=1e-12, cap=math.inf):
    """The five-variable characteristic system (F, G, lambda, D, r), integrated
    directly by DOP853, which stops where max|y| reaches ``cap``: the
    reference for the linearized oracle."""
    d = profile.d

    def rhs(t, y):
        F, G, lam, Dv, r = y
        return (*rhs_radial(F, G, d), *rhs_divergence(lam, Dv, j_exact_radial(F, Dv, d)), F * r)

    lam0, D0 = profile_divergences(profile, r0)
    return integrate(rhs, [profile.F0(r0), profile.G0(r0), lam0, D0, r0], (0.0, t_end),
                     tol=tol, magnitude_cap=cap)


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
        st = center_run_k01.characteristic_state(1.0)
        assert st.t == 1.0
        assert abs(st.density - (1.0 - st.lam)) < 1e-15
        assert st.r == 0.0

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
    """d = 2, 3: one integrated period and its affine map against a direct run."""

    @staticmethod
    def gaussian_3d(K):
        return RadialProfile(G0=lambda r: K * math.exp(-r * r), F0=lambda r: 0.0, d=3,
                             dG0=lambda r: -2.0 * K * r * math.exp(-r * r),
                             dF0=lambda r: 0.0)

    @pytest.mark.parametrize("case", ["gauss-2d", "gauss-3d", "constant-2d", "constant-3d"])
    def test_states_agree(self, case):
        profile, r0 = {
            "gauss-2d": (gaussian_profile(0.1), 0.8),
            "gauss-3d": (self.gaussian_3d(0.08), 0.7),
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
        # finds a zero a period later; the direct system's magnitude guard
        # (|lambda| = 1e6) trips just before the first zero
        for r0 in grid[14:16]:
            t = detect_blowup(run_characteristic(profile, r0, 400.0, tol=1e-8)).t_star
            guard = direct_run(profile, r0, 400.0, tol=1e-10, cap=1e6)
            assert guard.status == "terminal-event"
            assert 0.0 < t - guard.t[-1] < 1e-3, (r0, t, guard.t[-1])
