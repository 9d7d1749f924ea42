import numpy as np
import pytest

from coldplasma.core_dynamics import constant_profile, gaussian_profile
from coldplasma.numerics import integrate
from coldplasma.oracle import (
    count_revolutions_oracle,
    detect_blowup,
    extrapolate_blowup_time,
    run_characteristic,
    sandwich_check,
)


def one_d_point_profile(lam0, D0):
    """A d=1 profile whose center characteristic carries the point data (lam0, D0)."""
    return constant_profile(D0, lam0, 1)


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

    def test_pure_riccati_extrapolation(self):
        # dD/dt = -D^2 from D(0) = -1 hits -infinity at t* = 1
        traj = integrate(lambda t, y: [-y[0] ** 2], [-1.0], (0.0, 2.0),
                         tol=1e-12, magnitude_cap=1e6)
        t_star = extrapolate_blowup_time(traj.t, traj.y[0])
        assert t_star is not None
        assert abs(t_star - 1.0) < 1e-3

    def test_1d_supercritical_point_blows_up(self):
        run = run_characteristic(one_d_point_profile(0.6, 0.0), 0.0, 200.0, tol=1e-10)
        rec = detect_blowup(run)
        assert rec.detected
        assert rec.t_star is not None and np.isfinite(rec.t_star)

    def test_extrapolation_needs_tail(self):
        assert extrapolate_blowup_time(np.array([0.0, 1.0]), np.array([-1.0, -2.0])) is None


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
