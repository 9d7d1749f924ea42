import numpy as np
import pytest

from coldplasma.core_dynamics import (
    constant_profile,
    evaluate_first_integral,
    first_integral_constant,
    first_integral_derivative,
    first_integral_increment,
    g_at_maximum,
    gaussian_profile,
    j_exact_radial,
    orbit_extremes,
    period,
    profile_divergences,
    rhs_divergence,
    rhs_radial,
)
from coldplasma.numerics import QuadratureError, integrate


class TestRhs:
    def test_divergence_equilibrium(self):
        assert rhs_divergence(0.0, 0.0, 0.0) == (0.0, 0.0)

    def test_divergence_direct(self):
        dlam, dD = rhs_divergence(0.2, 0.0, 0.0)
        assert dlam == 0.0
        assert abs(dD + 0.2) < 1e-15

    def test_radial_equilibrium(self):
        for d in (1, 2, 3):
            assert rhs_radial(0.0, 0.0, d) == (0.0, 0.0)

    def test_radial_direct(self):
        dF, dG = rhs_radial(0.0, 0.1, 2)
        assert abs(dF + 0.1) < 1e-15
        assert dG == 0.0

    def test_divergence_matches_radial_oracle(self):
        """d/dt of D along a radial trajectory equals the divergence rhs with exact J."""
        d = 2

        def rhs(t, y):
            F, G, lam, D = y
            J = j_exact_radial(F, D, d)
            dlam, dD = rhs_divergence(lam, D, J)
            dF, dG = rhs_radial(F, G, d)
            return [dF, dG, dlam, dD]

        traj = integrate(rhs, [0.03, 0.08, 0.21, -0.05], (0.0, 8.0), tol=1e-12)
        for t in np.linspace(0.5, 7.5, 12):
            h = 1e-5
            Ddot_fd = (traj(t + h)[3] - traj(t - h)[3]) / (2.0 * h)
            F, G, lam, D = traj(t)
            _, Ddot = rhs_divergence(lam, D, j_exact_radial(F, D, d))
            assert abs(Ddot_fd - Ddot) < 1e-6


class TestJExact:
    def test_one_dimensional_vanishes(self, rng):
        for _ in range(20):
            F, D = rng.normal(size=2)
            assert j_exact_radial(F, D, 1) == 0.0

    def test_direct_value(self):
        assert abs(j_exact_radial(1.0, 2.0, 2) - 1.0) < 1e-15

    def test_affine_relation(self, rng):
        # spatially constant factors: D = d F, hence J = d(d-1) F^2 / 2
        for d in (2, 3):
            for _ in range(20):
                F = rng.normal()
                assert abs(j_exact_radial(F, d * F, d) - 0.5 * d * (d - 1) * F * F) < 1e-14

    def test_affine_3d_example(self):
        alpha = 0.37
        assert abs(j_exact_radial(alpha, 3.0 * alpha, 3) - 3.0 * alpha**2) < 1e-15


class TestFirstIntegral:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_roundtrip_random(self, d, rng):
        count = 0
        while count < 100:
            F0 = rng.uniform(-0.6, 0.6)
            G0 = rng.uniform(-0.6, 1.0 / d - 1e-3)
            if abs(1.0 - d * G0) < 1e-6:
                continue
            const = first_integral_constant(F0, G0, d)
            assert abs(evaluate_first_integral(G0, const) - F0 * F0) < 1e-12
            count += 1

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_increment_matches_differences_and_slope(self, d, rng):
        for _ in range(20):
            G = rng.uniform(-0.5, 0.8 / d)
            const = first_integral_constant(rng.uniform(-0.3, 0.3), G, d)
            for h in (1e-2, -1e-2):
                diff = evaluate_first_integral(G + h, const) - evaluate_first_integral(G, const)
                assert abs(first_integral_increment(G, h, const) - diff) <= 1e-10 * abs(diff)
            for h in (1e-9, -1e-9):
                lin = first_integral_derivative(G, const) * h
                assert abs(first_integral_increment(G, h, const) - lin) <= 1e-7 * abs(lin)

    def test_degenerate_orbit_rejected(self):
        with pytest.raises(ValueError):
            first_integral_constant(0.1, 0.5, 2)

    def test_trivial_orbit(self):
        const = first_integral_constant(0.0, 0.0, 2)
        assert abs(evaluate_first_integral(0.0, const)) < 1e-15

    def test_3d_affine_constant_form(self):
        # orbit constant reduces to (1 - 2 beta0 + alpha0^2)/|1 - 3 beta0|^(2/3)
        a0, b0 = 0.21, 0.12
        const = first_integral_constant(a0, b0, 3)
        expected = (1.0 - 2.0 * b0 + a0 * a0) / abs(1.0 - 3.0 * b0) ** (2.0 / 3.0)
        assert abs(const.C - expected) < 1e-14

    def test_conservation_along_trajectory(self):
        d = 2
        const = first_integral_constant(0.0, 0.1, d)

        def rhs(t, y):
            dF, dG = rhs_radial(y[0], y[1], d)
            return [dF, dG]

        T = period(0.0, 0.1, d)
        traj = integrate(rhs, [0.0, 0.1], (0.0, 10.0 * T), tol=1e-10)
        drift = np.abs(traj.y[0] ** 2 - evaluate_first_integral(traj.y[1], const))
        assert np.max(drift) < 1e-8

    def test_zero_roots_bracket_g0(self):
        const = first_integral_constant(0.0, 0.1, 2)
        ext = orbit_extremes(0.0, 0.1, 2)
        assert abs(evaluate_first_integral(ext.G_minus, const)) < 1e-10
        assert abs(evaluate_first_integral(ext.G_plus, const)) < 1e-10
        assert ext.G_minus < 0.0 <= ext.G_plus


class TestOrbitExtremes:
    def test_point_orbit(self):
        assert tuple(orbit_extremes(0.0, 0.0, 2)) == (0.0, 0.0, 0.0)

    def test_fplus_for_lambda0_02(self):
        # orbit through (F, G) = (0, 0.1): the center state of lambda0 = 0.2
        ext = orbit_extremes(0.0, 0.1, 2)
        assert abs(ext.F_plus - 0.1167) < 1e-4

    def test_gm_closed_form_d2(self):
        const = first_integral_constant(0.0, 0.1, 2)
        gm = g_at_maximum(const)
        assert abs(first_integral_derivative(gm, const)) < 1e-12
        ext = orbit_extremes(0.0, 0.1, 2)
        assert abs(evaluate_first_integral(gm, const) - ext.F_plus**2) < 1e-12

    def test_nonclosed_1d_orbit_rejected(self):
        # d = 1 with positive orbit constant never turns around on the left
        with pytest.raises(ValueError):
            orbit_extremes(1.2, 0.3, 1)


class TestPeriod:
    def test_small_orbit_linear_limit(self):
        assert abs(period(0.0, 1e-4, 2) - 2.0 * np.pi) < 1e-3

    def test_against_high_precision_quadrature(self):
        # frozen from mpmath 1.3 at 60 digits: turning points by findroot on
        # Y, each half integrated in u with G = end +/- u**2 and Y taken as
        # Y(end + h) - Y(end), by Gauss-Legendre; a 70-digit rerun agrees
        assert abs(period(0.0, 0.1, 2) - 6.276156321355657) < 1e-12
        assert abs(period(0.0, 1e-4, 2) - 6.283185301942202) < 1e-12

    def test_unresolvable_orbit_raises(self):
        # the orbit spans [-5.2e19, 0.49]; quad reports that it cannot converge
        with pytest.raises(QuadratureError):
            period(0.0, 0.49, 2)

    def test_matches_oracle_crossings(self):
        d = 2

        def rhs(t, y):
            dF, dG = rhs_radial(y[0], y[1], d)
            return [dF, dG]

        def f_zero(t, y):
            return y[0]

        traj = integrate(rhs, [0.0, 0.1], (0.0, 20.0), tol=1e-12, events=[f_zero])
        times = [e.time for e in traj.events if e.time > 1e-9]
        measured = times[2] - times[0]
        assert abs(period(0.0, 0.1, d) - measured) < 1e-6

    def test_invariant_along_orbit(self):
        d = 2
        T0 = period(0.0, 0.1, d)

        def rhs(t, y):
            dF, dG = rhs_radial(y[0], y[1], d)
            return [dF, dG]

        traj = integrate(rhs, [0.0, 0.1], (0.0, 1.7), tol=1e-12)
        F1, G1 = traj(1.7)
        assert abs(period(F1, G1, d) - T0) < 1e-8

    def test_velocity_integral_vanishes_over_period(self):
        d = 2
        T = period(0.0, 0.1, d)

        def rhs(t, y):
            dF, dG = rhs_radial(y[0], y[1], d)
            return [dF, dG, y[0]]   # third component accumulates int F dt

        traj = integrate(rhs, [0.0, 0.1, 0.0], (0.0, T), tol=1e-12)
        assert abs(traj(T)[2]) < 1e-8

    def test_point_orbit_rejected(self):
        with pytest.raises(ValueError):
            period(0.0, 0.0, 2)


class TestProfiles:
    def test_gaussian_lambda0(self):
        p = gaussian_profile(0.1)
        for r in (0.0, 0.5, 1.0, 2.0):
            assert abs(p.lambda0(r) - 2 * 0.1 * (1 - r * r) * np.exp(-r * r)) < 1e-12
        assert abs(p.lambda0(0.0) - 0.2) < 1e-14
        assert abs(p.lambda0(1.0)) < 1e-14

    def test_gaussian_peak_is_center(self):
        p = gaussian_profile(0.3)
        rr = np.linspace(0.0, 4.0, 200)
        lams = [p.lambda0(r) for r in rr]
        assert np.argmax(lams) == 0

    def test_gaussian_requires_positive_amplitude(self):
        with pytest.raises(ValueError):
            gaussian_profile(0.0)
        with pytest.raises(ValueError):
            gaussian_profile(-0.1)
        with pytest.raises(ValueError):
            gaussian_profile(float("nan"))

    def test_inadmissible_profile_rejected(self):
        with pytest.raises(ValueError):
            gaussian_profile(0.6)   # lambda0(0) = 1.2 >= 1

    def test_divergences_at_center(self):
        p = gaussian_profile(0.1)
        lam0, D0 = profile_divergences(p, 0.0)
        assert abs(lam0 - 0.2) < 1e-14
        assert D0 == 0.0

    def test_resting_profile_divv_zero(self):
        p = gaussian_profile(0.2)
        for r in (0.0, 0.7, 1.9):
            assert profile_divergences(p, r)[1] == 0.0

    def test_finite_difference_derivative_fallback(self):
        K = 0.15
        analytic = gaussian_profile(K)
        numeric = type(analytic)(
            G0=lambda r: K * np.exp(-r * r),
            F0=lambda r: 0.0,
            d=2,
            label="gaussian-no-derivs",
        )
        for r in (0.0, 0.4, 1.3, 2.2):
            assert abs(numeric.G0_prime(r) - analytic.dG0(r)) < 1e-6

    def test_constant_profile_is_affine(self):
        p = constant_profile(0.05, 0.08, 3)
        lam0, D0 = profile_divergences(p, 1.7)
        assert abs(lam0 - 3 * 0.08) < 1e-9
        assert abs(D0 - 3 * 0.05) < 1e-9
