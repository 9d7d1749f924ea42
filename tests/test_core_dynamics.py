import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from coldplasma import core_dynamics
from coldplasma.chaplygin_bounds import criterion_1d
from coldplasma.core_dynamics import (
    RadialProfile,
    constant_profile,
    evaluate_first_integral,
    first_integral_constant,
    first_integral_derivative,
    first_integral_increment,
    g_at_maximum,
    gaussian_profile,
    orbit_extremes,
    orbit_phase,
    period,
    profile_divergences,
    rhs_radial,
)
from coldplasma.numerics import QuadratureError, integrate
from coldplasma.oracle import run_characteristic
from references import j_exact_radial, rhs_divergence


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
            F = rng.uniform(-0.3, 0.3)
            const = first_integral_constant(F, G, d)
            for h in (1e-2, -1e-2):
                diff = evaluate_first_integral(G + h, const) - evaluate_first_integral(G, const)
                assert abs(first_integral_increment(F, G, h, d) - diff) <= 1e-10 * abs(diff)
            for h in (1e-9, -1e-9):
                lin = first_integral_derivative(G, const) * h
                assert abs(first_integral_increment(F, G, h, d) - lin) <= 1e-7 * abs(lin)

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
        Y = np.array([evaluate_first_integral(G, const) for G in traj.y[1].tolist()])
        drift = np.abs(traj.y[0] ** 2 - Y)
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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_gm_closed_form(self, d):
        const = first_integral_constant(0.0, 0.1, d)
        gm = g_at_maximum(const)
        assert abs(first_integral_derivative(gm, const)) < 1e-12
        ext = orbit_extremes(0.0, 0.1, d)
        assert abs(evaluate_first_integral(gm, const) - ext.F_plus**2) < 1e-12

    @pytest.mark.parametrize("d", [1, 3])
    def test_gm_about_the_point_matches_the_closed_form(self, d, rng):
        # G_m written about (F0, G0) against the closed form from C
        for _ in range(400):
            F0, G0 = rng.uniform(-0.3, 0.3), rng.uniform(-3.0, 0.8 / d)
            if d == 1 and F0 * F0 + 2.0 * G0 >= 1.0:
                continue
            gm = g_at_maximum(first_integral_constant(F0, G0, d))
            assert abs(core_dynamics._g_at_maximum_about(F0, G0, d) - gm) <= 4e-15 * max(1.0, abs(gm))

    @pytest.mark.parametrize("d", [1, 3])
    def test_small_orbits_are_the_linearized_circle(self, d):
        # G_m from the orbit constant moved by its rounding, about 1e-16:
        # F+ was 6e-5 off at A = 1e-14 (d = 3) and 0 at A = 1e-16.  About
        # (F0, G0) only the next order of G-, G+, F+ = -A, A, A is left, O(A)
        for A in np.logspace(-16, -8, 17):
            for theta in np.linspace(0.1, 0.1 + 2.0 * np.pi, 10, endpoint=False):
                F0, G0 = A * math.cos(theta), A * math.sin(theta)
                a = math.hypot(F0, G0)
                for got, want in zip(orbit_extremes(F0, G0, d), (-a, a, a)):
                    assert abs(got - want) <= (4.0 * a + 1e-14) * a, (F0, G0, got, want)

    def test_nonclosed_1d_orbit_rejected(self):
        # d = 1 with positive orbit constant never turns around on the left
        with pytest.raises(ValueError):
            orbit_extremes(1.2, 0.3, 1)

    def test_orbit_beyond_float_range_rejected(self):
        # d = 2: 1 - 2 G_m = exp(-C - 1) overflows as G0 approaches 1/2; at
        # 0.4993 G_m is still finite but Y overflows about it
        for G0 in (0.4995, 0.4993):
            with pytest.raises(ValueError, match="too wide"):
                orbit_extremes(0.0, G0, 2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_wide_orbits_against_high_precision(self, d):
        # F0 = 0 and G0 far below 0: G- = G0, and G+ lies near the vacuum
        # point 1/d, where an increment from G0 loses 1 - d G to rounding.
        # Reference in v = 1 - d G at 60 digits: Y = -1/d - v (log v + C)/2
        # (d = 2) or -1/d - 2 v / (d (d-2)) + C v**(2/d), the root on
        # (0, v_m) by the Illinois method, F+ = sqrt(Y(v_m)) at the maximum v_m
        with mp.workdps(60):
            for G0 in [-42813.3, *(-np.logspace(-3, 200))]:
                g0 = mp.mpf(float(G0))
                u = 1 - d * g0
                if d == 2:
                    C = 1 / (2 * g0 - 1) - mp.log(u)
                    Y = lambda v: -mp.mpf(1) / 2 - v * (mp.log(v) + C) / 2
                    v_m = mp.exp(-C - 1)
                else:
                    C = (1 - 2 * g0) / ((d - 2) * u ** (mp.mpf(2) / d))
                    Y = lambda v: -mp.mpf(1) / d - 2 * v / (d * (d - 2)) + C * v ** (mp.mpf(2) / d)
                    v_m = (C * (d - 2)) ** (mp.mpf(d) / (d - 2))
                v_plus = mp.findroot(Y, (mp.mpf(10) ** -300, v_m), solver="illinois", verify=False)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    ext = orbit_extremes(0.0, float(G0), d)
                assert ext.G_minus == G0
                G_plus = (1 - v_plus) / d
                assert abs(ext.G_plus - G_plus) <= 1e-12 * abs(G_plus), (G0, ext.G_plus)
                F_plus = mp.sqrt(Y(v_m))
                assert abs(ext.F_plus - F_plus) <= 1e-12 * F_plus, (G0, ext.F_plus)

    def test_1d_raises_exactly_when_criterion_fails(self, rng):
        # d = 1: C = Delta / (1 - G0)**2 with Delta = F0**2 + 2 G0 - 1, so the
        # orbit is closed exactly when the 1D smoothness criterion holds
        for _ in range(400):
            F0, G0 = rng.normal(0.0, 0.8), rng.uniform(-2.0, 1.5)
            try:
                orbit_extremes(F0, G0, 1)
                raised = False
            except ValueError:
                raised = True
            assert raised is not criterion_1d(F0, G0).satisfied, (F0, G0)

    @pytest.mark.parametrize("d, r0", [(3, 13.0), (3, 15.0), (3, 18.0), (2, 18.0)])
    def test_tiny_orbits_of_a_moving_pulse(self, d, r0):
        # G0 = 0.2 e^-r^2, F0 = 0.3 e^-r^2, of amplitude 1e-74 to 1e-141, where
        # Brent from [G_m, 1/d] needs about 500 halvings to meet 1e-16 F+:
        # the orbit is the circle of the flow linearized about the rest state
        profile = RadialProfile(G0=lambda r: 0.2 * math.exp(-r * r),
                                F0=lambda r: 0.3 * math.exp(-r * r), d=d)
        F0, G0 = profile.F0(r0), profile.G0(r0)
        A = math.hypot(F0, G0)
        for got, want in zip(orbit_extremes(F0, G0, d), (-A, A, A)):
            assert abs(got - want) <= 1e-15 * A, (got, want)
        assert period(F0, G0, d) == 2.0 * math.pi
        assert run_characteristic(profile, r0, 20.0).t_star is None

    def test_against_high_precision(self):
        # frozen from mpmath 1.3 at 60 digits: C from (F0, G0), Y in closed
        # form, G_m from Y'(G_m) = 0, each turning point by findroot on Y
        # bracketed on its side of G_m, F+ = sqrt(Y(G_m)); an 80-digit rerun
        # agrees to 1 ulp
        refs = {
            (1e-5, 1e-5, 3): (-1.4142657537308067e-5, 1.4141990852862986e-5,
                              1.4142324190999857e-5),
            (0.0, 1e-4, 2): (-1.0002667377965086e-4, 1e-4, 1.0001333594500309e-4),
        }
        for args, ref in refs.items():
            for got, want in zip(orbit_extremes(*args), ref):
                assert abs(got - want) <= 1e-10 * abs(want), (args, got, want)


def _period_d2_reference(G0):
    """Period of the d = 2 orbit through (0, G0) in mpmath at the current precision.

    With x = log(1 - 2G), T = integral over [x+, x-] of dx / sqrt(Y) with
    Y = -(e**x (x + C) + 1) / 2, maximal at x = -C - 1; x- by bisection.
    """
    G0 = mp.mpf(G0)
    C = 1 / (2 * G0 - 1) - mp.log(1 - 2 * G0)

    def Y(x):
        return -(mp.exp(x) * (x + C) + 1) / 2

    x_max = -C - 1
    lo, hi = x_max, x_max + 1
    while Y(hi) > 0:
        lo, hi = hi, x_max + 2 * (hi - x_max)
    for _ in range(2 * mp.mp.prec):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if Y(mid) > 0 else (lo, mid)
    return float(mp.quad(lambda x: 1 / mp.sqrt(abs(Y(x))), [mp.log(1 - 2 * G0), x_max, lo]))


class TestPeriod:
    def test_small_orbit_linear_limit(self):
        assert abs(period(0.0, 1e-4, 2) - 2.0 * np.pi) < 1e-3

    def test_against_high_precision_quadrature(self, count_integrand):
        # frozen from mpmath 1.3 at 60 digits: turning points by findroot on
        # Y, each half integrated in u with G = end +/- u**2 and Y taken as
        # Y(end + h) - Y(end), by Gauss-Legendre; a 70-digit rerun agrees.
        # Each is met by one 21-point Gauss-Kronrod panel per half.
        evals = count_integrand(core_dynamics)
        assert abs(period(0.0, 0.1, 2) - 6.276156321355657) < 1e-12
        assert abs(period(0.0, 1e-4, 2) - 6.283185301942202) < 1e-12
        assert evals == [42, 42]

    def test_failed_root_search_names_the_orbit(self, monkeypatch):
        def failing(f, a, b, tol):
            raise RuntimeError(f"find_root: no convergence on [{a}, {b}]")

        monkeypatch.setattr(core_dynamics, "find_root", failing)
        with pytest.raises(RuntimeError, match=r"orbit through F0=0\.0, G0=0\.1, d=2: find_root"):
            period(0.0, 0.1, 2)

    def test_wide_orbit_against_high_precision(self):
        # the orbit spans [-5.2e19, 0.49]; frozen from mpmath 1.3 at 50 and 70
        # digits (agreeing), with x = log(1 - 2G): T = integral over
        # [log 0.02, x-] of dx / sqrt((e**x (-x - C) - 1) / 2)
        assert abs(period(0.0, 0.49, 2) - 4.536410129945297) < 1e-12

    def test_widest_d2_orbits_exact_or_named_error(self):
        # each G0 is met to 1e-12 against 50-digit mpmath with x = log(1 - 2G),
        # or the orbit is named in a ValueError (from G0 ~ 0.4993 its maximum
        # leaves float range); the suite's warning filter rejects any warning
        for G0 in np.linspace(0.49, 0.4999, 10):
            try:
                got = period(0.0, G0, 2)
            except ValueError as exc:
                assert f"G0={G0}" in str(exc) and "d=2" in str(exc)
                assert G0 > 0.4992
                continue
            with mp.workdps(50):
                want = _period_d2_reference(G0)
            assert abs(got - want) < 1e-12, G0

    def test_wide_d3_orbits_against_high_precision(self):
        # frozen from mpmath 1.3 at 50 and 70 digits (agreeing), in x = log(1 - 3G)
        assert abs(period(0.0, 0.3333, 3) - 5.4443752652846121527) < 1e-12
        assert abs(period(0.0, -1e12, 3) - 5.4414085514001429451) < 1e-12

    def test_matches_oracle_crossings(self):
        d = 2

        def rhs(t, y):
            dF, dG = rhs_radial(y[0], y[1], d)
            return [dF, dG]

        def f_zero(t, y):
            return y[0]

        ref = solve_ivp(rhs, (0.0, 20.0), [0.0, 0.1], method="DOP853", rtol=1e-12, atol=1e-12,
                        events=f_zero)
        times = [t for t in ref.t_events[0] if t > 1e-9]
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_point_orbit_has_the_plasma_period(self, d):
        # small oscillations have the period 2 pi; T - 2 pi ~ -0.525 G_e**2
        # is 5e-15 at G_e = 1e-7, where the quadrature still runs
        assert period(0.0, 0.0, d) == 2.0 * math.pi
        assert abs(period(0.0, 1e-7, d) - 2.0 * math.pi) <= 1e-14
        # the phase on the linearized orbit G = G_e cos tau, F = -G_e sin tau
        # from its lower turning point G_e = -A, A = hypot(F0, G0), whose
        # extremes are the linearized (-A, A, A)
        assert orbit_phase(0.0, 0.0, d) == (2.0 * math.pi, (-0.0, 0.0, 0.0), 0.0)
        T, ext, tau = orbit_phase(-3e-14, 2e-14, d)
        A = math.hypot(3e-14, 2e-14)
        assert (T, ext, tau) == (2.0 * math.pi, (-A, A, A), math.atan2(-3e-14, -2e-14) + 2.0 * math.pi)
        assert orbit_phase(0.0, -1e-14, d) == (2.0 * math.pi, (-1e-14, 1e-14, 1e-14), 0.0)
        assert orbit_phase(0.0, 1e-14, d) == (2.0 * math.pi, (-1e-14, 1e-14, 1e-14), math.pi)
        # a phase that rounds to 2 pi is phase 0
        assert orbit_phase(-1e-300, -1e-14, d)[2] == 0.0

    def test_small_orbits_to_the_last_digits(self):
        # frozen from mpmath 1.3 at 60 digits (an 80-digit rerun agrees): C
        # from (F0, G0), Y in closed form in G, G_m from Y'(G_m) = 0, each
        # turning point by bisection on Y on its side of G_m, F+ =
        # sqrt(Y(G_m)) and T = 2 * quad of dG / ((1 - d G) sqrt(Y)) over
        # [G-, G_m, G+]; Y taken about the turning point leaves nothing to
        # cancel, where its increment through the orbit constant lost 1e-12
        refs = {
            (0.0, 1e-4, 2): (-0.00010002667377965087, 1e-4, 0.00010001333594500309,
                             6.283185301942202),
            (0.0, 1e-3, 2): (-0.0010026737965525008, 1e-3, 0.001001335950042024,
                             6.28318478218141),
            (0.0, 1e-4, 3): (-0.00010003334444811974, 1e-4, 0.0001000166707788929,
                             6.283185301941853),
        }
        for args, ref in refs.items():
            for got, want in zip((*orbit_extremes(*args), period(*args)), ref):
                assert abs(got - want) <= 1e-15 * abs(want), (args, got, want)


class TestOrbitPhase:
    @pytest.mark.parametrize("start", [(0.1, 0.05, 2), (-0.1, 0.05, 2), (0.2, -0.3, 3),
                                       (-0.35, 0.2, 3), (1e-3, -0.1366, 2), (-1e-3, 0.1, 2)])
    def test_the_flow_from_the_turning_point_reaches_the_start(self, start):
        F0, G0, d = start
        T, ext, tau = orbit_phase(F0, G0, d)
        assert T == period(F0, G0, d) and ext == orbit_extremes(F0, G0, d)
        assert 0.0 < tau < T
        G_e = ext.G_minus

        def rhs(t, y):
            return rhs_radial(y[0], y[1], d)

        F, G = integrate(rhs, [0.0, G_e], (0.0, tau), tol=1e-13).final_state
        assert abs(F - F0) < 1e-12 and abs(G - G0) < 1e-12, (F, G)

    def test_a_turning_point_is_its_own_start(self):
        # the phase is measured from G-, where |F'| = |G-| is largest
        T, ext = period(0.0, 0.1, 2), orbit_extremes(0.0, 0.1, 2)
        assert orbit_phase(0.0, 0.1, 2) == (T, ext, 0.5 * T)
        G_minus = ext.G_minus
        assert orbit_phase(0.0, G_minus, 2) == (period(0.0, G_minus, 2), orbit_extremes(0.0, G_minus, 2), 0.0)


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

