import sys

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import lambertw as scipy_lambertw

from coldplasma.numerics import (
    _QUAD_LIMIT,
    BracketError,
    QuadratureError,
    _adaptive_gk21,
    _qk21,
    find_root,
    integrate,
    integrate_singular,
    lambert_w,
    optimize_scalar,
)


class TestIntegrate:
    def test_exponential_decay(self):
        traj = integrate(lambda t, y: [-y[0]], [1.0], (0.0, 1.0), tol=1e-10)
        assert traj.status == "completed"
        assert abs(traj(1.0)[0] - np.exp(-1.0)) < 1e-9

    def test_harmonic_energy_drift_100_periods(self):
        traj = integrate(
            lambda t, y: [y[1], -y[0]], [1.0, 0.0], (0.0, 200.0 * np.pi), tol=1e-10
        )
        energy = traj.y[0] ** 2 + traj.y[1] ** 2
        assert np.max(np.abs(energy - 1.0)) < 1e-8

    def test_event_location(self):
        def ev(t, y):
            return y[0]

        traj = integrate(lambda t, y: [-1.0], [1.0], (0.0, 2.0), tol=1e-10, events=[ev])
        assert len(traj.events) == 1
        assert abs(traj.events[0].time - 1.0) < 1e-9

    def test_blowup_guard_stops_early(self):
        traj = integrate(lambda t, y: [y[0] ** 2], [1.0], (0.0, 2.0), tol=1e-10,
                         magnitude_cap=1e6)
        assert traj.status in ("terminal-event", "singular-step")
        assert traj.t[-1] < 1.01

    def test_deterministic(self):
        def rhs(t, y):
            return [y[1], -np.sin(y[0])]

        a = integrate(rhs, [1.0, 0.3], (0.0, 30.0), tol=1e-10)
        b = integrate(rhs, [1.0, 0.3], (0.0, 30.0), tol=1e-10)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.y, b.y)


class TestLambertW:
    def test_basic_values(self):
        assert lambert_w(0, 0.0) == 0.0
        assert abs(lambert_w(0, np.e) - 1.0) < 1e-14
        assert abs(lambert_w(-1, -np.exp(-1.0)) + 1.0) < 1e-7

    @pytest.mark.parametrize("branch", [0, -1])
    def test_residual_below_1e12_on_1000_points(self, branch):
        # residual is scaled by max(1, |x|): for large x an absolute 1e-12
        # is below one ulp of w e^w in float64
        inv_e = np.exp(-1.0)
        if branch == 0:
            xs = np.concatenate([
                -inv_e + np.geomspace(1e-12, inv_e - 1e-12, 500),
                np.geomspace(1e-10, 1e8, 500),
            ])
        else:
            xs = -inv_e + np.geomspace(1e-12, inv_e - 1e-12, 1000)
        worst = 0.0
        for x in xs:
            w = lambert_w(branch, float(x))
            worst = max(worst, abs(w * np.exp(w) - x) / max(1.0, abs(x)))
        assert worst < 1e-12

    @pytest.mark.parametrize("branch", [0, -1])
    def test_against_scipy(self, branch, rng):
        for _ in range(200):
            if branch == 0:
                x = float(rng.uniform(-np.exp(-1.0) + 1e-9, 10.0))
            else:
                x = float(rng.uniform(-np.exp(-1.0) + 1e-9, -1e-9))
            mine = lambert_w(branch, x)
            ref = float(np.real(scipy_lambertw(x, branch)))
            assert abs(mine - ref) < 1e-10 * max(1.0, abs(ref))

    def test_branch_ranges(self):
        assert lambert_w(0, -0.2) >= -1.0
        assert lambert_w(-1, -0.2) <= -1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lambert_w(0, -1.0)
        with pytest.raises(ValueError):
            lambert_w(-1, 0.5)
        with pytest.raises(ValueError):
            lambert_w(2, 0.5)


class TestFindRoot:
    def test_sqrt2(self):
        assert abs(find_root(lambda x: x * x - 2.0, 1.0, 2.0) - np.sqrt(2.0)) < 1e-12

    def test_linear_irrotational_marginal(self):
        # the irrotational lower curve with A4 = 0 reduces to this line
        root = find_root(lambda s: -(2.0 / 3.0) * s - 0.5, -3.0, -0.1)
        assert abs(root + 0.75) < 1e-12

    def test_no_bracket_raises(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_result_inside_bracket(self, rng):
        for _ in range(50):
            shift = rng.uniform(-0.9, 0.9)
            f = lambda x, c=shift: np.tanh(x - c)
            r = find_root(f, -1.0, 1.0)
            assert -1.0 <= r <= 1.0
            assert abs(r - shift) < 1e-10

    @pytest.mark.parametrize("tol", [1e-12, 1e-15, 1e-8])
    def test_agrees_with_brentq(self, tol, rng):
        # scipy's brentq is only the reference here; c is the root
        families = [
            lambda x, c: 2.0 * (x - c),                   # linear
            lambda x, c: (x - c) ** 5,                    # flat near the root
            lambda x, c: 1e8 * (x - c) + (x - c) ** 3,    # steep
            lambda x, c: np.tanh(3.0 * (x - c)),
            lambda x, c: np.expm1(x - c) + 0.5 * (x - c),
            lambda x, c: np.sin(x - c) / (2.0 + np.cos(x)),
        ]
        for fam in families:
            for _ in range(40):
                c = rng.uniform(-1.0, 1.0)
                a, b = c - rng.uniform(0.01, 2.0), c + rng.uniform(0.01, 2.0)
                f = lambda x, fam=fam, c=c: fam(x, c)
                ref = brentq(f, a, b, xtol=tol, maxiter=200)
                r = find_root(f, a, b, tol=tol)
                assert a <= r <= b
                assert abs(r - ref) <= tol + 4.0 * sys.float_info.epsilon * abs(ref)

    def test_iteration_cap_raises(self):
        # a step function gives no usable secant, so every step bisects; the
        # bracket must shrink to 1e-300 about the root at 0
        with pytest.raises(RuntimeError, match="200 iterations"):
            find_root(np.sign, -1.0, np.e, tol=1e-300)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            find_root(lambda x: np.nan if x > 0.5 else x - 0.7, 0.0, 1.0)


class TestGaussKronrod:
    def test_one_panel_exact_for_degree_30(self, rng):
        # K21 integrates polynomials up to degree 31 exactly
        coef = rng.uniform(0.5, 1.5, 31)
        lo, hi = -0.3, 1.2
        poly = np.polynomial.Polynomial(coef)
        exact = poly.integ()(hi) - poly.integ()(lo)
        val, _ = _qk21(lambda x: float(poly(x)), lo, hi)
        assert abs(val - exact) <= 1e-14 * abs(exact)

    def test_bisection_resolves_a_peak(self):
        # 1/(eps + (x - 0.3)**2) on [0, 1], exact by arctan
        eps = 1e-4
        evals = []
        g = lambda x: evals.append(x) or 1.0 / (eps + (x - 0.3) ** 2)
        val = _adaptive_gk21(g, 0.0, 1.0)
        r = np.sqrt(eps)
        exact = (np.arctan(0.7 / r) + np.arctan(0.3 / r)) / r
        assert abs(val - exact) <= 1e-12 * exact
        assert 21 < len(evals) <= 21 * (2 * _QUAD_LIMIT - 1)


class TestIntegrateSingular:
    # integrands in the f(end, h) form: the value at end + h
    def test_inverse_sqrt(self):
        val = integrate_singular(lambda end, h: (end + h) ** -0.5, 0.0, 1.0)
        assert abs(val - 2.0) < 1e-8

    def test_arcsine_kernel(self):
        # 1 - s**2 = |h| (2 - |h|) at s = end + h for end = -1 or +1
        val = integrate_singular(lambda end, h: (abs(h) * (2.0 - abs(h))) ** -0.5, -1.0, 1.0)
        assert abs(val - np.pi) < 1e-8

    def test_regular_integrand(self):
        val = integrate_singular(lambda end, h: np.cos(end + h), 0.0, np.pi / 2.0)
        assert abs(val - 1.0) < 1e-10

    def test_non_integrable_raises(self):
        # 2/u after the substitution: every panel at 0 keeps its error, up to the cap
        with pytest.raises(QuadratureError, match=r"on \[0\.0, 1\.0\].*50 panels"):
            integrate_singular(lambda end, h: 1.0 / (end + h), 0.0, 1.0)


class TestOptimizeScalar:
    def test_parabola_max(self):
        x, fx = optimize_scalar(lambda x: -((x - 0.5) ** 2), 0.0, 1.0, mode="max")
        assert abs(x - 0.5) < 1e-7
        assert abs(fx) < 1e-13

    def test_min_mode(self):
        x, fx = optimize_scalar(lambda x: (x - 0.25) ** 2 + 1.0, -1.0, 1.0, mode="min")
        assert abs(x - 0.25) < 1e-7
        assert abs(fx - 1.0) < 1e-12

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            optimize_scalar(lambda x: x, 0.0, 1.0, mode="saddle")
