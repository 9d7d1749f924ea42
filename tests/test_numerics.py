import math
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import lambertw as scipy_lambertw

from coldplasma import _dop853 as dop
from coldplasma._dop853 import _KEPT_STAGES
from coldplasma.core_dynamics import orbit_phase, rhs_radial
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
    linspace,
    newton_root,
    optimize_scalar,
)
from coldplasma.oracle import _half_rhs
from references import j_exact_radial, rhs_divergence


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

    def test_blowup_guard_stops_early(self):
        # y' = y**2 blows up at t = 1, where the step size underflows
        traj = integrate(lambda t, y: [y[0] ** 2], [1.0], (0.0, 2.0), tol=1e-10)
        assert traj.status == "singular-step"
        assert abs(traj.t[-1] - 1.0) < 1e-9

    def test_deterministic(self):
        def rhs(t, y):
            return [y[1], -np.sin(y[0])]

        a = integrate(rhs, [1.0, 0.3], (0.0, 30.0), tol=1e-10)
        b = integrate(rhs, [1.0, 0.3], (0.0, 30.0), tol=1e-10)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.y, b.y)

    def test_nan_start_stops(self):
        # a NaN derivative makes the first step size NaN; the run must stop
        traj = integrate(lambda t, y: [float("nan")], [1.0], (0.0, 1.0))
        assert traj.status == "singular-step"
        assert list(traj.t) == [0.0]

    def test_run_without_a_step_interpolates_its_start(self):
        traj = integrate(lambda t, y: [float("nan"), 0.0], [1.0, -2.0], (0.0, 1.0))
        assert traj.t.tolist() == [0.0]
        for t in (0.0, 0.5):
            assert traj(t).tolist() == [1.0, -2.0]
        assert traj(np.array([0.0, 0.25, 1.0])).tolist() == [[1.0] * 3, [-2.0] * 3]
        assert traj.final_state.tolist() == [1.0, -2.0]

    def test_times_of_any_shape(self):
        # components first, then the shape of t: a (2, 3) grid is its ravel, reshaped
        grid = np.linspace(0.1, 2.9, 6).reshape(2, 3)
        runs = [integrate(lambda t, y: [y[1], -np.sin(y[0])], [1.0, 0.3], (0.0, 3.0), tol=1e-10),
                integrate(lambda t, y: [float("nan"), 0.0], [1.0, -2.0], (0.0, 1.0))]   # no step
        for traj in runs:
            got = traj(grid)
            assert got.shape == (2, 2, 3)
            assert got.tobytes() == traj(grid.ravel()).reshape(2, 2, 3).tobytes()

    @pytest.mark.parametrize("t_span", [(1.0, 1.0), (1.0, 0.0)])
    def test_forward_only(self, t_span):
        with pytest.raises(ValueError):
            integrate(lambda t, y: [-y[0]], [1.0], t_span)


def _oracle_rhs(d):
    def rhs(t, y):
        F, G, lam, Dv, r = y
        return (*rhs_radial(F, G, d), *rhs_divergence(lam, Dv, j_exact_radial(F, Dv, d)), F * r)
    return rhs


def _half_period(F0, G0, d, tol):
    """The oracle's own run: (F, G) and the even solution (w1, p1) = (1, 0)
    from the turning point of the orbit through (F0, G0) over half a period."""
    T, G_e, _ = orbit_phase(F0, G0, d)
    return _half_rhs(d), [0.0, G_e, 1.0, 0.0], 0.5 * T, tol, "completed"


# (rhs, y0, t_end, tol, status): the characteristic system for d = 1, 2, 3
# from a bounded start and from one that crosses the axis and then blows
# up, the oracle's half period from the K = 0.45 pulse's center (27
# accepted and 19 rejected steps) and from a moving 3D pulse (17 and 10),
# the Riccati blow-up y' = -y**2 and the square-root singularity
# y' = -1/(2y); the step size underflows at each blow-up and singularity
_ENGINE_CASES = {
    "half-period-d2": _half_period(0.0, 0.45, 2, 1e-8),
    "half-period-d3": _half_period(-0.6 * math.exp(-0.09), 0.3 * math.exp(-0.09), 3, 1e-8),
    "oracle-d1-bounded": (_oracle_rhs(1), [-0.05, -0.28, -0.33, 0.34, 1.0], 30.0, 1e-9,
                          "completed"),
    "oracle-d1-blowup": (_oracle_rhs(1), [0.0, 0.0, 0.02, 1.8, 1.0], 30.0, 1e-9,
                         "singular-step"),
    "oracle-d2-bounded": (_oracle_rhs(2), [-0.11, 0.06, -0.03, -0.22, 1.0], 30.0, 1e-10,
                          "completed"),
    "oracle-d2-blowup": (_oracle_rhs(2), [0.23, 0.26, 0.0, 0.14, 1.0], 30.0, 1e-8,
                         "singular-step"),
    "oracle-d3-bounded": (_oracle_rhs(3), [-0.14, -0.28, -0.48, 0.63, 1.0], 30.0, 1e-9,
                          "completed"),
    "oracle-d3-blowup": (_oracle_rhs(3), [0.29, 0.21, 0.09, 0.96, 1.0], 30.0, 1e-9,
                         "singular-step"),
    "riccati": (lambda t, y: [-y[0] ** 2], [-1.0], 2.0, 1e-12, "singular-step"),
    "sqrt-singularity": (lambda t, y: [-0.5 / y[0]], [1.0], 2.0, 1e-10, "singular-step"),
}


def _counted(rhs):
    calls = [0]

    def wrapped(t, y):
        calls[0] += 1
        return rhs(t, y)
    return wrapped, calls


class TestAgainstSolveIvp:
    """The in-repo DOP853 against scipy's ``solve_ivp(method="DOP853")``."""

    @pytest.mark.parametrize("case", sorted(_ENGINE_CASES))
    def test_same_run(self, case):
        rhs, y0, t_end, tol, status = _ENGINE_CASES[case]
        ref_rhs, ref_calls = _counted(rhs)
        ref = solve_ivp(ref_rhs, (0.0, t_end), y0, method="DOP853", rtol=tol, atol=tol,
                        dense_output=True)
        our_rhs, our_calls = _counted(rhs)
        traj = integrate(our_rhs, y0, (0.0, t_end), tol=tol)

        assert traj.status == status
        assert {0: "completed", -1: "singular-step"}[ref.status] == status
        assert np.array_equal(traj.t, ref.t)
        assert np.array_equal(traj.y, ref.y)
        # a step's dense output costs 3 rhs calls, paid only once it is read
        assert our_calls[0] < ref_calls[0]
        mids = 0.5 * (traj.t[1:] + traj.t[:-1])
        traj(mids)
        assert our_calls[0] == ref_calls[0]
        traj(mids)
        assert our_calls[0] == ref_calls[0]
        grid = np.linspace(0.0, traj.t[-1], 200)
        assert np.array_equal(traj(grid), ref.sol(grid))
        assert np.array_equal(traj(grid[77]), ref.sol(grid[77]))

    def test_square_root_singularity(self):
        traj = integrate(lambda t, y: [-0.5 / y[0]], [1.0], (0.0, 2.0), tol=1e-10)
        assert traj.status == "singular-step"
        assert len(traj.t) == 79
        assert traj.t[-1] == 0.9999999999813156


class TestLazyDenseOutput:
    """A step keeps the stages its dense output reads and builds it on first read."""

    def test_kept_stages_hold_every_weight_of_the_extra_stages_and_d(self):
        extra = dop.A[dop.N_STAGES + 1:, :dop.N_STAGES + 1]
        assert not extra[:, 1:5].any() and not dop.D[:, 1:5].any()
        used = np.flatnonzero(np.abs(extra).sum(0) + np.abs(dop.D[:, :dop.N_STAGES + 1]).sum(0))
        assert used.tolist() == _KEPT_STAGES.tolist()


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


class TestNewtonRoot:
    def test_sqrt2_to_the_stop(self):
        def g(x):
            return x * x - 2.0, 2.0 * x

        root = newton_root(g, 1.0, 2.0, -1.0, 2.0)
        assert abs(root - np.sqrt(2.0)) <= 4.0 * sys.float_info.epsilon * np.sqrt(2.0)

    def test_either_sign_and_a_zero_end(self):
        def g(x):
            return 1.0 - x, -1.0

        assert newton_root(g, 0.0, 3.0, 1.0, -2.0) == 1.0
        # a 0 at either end: the secant starts on it
        assert newton_root(g, 1.0, 3.0, 0.0, -2.0) == 1.0
        assert newton_root(lambda x: (x - 1.0, 1.0), 0.0, 1.0, -1.0, 0.0) == 1.0

    def test_steps_leaving_the_bracket_bisect(self, rng):
        # tanh is flat away from its root, where Newton steps overshoot
        for _ in range(50):
            c = rng.uniform(-0.9, 0.9)

            def g(x, c=c):
                return float(np.tanh(8.0 * (x - c))), float(8.0 / np.cosh(8.0 * (x - c)) ** 2)

            a, b = -1.0, 1.0
            r = newton_root(g, a, b, g(a)[0], g(b)[0])
            assert a < r < b and abs(r - c) <= 1e-15


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


class TestLinspace:
    def test_equals_numpy_bit_for_bit(self, rng):
        cases = [(0.0, 6.0, 257), (0.0, 3.0, 16), (-1.3, -1e-9, 4096), (0.25, -7.0, 2),
                 (1.0, 1.0, 5), (0.0, 5e-324, 3), (2.5, 3.5, 1), (2.5, 3.5, 0)]
        for _ in range(300):
            a, b = rng.uniform(-10.0, 10.0, 2) * 10.0 ** rng.integers(-6, 7, 2)
            cases.append((float(a), float(b), int(rng.integers(2, 300))))
        for a, b, n in cases:
            got = linspace(a, b, n)
            assert all(type(x) is float for x in got)
            assert [x.hex() for x in got] == [x.hex() for x in np.linspace(a, b, n).tolist()]
            if n >= 2:
                assert got[-1] == b
