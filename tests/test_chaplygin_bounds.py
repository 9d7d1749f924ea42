import numpy as np
import pytest

from coldplasma.chaplygin_bounds import (
    BoundKind,
    Side,
    anchor_root_S1,
    anchor_root_S2,
    criterion_1d,
    criterion_first_period,
    irrotational_lower_curve,
    plain_lower_curve,
    q_rhs,
    sigma_curve,
)
from coldplasma.pulse_analysis import DEFAULT_SIGMA1, DEFAULT_SIGMA2, f_plus_of_lambda0


def _random_anchor(rng):
    s0 = rng.uniform(-1.8, -0.05)
    Z0 = rng.uniform(0.0, 0.5)
    return s0, Z0


class TestQRhs:
    def test_irrotational_zero(self):
        assert q_rhs(BoundKind.IRROTATIONAL, Side.LOWER, -1.0, 0.0) == 0.0

    def test_sigma_lower_zero_fplus(self):
        v = q_rhs(BoundKind.RADIAL_SIGMA, Side.LOWER, -1.0, 0.0, sigma=0.7, f_plus=0.0)
        assert v == 0.0

    def test_rejects_nonnegative_s(self):
        with pytest.raises(ValueError):
            q_rhs(BoundKind.IRROTATIONAL, Side.LOWER, 0.0, 0.1)

    def test_plain_has_no_upper(self):
        with pytest.raises(ValueError):
            q_rhs(BoundKind.PLAIN, Side.UPPER, -0.5, 0.1)

    def test_upper_sigma_singularities_rejected(self):
        for bad in (1.0, np.sqrt(0.5)):
            with pytest.raises(ValueError):
                q_rhs(BoundKind.RADIAL_SIGMA, Side.UPPER, -0.5, 0.1, sigma=bad, f_plus=0.1)

    def test_comparison_ordering_lower_below_upper(self, rng):
        """The lower-family rhs never exceeds the upper-family rhs.

        This is the ordering Chaplygin's theorem needs for the two solutions
        to enclose the trajectory (dividing by s < 0 flips the numerator
        comparison, so the lower numerator is the larger one).
        """
        for _ in range(200):
            s = rng.uniform(-2.0, -0.01)
            Z = rng.uniform(0.0, 2.0)
            fp = rng.uniform(0.001, 0.8)
            q_lo = q_rhs(BoundKind.RADIAL_SIGMA, Side.LOWER, s, Z,
                         sigma=DEFAULT_SIGMA1, f_plus=fp)
            q_up = q_rhs(BoundKind.RADIAL_SIGMA, Side.UPPER, s, Z,
                         sigma=DEFAULT_SIGMA2, f_plus=fp)
            assert q_lo <= q_up + 1e-14


class TestClosedFormsSolveTheirOde:
    """Each curve satisfies its own comparison ODE to 1e-10 (analytic and
    finite-difference derivatives agree with the rhs at 100 points)."""

    def _residuals(self, curve, s_lo, s_hi):
        ss = np.linspace(s_lo, s_hi, 100)
        analytic = curve.derivative(ss) - curve.q(ss, curve.value(ss))
        h = 1e-7
        fd = (curve.value(ss + h) - curve.value(ss - h)) / (2.0 * h)
        fd_res = fd - curve.q(ss, curve.value(ss))
        return np.max(np.abs(analytic)), np.max(np.abs(fd_res))

    def test_plain(self, rng):
        for _ in range(10):
            s0, Z0 = _random_anchor(rng)
            curve = plain_lower_curve(s0, Z0, xi30=rng.uniform(-0.5, 0.5))
            an, fd = self._residuals(curve, 1.5 * s0, 0.2 * s0)
            assert an < 1e-10
            assert fd < 1e-6

    def test_irrotational(self, rng):
        for _ in range(10):
            s0, Z0 = _random_anchor(rng)
            curve = irrotational_lower_curve(s0, Z0)
            an, fd = self._residuals(curve, 1.5 * s0, 0.2 * s0)
            assert an < 1e-10
            assert fd < 1e-6

    @pytest.mark.parametrize("side,sigma", [(Side.LOWER, DEFAULT_SIGMA1),
                                            (Side.LOWER, 1.3),
                                            (Side.UPPER, DEFAULT_SIGMA2),
                                            (Side.UPPER, 0.8)])
    def test_sigma_family(self, side, sigma, rng):
        for _ in range(10):
            s0, Z0 = _random_anchor(rng)
            curve = sigma_curve(side, s0, Z0, sigma, f_plus=rng.uniform(0.0, 0.4))
            an, fd = self._residuals(curve, 1.5 * s0, 0.2 * s0)
            assert an < 1e-10
            assert fd < 1e-5

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sigma_family_other_dimensions(self, d, rng):
        for _ in range(5):
            s0, Z0 = _random_anchor(rng)
            fp = rng.uniform(0.0, 0.4)
            for side, sg in ((Side.LOWER, DEFAULT_SIGMA1), (Side.UPPER, DEFAULT_SIGMA2)):
                curve = sigma_curve(side, s0, Z0, sg, fp, d=d)
                assert abs(curve.value(s0) - Z0) < 1e-12
                an, _ = self._residuals(curve, 1.5 * s0, 0.2 * s0)
                assert an < 1e-10


class TestIncrement:
    """increment(s, h) = Z(s + h) - Z(s) in both representations."""

    @pytest.mark.parametrize("family", ["plain", "irrotational", "lower", "upper"])
    def test_matches_differences_and_slope(self, family, rng):
        for _ in range(20):
            s0, Z0 = _random_anchor(rng)
            curve = {
                "plain": lambda: plain_lower_curve(s0, Z0, xi30=rng.uniform(-0.5, 0.5)),
                "irrotational": lambda: irrotational_lower_curve(s0, Z0),
                "lower": lambda: sigma_curve(Side.LOWER, s0, Z0, DEFAULT_SIGMA1, 0.2),
                "upper": lambda: sigma_curve(Side.UPPER, s0, Z0, DEFAULT_SIGMA2, 0.2),
            }[family]()
            s = rng.uniform(-1.8, -0.05)
            for h in (1e-2, -1e-2):
                diff = curve.value(s + h) - curve.value(s)
                assert abs(curve.increment(s, h) - diff) <= 1e-10 * abs(diff) + 1e-13
            for h in (1e-9, -1e-9):
                lin = curve.derivative(s) * h
                assert abs(curve.increment(s, h) - lin) <= 1e-7 * abs(lin) + 1e-16


class TestAnchorsAndCoefficients:
    def test_anchor_identity_all_kinds(self, rng):
        for _ in range(20):
            s0, Z0 = _random_anchor(rng)
            assert abs(plain_lower_curve(s0, Z0, 0.3).value(s0) - Z0) < 1e-12
            assert abs(irrotational_lower_curve(s0, Z0).value(s0) - Z0) < 1e-12
            for side, sg in ((Side.LOWER, DEFAULT_SIGMA1), (Side.UPPER, DEFAULT_SIGMA2)):
                assert abs(sigma_curve(side, s0, Z0, sg, 0.2).value(s0) - Z0) < 1e-12

    def test_phase_point_works_as_anchor(self):
        from coldplasma.core_dynamics import PhasePoint

        anchor = PhasePoint(-0.8, 0.04)
        assert abs(irrotational_lower_curve(*anchor).value(-0.8) - 0.04) < 1e-14
        with pytest.raises(ValueError):
            PhasePoint(0.2, 0.0)
        with pytest.raises(ValueError):
            PhasePoint(-0.5, -0.1)

    def test_plain_a4_bounded_case(self):
        curve = plain_lower_curve(-1.0, 0.0, xi30=0.0)
        assert abs(curve.a4 + 1.0 / 6.0) < 1e-14
        assert curve.a4 < 0.0

    def test_plain_a4_sign_equals_first_period_criterion(self, rng):
        """A4 < 0 exactly when the first-period quantity is negative.

        With Z0 = D0^2 and xi30 the initial vorticity, the quartic
        coefficient numerator s0^4 A4 equals
        D0^2 + xi30^2 + (2/3) lambda0 - 1/6: the plain bound is trapped
        exactly under the first-period sufficient condition.
        """
        for _ in range(50):
            lam0 = rng.uniform(-1.5, 0.9)
            D0 = rng.uniform(-0.8, 0.8)
            xi = rng.uniform(-0.8, 0.8)
            curve = plain_lower_curve(lam0 - 1.0, D0 * D0, xi)
            delta = D0 * D0 + xi * xi + (2.0 / 3.0) * lam0 - 1.0 / 6.0
            assert abs(curve.a4 * (lam0 - 1.0) ** 4 - delta) < 1e-12

    def test_irrotational_marginal_line(self):
        curve = irrotational_lower_curve(-0.75, 0.0)
        assert abs(curve.a4) < 1e-14
        ss = np.linspace(-2.0, -0.1, 50)
        assert np.max(np.abs(curve.value(ss) - (-(2.0 / 3.0) * ss - 0.5))) < 1e-12

    def test_irrotational_second_root_vs_dense_scan(self):
        curve = irrotational_lower_curve(-0.9, 0.0)
        ss = np.arange(-3.0, -0.9001, 1e-4)
        vals = curve.value(ss)
        sign_flip = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
        assert len(sign_flip) >= 1
        from coldplasma.numerics import find_root

        root = find_root(curve.value, ss[sign_flip[0]], ss[sign_flip[0] + 1], tol=1e-12)
        assert abs(curve.value(root)) < 1e-10

    def test_sigma_lower_reduces_when_fplus_zero(self, rng):
        sg = 0.8
        curve = sigma_curve(Side.LOWER, -1.2, 0.1, sg, f_plus=0.0)
        b = sg * sg
        ss = np.linspace(-2.0, -0.2, 40)
        expected = (-2.0 * ss / (1.0 + 2.0 * b) - 1.0 / (1.0 + b)
                    + curve.pow_coef * np.abs(ss) ** (2.0 * (1.0 + b)))
        assert np.max(np.abs(curve.value(ss) - expected)) < 1e-12


class TestAnchorRoots:
    def test_s1_at_unit_sigma_no_fplus(self):
        assert abs(anchor_root_S1(1.0, 0.0) + 0.75) < 1e-14

    def test_s1_zeroes_power_coefficient(self, rng):
        for _ in range(20):
            sg = rng.uniform(0.2, 1.4)
            fp = rng.uniform(0.0, 0.5)
            s1 = anchor_root_S1(sg, fp)
            curve = sigma_curve(Side.LOWER, s1, 0.0, sg, fp)
            assert abs(curve.pow_coef) < 1e-12

    def test_s2_matches_reference_d2_form(self, rng):
        for _ in range(20):
            sg = rng.uniform(0.72, 0.99)
            fp = rng.uniform(0.0, 0.5)
            b = sg * sg
            printed = (2 * b - 1) * (fp * fp * (2 * b + 1) - b * b) / (2 * b * (b - 1))
            assert abs(anchor_root_S2(sg, fp) - printed) < 1e-12

    def test_s2_marginal_zero(self):
        sg = 0.85
        b = sg * sg
        fp = np.sqrt(b * b / (2.0 * b + 1.0))
        assert abs(anchor_root_S2(sg, fp)) < 1e-14

    def test_s2_offset_from_c2_zero_anchor(self, rng):
        """S2 sits (2 sigma^2 - 1)/2 left of the anchor where the upper
        curve's power coefficient vanishes (the convention the threshold
        reproduction pins)."""
        for _ in range(20):
            sg = rng.uniform(0.72, 0.99)
            fp = rng.uniform(0.0, 0.5)
            s2 = anchor_root_S2(sg, fp)
            shifted = s2 + 0.5 * (2.0 * sg * sg - 1.0)
            if shifted >= 0.0:
                continue
            curve = sigma_curve(Side.UPPER, shifted, 0.0, sg, fp)
            assert abs(curve.pow_coef) < 1e-10

    def test_s2_domain(self):
        with pytest.raises(ValueError):
            anchor_root_S2(1.0, 0.1)
        with pytest.raises(ValueError):
            anchor_root_S2(1.3, 0.1)


class TestCriteria:
    def test_1d_trivial_cases(self):
        assert criterion_1d(0.0, 0.0).value == -1.0
        assert criterion_1d(0.0, 0.0).satisfied
        v = criterion_1d(0.0, 0.6)
        assert abs(v.value - 0.2) < 1e-15
        assert not v.satisfied
        boundary = criterion_1d(1.0, 0.0)
        assert boundary.value == 0.0
        assert not boundary.satisfied

    def test_first_period_cases(self):
        v = criterion_first_period(0.0, 0.0, 0.2)
        assert abs(v.value + 1.0 / 30.0) < 1e-15
        assert v.satisfied
        boundary = criterion_first_period(0.0, 0.0, 0.25)
        assert abs(boundary.value) < 1e-15
        assert not boundary.satisfied
        wrong_half = criterion_first_period(0.1, 0.0, -0.5)
        assert wrong_half.value < 0.0
        assert not wrong_half.satisfied

    def test_first_period_affine_3d_radial_threshold(self):
        """At rest (D0 = 0) the 3D affine condition reduces to beta < 1/12."""
        for beta in np.linspace(0.0, 0.2, 41):
            verdict = criterion_first_period(0.0, 0.0, 3.0 * beta)
            scaled = 12.0 * beta - 1.0   # 6 * Delta_minus
            assert abs(6.0 * verdict.value - scaled) < 1e-12
            if beta > 0.0:
                assert verdict.satisfied == (beta < 1.0 / 12.0)

    def test_negative_curl_rejected(self):
        with pytest.raises(ValueError):
            criterion_first_period(0.0, -0.1, 0.0)

    def test_fplus_consistency_with_orbit(self):
        """The amplitude map agrees with the orbit maximum through (0, lam/2)."""
        from coldplasma.core_dynamics import orbit_extremes

        for lam0 in (0.05, 0.2, 0.45):
            ext = orbit_extremes(0.0, 0.5 * lam0, 2)
            assert abs(f_plus_of_lambda0(lam0) - ext.F_plus) < 1e-6
