import numpy as np
import pytest

from coldplasma.chaplygin_bounds import anchor_root_S1, anchor_root_S2
from coldplasma.pulse_analysis import (
    DEFAULT_SIGMA1,
    DEFAULT_SIGMA2,
    NoFixedPointError,
    PulseScenario,
    PulseVerdict,
    classify_pulse,
    f_plus_of_lambda0,
    fixed_point,
    lambda1_map,
    lambda2_map,
    lambert_fixed_point,
)


class TestFPlus:
    def test_reference_value(self):
        assert abs(f_plus_of_lambda0(0.2) - 0.11666261901353246) < 1e-12

    def test_vanishes_at_zero(self):
        assert f_plus_of_lambda0(0.0) == 0.0
        assert f_plus_of_lambda0(1e-9) < 1e-4

    def test_monotone_increasing_on_unit_interval(self):
        lams = np.linspace(1e-3, 0.95, 60)
        vals = [f_plus_of_lambda0(x) for x in lams]
        assert np.all(np.diff(vals) > 0.0)

    def test_defined_for_negative_divergence(self):
        # crossing refreshes evaluate the map at negative divergences
        assert f_plus_of_lambda0(-0.5) > 0.0

    def test_rejects_vacuum(self):
        with pytest.raises(ValueError):
            f_plus_of_lambda0(1.0)

    def test_two_expressions_agree(self, rng):
        for _ in range(50):
            lam = rng.uniform(-1.0, 0.9)
            direct = 0.5 * ((1.0 - lam) * np.exp(lam / (1.0 - lam)) - 1.0)
            err = abs(f_plus_of_lambda0(lam) ** 2 - direct)
            assert err < 1e-13 * max(1.0, abs(direct))


class TestMaps:
    def test_lambda1_small_amplitude_limit(self):
        for sg in (0.3, 0.5032, 0.9):
            b = sg * sg
            expected = 1.0 / (2.0 * (b + 1.0))
            assert abs(lambda1_map(1e-12, sg) - expected) < 1e-9

    def test_lambda2_small_amplitude_limit(self):
        for sg in (0.8, 0.9423):
            b = sg * sg
            expected = (2.0 * b - 1.0) * (-(b * b)) / (2.0 * b * (b - 1.0)) + 1.0
            assert abs(lambda2_map(1e-12, sg) - expected) < 1e-9

    def test_two_route_identity_lambda1(self, rng):
        # relative scale: near the vacuum end the map value grows like
        # exp(lam/(1-lam)) and float64 can only pin the identity to ~1 ulp
        for _ in range(50):
            lam = rng.uniform(1e-3, 0.9)
            sg = rng.uniform(0.15, 1.4)
            route = anchor_root_S1(sg, f_plus_of_lambda0(lam)) + 1.0
            err = abs(lambda1_map(lam, sg) - route)
            assert err < 1e-10 * max(1.0, abs(route))

    def test_two_route_identity_lambda2(self, rng):
        for _ in range(50):
            lam = rng.uniform(1e-3, 0.9)
            sg = rng.uniform(0.72, 0.99)
            route = anchor_root_S2(sg, f_plus_of_lambda0(lam)) + 1.0
            err = abs(lambda2_map(lam, sg) - route)
            assert err < 1e-10 * max(1.0, abs(route))

    def test_lambda2_domain(self):
        with pytest.raises(ValueError):
            lambda2_map(0.3, 1.1)
        with pytest.raises(ValueError):
            lambda2_map(0.3, np.sqrt(0.5))


class TestFixedPoints:
    def test_lambda1_at_reference_sigma(self):
        res = fixed_point("lambda1", DEFAULT_SIGMA1)
        assert abs(res.lambda_star - 0.3058) < 5e-4
        assert res.residual < 1e-10

    def test_lambda2_at_reference_sigma(self):
        res = fixed_point("lambda2", DEFAULT_SIGMA2)
        assert abs(res.lambda_star - 0.5754) < 5e-4
        assert res.residual < 1e-10

    def test_lambda2_absent_below_sqrt_half(self):
        with pytest.raises(NoFixedPointError):
            fixed_point("lambda2", 0.5)

    def test_unknown_map_rejected(self):
        with pytest.raises(ValueError):
            fixed_point("lambda3", 0.5)

    @pytest.mark.parametrize("sigma", np.linspace(0.2, 1.35, 12))
    def test_lambert_route_matches_direct_lambda1(self, sigma):
        if abs(sigma - np.sqrt(0.5)) < 5e-2:
            pytest.skip("near the branch switch the argument degenerates")
        direct = fixed_point("lambda1", float(sigma)).lambda_star
        closed = lambert_fixed_point("lambda1", float(sigma))
        assert abs(direct - closed) < 1e-8

    @pytest.mark.parametrize("sigma", np.linspace(0.75, 0.99, 9))
    def test_lambert_route_matches_direct_lambda2(self, sigma):
        direct = fixed_point("lambda2", float(sigma)).lambda_star
        closed = lambert_fixed_point("lambda2", float(sigma))
        assert abs(direct - closed) < 1e-8


class TestThresholds:
    def test_reference_extrema(self, thresholds):
        assert abs(thresholds.lambda1 - 0.3058) < 5e-4
        assert abs(thresholds.sigma1 - 0.5032) < 5e-4
        assert abs(thresholds.lambda2 - 0.5754) < 5e-4
        assert abs(thresholds.sigma2 - 0.9423) < 5e-4

    def test_local_extremum_certificates(self, thresholds):
        l1 = lambda sg: fixed_point("lambda1", sg).lambda_star
        l2 = lambda sg: fixed_point("lambda2", sg).lambda_star
        assert l1(thresholds.sigma1) >= l1(thresholds.sigma1 + 1e-2)
        assert l1(thresholds.sigma1) >= l1(thresholds.sigma1 - 1e-2)
        assert l2(thresholds.sigma2) <= l2(thresholds.sigma2 + 1e-2)
        assert l2(thresholds.sigma2) <= l2(thresholds.sigma2 - 1e-2)

    def test_classifier_thresholds_are_half_extrema(self, thresholds):
        assert thresholds.smooth_K == 0.5 * thresholds.lambda1
        assert thresholds.blowup_K == 0.5 * thresholds.lambda2


class TestClassifier:
    def test_reference_examples(self):
        assert classify_pulse(0.15) is PulseVerdict.SMOOTH_FIRST_PERIOD
        assert classify_pulse(0.29) is PulseVerdict.BLOW_UP_FIRST_PERIOD
        assert classify_pulse(0.222) is PulseVerdict.INDETERMINATE

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            PulseScenario(0.0)
        with pytest.raises(ValueError):
            PulseScenario(0.5)
        with pytest.raises(ValueError):
            PulseScenario(float("nan"))
        assert PulseScenario(0.1).lambda0_at_origin == 0.2
