import numpy as np
import pytest

from coldplasma.core_dynamics import constant_profile, gaussian_profile
from coldplasma.spiral_counter import (
    Spiral,
    build_spiral,
    count_crossing_pairs,
    count_revolutions,
    guaranteed_field_lifetime,
    lifetime,
    segment_time,
)


class TestBuildSpiral:
    def test_equilibrium_start_is_empty(self):
        sp = build_spiral("outer", (0.0, 0.0))
        assert sp.segments == []
        assert sp.stop_reason == "equilibrium start"

    def test_crossings_are_verified_roots(self, spirals_default_k01):
        inner, outer = spirals_default_k01
        for sp in (inner, outer):
            for seg, crossing in zip(sp.segments, sp.crossings):
                assert abs(seg.curve.value(crossing)) < 1e-10

    def test_segments_alternate_halves(self, spirals_figure_k01):
        inner, outer = spirals_figure_k01
        for sp in (inner, outer):
            halves = [seg.lower_half for seg in sp.segments]
            assert all(a != b for a, b in zip(halves, halves[1:]))

    def test_upper_segments_increase_s(self, spirals_figure_k01):
        _, outer = spirals_figure_k01
        for seg in outer.segments:
            if seg.lower_half:
                assert seg.s_end < seg.s_start
            else:
                assert seg.s_end > seg.s_start

    def test_crossing_signs_alternate(self, spirals_figure_k01):
        inner, outer = spirals_figure_k01
        for sp in (inner, outer):
            signs = np.sign(sp.crossings_lambda)
            assert all(a != b for a, b in zip(signs, signs[1:]))

    def test_deterministic(self):
        a = build_spiral("outer", (0.15, 0.0))
        b = build_spiral("outer", (0.15, 0.0))
        assert a.crossings == b.crossings
        assert a.stop_reason == b.stop_reason

    def test_inner_enclosed_by_outer(self, spirals_figure_k01):
        inner, outer = spirals_figure_k01
        for li, lo in zip(inner.crossings_lambda, outer.crossings_lambda):
            assert abs(li) <= abs(lo) + 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_spiral("sideways", (0.1, 0.0))
        with pytest.raises(ValueError):
            build_spiral("outer", (1.2, 0.0))

    def test_stop_reason_is_boundedness_loss(self, spirals_default_k01):
        _, outer = spirals_default_k01
        assert outer.stop_reason == "lower curve unbounded (C1 >= 0)"


class TestCounting:
    def test_pair_rule(self):
        assert count_crossing_pairs([]) == 0
        assert count_crossing_pairs([-0.3]) == 0
        assert count_crossing_pairs([-0.3, 0.2]) == 1
        assert count_crossing_pairs([-0.3, 0.2, -0.4]) == 1
        assert count_crossing_pairs([-0.3, 0.2, -0.4, 0.5]) == 2
        assert count_crossing_pairs([0.2, -0.3, 0.25]) == 1

    def test_single_left_crossing_not_a_revolution(self):
        """A start below the axis reaching only one crossing certifies nothing."""
        sp = Spiral("outer", -0.3, -0.1, 2, (0.5, 0.9), crossings=[-1.3])
        assert count_revolutions(sp) == 0

    def test_two_crossings_from_axis_start_is_one_revolution(self):
        sp = Spiral("outer", 0.2, 0.0, 2, (0.5, 0.9), crossings=[-1.25, -0.78])
        assert count_revolutions(sp) == 1

    def test_default_k01_counts(self, spirals_default_k01):
        inner, outer = spirals_default_k01
        assert count_revolutions(outer) == 1
        assert count_revolutions(inner) >= 1


class TestLifetime:
    def test_tiny_amplitude_revolution_takes_2pi(self):
        inner = build_spiral("inner", (1e-3, 0.0), max_rev=1)
        outer = build_spiral("outer", (1e-3, 0.0), max_rev=1)
        est = lifetime(inner, outer)
        assert est.revolutions == 1
        assert abs(est.T_lower - 2.0 * np.pi) < 1e-2
        assert abs(est.T_upper - 2.0 * np.pi) < 1e-2

    def test_bracket_is_ordered(self, spirals_default_k01):
        inner, outer = spirals_default_k01
        est = lifetime(inner, outer)
        assert 0.0 < est.T_lower <= est.T_upper

    def test_segment_time_positive(self, spirals_default_k01):
        inner, _ = spirals_default_k01
        for seg in inner.segments[:4]:
            t = segment_time(seg)
            assert 0.0 < t < 10.0

    def test_segment_time_against_high_precision(self, spirals_default_k01):
        # first inner arcs from (0.2, 0) and (1e-3, 0); frozen from mpmath 1.3
        # at 60 digits: the curve's coefficients taken exactly, its roots by
        # findroot, each half integrated in u with s = end +/- u**2 by
        # Gauss-Legendre; a 45-digit rerun agrees
        inner, _ = spirals_default_k01
        assert abs(segment_time(inner.segments[0]) - 3.212684435524116) < 1e-12
        tiny = build_spiral("inner", (1e-3, 0.0), max_rev=2).segments[0]
        assert abs(segment_time(tiny) - 3.141593946969576) < 1e-12

    def test_mismatched_starts_rejected(self):
        a = build_spiral("inner", (0.1, 0.0), max_rev=1)
        b = build_spiral("outer", (0.12, 0.0), max_rev=1)
        with pytest.raises(ValueError):
            lifetime(a, b)

    def test_zero_revolutions_gives_zero_estimate(self):
        # a start well past the certification threshold cannot be bounded below
        inner = build_spiral("inner", (0.55, 0.0), max_rev=2)
        outer = build_spiral("outer", (0.55, 0.0), max_rev=2)
        est = lifetime(inner, outer)
        assert est.revolutions == 0
        assert est.T_lower == est.T_upper == 0.0


class TestFieldLifetime:
    def test_zero_profile_is_uncapped(self):
        profile = constant_profile(0.0, 0.0, 2)
        res = guaranteed_field_lifetime(profile, [0.0, 0.5, 1.0])
        assert np.isinf(res.T_star)

    def test_gaussian_center_only_grid(self, spirals_default_k01):
        inner, outer = spirals_default_k01
        est = lifetime(inner, outer)
        res = guaranteed_field_lifetime(gaussian_profile(0.1), [0.0])
        assert res.r_at_min == 0.0
        assert abs(res.T_star - est.T_lower) < 1e-9

    def test_grid_refinement_never_increases(self):
        profile = gaussian_profile(0.1)
        coarse = guaranteed_field_lifetime(profile, [0.0, 0.8])
        fine = guaranteed_field_lifetime(profile, [0.0, 0.4, 0.8, 1.2])
        assert fine.T_star <= coarse.T_star + 1e-12

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            guaranteed_field_lifetime(gaussian_profile(0.1), [])


class TestPolyline:
    def test_polyline_starts_at_start_point(self, spirals_figure_k01):
        _, outer = spirals_figure_k01
        lam, dv = outer.polyline(50)
        assert abs(lam[0] - 0.1) < 1e-12
        assert abs(dv[0]) < 1e-12

    def test_polyline_segment_count(self, spirals_figure_k01):
        _, outer = spirals_figure_k01
        lam, dv = outer.polyline(60)
        assert len(lam) == len(dv) == 60 * len(outer.segments)
