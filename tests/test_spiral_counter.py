import math

import numpy as np
import pytest

from coldplasma import spiral_counter
from coldplasma.chaplygin_bounds import Side, sigma_curve
from coldplasma.core_dynamics import (
    RadialProfile,
    constant_profile,
    gaussian_profile,
    orbit_extremes,
    profile_divergences,
)
from coldplasma.numerics import find_root, linspace
from coldplasma.pulse_analysis import DEFAULT_SIGMA2, f_plus_of_lambda0
from coldplasma.spiral_counter import (
    Spiral,
    build_spiral,
    count_crossing_pairs,
    count_revolutions,
    guaranteed_field_lifetime,
    lifetime,
    segment_time,
)
from references import increment


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

    def test_resting_centre_map_is_d2_only(self):
        with pytest.raises(ValueError, match="d = 2"):
            build_spiral("outer", (0.1, 0.0), None, d=3)

    def test_stop_reason_is_boundedness_loss(self, spirals_default_k01):
        _, outer = spirals_default_k01
        assert outer.stop_reason == "lower curve unbounded (C1 >= 0)"

    def test_start_below_the_axis_descends_first(self):
        # D0 < 0: the first arc is the inner spiral's descent, on the upper
        # (sigma2) family anchored at the start, and runs right to left
        sp = build_spiral("inner", (0.1, -0.2))
        first = sp.segments[0]
        assert first.lower_half and first.s_start == -0.9 and first.s_end < -0.9
        assert first.curve == sigma_curve(Side.UPPER, -0.9, 0.2 * 0.2, DEFAULT_SIGMA2,
                                          f_plus_of_lambda0(0.1))
        assert abs(first.curve.value(sp.crossings[0])) < 1e-12
        assert [seg.lower_half for seg in sp.segments[:3]] == [True, False, True]

    def test_ascent_that_reaches_the_vacuum_line(self):
        # D0 > 0 with F+ = 0.6: the upper curve stays positive up to s = -1e-9
        sp = build_spiral("outer", (-0.5, 0.3), 0.6)
        assert sp.stop_reason == "ascending arc reaches the vacuum line s = 0"
        assert sp.segments == [] and sp.crossings == []
        assert sigma_curve(Side.UPPER, -1.5, 0.3 * 0.3, DEFAULT_SIGMA2, 0.6).value(-1e-9) > 0.0


def _scanned_root(curve, a, b):
    """The reference for ``_arc_root``: the first of a dense grid of points
    from a to b (even, and geometric in the distance from a) where Z <= 0,
    and Brent on the cell that ends there."""
    if curve.value(a) <= 0.0:
        return None
    t = np.union1d(np.linspace(0.0, 1.0, 20001), np.geomspace(1e-12, 1.0, 20001))
    grid = a + (b - a) * t
    grid[-1] = b
    below = np.nonzero(curve.value(grid) <= 0.0)[0]
    if len(below) == 0:
        return None
    i = below[0]
    return find_root(curve.value, grid[i - 1], grid[i], tol=1e-14)


def _both_ways(curve):
    """(a, b) of the walk from the curve's anchor down to -1e4 and up to -1e-9,
    the ends ``build_spiral`` gives a descending and an ascending arc."""
    s0 = curve.s0
    nudge = 1e-11 * max(1.0, abs(s0))
    return (s0 - nudge, -1e4), (s0 + nudge, -1e-9)


def _assert_same_root(curve, a, b):
    got, want = spiral_counter._arc_root(curve, a, b), _scanned_root(curve, a, b)
    assert (got is None) == (want is None), (curve, a, b, got, want)
    if want is not None:
        assert abs(got - want) <= 1e-12 * abs(want), (curve, a, b, got, want)
    return want


class TestArcRoot:
    """``_arc_root`` walks to the first root, descending and ascending, where
    the reference scans every point of a dense grid."""

    def test_seeded_anchors_of_both_families(self, rng):
        found = [0, 0]
        for _ in range(300):
            # upper sigmas on both sides of 1/sqrt(2) and of 1: exponents
            # 2 (1 - sigma**2) above 1, in (0, 1) and below 0
            side = Side.LOWER if rng.random() < 0.5 else Side.UPPER
            sigma = rng.uniform(0.2, 1.2) if side is Side.LOWER else rng.choice(
                [rng.uniform(0.2, 0.7), rng.uniform(0.72, 0.99), rng.uniform(1.01, 1.4)])
            s0 = -(10.0 ** rng.uniform(-2.0, 0.5))
            curve = sigma_curve(side, s0, rng.uniform(0.0, 2.0), sigma, rng.uniform(0.0, 0.8))
            for k, (a, b) in enumerate(_both_ways(curve)):
                found[k] += _assert_same_root(curve, a, b) is not None
        assert min(found) > 50, found

    def test_every_arc_of_the_readme_spirals(self, spirals_default_k01, spirals_figure_k01):
        for spiral in (*spirals_default_k01, *spirals_figure_k01):
            for seg in spiral.segments:
                down, up = _both_ways(seg.curve)
                for a, b in (down, up):
                    _assert_same_root(seg.curve, a, b)
                assert spiral_counter._arc_root(seg.curve, *(down if seg.lower_half else up)) == seg.s_end


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

    def test_segment_time_against_high_precision(self, spirals_default_k01, count_integrand):
        # first inner arcs from (0.2, 0) and (1e-3, 0); frozen from mpmath 1.3
        # at 60 digits: the curve's coefficients taken exactly, its roots by
        # findroot, each half integrated in u with s = end +/- u**2 by
        # Gauss-Legendre; a 45-digit rerun agrees.  Each is met by one
        # 21-point Gauss-Kronrod panel per half.
        inner, _ = spirals_default_k01
        tiny = build_spiral("inner", (1e-3, 0.0), max_rev=2).segments[0]
        evals = count_integrand(spiral_counter)
        assert abs(segment_time(inner.segments[0]) - 3.212684435524116) < 1e-12
        assert abs(segment_time(tiny) - 3.141593946969576) < 1e-12
        assert evals == [42, 42]

    def test_integrand_is_the_increment_from_its_end(self, spirals_default_k01, monkeypatch):
        # on every node of a lower-family (sigma1) and an upper-family (sigma2)
        # arc, the integrand reads Z_end + increment(curve, end, h) to the bit
        _, outer = spirals_default_k01
        nodes, orig = [], spiral_counter.integrate_singular

        def recorded(f, a, b):
            def g(end, h):
                nodes.append((end, h, f(end, h)))
                return nodes[-1][2]

            return orig(g, a, b)

        monkeypatch.setattr(spiral_counter, "integrate_singular", recorded)
        for seg in outer.segments[:2]:
            nodes.clear()
            segment_time(seg)
            curve, z_end = seg.curve, {seg.s_start: seg.curve.Z0, seg.s_end: 0.0}
            assert len(nodes) >= 42 and {end for end, _, _ in nodes} == set(z_end)
            for end, h, got in nodes:
                z = z_end[end] + increment(curve, end, h)
                assert got == 1.0 / (abs(end + h) * math.sqrt(z)), (seg, end, h)
        assert [seg.lower_half for seg in outer.segments[:2]] == [True, False]

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
        assert res.r_at_min is None

    def test_gaussian_center_only_grid(self, spirals_default_k01):
        inner, outer = spirals_default_k01
        est = lifetime(inner, outer)
        res = guaranteed_field_lifetime(gaussian_profile(0.1), [0.0])
        assert res.r_at_min == 0.0
        assert abs(res.T_star - est.T_lower) < 1e-9

    @pytest.mark.parametrize("d, G, F", [(3, 0.05, 0.0), (2, 0.1, 0.05)])
    def test_centre_takes_its_orbits_f_plus(self, d, G, F):
        # the d = 2 resting-centre map gives F+ = 0.083814 (d = 3) and 0.116663
        # (a moving centre), where the orbits have 0.054762 and 0.129732; the
        # second lies below the orbit's max |F|, so its bound on J fails.
        # With them the centre reported T_lower = 6.4060 and 3.5996
        profile = RadialProfile(G0=lambda r: G * math.exp(-r * r),
                                F0=lambda r: F * math.exp(-r * r), d=d)
        fp = orbit_extremes(F, G, d).F_plus
        start = profile_divergences(profile, 0.0)
        inner, outer = (build_spiral(kind, start, fp, d=d) for kind in ("inner", "outer"))
        res = guaranteed_field_lifetime(profile, [0.0])
        assert res.per_radius == ((0.0, lifetime(inner, outer).T_lower),)
        assert res.T_star == 0.0

    def test_grid_refinement_never_increases(self):
        profile = gaussian_profile(0.1)
        coarse = guaranteed_field_lifetime(profile, [0.0, 0.8])
        fine = guaranteed_field_lifetime(profile, [0.0, 0.4, 0.8, 1.2])
        assert fine.T_star <= coarse.T_star + 1e-12

    def test_readme_sweep_per_radius(self):
        # sweep --k 0.222 --r-min 0 --r-max 3 --n-r 16: the outer and inner
        # counts and stop reasons per radius, and T_lower against the values
        # the spirals gave with Brent's roots
        low, ins, cap = ("lower curve unbounded (C1 >= 0)", "no further axis crossing on this arc",
                         "reached max_rev = 16")
        want = [
            (0, 0, low, ins, 0.0), (0, 0, low, ins, 0.0), (0, 0, low, ins, 0.0),
            (1, 0, low, ins, 0.0), (1, 0, low, ins, 0.0),
            (0, 0, "equilibrium start", "equilibrium start", 0.0), (4, 0, low, ins, 0.0),
            (6, 2, low, ins, 12.564358687407088), (9, 8, low, ins, 50.263698133247416),
            (14, 15, low, cap, 87.96473045083599), (15, 15, cap, cap, 94.24842035141678),
            (15, 15, cap, cap, 94.24810627242093), (15, 15, cap, cap, 94.24788134794804),
            (15, 15, cap, cap, 94.24780246178291), (15, 15, cap, cap, 94.2477835620213),
            (15, 15, cap, cap, 94.24778015517364),
        ]
        profile, grid = gaussian_profile(0.222), linspace(0.0, 3.0, 16)
        res = guaranteed_field_lifetime(profile, grid)
        assert [r0 for r0, _ in res.per_radius] == grid
        for r0, (_, t_lower), (n_out, n_in, why_out, why_in, t_want) in zip(grid, res.per_radius,
                                                                         want):
            fp = None if r0 == 0.0 else orbit_extremes(profile.F0(r0), profile.G0(r0), 2).F_plus
            start = profile_divergences(profile, r0)
            outer, inner = (build_spiral(kind, start, fp) for kind in ("outer", "inner"))
            assert (count_revolutions(outer), count_revolutions(inner)) == (n_out, n_in), r0
            assert (outer.stop_reason, inner.stop_reason) == (why_out, why_in), r0
            assert abs(t_lower - t_want) <= 1e-12 * t_want, (r0, t_lower, t_want)
        assert (res.T_star, res.r_at_min) == (0.0, 0.0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            guaranteed_field_lifetime(gaussian_profile(0.1), [])


@pytest.mark.xfail(strict=True, reason=(
    "Z = lin_a s + lin_b + C |s|**p sums O(1) terms into a value of order 1e-15 at an arc's "
    "nudged anchor and near its root, so on small orbits rounding decides the walk's first "
    "test and the root: (outer, inner) certify (15, 5) at r0 = 3.2, (0, 1), (1, 0) and (0, 0) "
    "at 3.4, 3.6 and 3.8, where Brent's roots gave (15, 15) at 3.2 and (0, 0) at the rest"))
def test_small_orbits_certify_as_the_wider_ones():
    # the README pulse: r0 = 2.0 to 3.0 (|lambda0| >= 4.4e-4) certify 15
    # revolutions on both spirals, and so must the smaller orbits further out
    profile = gaussian_profile(0.222)
    counts = {}
    for r0 in (3.2, 3.4, 3.6, 3.8):
        fp = orbit_extremes(profile.F0(r0), profile.G0(r0), 2).F_plus
        start = profile_divergences(profile, r0)
        counts[r0] = tuple(count_revolutions(build_spiral(kind, start, fp))
                           for kind in ("outer", "inner"))
    assert counts == {r0: (15, 15) for r0 in counts}
