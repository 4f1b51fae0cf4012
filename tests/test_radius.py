import math

import numpy as np
import pytest
from scipy.optimize import brentq

import uavplace as up
from uavplace.errors import InfeasibleThresholdError, InputError
from uavplace.radius import RADIUS_TOL_M


def hp_radius(h, l_th, env, radio):
    """Independent high-precision contour solve for the coverage radius."""
    if up.mean_path_loss(h, 0.0, env, radio) > l_th:
        return 0.0
    f = lambda r: up.mean_path_loss(h, r, env, radio) - l_th
    return brentq(f, 1e-9, 1e6, xtol=1e-10, rtol=8.9e-16)


def ray_radius(theta_deg, l_th, env, radio):
    """Closed-form radius along a fixed-elevation ray (independent route)."""
    k = up.path_loss_constants(env, radio)
    s_db = k.delta_db * up.los_probability(theta_deg, env)
    return math.cos(math.radians(theta_deg)) * 10.0 ** ((l_th - k.offset_db - s_db) / 20.0)


class TestCoverageRadius:
    def test_reference_radius(self, urban, radio):
        assert up.coverage_radius(646.5, 100.0, urban, radio) == pytest.approx(707.0, abs=1.0)

    def test_no_coverage(self, urban, radio):
        # overhead loss at 5 km altitude is ~113 dB, far above a 60 dB budget
        assert up.mean_path_loss(5000.0, 0.0, urban, radio) > 60.0
        assert up.coverage_radius(5000.0, 60.0, urban, radio) == 0.0

    def test_derived_radius(self, urban, radio):
        r = up.coverage_radius(913.0, 103.0, urban, radio)
        assert r == pytest.approx(999.0, abs=2.0)
        assert r == pytest.approx(hp_radius(913.0, 103.0, urban, radio), abs=2 * RADIUS_TOL_M)

    def test_matches_high_precision_solve(self, urban, radio):
        rng = np.random.default_rng(23)
        for _ in range(25):
            h = rng.uniform(50.0, 2000.0)
            l_th = rng.uniform(95.0, 110.0)
            assert up.coverage_radius(h, l_th, urban, radio) == pytest.approx(
                hp_radius(h, l_th, urban, radio), abs=2 * RADIUS_TOL_M
            )

    def test_domain(self, urban, radio):
        with pytest.raises(InputError):
            up.coverage_radius(0.0, 100.0, urban, radio)

    def test_profile_matches_scalar(self, urban, radio):
        rng = np.random.default_rng(29)
        hs = rng.uniform(10.0, 3000.0, 40)
        profile = up.coverage_radius_profile(hs, 100.0, urban, radio)
        for h, r in zip(hs, profile):
            assert r == pytest.approx(up.coverage_radius(h, 100.0, urban, radio), abs=2 * RADIUS_TOL_M)

    def test_profile_validation(self, urban, radio):
        with pytest.raises(InputError):
            up.coverage_radius_profile([100.0, -1.0], 100.0, urban, radio)


class TestOptimalElevation:
    def test_urban_angle(self, urban):
        assert up.optimal_elevation(urban) == pytest.approx(42.44, abs=0.05)

    def test_threshold_invariance(self, urban, radio):
        angles = {up.optimal_pair(l, urban, radio).theta_star_deg for l in (90.0, 100.0, 110.0)}
        assert len(angles) == 1

    def test_maximizes_ray_radius(self, urban, radio):
        theta_star = up.optimal_elevation(urban)
        r_star = ray_radius(theta_star, 100.0, urban, radio)
        rng = np.random.default_rng(31)
        for _ in range(20):
            theta = rng.uniform(1.0, 89.0)
            if abs(theta - theta_star) < 0.1:
                continue
            assert ray_radius(theta, 100.0, urban, radio) <= r_star

    def test_two_peak_terrain_finds_global_peak(self, radio):
        # the gain has a local peak at 0 deg and the global one near 77.8 deg,
        # 18.5 dB higher; golden-section search alone returns about 0 deg
        env = up.Environment(a=56.94, b=0.319, eta_los_db=0.0, eta_nlos_db=34.4)
        theta_star = up.optimal_elevation(env)
        assert theta_star == pytest.approx(77.79, abs=0.01)
        radii = [ray_radius(t, 100.0, env, radio) for t in np.linspace(0.001, 89.999, 900)]
        assert ray_radius(theta_star, 100.0, env, radio) >= max(radii)


class TestOptimalPair:
    def test_pair_at_100(self, urban, radio):
        p = up.optimal_pair(100.0, urban, radio)
        assert p.theta_star_deg == pytest.approx(42.44, abs=0.05)
        assert p.h_star_m == pytest.approx(646.5, abs=1.0)
        assert p.r_star_m == pytest.approx(707.0, abs=1.0)

    def test_pair_at_103(self, urban, radio):
        p = up.optimal_pair(103.0, urban, radio)
        assert p.h_star_m == pytest.approx(913.0, abs=1.0)
        assert p.r_star_m == pytest.approx(999.0, abs=2.0)

    def test_angle_identity(self, urban, radio):
        for l_th in (95.0, 100.0, 103.0):
            p = up.optimal_pair(l_th, urban, radio)
            derived = math.degrees(math.atan2(p.h_star_m, p.r_star_m))
            assert abs(derived - p.theta_star_deg) < 1e-6

    def test_infeasible_threshold(self, urban, radio):
        for l_th in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(InfeasibleThresholdError):
                up.optimal_pair(l_th, urban, radio)

    def test_radius_consistency_at_optimum(self, urban, radio):
        for l_th in (100.0, 103.0):
            p = up.optimal_pair(l_th, urban, radio)
            assert up.coverage_radius(p.h_star_m, l_th, urban, radio) == pytest.approx(
                p.r_star_m, abs=2 * RADIUS_TOL_M
            )


class TestAltitudeBracket:
    def test_reference_bracket(self, two_classes, urban, radio):
        br = up.altitude_bracket(two_classes, urban, radio)
        assert br.h_lo_m == pytest.approx(646.5, abs=1.0)
        assert br.h_hi_m == pytest.approx(913.0, abs=1.0)

    def test_single_class_degenerate(self, urban, radio):
        c = up.QosClass.from_radio(1, 50.0, 5.5, radio)
        br = up.altitude_bracket([c], urban, radio)
        assert br.h_lo_m == br.h_hi_m

    def test_middle_class_irrelevant(self, urban, radio):
        cs = [
            up.QosClass.from_radio(1, 55.0, 1.0, radio),  # l_th 95
            up.QosClass.from_radio(2, 50.0, 1.0, radio),  # l_th 100
            up.QosClass.from_radio(3, 47.0, 1.0, radio),  # l_th 103
        ]
        br = up.altitude_bracket(cs, urban, radio)
        assert br.h_lo_m == up.optimal_pair(95.0, urban, radio).h_star_m
        assert br.h_hi_m == up.optimal_pair(103.0, urban, radio).h_star_m

    def test_propagates_infeasible(self, urban, radio):
        bad = up.QosClass.from_radio(1, 200.0, 1.0, radio)  # l_th -50
        with pytest.raises(InfeasibleThresholdError):
            up.altitude_bracket([bad], urban, radio)


def _single_peak(values, tol):
    peak = int(np.argmax(values))
    rising = all(b >= a - tol for a, b in zip(values[: peak + 1], values[1 : peak + 1]))
    falling = all(b <= a + tol for a, b in zip(values[peak:], values[peak + 1 :]))
    return rising and falling


class TestShapeProperties:
    def test_radius_unimodal_in_altitude(self, urban, radio, bracket):
        hs = np.linspace(1.0, 2.0 * bracket.h_hi_m, 200)
        for l_th in (100.0, 103.0):
            radii = up.coverage_radius_profile(hs, l_th, urban, radio)
            assert _single_peak(radii, 2 * RADIUS_TOL_M)

    def test_radius_ordering_in_threshold(self, urban, radio, bracket):
        hs = np.linspace(1.0, 2.0 * bracket.h_hi_m, 200)
        tight = up.coverage_radius_profile(hs, 100.0, urban, radio)
        loose = up.coverage_radius_profile(hs, 103.0, urban, radio)
        assert np.all(tight <= loose + 2 * RADIUS_TOL_M)

    def test_optimal_altitude_ordering(self, urban, radio):
        hs = [up.optimal_pair(l, urban, radio).h_star_m for l in (95.0, 100.0, 103.0)]
        assert hs[0] < hs[1] < hs[2]
