import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import uavplace as up
from uavplace import radius
from uavplace.channel import path_loss_constants
from uavplace.errors import InfeasibleThresholdError, InputError
from uavplace.radius import MAX_RADIUS_M, RADIUS_TOL_M

#: The urban preset and the suburban, dense-urban and high-rise terrains.
TERRAINS = (
    up.URBAN,
    up.Environment(4.88, 0.43, 0.1, 21.0),
    up.Environment(12.08, 0.11, 1.6, 23.0),
    up.Environment(27.23, 0.08, 2.3, 34.0),
)


def hp_radius(h, l_th, env, radio):
    """Independent high-precision contour solve for the coverage radius."""
    if up.mean_path_loss(h, 0.0, env, radio) > l_th:
        return 0.0
    f = lambda r: up.mean_path_loss(h, r, env, radio) - l_th
    if f(MAX_RADIUS_M) <= 0.0:
        return MAX_RADIUS_M
    return brentq(f, 0.0, MAX_RADIUS_M, xtol=1e-10, rtol=8.9e-16)


def ray_radius(theta_deg, l_th, env, radio):
    """Closed-form radius along a fixed-elevation ray (independent route)."""
    k = path_loss_constants(env, radio)
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


def assert_inverts_loss(h, l_th, r, env, radio):
    """``r`` is the loss contour ``l_th`` at altitude ``h`` to within ``RADIUS_TOL_M``."""
    if r == 0.0:
        assert up.mean_path_loss(h, 0.0, env, radio) > l_th
    elif r < MAX_RADIUS_M:
        assert up.mean_path_loss(h, max(r - RADIUS_TOL_M, 0.0), env, radio) <= l_th
        assert l_th < up.mean_path_loss(h, r + RADIUS_TOL_M, env, radio)


_altitude = st.floats(1.0, 5000.0)
_threshold = st.floats(60.0, 200.0)


@settings(max_examples=200, deadline=None)
@given(env=st.sampled_from(TERRAINS), h=_altitude, l_th=_threshold)
def test_coverage_radius_inverts_mean_path_loss(radio, env, h, l_th):
    assert_inverts_loss(h, l_th, up.coverage_radius(h, l_th, env, radio), env, radio)


@settings(max_examples=50, deadline=None)
@given(
    env=st.sampled_from(TERRAINS),
    points=st.lists(st.tuples(_altitude, _threshold), min_size=1, max_size=20),
)
def test_coverage_radius_profile_inverts_mean_path_loss(radio, env, points):
    h, l_th = (np.array(v) for v in zip(*points))
    for args in zip(h, l_th, up.coverage_radius_profile(h, l_th, env, radio)):
        assert_inverts_loss(*(float(v) for v in args), env, radio)


def test_budget_past_max_radius_gives_max_radius(radio):
    # the first budget puts the contour just past MAX_RADIUS_M, the others far
    # past it (1e308 dB, and 40 dB more than the first)
    h = np.array([1.0, 100.0, 5000.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for env in TERRAINS:
            edge = up.mean_path_loss(1.0, 1.001 * MAX_RADIUS_M, env, radio)
            l_th = np.array([edge, 1e308, edge + 40.0])
            assert list(up.coverage_radius_profile(h, l_th, env, radio)) == [MAX_RADIUS_M] * len(h)
            for args in zip(h, l_th):
                assert up.coverage_radius(*(float(v) for v in args), env, radio) == MAX_RADIUS_M


#: Terrains over the accepted domain: the ranges of the elevation property
#: below, plus a * b > 709, where exp(-b (theta - a)) overflows.
_terrain = st.one_of(
    st.tuples(st.floats(0.5, 60.0), st.floats(0.01, 1.0)),
    st.tuples(st.floats(710.0, 1000.0), st.floats(1.0, 2.0)),
).flatmap(
    lambda ab: st.builds(
        lambda eta, excess: up.Environment(*ab, eta, eta + excess),
        st.floats(0.0, 5.0),
        st.floats(0.0, 40.0),
    )
)


@settings(max_examples=100, deadline=None)
@given(env=_terrain, h=_altitude, l_th=_threshold)
def test_both_solvers_match_brentq_on_any_terrain(radio, env, h, l_th):
    expected = hp_radius(h, l_th, env, radio)
    assert up.coverage_radius(h, l_th, env, radio) == pytest.approx(expected, abs=RADIUS_TOL_M)
    (r,) = up.coverage_radius_profile([h], l_th, env, radio)
    assert r == pytest.approx(expected, abs=RADIUS_TOL_M)


@settings(max_examples=100, deadline=None)
@given(env=_terrain, h=_altitude, l_th=st.floats(60.0, 160.0), k=st.integers(-8, 8))
def test_radius_scales_with_altitude_and_budget(radio, env, h, l_th, k):
    # L(s h, s r) = L(h, r) + 20 log10 s, since the elevation angle is unchanged
    s = 2.0**k
    l_s = l_th + 20.0 * math.log10(s)
    r, r_s = up.coverage_radius(h, l_th, env, radio), up.coverage_radius(s * h, l_s, env, radio)
    assume(max(r, r_s) < MAX_RADIUS_M)
    assert r_s == pytest.approx(s * r, abs=(1.0 + s) * RADIUS_TOL_M)
    v, v_s = up.coverage_radius_profile([h, s * h], [l_th, l_s], env, radio)
    assert v_s == pytest.approx(s * v, abs=(1.0 + s) * RADIUS_TOL_M)


def test_solvers_terminate_on_edge_budgets(radio, monkeypatch):
    # table nodes, the flat cells near overhead where neighbouring F values
    # round equal, extreme altitudes, the zero edge, the MAX_RADIUS_M edge
    # and an infinite and a nan budget, with the scalar solver's Newton
    # evaluations counted
    steps, flat_cells = [], 0
    terms = radius._contour_terms
    monkeypatch.setattr(
        radius, "_contour_terms", lambda theta, env, xp=math: steps.append(xp) or terms(theta, env, xp)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for env in TERRAINS + (up.Environment(800.0, 1.0, 0.0, 20.0), up.Environment(5.0, 0.5, 3.0, 3.0)):
            _, fs, _, _ = radius._contour(env)
            nodes = [0, 1, 2, 700, 1024, len(fs) - 2, len(fs) - 1]
            flat = np.flatnonzero(np.diff(fs) == 0.0)
            flat_cells += len(flat)
            offset = path_loss_constants(env, radio).offset_db
            for h in (1e-6, 1.0, 646.5, 1e6):
                edge = up.mean_path_loss(h, 0.0, env, radio)
                budgets = [offset + 20.0 * (fs[j] + math.log10(h)) for j in [*nodes, *flat[:3], *flat[-3:]]]
                budgets += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf), math.inf, math.nan]
                budgets += [up.mean_path_loss(h, f * MAX_RADIUS_M, env, radio) for f in (0.999, 1.001)]
                profile = up.coverage_radius_profile(np.full(len(budgets), h), budgets, env, radio)
                for l_th, r_vec in zip(budgets, profile):
                    steps.clear()
                    r = up.coverage_radius(h, l_th, env, radio)
                    assert steps.count(math) <= radius.CONTOUR_NEWTON_STEPS
                    assert 0.0 <= r <= MAX_RADIUS_M and 0.0 <= r_vec <= MAX_RADIUS_M
                    assert r == pytest.approx(r_vec, rel=1e-9, abs=1e-9 * h)
                    if h <= 1e3 and not math.isnan(l_th):
                        assert_inverts_loss(h, l_th, r, env, radio)
                assert profile[-3] == 0.0 and up.coverage_radius(h, math.nan, env, radio) == 0.0
                assert profile[-4] == MAX_RADIUS_M
                assert up.coverage_radius(h, np.nextafter(edge, -np.inf), env, radio) == 0.0
            # past the table at an altitude whose square overflows
            assert up.coverage_radius(1e300, math.inf, env, radio) == MAX_RADIUS_M
    assert flat_cells > 0


def ray_gain(theta_deg, env):
    """Radius gain along a fixed-elevation ray, up to a threshold-only term."""
    theta_deg = np.asarray(theta_deg, dtype=float)
    p_los = 1.0 / (1.0 + env.a * np.exp(-env.b * (theta_deg - env.a)))
    return 20.0 * np.log10(np.cos(np.radians(theta_deg))) - (env.eta_los_db - env.eta_nlos_db) * p_los


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(0.5, 60.0),
    b=st.floats(0.01, 1.0),
    eta_los=st.floats(0.0, 5.0),
    excess=st.floats(0.0, 40.0),
)
# two peaks 0.0045 dB apart, at 0 and 59.57 deg: the best one-degree sample
# lies next to the lower one
@example(a=49.6875, b=0.6640625, eta_los=0.0, excess=6.328125)
def test_optimal_elevation_beats_fine_grid(a, b, eta_los, excess):
    env = up.Environment(a, b, eta_los, eta_los + excess)
    best_on_grid = ray_gain(np.arange(9000) * 0.01, env).max()
    assert ray_gain(up.optimal_elevation(env), env) >= best_on_grid - 1e-9


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

    def test_budget_beyond_model_range(self, urban, radio):
        # 400 dB gives r_star = 7.07e17 m, 1e308 dB overflows a plain power
        for l_th in (400.0, 1e308):
            with pytest.raises(InputError, match="coverage radius beyond"):
                up.optimal_pair(l_th, urban, radio)
        huge = up.QosClass(1, -1e308, 1.0, 1e308)
        with pytest.raises(InputError, match="coverage radius beyond"):
            up.altitude_bracket([huge], urban, radio)

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
