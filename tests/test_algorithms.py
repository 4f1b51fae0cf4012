import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import uavplace as up
from uavplace import algorithms
from uavplace.algorithms import MAX_GRID_POINTS, mean_covered_density, squared_radius_slope
from uavplace.errors import InputError
from uavplace.radius import RADIUS_TOL_M, _golden_max

from test_radius import TERRAINS


def hp_radius(h, l_th, env, radio):
    f = lambda r: up.mean_path_loss(h, r, env, radio) - l_th
    return brentq(f, 1e-9, 1e6, xtol=1e-10, rtol=8.9e-16)


def seeded_users(rng, n, box_m=3000.0, class_ids=(1, 2)):
    return [
        up.User(float(x), float(y), int(c))
        for x, y, c in zip(
            rng.uniform(0, box_m, n),
            rng.uniform(0, box_m, n),
            rng.choice(class_ids, n),
        )
    ]


class TestAltitudeGrid:
    def test_step_convention(self):
        grid = up.AltitudeGrid(646.5, 913.0, 9)
        assert grid.step_m == pytest.approx((913.0 - 646.5) / 9.0, rel=1e-12)
        alts = grid.altitudes()
        assert len(alts) == 10
        assert alts[0] == 646.5 and alts[-1] == 913.0
        diffs = np.diff(alts)
        assert np.allclose(diffs, grid.step_m, rtol=1e-9)

    def test_degenerate(self):
        grid = up.AltitudeGrid(700.0, 700.0, 9)
        assert grid.altitudes() == (700.0,)
        assert grid.step_m == 0.0

    def test_validation(self):
        with pytest.raises(InputError):
            up.AltitudeGrid(700.0, 600.0, 9)
        with pytest.raises(InputError):
            up.AltitudeGrid(600.0, 700.0, 0)
        with pytest.raises(InputError):
            up.AltitudeGrid(0.0, 700.0, 9)
        with pytest.raises(InputError):
            up.AltitudeGrid(600.0, 700.0, MAX_GRID_POINTS + 1)


class TestRadiusSlope:
    def test_matches_finite_difference(self, two_classes, urban, radio, bracket):
        # centered finite difference of lam * R^2(h), radii solved far below
        # the production tolerance so the difference quotient is clean
        rng = np.random.default_rng(42)
        step = 0.1
        for c in two_classes:
            for h in rng.uniform(bracket.h_lo_m + 1.0, bracket.h_hi_m - 1.0, 20):
                r = hp_radius(h, c.l_th_db, urban, radio)
                analytic = c.lambda_per_km2 * squared_radius_slope(h, r, urban)
                rp = hp_radius(h + step, c.l_th_db, urban, radio)
                rm = hp_radius(h - step, c.l_th_db, urban, radio)
                fd = c.lambda_per_km2 * (rp * rp - rm * rm) / (2.0 * step)
                assert abs(analytic - fd) <= 0.01 * abs(fd)

    def test_empty_disc(self, urban):
        assert squared_radius_slope(500.0, 0.0, urban) == 0.0


class TestMwaAltitude:
    def test_two_routes_agree(self, two_classes, urban, radio, bracket):
        h_root = up.mwa_altitude(two_classes, urban, radio, bracket)
        h_direct = _golden_max(
            lambda h: mean_covered_density(h, two_classes, urban, radio),
            bracket.h_lo_m,
            bracket.h_hi_m,
            1e-4,
        )
        assert abs(h_root - h_direct) <= 1.0

    def test_single_class(self, urban, radio):
        c = up.QosClass.from_radio(1, 50.0, 5.5, radio)
        br = up.altitude_bracket([c], urban, radio)
        h = up.mwa_altitude([c], urban, radio, br)
        assert h == pytest.approx(up.optimal_pair(100.0, urban, radio).h_star_m, abs=0.5)

    def test_limiting_densities(self, urban, radio, bracket):
        c1 = up.QosClass.from_radio(1, 50.0, 5.5, radio)
        c2 = up.QosClass.from_radio(2, 47.0, 5.5, radio)
        lam2_zero = (c1, up.QosClass.from_radio(2, 47.0, 0.0, radio))
        lam1_zero = (up.QosClass.from_radio(1, 50.0, 0.0, radio), c2)
        assert up.mwa_altitude(lam2_zero, urban, radio, bracket) == pytest.approx(
            bracket.h_lo_m, abs=0.5
        )
        assert up.mwa_altitude(lam1_zero, urban, radio, bracket) == pytest.approx(
            bracket.h_hi_m, abs=0.5
        )

    def test_interior_for_equal_densities(self, two_classes, urban, radio, bracket):
        h = up.mwa_altitude(two_classes, urban, radio, bracket)
        assert bracket.h_lo_m < h < bracket.h_hi_m

    def test_refined_roots_match_brentq(self, urban, radio):
        # every sign change of the scan, refined by Illinois, lies within the
        # bracket tolerance of an independent root of the same slope function
        rng = np.random.default_rng(71)
        roots = 0
        for _ in range(12):
            k = int(rng.integers(2, 4))
            gammas, lams = rng.uniform(42.0, 54.0, k), rng.uniform(0.5, 8.0, k)
            cs = up.sort_classes(
                up.QosClass.from_radio(i + 1, g, lam, radio)
                for i, (g, lam) in enumerate(zip(gammas, lams))
            )
            br = up.altitude_bracket(cs, urban, radio)
            f = lambda h: algorithms._area_slope(h, cs, urban, radio)
            hs = np.linspace(br.h_lo_m, br.h_hi_m, algorithms.ALTITUDE_SCAN_POINTS)
            slope = [f(h) for h in hs]
            for a, b, fa, fb in zip(hs[:-1], hs[1:], slope[:-1], slope[1:]):
                if fa * fb < 0.0:
                    tol = algorithms.ALTITUDE_ROOT_TOL_M
                    root = algorithms._illinois_root(f, a, b, fa, fb, tol)
                    assert abs(root - brentq(f, a, b, xtol=1e-9)) <= tol
                    roots += 1
        assert roots >= 12

    def test_requires_positive_density(self, urban, radio, bracket):
        cs = (
            up.QosClass.from_radio(1, 50.0, 0.0, radio),
            up.QosClass.from_radio(2, 47.0, 0.0, radio),
        )
        with pytest.raises(InputError):
            up.mwa_altitude(cs, urban, radio, bracket)


class TestExhaustiveSearch:
    def test_single_class_all_algorithms_coincide(self, urban, radio):
        c = up.QosClass.from_radio(1, 50.0, 5.5, radio)
        h_star = up.optimal_pair(100.0, urban, radio).h_star_m
        users = seeded_users(np.random.default_rng(61), 20, class_ids=(1,))
        grid = up.AltitudeGrid(h_star, h_star, 1)
        es = up.exhaustive_search(users, [c], urban, radio, grid)
        mwa = up.mwa_place(users, [c], urban, radio)
        lq = up.lq_place(users, [c], urban, radio)
        assert es.covered_count == mwa.covered_count == lq.covered_count

    def test_beats_endpoint_placements(self, two_classes, urban, radio, bracket):
        users = seeded_users(np.random.default_rng(67), 40)
        grid = up.AltitudeGrid(bracket.h_lo_m, bracket.h_hi_m, 9)
        es = up.exhaustive_search(users, two_classes, urban, radio, grid)
        for h in (bracket.h_lo_m, bracket.h_hi_m):
            radii = {
                c.id: up.coverage_radius(h, c.l_th_db, urban, radio) for c in two_classes
            }
            assert es.covered_count >= up.solve_exact(users, radii).covered_count

    def test_dominates_lq(self, two_classes, urban, radio, bracket):
        # the grid contains the baseline altitude as an endpoint, and the
        # baseline evaluates smaller-or-equal radii there
        grid = up.AltitudeGrid(bracket.h_lo_m, bracket.h_hi_m, 9)
        rng = np.random.default_rng(71)
        for _ in range(5):
            users = seeded_users(rng, 50)
            es = up.exhaustive_search(users, two_classes, urban, radio, grid)
            for strict in (False, True):
                lq = up.lq_place(users, two_classes, urban, radio, strict=strict)
                assert es.covered_count >= lq.covered_count

    def test_grid_refinement_never_hurts(self, two_classes, urban, radio, bracket):
        # doubling n_points nests the altitude set, so the count cannot drop
        rng = np.random.default_rng(73)
        users = seeded_users(rng, 40)
        counts = {}
        for n_points in (1, 2, 9, 18):
            grid = up.AltitudeGrid(bracket.h_lo_m, bracket.h_hi_m, n_points)
            counts[n_points] = up.exhaustive_search(
                users, two_classes, urban, radio, grid
            ).covered_count
        assert counts[2] >= counts[1]
        assert counts[18] >= counts[9]

    def test_tie_breaks_to_lower_altitude(self, two_classes, urban, radio):
        # one user at the origin is covered from every grid altitude
        users = [up.User(0.0, 0.0, 1)]
        grid = up.AltitudeGrid(646.5, 913.0, 9)
        es = up.exhaustive_search(users, two_classes, urban, radio, grid)
        assert es.covered_count == 1
        assert es.h_m == 646.5

    def test_result_invariants(self, two_classes, urban, radio, bracket):
        users = seeded_users(np.random.default_rng(79), 30)
        grid = up.AltitudeGrid(bracket.h_lo_m, bracket.h_hi_m, 9)
        for res in (
            up.exhaustive_search(users, two_classes, urban, radio, grid),
            up.mwa_place(users, two_classes, urban, radio),
        ):
            assert res.covered_count == sum(res.per_class_covered.values())
            assert bracket.h_lo_m <= res.h_m <= bracket.h_hi_m
            assert set(res.radii_used) == {1, 2}

    def test_empty_users(self, two_classes, urban, radio, bracket):
        grid = up.AltitudeGrid(bracket.h_lo_m, bracket.h_hi_m, 9)
        es = up.exhaustive_search([], two_classes, urban, radio, grid)
        assert es.covered_count == 0 and es.per_class_covered == {1: 0, 2: 0}

    def test_one_contour_solve_for_all_classes(self, urban, radio, monkeypatch):
        calls = []

        def counting_profile(h_values, l_th_db, env, radio):
            calls.append(len(h_values))
            return up.coverage_radius_profile(h_values, l_th_db, env, radio)

        monkeypatch.setattr(algorithms, "coverage_radius_profile", counting_profile)
        classes = [up.QosClass.from_radio(i, g, 0.5, radio) for i, g in enumerate((53.0, 50.0, 47.0, 44.0), 1)]
        br = up.altitude_bracket(classes, urban, radio)
        users = seeded_users(np.random.default_rng(79), 20, class_ids=(1, 2, 3, 4))
        up.exhaustive_search(users, classes, urban, radio, up.AltitudeGrid(br.h_lo_m, br.h_hi_m, 9))
        assert calls == [4 * 10]

    def test_runtime_scales_with_grid(self, two_classes, urban, radio, bracket):
        users = seeded_users(np.random.default_rng(83), 120)
        full_grid = up.AltitudeGrid(bracket.h_lo_m, bracket.h_hi_m, 9)
        # the 1-step grid evaluates just the two endpoints, whose average is a
        # fair per-altitude cost estimate (radii grow with altitude)
        single = up.AltitudeGrid(bracket.h_lo_m, bracket.h_hi_m, 1)

        def median_runtime(grid, reps=5):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                up.exhaustive_search(users, two_classes, urban, radio, grid)
                times.append(time.perf_counter() - t0)
            return float(np.median(times))

        n_alts = len(full_grid.altitudes())
        per_altitude = median_runtime(single) / len(single.altitudes())
        ratio = median_runtime(full_grid) / (n_alts * per_altitude)
        assert 0.5 <= ratio <= 2.0


@settings(max_examples=30, deadline=None)
@given(
    env=st.sampled_from(TERRAINS),
    thresholds=st.lists(st.floats(80.0, 120.0), min_size=2, max_size=4),
    hs=st.lists(st.floats(10.0, 3000.0), min_size=1, max_size=12),
)
def test_radius_table_matches_coverage_radius(radio, env, thresholds, hs):
    classes = [up.QosClass(i, 0.0, 1.0, l_th) for i, l_th in enumerate(thresholds)]
    table = algorithms._radius_table(hs, classes, env, radio)
    assert table.shape == (len(classes), len(hs))
    for c, row in zip(classes, table):
        for h, r in zip(hs, row):
            assert r == pytest.approx(up.coverage_radius(h, c.l_th_db, env, radio), abs=2 * RADIUS_TOL_M)


class TestMwaPlace:
    def test_one_user(self, two_classes, urban, radio):
        res = up.mwa_place([up.User(1500.0, 1500.0, 2)], two_classes, urban, radio)
        assert res.radii_used[2] > 0.0
        assert res.covered_count == 1

    def test_equals_es_on_its_own_altitude(self, two_classes, urban, radio, bracket):
        users = seeded_users(np.random.default_rng(89), 40)
        mwa = up.mwa_place(users, two_classes, urban, radio)
        grid = up.AltitudeGrid(mwa.h_m, mwa.h_m, 1)
        es = up.exhaustive_search(users, two_classes, urban, radio, grid)
        assert es.covered_count == mwa.covered_count


class TestLqPlace:
    def test_reference_geometry(self, two_classes, urban, radio):
        users = [up.User(1500.0, 1500.0, 1)]
        strict = up.lq_place(users, two_classes, urban, radio, strict=True)
        assert strict.h_m == pytest.approx(646.5, abs=1.0)
        assert strict.radii_used[1] == pytest.approx(707.0, abs=1.0)
        assert strict.radii_used[2] == strict.radii_used[1]
        fair = up.lq_place(users, two_classes, urban, radio)
        assert fair.radii_used[1] == pytest.approx(707.0, abs=1.0)
        assert fair.radii_used[2] > fair.radii_used[1]

    def test_strict_never_exceeds_fair(self, two_classes, urban, radio):
        rng = np.random.default_rng(97)
        for _ in range(8):
            users = seeded_users(rng, 30)
            fair = up.lq_place(users, two_classes, urban, radio)
            strict = up.lq_place(users, two_classes, urban, radio, strict=True)
            assert strict.covered_count <= fair.covered_count
            assert strict.h_m == fair.h_m
