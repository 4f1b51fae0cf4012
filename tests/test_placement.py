import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uavplace as up
from oracles import grid_oracle, grid_oracle_brute
from uavplace import placement
from uavplace.errors import InputError
from uavplace.placement import _pairwise_intersections, _user_arrays


def random_instance(rng, n, box=1000.0, r_lo=100.0, r_hi=500.0):
    users = [
        up.User(float(x), float(y), int(c))
        for x, y, c in zip(
            rng.uniform(0, box, n), rng.uniform(0, box, n), rng.integers(1, 3, n)
        )
    ]
    radius_map = {1: float(rng.uniform(r_lo, r_hi)), 2: float(rng.uniform(r_lo, r_hi))}
    return users, radius_map


class TestEvaluateCenter:
    def test_lone_user(self):
        sol = up.evaluate_center(10.0, -3.0, [up.User(10.0, -3.0, 1)], {1: 5.0})
        assert sol.covered_count == 1
        assert sol.covered_flags == (True,)

    def test_two_users_inside(self):
        users = [up.User(0.0, 0.0, 1), up.User(100.0, 0.0, 1)]
        sol = up.evaluate_center(50.0, 0.0, users, {1: 60.0})
        assert sol.covered_count == 2

    def test_two_users_outside(self):
        users = [up.User(0.0, 0.0, 1), up.User(100.0, 0.0, 1)]
        sol = up.evaluate_center(50.0, 0.0, users, {1: 40.0})
        assert sol.covered_count == 0

    def test_unknown_class(self):
        with pytest.raises(InputError):
            up.evaluate_center(0.0, 0.0, [up.User(0.0, 0.0, 9)], {1: 10.0})

    def test_bad_radius(self):
        with pytest.raises(InputError):
            up.evaluate_center(0.0, 0.0, [up.User(0.0, 0.0, 1)], {1: -1.0})
        with pytest.raises(InputError):
            up.evaluate_center(0.0, 0.0, [up.User(0.0, 0.0, 1)], {1: math.inf})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_position(self, bad):
        users = [up.User(0.0, 0.0, 1), up.User(bad, 5.0, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="user 1 has non-finite"):
                up.evaluate_center(0.0, 0.0, users, {1: 10.0})
            with pytest.raises(InputError, match="user 1 has non-finite"):
                up.solve_exact(users, {1: 10.0})

    def test_zero_radius_covers_colocated_only(self):
        users = [up.User(0.0, 0.0, 1), up.User(0.1, 0.0, 1)]
        sol = up.evaluate_center(0.0, 0.0, users, {1: 0.0})
        assert sol.covered_flags == (True, False)


def intersections(c1, r1, c2, r2):
    return _pairwise_intersections(np.array([c1, c2], dtype=float), np.array([r1, r2], dtype=float))


class TestCircleIntersections:
    def test_external_tangency(self):
        assert intersections((0.0, 0.0), 1.0, (2.0, 0.0), 1.0).tolist() == [[1.0, 0.0]] * 2

    def test_two_points(self):
        pts = intersections((0.0, 0.0), 1.0, (1.0, 0.0), 1.0)
        assert len(pts) == 2
        ys = sorted(pts[:, 1])
        assert pts[:, 0] == pytest.approx(0.5)
        assert ys[0] == pytest.approx(-math.sqrt(3.0) / 2.0)
        assert ys[1] == pytest.approx(math.sqrt(3.0) / 2.0)
        for x, y in pts:  # substitution into both circle equations
            assert x * x + y * y == pytest.approx(1.0, abs=1e-12)
            assert (x - 1.0) ** 2 + y * y == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        assert intersections((0.0, 0.0), 1.0, (5.0, 0.0), 1.0).shape == (0, 2)

    def test_concentric(self):
        assert intersections((0.0, 0.0), 1.0, (0.0, 0.0), 2.0).shape == (0, 2)

    def test_contained(self):
        assert intersections((0.0, 0.0), 5.0, (1.0, 0.0), 1.0).shape == (0, 2)

    def test_negative_radius(self):
        users = [up.User(0.0, 0.0, 1), up.User(1.0, 0.0, 2)]
        with pytest.raises(InputError):
            _user_arrays(users, {1: -1.0, 2: 1.0})
        with pytest.raises(InputError):
            up.solve_exact(users, {1: -1.0, 2: 1.0})


class TestSolveExact:
    def test_single_user(self):
        sol = up.solve_exact([up.User(42.0, 17.0, 1)], {1: 30.0})
        assert sol.covered_count == 1

    def test_equilateral_triangle(self):
        side = 200.0
        users = [
            up.User(0.0, 0.0, 1),
            up.User(side, 0.0, 1),
            up.User(side / 2.0, side * math.sqrt(3.0) / 2.0, 1),
        ]
        # circumradius 200/sqrt(3) ~ 115.47 < 120, so one point covers all three
        assert side / math.sqrt(3.0) < 120.0
        sol = up.solve_exact(users, {1: 120.0})
        assert sol.covered_count == 3

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(5)
        users = [
            up.User(float(x), float(y), int(c))
            for x, y, c in zip(
                rng.uniform(0, 1000, 10), rng.uniform(0, 1000, 10), rng.integers(1, 3, 10)
            )
        ]
        radius_map = {1: 300.0, 2: 450.0}
        exact = up.solve_exact(users, radius_map)
        oracle = grid_oracle(users, radius_map, 1.0, (0.0, 0.0, 1000.0, 1000.0))
        assert exact.covered_count == oracle.covered_count

    def test_dominates_grid_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            users, radius_map = random_instance(rng, int(rng.integers(1, 20)))
            exact = up.solve_exact(users, radius_map)
            oracle = grid_oracle(users, radius_map, 25.0, (0.0, 0.0, 1000.0, 1000.0))
            assert exact.covered_count >= oracle.covered_count

    def test_monotone_in_radii(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            users, radius_map = random_instance(rng, 12)
            base = up.solve_exact(users, radius_map).covered_count
            grown = {k: 1.2 * v for k, v in radius_map.items()}
            assert up.solve_exact(users, grown).covered_count >= base

    def test_translation_invariance(self):
        rng = np.random.default_rng(41)
        users, radius_map = random_instance(rng, 12)
        shift = (1234.5, -987.25)
        moved = [up.User(u.x_m + shift[0], u.y_m + shift[1], u.class_id) for u in users]
        a = up.solve_exact(users, radius_map)
        b = up.solve_exact(moved, radius_map)
        assert a.covered_count == b.covered_count

    def test_flag_consistency(self):
        rng = np.random.default_rng(43)
        users, radius_map = random_instance(rng, 15)
        sol = up.solve_exact(users, radius_map)
        redo = up.evaluate_center(sol.x_d_m, sol.y_d_m, users, radius_map)
        assert redo.covered_flags == sol.covered_flags
        assert redo.covered_count == sol.covered_count

    def test_lexicographic_tie_break(self):
        users = [up.User(100.0, 50.0, 1), up.User(0.0, 0.0, 1)]
        sol = up.solve_exact(users, {1: 10.0})
        assert sol.covered_count == 1
        assert (sol.x_d_m, sol.y_d_m) == (0.0, 0.0)

    def test_empty_users(self):
        with pytest.raises(InputError):
            up.solve_exact([], {1: 10.0})

    def test_runtime_scaling(self):
        # the angular sweep is O(n^2 log n): doubling n should cost about 4x,
        # asserted loosely at 6x over a few amortized repeats, at sizes where
        # solve_exact sweeps
        assert 100 >= placement._SWEEP_MIN_USERS
        rng = np.random.default_rng(47)

        def total_time(n, reps=3):
            t = 0.0
            for _ in range(reps):
                users, radius_map = random_instance(rng, n, box=2000.0)
                t0 = time.perf_counter()
                up.solve_exact(users, radius_map)
                t += time.perf_counter() - t0
            return t

        total_time(100, reps=1)  # warm-up
        assert total_time(200) <= 6.0 * total_time(100)


def _both_solvers(pts, radii):
    pts, radii = np.asarray(pts, dtype=float), np.asarray(radii, dtype=float)
    eff2 = (radii * (1.0 + up.GEOM_SLACK)) ** 2
    want = placement._enumerate(pts, radii, eff2)
    got = placement._sweep(pts, radii, eff2)
    count = lambda xy: int(placement._count_block(np.array([xy]), pts, eff2)[0])
    return want, got, count(want), count(got)


def _degenerate_instances():
    yield [(0.0, 0.0)] * 5, [100.0] * 5  # coincident users
    yield [(0.0, 0.0), (200.0, 0.0), (400.0, 0.0)], [100.0] * 3  # external tangency
    yield [(0.0, 0.0), (50.0, 0.0), (0.0, 0.0)], [150.0, 100.0, 100.0]  # internal tangency
    yield [(10.0, 10.0)] * 3 + [(60.0, 10.0)], [100.0, 50.0, 20.0, 50.0]  # concentric
    yield [(0.0, 0.0), (3.0, 4.0), (6.0, 8.0), (3.0, 0.0)], [0.0, 5.0, 0.0, 5.0]  # radius 0
    yield [(0.0, 0.0)], [0.0]
    yield [(0.0, 0.0)] * 3 + [(0.0, 50.0)], [5e-324] * 3 + [0.0]  # subnormal radius
    yield [(0.0, 0.0), (1.0, 1.0)], [0.0, 0.0]
    rng = np.random.default_rng(101)
    for _ in range(60):
        n = int(rng.integers(2, 70))
        pts = rng.integers(0, 8, (n, 2)) * 50.0  # integer lattice
        levels = rng.integers(0, 6, 3) * 50.0  # radius 0 among the classes
        yield pts, levels[rng.integers(0, 3, n)]


class TestSweepMatchesEnumerator:
    """The angular sweep against the O(n^3) candidate enumerator."""

    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 121))
            box = rng.choice([300.0, 1000.0, 3000.0])
            pts = rng.uniform(0.0, box, (n, 2))
            levels = rng.uniform(20.0, 600.0, int(rng.integers(1, 4)))
            radii = levels[rng.integers(0, len(levels), n)]
            want, got, c_want, c_got = _both_solvers(pts, radii)
            assert got == want and c_got == c_want

    def test_degenerate_instances(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pts, radii in _degenerate_instances():
                want, got, c_want, c_got = _both_solvers(pts, radii)
                assert got == want and c_got == c_want

    def test_solve_exact_switches_at_threshold(self):
        rng = np.random.default_rng(5)
        for n in (placement._SWEEP_MIN_USERS - 1, placement._SWEEP_MIN_USERS, 120):
            users, radius_map = random_instance(rng, n, box=2000.0)
            pts, radii = _user_arrays(users, radius_map)
            eff2 = (radii * (1.0 + up.GEOM_SLACK)) ** 2
            sol = up.solve_exact(users, radius_map)
            assert (sol.x_d_m, sol.y_d_m) == placement._enumerate(pts, radii, eff2)


_coord = st.one_of(
    st.integers(0, 12).map(lambda k: 50.0 * k), st.floats(0.0, 600.0, allow_nan=False)
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 90),
    r1=st.floats(0.0, 300.0),
    r2=st.floats(0.0, 300.0),
    probes=st.lists(st.tuples(_coord, _coord), min_size=1, max_size=10),
    data=st.data(),
)
def test_exact_count_properties(n, r1, r2, probes, data):
    # n spans both sides of the sweep threshold
    user = st.tuples(_coord, _coord, st.integers(1, 2))
    users = [up.User(*u) for u in data.draw(st.lists(user, min_size=n, max_size=n))]
    radius_map = {1: r1, 2: r2}
    best = up.solve_exact(users, radius_map).covered_count
    for x, y in probes:
        assert best >= up.evaluate_center(x, y, users, radius_map).covered_count
    order = data.draw(st.permutations(range(len(users))))
    assert up.solve_exact([users[i] for i in order], radius_map).covered_count == best


class TestGridOracle:
    def test_single_user(self):
        sol = grid_oracle([up.User(500.0, 500.0, 1)], {1: 50.0}, 25.0, (0, 0, 1000, 1000))
        assert sol.covered_count == 1

    def test_validation(self):
        users = [up.User(0.0, 0.0, 1)]
        with pytest.raises(InputError):
            grid_oracle(users, {1: 10.0}, 0.0, (0, 0, 10, 10))
        with pytest.raises(InputError):
            grid_oracle(users, {1: 10.0}, 1.0, (10, 0, 0, 10))

    def test_scan_order_tie_break(self):
        users = [up.User(0.0, 0.0, 1), up.User(10.0, 0.0, 1)]
        sol = grid_oracle(users, {1: 1.0}, 10.0, (0, 0, 10, 10))
        assert sol.covered_count == 1
        assert (sol.x_d_m, sol.y_d_m) == (0.0, 0.0)

    def test_matches_brute_force_on_small_grids(self):
        # lattice instances put grid points exactly on disc boundaries and
        # make many count ties; the bounds do not always divide by the step
        rng = np.random.default_rng(53)
        for _ in range(300):
            n = int(rng.integers(0, 12))
            if rng.random() < 0.5:
                pts = rng.integers(0, 6, (n, 2)) * 10.0
                levels = rng.integers(0, 4, 2) * 10.0
            else:
                pts = rng.uniform(-20.0, 80.0, (n, 2))
                levels = rng.uniform(0.0, 40.0, 2)
            users = [
                up.User(float(x), float(y), int(c))
                for (x, y), c in zip(pts, rng.integers(1, 3, n))
            ]
            radius_map = {1: float(levels[0]), 2: float(levels[1])}
            step = float(rng.choice([1.0, 2.5, 7.0, 10.0]))
            bounds = (0.0, -5.0, 50.0, float(rng.choice([55.0, 60.0])))
            want = grid_oracle_brute(users, radius_map, step, bounds)
            assert grid_oracle(users, radius_map, step, bounds) == want


@settings(max_examples=40, deadline=None)
@given(
    users=st.lists(st.tuples(_coord, _coord, st.integers(1, 2)), min_size=1, max_size=30),
    r1=st.floats(0.0, 300.0),
    r2=st.floats(0.0, 300.0),
    step=st.sampled_from([20.0, 25.0, 40.0]),
)
def test_exact_count_dominates_grid_oracle(users, r1, r2, step):
    users = [up.User(*u) for u in users]
    radius_map = {1: r1, 2: r2}
    oracle = grid_oracle(users, radius_map, step, (0.0, 0.0, 600.0, 600.0))
    assert up.solve_exact(users, radius_map).covered_count >= oracle.covered_count
