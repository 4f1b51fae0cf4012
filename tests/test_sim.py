import dataclasses

import numpy as np
import pytest

import uavplace as up
from uavplace.errors import InputError


@pytest.fixture()
def base_scenario(urban, radio, two_classes):
    return up.Scenario(
        width_km=3.0,
        height_km=3.0,
        env=urban,
        radio=radio,
        classes=two_classes,
        trials=3,
        master_seed=11,
    )


def stripped(records):
    """Record dicts with the wall-clock fields removed."""
    out = []
    for r in records:
        d = dataclasses.asdict(r)
        d.pop("runtime_s")
        out.append(d)
    return out


class TestScenario:
    def test_validation(self, urban, radio, two_classes):
        with pytest.raises(InputError):
            up.Scenario(0.0, 3.0, urban, radio, two_classes)
        with pytest.raises(InputError):
            up.Scenario(3.0, 3.0, urban, radio, two_classes, trials=0)
        with pytest.raises(InputError):
            up.Scenario(3.0, 3.0, urban, radio, two_classes, master_seed=-1)
        with pytest.raises(InputError):
            up.Scenario(3.0, 3.0, urban, radio, two_classes, algorithms=("es", "nope"))
        with pytest.raises(InputError):
            up.Scenario(3.0, 3.0, urban, radio, two_classes, algorithms=())
        with pytest.raises(InputError):
            up.Scenario(3.0, 3.0, urban, radio, two_classes, grid_points=0)
        with pytest.raises(InputError):
            up.Scenario(3.0, 3.0, urban, radio, two_classes, rho=0.0)

    def test_classes_sorted_by_threshold(self, urban, radio):
        c_loose = up.QosClass.from_radio(2, 47.0, 5.5, radio)  # l_th 103
        c_tight = up.QosClass.from_radio(1, 50.0, 5.5, radio)  # l_th 100
        scn = up.Scenario(3.0, 3.0, urban, radio, (c_loose, c_tight))
        assert [c.id for c in scn.classes] == [1, 2]

    def test_with_rho_preserves_total_exactly(self, base_scenario):
        total = base_scenario.total_lambda_per_km2
        for rho in (0.5, 1.0, 2.0, 4.0, 1.0 / 3.0):
            scn = base_scenario.with_rho(rho)
            lam1, lam2 = (c.lambda_per_km2 for c in scn.classes)
            assert lam1 + lam2 == total
            assert lam1 == total / (1.0 + rho)
            assert lam2 / lam1 == pytest.approx(rho, rel=1e-12)
            assert scn.rho == rho

    def test_with_rho_needs_two_classes(self, urban, radio):
        c = up.QosClass.from_radio(1, 50.0, 11.0, radio)
        scn = up.Scenario(3.0, 3.0, urban, radio, (c,))
        with pytest.raises(InputError):
            scn.with_rho(1.0)


class TestGenerateUsers:
    def test_zero_density_class_gets_no_users(self, urban, radio):
        classes = (
            up.QosClass.from_radio(1, 50.0, 5.5, radio),
            up.QosClass.from_radio(2, 47.0, 0.0, radio),
        )
        for fixed in (False, True):
            scn = up.Scenario(3.0, 3.0, urban, radio, classes, fixed_count=fixed)
            users = up.generate_users(scn, 0)
            assert all(u.class_id != 2 for u in users)

    def test_fixed_count_total_and_split(self, base_scenario):
        scn = dataclasses.replace(base_scenario, fixed_count=True)
        users = up.generate_users(scn, 0)
        assert len(users) == 99
        n1 = sum(1 for u in users if u.class_id == 1)
        n2 = sum(1 for u in users if u.class_id == 2)
        assert (n1, n2) == (49, 50)

    def test_fixed_count_single_class(self, urban, radio):
        c = up.QosClass.from_radio(1, 50.0, 11.0, radio)
        scn = up.Scenario(3.0, 3.0, urban, radio, (c,), fixed_count=True)
        assert len(up.generate_users(scn, 0)) == 99

    def test_positions_inside_area(self, base_scenario):
        users = up.generate_users(base_scenario, 0)
        assert users
        assert all(0.0 <= u.x_m <= 3000.0 and 0.0 <= u.y_m <= 3000.0 for u in users)

    def test_deterministic_per_trial(self, base_scenario):
        a = up.generate_users(base_scenario, 4)
        b = up.generate_users(base_scenario, 4)
        assert a == b

    def test_trials_differ(self, base_scenario):
        assert up.generate_users(base_scenario, 0) != up.generate_users(base_scenario, 1)

    def test_order_independent(self, base_scenario):
        # drawing trial 5 first or after other trials cannot change it
        first = up.generate_users(base_scenario, 5)
        for t in (2, 0, 7):
            up.generate_users(base_scenario, t)
        assert up.generate_users(base_scenario, 5) == first

    def test_seed_changes_users(self, base_scenario):
        other = dataclasses.replace(base_scenario, master_seed=12)
        assert up.generate_users(base_scenario, 0) != up.generate_users(other, 0)

    def test_negative_trial(self, base_scenario):
        with pytest.raises(InputError):
            up.generate_users(base_scenario, -1)


class TestRunTrials:
    def test_single_user_covered(self, urban, radio):
        c = up.QosClass.from_radio(1, 50.0, 1.0, radio)
        scn = up.Scenario(1.0, 1.0, urban, radio, (c,), trials=1, fixed_count=True)
        records = up.run_trials(scn)
        assert len(records) == 3
        for r in records:
            assert r.total_users == 1
            assert r.covered in (0, 1)

    def test_records_shape_and_pairing(self, base_scenario):
        records = up.run_trials(base_scenario)
        assert len(records) == base_scenario.trials * 3
        for trial in range(base_scenario.trials):
            rows = [r for r in records if r.trial_id == trial]
            assert [r.algorithm for r in rows] == ["es", "mwa", "lq"]
            assert len({r.total_users for r in rows}) == 1

    def test_conservation(self, base_scenario):
        for r in up.run_trials(base_scenario):
            assert r.covered == sum(r.per_class_covered.values())
            assert r.covered <= r.total_users

    def test_determinism_modulo_runtime(self, base_scenario):
        a = up.run_trials(base_scenario)
        b = up.run_trials(base_scenario)
        assert stripped(a) == stripped(b)
        assert all(r.master_seed == base_scenario.master_seed for r in a)

    def test_parallel_matches_serial(self, base_scenario):
        serial = up.run_trials(base_scenario, workers=1)
        threaded = up.run_trials(base_scenario, workers=4)
        assert stripped(serial) == stripped(threaded)

    def test_infeasible_scenario_propagates(self, urban, radio):
        # demanding more SNR than the link budget allows is a scenario-level
        # problem, reported before any trial runs
        c = up.QosClass.from_radio(1, 200.0, 1.0, radio)
        scn = up.Scenario(1.0, 1.0, urban, radio, (c,), trials=1, master_seed=77)
        with pytest.raises(up.InfeasibleThresholdError):
            up.run_trials(scn)

    def test_failure_names_trial_seed(self, base_scenario, monkeypatch):
        def boom(*args, **kwargs):
            raise ArithmeticError("solver fault")

        monkeypatch.setattr("uavplace.sim.exhaustive_search", boom)
        with pytest.raises(RuntimeError, match=r"master_seed=11.*trial_id=0"):
            up.run_trials(base_scenario)


class TestCdf:
    def test_singleton(self):
        series = up.cdf([5])
        assert series.values == (5.0,)
        assert series.probabilities == (1.0,)

    def test_hand_counted(self):
        series = up.cdf([1, 2, 2, 4])
        assert series.values == (1.0, 2.0, 4.0)
        assert series.probabilities == (0.25, 0.75, 1.0)

    def test_empty(self):
        with pytest.raises(InputError):
            up.cdf([])

    def test_validity_random(self):
        rng = np.random.default_rng(53)
        series = up.cdf(rng.integers(0, 30, 500))
        assert all(b > a for a, b in zip(series.values, series.values[1:]))
        assert all(q >= p for p, q in zip(series.probabilities, series.probabilities[1:]))
        assert series.probabilities[-1] == 1.0
        assert series.probabilities[0] >= 1.0 / 500

    def test_series_validation(self):
        with pytest.raises(InputError):
            up.CdfSeries(values=(2.0, 1.0), probabilities=(0.5, 1.0))
        with pytest.raises(InputError):
            up.CdfSeries(values=(1.0, 2.0), probabilities=(0.9, 0.5))
        with pytest.raises(InputError):
            up.CdfSeries(values=(1.0,), probabilities=(0.5,))


class TestSweepRho:
    def test_shape_and_densities(self, base_scenario):
        scn = dataclasses.replace(base_scenario, trials=2, algorithms=("mwa", "lq"))
        points = up.sweep_rho(scn, [0.5, 2.0])
        assert len(points) == 4
        assert [(p.rho, p.algorithm) for p in points] == [
            (0.5, "mwa"),
            (0.5, "lq"),
            (2.0, "mwa"),
            (2.0, "lq"),
        ]
        for p in points:
            assert p.mean_covered >= 0.0
            assert p.stderr >= 0.0

    def test_rejects_bad_rho(self, base_scenario):
        with pytest.raises(InputError):
            up.sweep_rho(base_scenario, [])
        with pytest.raises(InputError):
            up.sweep_rho(base_scenario, [1.0, -2.0])
        with pytest.raises(InputError):
            up.sweep_rho(base_scenario, [float("inf")])
