"""Acceptance suite: every exit criterion checked at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line with the measured
numbers (visible with `pytest -s` or on failure). Statistical criteria use
fixed master seeds, so the whole suite is reproducible.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.optimize import brentq

import uavplace as up
from oracles import grid_oracle
from uavplace.algorithms import mean_covered_density, squared_radius_slope
from uavplace.channel import mean_snr
from uavplace.radius import _golden_max

SEED_TRIALS = 2026
SEED_INSTANCES = 404
SEED_DERIVATIVE = 42

#: Constants for the three terrain classes that are not built in; the urban
#: row below must come from the package preset.
EXTRA_ENVIRONMENTS = {
    "suburban": (up.Environment(4.88, 0.43, 0.1, 21.0), 20.34),
    "dense_urban": (up.Environment(12.08, 0.11, 1.6, 23.0), 54.62),
    "highrise_urban": (up.Environment(27.23, 0.08, 2.3, 34.0), 75.52),
}


def report(criterion, ok, description):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def hp_radius(h, l_th, env, radio):
    f = lambda r: up.mean_path_loss(h, r, env, radio) - l_th
    return brentq(f, 1e-9, 1e6, xtol=1e-10, rtol=8.9e-16)


@pytest.fixture(scope="module")
def trial_run(urban, radio, two_classes):
    scenario = up.Scenario(
        width_km=3.0,
        height_km=3.0,
        env=urban,
        radio=radio,
        classes=two_classes,
        trials=100,
        master_seed=SEED_TRIALS,
    )
    t0 = time.perf_counter()
    records = up.run_trials(scenario)
    wall = time.perf_counter() - t0
    return scenario, records, wall


def mean_by_algorithm(records, field):
    out = {}
    for name in ("es", "mwa", "lq"):
        out[name] = float(np.mean([getattr(r, field) for r in records if r.algorithm == name]))
    return out


def test_criterion_1_link_budget(urban, radio):
    t0 = time.perf_counter()
    pair = up.optimal_pair(100.0, urban, radio)
    wall = time.perf_counter() - t0
    ok = (
        abs(pair.theta_star_deg - 42.44) <= 0.05
        and abs(pair.h_star_m - 646.5) <= 1.0
        and abs(pair.r_star_m - 707.0) <= 1.0
        and wall < 1.0
    )
    report(
        1,
        ok,
        f"theta*={pair.theta_star_deg:.4f} deg (42.44±0.05), "
        f"h*={pair.h_star_m:.2f} m (646.5±1), r*={pair.r_star_m:.2f} m (707±1), "
        f"runtime {wall:.3f} s (<1)",
    )


def test_criterion_2_bracket(urban, radio, two_classes):
    bracket = up.altitude_bracket(two_classes, urban, radio)
    step = up.AltitudeGrid(bracket.h_lo_m, bracket.h_hi_m, 9).step_m
    ok = (
        abs(bracket.h_lo_m - 646.5) <= 1.0
        and abs(bracket.h_hi_m - 913.0) <= 1.0
        and abs(step - 29.6) <= 0.1
    )
    report(
        2,
        ok,
        f"bracket [{bracket.h_lo_m:.2f}, {bracket.h_hi_m:.2f}] m ([646.5, 913]±1), "
        f"step for 9 points {step:.3f} m (29.6±0.1)",
    )


def test_criterion_3_elevation_angles(urban):
    rows = {"urban": (urban, 42.44), **EXTRA_ENVIRONMENTS}
    measured = {name: up.optimal_elevation(env) for name, (env, _) in rows.items()}
    ok = all(abs(measured[name] - want) <= 0.05 for name, (_, want) in rows.items())
    detail = ", ".join(
        f"{name} {measured[name]:.3f}/{want:.2f}" for name, (_, want) in rows.items()
    )
    report(3, ok, f"elevation angles measured/expected (±0.05 deg): {detail}")


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(SEED_INSTANCES)
    t0 = time.perf_counter()
    equal = 0
    for _ in range(200):
        n = int(rng.integers(1, 16))
        users = [
            up.User(float(x), float(y), int(c))
            for x, y, c in zip(
                rng.uniform(0, 1000, n), rng.uniform(0, 1000, n), rng.integers(1, 3, n)
            )
        ]
        radius_map = {1: float(rng.uniform(100, 500)), 2: float(rng.uniform(100, 500))}
        exact = up.solve_exact(users, radius_map).covered_count
        grid = grid_oracle(users, radius_map, 1.0, (0, 0, 1000, 1000)).covered_count
        equal += exact == grid
    dominated = 0
    for _ in range(20):
        n = int(rng.integers(16, 61))
        users = [
            up.User(float(x), float(y), int(c))
            for x, y, c in zip(
                rng.uniform(0, 1000, n), rng.uniform(0, 1000, n), rng.integers(1, 3, n)
            )
        ]
        radius_map = {1: float(rng.uniform(100, 500)), 2: float(rng.uniform(100, 500))}
        exact = up.solve_exact(users, radius_map).covered_count
        grid = grid_oracle(users, radius_map, 1.0, (0, 0, 1000, 1000)).covered_count
        dominated += exact >= grid
    wall = time.perf_counter() - t0
    ok = equal == 200 and dominated == 20 and wall < 300.0
    report(
        4,
        ok,
        f"exact == 1 m grid oracle on {equal}/200 small instances, "
        f"exact >= oracle on {dominated}/20 larger ones, runtime {wall:.1f} s (<300)",
    )


def test_criterion_5_derivative_consistency(urban, radio, two_classes, bracket):
    rng = np.random.default_rng(SEED_DERIVATIVE)
    step = 0.1
    worst = 0.0
    for c in two_classes:
        for h in rng.uniform(bracket.h_lo_m + 1.0, bracket.h_hi_m - 1.0, 20):
            r = hp_radius(h, c.l_th_db, urban, radio)
            analytic = c.lambda_per_km2 * squared_radius_slope(h, r, urban)
            rp = hp_radius(h + step, c.l_th_db, urban, radio)
            rm = hp_radius(h - step, c.l_th_db, urban, radio)
            fd = c.lambda_per_km2 * (rp * rp - rm * rm) / (2.0 * step)
            worst = max(worst, abs(analytic - fd) / abs(fd))
    h_root = up.mwa_altitude(two_classes, urban, radio, bracket)
    h_direct = _golden_max(
        lambda h: mean_covered_density(h, two_classes, urban, radio),
        bracket.h_lo_m,
        bracket.h_hi_m,
        1e-4,
    )
    gap = abs(h_root - h_direct)
    ok = worst <= 0.01 and gap <= 1.0
    report(
        5,
        ok,
        f"slope vs finite difference worst rel err {worst:.2e} (<=1%), "
        f"altitude via roots {h_root:.3f} vs direct maximization {h_direct:.3f} m "
        f"(gap {gap:.3f} <= 1)",
    )


def test_criterion_6_coverage_trend(trial_run):
    _, records, wall = trial_run
    means = mean_by_algorithm(records, "covered")
    es = np.array([r.covered for r in records if r.algorithm == "es"], dtype=float)
    lq = np.array([r.covered for r in records if r.algorithm == "lq"], dtype=float)
    t = scipy_stats.ttest_rel(es, lq, alternative="greater")
    rel_gap = abs(means["es"] - means["mwa"]) / means["es"]
    ok = (
        means["es"] >= means["mwa"] >= means["lq"]
        and rel_gap <= 0.05
        and t.pvalue < 0.05
        and wall < 600.0
    )
    report(
        6,
        ok,
        f"mean covered es={means['es']:.2f} >= mwa={means['mwa']:.2f} >= lq={means['lq']:.2f}, "
        f"|es-mwa|/es={rel_gap:.3%} (<=5%), paired test p={t.pvalue:.2e} (<0.05), "
        f"runtime {wall:.1f} s (<600)",
    )


def test_criterion_7_runtime_trend(trial_run):
    _, records, _ = trial_run
    rt = mean_by_algorithm(records, "runtime_s")
    es_over_mwa = rt["es"] / rt["mwa"]
    mwa_lq_spread = max(rt["mwa"], rt["lq"]) / min(rt["mwa"], rt["lq"])
    ok = es_over_mwa >= 5.0 and mwa_lq_spread <= 3.0
    report(
        7,
        ok,
        f"mean solve time es={rt['es'] * 1e3:.1f} ms, mwa={rt['mwa'] * 1e3:.1f} ms, "
        f"lq={rt['lq'] * 1e3:.1f} ms; es/mwa={es_over_mwa:.1f} (>=5), "
        f"mwa-lq spread {mwa_lq_spread:.2f}x (<=3)",
    )


def test_criterion_8_density_ratio_trend(trial_run):
    scenario, _, _ = trial_run
    rhos = [0.5, 1.0, 2.0, 4.0]
    points = up.sweep_rho(scenario, rhos)
    means = {
        (p.rho, p.algorithm): p.mean_covered for p in points
    }
    es_gaps = [means[(r, "es")] - means[(r, "lq")] for r in rhos]
    mwa_gaps = [means[(r, "mwa")] - means[(r, "lq")] for r in rhos]
    es_ok = all(b >= a for a, b in zip(es_gaps, es_gaps[1:]))
    mwa_ok = all(b >= a for a, b in zip(mwa_gaps, mwa_gaps[1:]))
    ok = es_ok and mwa_ok
    report(
        8,
        ok,
        f"mean-covered gaps over rho={rhos}: es-lq={[round(g, 2) for g in es_gaps]} "
        f"nondecreasing={es_ok}, mwa-lq={[round(g, 2) for g in mwa_gaps]} "
        f"nondecreasing={mwa_ok}",
    )


def test_criterion_9_property_suites(urban, radio, two_classes, bracket):
    failures = []

    # radius monotone in horizontal distance, unimodal in altitude
    rs = np.logspace(-2, 6, 400)
    losses = [up.mean_path_loss(646.5, r, urban, radio) for r in rs]
    if not all(b > a for a, b in zip(losses, losses[1:])):
        failures.append("loss not increasing in r")
    hs = np.linspace(1.0, 2.0 * bracket.h_hi_m, 200)
    for l_th in (100.0, 103.0):
        radii = up.coverage_radius_profile(hs, l_th, urban, radio)
        peak = int(np.argmax(radii))
        rising = all(b >= a - 2e-3 for a, b in zip(radii[: peak + 1], radii[1 : peak + 1]))
        falling = all(b <= a + 2e-3 for a, b in zip(radii[peak:], radii[peak + 1 :]))
        if not (rising and falling):
            failures.append(f"radius profile not unimodal at l_th={l_th}")

    # optimal altitudes ordered with the thresholds
    h95, h100, h103 = (
        up.optimal_pair(l, urban, radio).h_star_m for l in (95.0, 100.0, 103.0)
    )
    if not h95 < h100 < h103:
        failures.append("optimal altitudes not ordered with thresholds")

    # coverage-predicate duality
    rng = np.random.default_rng(9)
    for _ in range(200):
        h, r, gamma = rng.uniform(1, 3000), rng.uniform(0, 3000), rng.uniform(30, 70)
        by_snr = mean_snr(h, r, urban, radio) >= gamma
        by_loss = up.mean_path_loss(h, r, urban, radio) <= up.loss_threshold(radio, gamma)
        if by_snr != by_loss:
            failures.append("coverage predicate duality violated")
            break

    # CDF validity
    series = up.cdf(rng.integers(0, 40, 300))
    if not (
        all(b > a for a, b in zip(series.values, series.values[1:]))
        and all(q >= p for p, q in zip(series.probabilities, series.probabilities[1:]))
        and series.probabilities[-1] == 1.0
    ):
        failures.append("CDF invalid")

    # determinism under fixed seeds and varying parallelism
    scenario = up.Scenario(
        3.0, 3.0, urban, radio, two_classes, trials=4, master_seed=SEED_TRIALS
    )

    def strip(records):
        out = []
        for r in records:
            d = dataclasses.asdict(r)
            d.pop("runtime_s")
            out.append(d)
        return out

    serial_a = strip(up.run_trials(scenario, workers=1))
    serial_b = strip(up.run_trials(scenario, workers=1))
    threaded = strip(up.run_trials(scenario, workers=4))
    if not (serial_a == serial_b == threaded):
        failures.append("records differ across repeats or parallelism")

    ok = not failures
    report(9, ok, "property suites all green" if ok else f"failures: {failures}")
