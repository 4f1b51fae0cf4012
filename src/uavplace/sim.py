"""Seeded multi-trial experiment harness with empirical distribution summaries.

Every random draw derives from the tuple (master seed, trial id, class id)
through an independent seed sequence, so trials can run in any order or in
parallel without changing a single sample. Within a trial, all requested
algorithms see the identical user list, which makes per-trial comparisons
paired.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .algorithms import (
    MAX_GRID_POINTS,
    AlgorithmResult,
    AltitudeGrid,
    exhaustive_search,
    lq_place,
    mwa_place,
)
from .channel import Environment, QosClass, RadioConfig, sort_classes
from .errors import InfeasibleThresholdError, InputError
from .placement import User
from .radius import altitude_bracket

KNOWN_ALGORITHMS = ("es", "mwa", "lq")


@dataclass(frozen=True)
class Scenario:
    """Complete experiment description.

    Classes are stored sorted by ascending loss threshold. ``rho`` records the
    class-2/class-1 density ratio when the scenario was built by
    :meth:`with_rho`; densities always live on the classes themselves.
    """

    width_km: float
    height_km: float
    env: Environment
    radio: RadioConfig
    classes: tuple[QosClass, ...]
    trials: int = 100
    master_seed: int = 0
    algorithms: tuple[str, ...] = KNOWN_ALGORITHMS
    grid_points: int = 9
    rho: float | None = None
    fixed_count: bool = False
    strict_lq: bool = False

    def __post_init__(self) -> None:
        if not (0.0 < self.width_km < math.inf and 0.0 < self.height_km < math.inf):
            raise InputError("area dimensions must be positive and finite")
        object.__setattr__(self, "classes", sort_classes(self.classes))
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise InputError("master_seed must fit in an unsigned 64-bit integer")
        algs = tuple(self.algorithms)
        if not algs:
            raise InputError("at least one algorithm must be requested")
        unknown = [a for a in algs if a not in KNOWN_ALGORITHMS]
        if unknown:
            raise InputError(f"unknown algorithms: {unknown} (choose from {KNOWN_ALGORITHMS})")
        object.__setattr__(self, "algorithms", algs)
        if not 1 <= self.grid_points <= MAX_GRID_POINTS:
            raise InputError(f"grid_points must be in [1, {MAX_GRID_POINTS}]")
        if self.rho is not None and not 0.0 < self.rho < math.inf:
            raise InputError("rho must be positive and finite")

    @property
    def area_km2(self) -> float:
        return self.width_km * self.height_km

    @property
    def total_lambda_per_km2(self) -> float:
        return sum(c.lambda_per_km2 for c in self.classes)

    def with_rho(self, rho: float) -> "Scenario":
        """Reallocate the two class densities to the ratio ``rho``, total fixed.

        The second (less demanding) class gets the complement of the first, so
        the densities sum to the original total exactly.
        """
        if not 0.0 < rho < math.inf:
            raise InputError(f"rho must be positive and finite, got {rho}")
        if len(self.classes) != 2:
            raise InputError("density-ratio scenarios need exactly two classes")
        total = self.total_lambda_per_km2
        lam1 = total / (1.0 + rho)
        c1, c2 = self.classes
        new_classes = (
            replace(c1, lambda_per_km2=lam1),
            replace(c2, lambda_per_km2=total - lam1),
        )
        return replace(self, classes=new_classes, rho=rho)


@dataclass
class TrialRecord:
    """One algorithm's outcome on one trial's user set."""

    trial_id: int
    algorithm: str
    total_users: int
    covered: int
    per_class_covered: dict[int, int]
    h_m: float
    x_d_m: float
    y_d_m: float
    runtime_s: float
    master_seed: int


@dataclass(frozen=True)
class CdfSeries:
    """Empirical distribution: sorted distinct values with cumulative mass."""

    values: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values or len(self.values) != len(self.probabilities):
            raise InputError("CDF needs matching, nonempty values and probabilities")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise InputError("CDF values must be strictly increasing")
        if any(q < p for p, q in zip(self.probabilities, self.probabilities[1:])):
            raise InputError("CDF probabilities must be nondecreasing")
        if not (0.0 < self.probabilities[0] and self.probabilities[-1] == 1.0):
            raise InputError("CDF probabilities must lie in (0, 1] and end at 1")


@dataclass(frozen=True)
class SweepPoint:
    """Mean covered users of one algorithm at one density ratio."""

    rho: float
    algorithm: str
    mean_covered: float
    stderr: float


def _fixed_counts(scenario: Scenario) -> dict[int, int]:
    # Deterministic, total-preserving split: every class but the last
    # positive-density one gets the floor of its expectation; the last
    # positive class absorbs the rounding remainder. Zero-density classes
    # always get zero.
    area = scenario.area_km2
    n_total = round(scenario.total_lambda_per_km2 * area)
    positive = [c.id for c in scenario.classes if c.lambda_per_km2 > 0.0]
    counts = {c.id: 0 for c in scenario.classes}
    if not positive:
        return counts
    assigned = 0
    for c in scenario.classes:
        if c.lambda_per_km2 > 0.0 and c.id != positive[-1]:
            counts[c.id] = math.floor(c.lambda_per_km2 * area)
            assigned += counts[c.id]
    counts[positive[-1]] = n_total - assigned
    return counts


def _class_rng(scenario: Scenario, trial_id: int, class_id: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=(scenario.master_seed, trial_id, class_id))
    return np.random.default_rng(seq)


def generate_users(scenario: Scenario, trial_id: int) -> list[User]:
    """Users of one trial: per-class counts plus uniform positions.

    Counts are Poisson with mean density times area by default, or the fixed
    deterministic split when ``scenario.fixed_count`` is set. Fully determined
    by (master seed, trial id, class id).
    """
    if trial_id < 0:
        raise InputError("trial_id must be >= 0")
    fixed = _fixed_counts(scenario) if scenario.fixed_count else None
    w_m = scenario.width_km * 1000.0
    h_m = scenario.height_km * 1000.0
    users: list[User] = []
    for c in scenario.classes:
        rng = _class_rng(scenario, trial_id, c.id)
        if fixed is None:
            n = int(rng.poisson(c.lambda_per_km2 * scenario.area_km2))
        else:
            n = fixed[c.id]
        pos = rng.uniform((0.0, 0.0), (w_m, h_m), size=(n, 2))
        users.extend(User(float(x), float(y), c.id) for x, y in pos)
    return users


def run_algorithm(
    name: str,
    users: Sequence[User],
    scenario: Scenario,
    grid: AltitudeGrid,
) -> AlgorithmResult:
    """Dispatch one named algorithm on a prepared user set."""
    if name == "es":
        return exhaustive_search(users, scenario.classes, scenario.env, scenario.radio, grid)
    if name == "mwa":
        return mwa_place(users, scenario.classes, scenario.env, scenario.radio)
    if name == "lq":
        return lq_place(
            users, scenario.classes, scenario.env, scenario.radio, strict=scenario.strict_lq
        )
    raise InputError(f"unknown algorithm {name!r}")


def trial_records(
    scenario: Scenario, grid: AltitudeGrid, trial_id: int, users: Sequence[User]
) -> list[TrialRecord]:
    """Run every requested algorithm on one trial's users; one record each, in order."""
    records = []
    for name in scenario.algorithms:
        res = run_algorithm(name, users, scenario, grid)
        records.append(
            TrialRecord(
                trial_id=trial_id,
                algorithm=name,
                total_users=len(users),
                covered=res.covered_count,
                per_class_covered=dict(sorted(res.per_class_covered.items())),
                h_m=res.h_m,
                x_d_m=res.x_d_m,
                y_d_m=res.y_d_m,
                runtime_s=res.runtime_s,
                master_seed=scenario.master_seed,
            )
        )
    return records


def run_trials(scenario: Scenario, workers: int = 1) -> list[TrialRecord]:
    """Run every requested algorithm on every trial's (shared) user set.

    Records appear in (trial, algorithm) order. Reported runtimes cover the
    solve only, never user generation. Any per-trial failure aborts the run
    with a diagnostic naming the seed that reproduces it; input and
    infeasibility errors keep their type, anything else becomes a
    ``RuntimeError``.
    """
    bracket = altitude_bracket(scenario.classes, scenario.env, scenario.radio)
    grid = AltitudeGrid(bracket.h_lo_m, bracket.h_hi_m, scenario.grid_points)

    def one_trial(trial_id: int) -> list[TrialRecord]:
        try:
            return trial_records(scenario, grid, trial_id, generate_users(scenario, trial_id))
        except Exception as exc:
            domain = isinstance(exc, (InputError, InfeasibleThresholdError))
            raise (type(exc) if domain else RuntimeError)(
                f"trial {trial_id} failed (master_seed={scenario.master_seed}, "
                f"trial_id={trial_id}): {exc}"
            ) from exc

    if workers <= 1:
        nested = [one_trial(t) for t in range(scenario.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            nested = list(pool.map(one_trial, range(scenario.trials)))
    return [rec for trial in nested for rec in trial]


def summarize(records: Sequence[TrialRecord], algorithms: Sequence[str]) -> dict[str, dict]:
    """Per algorithm: mean covered users, its standard error, mean solve time."""
    out = {}
    for name in algorithms:
        rows = [r for r in records if r.algorithm == name]
        covered = np.array([r.covered for r in rows], dtype=float)
        stderr = float(covered.std(ddof=1) / math.sqrt(len(covered))) if len(covered) > 1 else 0.0
        out[name] = {
            "mean_covered": float(covered.mean()),
            "stderr_covered": stderr,
            "mean_runtime_s": float(np.mean([r.runtime_s for r in rows])),
        }
    return out


def cdf(values) -> CdfSeries:
    """Empirical CDF with one step per distinct sample value."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise InputError("cannot build a CDF from no values")
    distinct, counts = np.unique(arr, return_counts=True)
    probs = np.cumsum(counts) / arr.size
    return CdfSeries(
        values=tuple(float(v) for v in distinct),
        probabilities=tuple(float(p) for p in probs),
    )


def sweep_rho(scenario: Scenario, rho_values, workers: int = 1) -> list[SweepPoint]:
    """Mean covered users per algorithm as the density ratio varies, total fixed."""
    rhos = [float(r) for r in rho_values]
    if not rhos:
        raise InputError("at least one rho value is required")
    points: list[SweepPoint] = []
    for rho in rhos:
        scn = scenario.with_rho(rho)
        for name, stats in summarize(run_trials(scn, workers=workers), scn.algorithms).items():
            points.append(SweepPoint(rho, name, stats["mean_covered"], stats["stderr_covered"]))
    return points
