"""Altitude-selection strategies layered on the exact horizontal placement.

Three strategies are provided:

* grid search: solve the horizontal placement at every altitude of a uniform
  grid over the guaranteed bracket and keep the best (``exhaustive_search``);
* weighted-area: pick the altitude maximizing the density-weighted sum of
  squared coverage radii, then place once (``mwa_place``);
* largest-QoS baseline: treat everyone as the most demanding class, deploy at
  that class's optimal altitude, place once (``lq_place``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import Environment, QosClass, RadioConfig, los_curve, sort_classes
from .errors import InputError
from .placement import PlacementSolution, User, evaluate_center, solve_exact
from .radius import (
    SEARCH_STEPS,
    AltitudeBracket,
    altitude_bracket,
    coverage_radius,
    coverage_radius_profile,
    optimal_pair,
)

#: Scan resolution for locating sign changes of the area-slope function.
ALTITUDE_SCAN_POINTS = 200
#: Bracket width at which each located sign change is refined, in meters.
ALTITUDE_ROOT_TOL_M = 0.01
#: Largest altitude-grid step count: the grid is materialized and every
#: altitude costs one exact placement.
MAX_GRID_POINTS = 10_000


@dataclass(frozen=True)
class AltitudeGrid:
    """Uniform altitude grid over a bracket.

    ``n_points`` counts the uniform steps, so the step is
    ``(h_hi_m - h_lo_m) / n_points`` and :meth:`altitudes` yields
    ``n_points + 1`` values including both endpoints (a degenerate bracket
    yields the single altitude ``h_lo_m``).
    """

    h_lo_m: float
    h_hi_m: float
    n_points: int = 9

    def __post_init__(self) -> None:
        if not 0.0 < self.h_lo_m <= self.h_hi_m:
            raise InputError("grid requires 0 < h_lo_m <= h_hi_m")
        if not 1 <= self.n_points <= MAX_GRID_POINTS:
            raise InputError(f"grid needs 1 <= n_points <= {MAX_GRID_POINTS}")

    @property
    def step_m(self) -> float:
        return (self.h_hi_m - self.h_lo_m) / self.n_points

    def altitudes(self) -> tuple[float, ...]:
        if self.h_hi_m == self.h_lo_m:
            return (self.h_lo_m,)
        inner = tuple(
            self.h_lo_m + i * self.step_m for i in range(1, self.n_points)
        )
        return (self.h_lo_m,) + inner + (self.h_hi_m,)


@dataclass
class AlgorithmResult:
    """Outcome of one placement algorithm on one user set."""

    algorithm: str
    h_m: float
    x_d_m: float
    y_d_m: float
    covered_count: int
    per_class_covered: dict[int, int]
    runtime_s: float
    radii_used: dict[int, float]


def squared_radius_slope(h_m: float, radius_m: float, env: Environment) -> float:
    """Altitude derivative of the squared coverage radius, d(R^2)/dh.

    ``radius_m`` must already solve the loss contour at ``h_m``; the slope
    then has a closed form by implicit differentiation of the contour.
    Returns 0 for an empty disc.
    """
    if radius_m <= 0.0:
        return 0.0
    p = los_curve(math.degrees(math.atan2(h_m, radius_m)), env)
    x = _slope_scale(env) * radius_m * p * (1.0 - p) - h_m
    r2 = radius_m * radius_m
    return 2.0 * x * r2 / (r2 + h_m * h_m + h_m * x)


def _slope_scale(env: Environment) -> float:
    # -9 ln(10) delta_db b / pi: the LoS logistic's slope b p (1 - p) per
    # degree, carried through the contour's implicit derivative
    return 9.0 * math.log(10.0) * (env.eta_nlos_db - env.eta_los_db) * env.b / math.pi


def _slope_profile(h: np.ndarray, r: np.ndarray, env: Environment) -> np.ndarray:
    # Vector twin of squared_radius_slope; empty discs contribute zero.
    r = np.where(r > 0.0, r, np.nan)
    p = los_curve(np.degrees(np.arctan2(h, r)), env, np)
    x = _slope_scale(env) * r * p * (1.0 - p) - h
    r2 = r * r
    slope = 2.0 * x * r2 / (r2 + h * h + h * x)
    return np.where(np.isnan(slope), 0.0, slope)


def mean_covered_density(
    h_m: float, classes: Sequence[QosClass], env: Environment, radio: RadioConfig
) -> float:
    """Expected covered users at one altitude under uniform user fields."""
    total = 0.0
    for c in sort_classes(classes):
        r = coverage_radius(h_m, c.l_th_db, env, radio)
        total += c.lambda_per_km2 * 1e-6 * r * r
    return math.pi * total


def _area_slope(h_m, classes, env, radio) -> float:
    return sum(
        c.lambda_per_km2
        * 1e-6
        * squared_radius_slope(h_m, coverage_radius(h_m, c.l_th_db, env, radio), env)
        for c in classes
    )


def _radius_table(hs, classes: Sequence[QosClass], env: Environment, radio: RadioConfig) -> np.ndarray:
    # Radius of every class (rows, in ``classes`` order) at every altitude of
    # ``hs`` (columns), from one joint contour solve.
    return coverage_radius_profile(
        np.tile(hs, len(classes)),
        np.repeat([c.l_th_db for c in classes], len(hs)),
        env,
        radio,
    ).reshape(len(classes), len(hs))


def _illinois_root(f, lo: float, hi: float, f_lo: float, f_hi: float, tol: float) -> float:
    # Modified regula falsi on a sign-changing bracket: the end kept twice in
    # a row has its value halved, so both ends close in on the root.
    x, side = 0.5 * (lo + hi), 0
    for _ in range(SEARCH_STEPS):
        if hi - lo <= tol:
            break
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:  # rounding at a tiny bracket
            x = 0.5 * (lo + hi)
        f_x = f(x)
        if f_x == 0.0:
            return x
        if (f_x < 0.0) == (f_hi < 0.0):
            hi, f_hi = x, f_x
            if side == -1:
                f_lo *= 0.5
            side = -1
        else:
            lo, f_lo = x, f_x
            if side == 1:
                f_hi *= 0.5
            side = 1
    return x


def mwa_altitude(
    classes: Sequence[QosClass],
    env: Environment,
    radio: RadioConfig,
    bracket: AltitudeBracket,
) -> float:
    """Altitude maximizing the density-weighted squared-radius sum.

    Stationary points are located as sign changes of the area slope on a
    uniform scan of the bracket and refined by the Illinois variant of regula
    falsi, seeded with the scan's slopes; because stationary points need not
    be unique, every refined root plus both bracket endpoints is scored and
    the best kept (ties resolve to the lowest altitude).
    """
    cs = sort_classes(classes)
    if not any(c.lambda_per_km2 > 0.0 for c in cs):
        raise InputError("at least one class must have positive density")
    lo, hi = bracket.h_lo_m, bracket.h_hi_m
    if hi - lo <= ALTITUDE_ROOT_TOL_M:
        return lo

    hs = np.linspace(lo, hi, ALTITUDE_SCAN_POINTS)
    radii = _radius_table(hs, cs, env, radio)
    weights = np.array([c.lambda_per_km2 * 1e-6 for c in cs])
    slope = weights @ _slope_profile(np.tile(hs, (len(cs), 1)), radii, env)

    candidates = [lo, hi]
    f = lambda h: _area_slope(h, cs, env, radio)
    for i in range(len(hs) - 1):
        if slope[i] == 0.0:
            candidates.append(float(hs[i]))
        elif slope[i] * slope[i + 1] < 0.0:
            cell = (float(hs[i]), float(hs[i + 1]), float(slope[i]), float(slope[i + 1]))
            candidates.append(_illinois_root(f, *cell, ALTITUDE_ROOT_TOL_M))
    if slope[-1] == 0.0:
        candidates.append(float(hs[-1]))

    best_h, best_score = lo, -math.inf
    for h in sorted(candidates):
        score = mean_covered_density(h, cs, env, radio)
        if score > best_score:
            best_h, best_score = h, score
    return best_h


def _per_class_counts(
    users: Sequence[User], flags: Sequence[bool], classes: Sequence[QosClass]
) -> dict[int, int]:
    counts = {c.id: 0 for c in classes}
    for u, covered in zip(users, flags):
        if covered:
            counts[u.class_id] += 1
    return counts


def _result(
    tag: str,
    h_m: float,
    solution: PlacementSolution,
    users: Sequence[User],
    classes: Sequence[QosClass],
    radii: dict[int, float],
    t_start: float,
) -> AlgorithmResult:
    return AlgorithmResult(
        algorithm=tag,
        h_m=h_m,
        x_d_m=solution.x_d_m,
        y_d_m=solution.y_d_m,
        covered_count=solution.covered_count,
        per_class_covered=_per_class_counts(users, solution.covered_flags, classes),
        runtime_s=time.perf_counter() - t_start,
        radii_used=radii,
    )


def _empty_solution() -> PlacementSolution:
    # No users: any center is optimal; keep the origin for determinism.
    return PlacementSolution(0.0, 0.0, (), 0)


def exhaustive_search(
    users: Sequence[User],
    classes: Sequence[QosClass],
    env: Environment,
    radio: RadioConfig,
    grid: AltitudeGrid,
) -> AlgorithmResult:
    """Best altitude/center pair over the grid; count ties favor lower altitude."""
    t0 = time.perf_counter()
    cs = sort_classes(classes)
    alts = grid.altitudes()
    table = _radius_table(alts, cs, env, radio)
    best = None
    for h, column in zip(alts, table.T):
        radii = {c.id: float(r) for c, r in zip(cs, column)}
        sol = solve_exact(users, radii) if users else _empty_solution()
        if best is None or sol.covered_count > best[1].covered_count:
            best = (h, sol, radii)
    h, sol, radii = best
    return _result("es", h, sol, users, cs, radii, t0)


def mwa_place(
    users: Sequence[User],
    classes: Sequence[QosClass],
    env: Environment,
    radio: RadioConfig,
) -> AlgorithmResult:
    """Place once at the weighted-area-optimal altitude."""
    t0 = time.perf_counter()
    cs = sort_classes(classes)
    bracket = altitude_bracket(cs, env, radio)
    h = mwa_altitude(cs, env, radio, bracket)
    radii = {c.id: coverage_radius(h, c.l_th_db, env, radio) for c in cs}
    sol = solve_exact(users, radii) if users else _empty_solution()
    return _result("mwa", h, sol, users, cs, radii, t0)


def lq_place(
    users: Sequence[User],
    classes: Sequence[QosClass],
    env: Environment,
    radio: RadioConfig,
    strict: bool = False,
) -> AlgorithmResult:
    """Baseline: deploy for the most demanding class only.

    The center is chosen with the single most-demanding radius for everyone.
    Reported coverage then uses the true per-class radii at that altitude
    (default), or keeps the single radius when ``strict`` is set.
    """
    t0 = time.perf_counter()
    cs = sort_classes(classes)
    base = optimal_pair(cs[0].l_th_db, env, radio)
    place_radii = {c.id: base.r_star_m for c in cs}
    sol = solve_exact(users, place_radii) if users else _empty_solution()
    if strict:
        report_radii = place_radii
    else:
        report_radii = {
            c.id: coverage_radius(base.h_star_m, c.l_th_db, env, radio) for c in cs
        }
    final = (
        evaluate_center(sol.x_d_m, sol.y_d_m, users, report_radii)
        if users
        else _empty_solution()
    )
    return _result("lq", base.h_star_m, final, users, cs, report_radii, t0)
