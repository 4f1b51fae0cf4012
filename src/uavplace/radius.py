"""Coverage radius of one loss threshold, and the altitude that maximizes it.

At elevation angle ``theta`` the slant distance is ``h / sin(theta)``, so
the mean loss is ``L(h, r) = 20 (F(theta) + log10 h) + offset_db`` with
``F(theta) = delta_db p_LoS(theta) / 20 - log10 sin(theta)``. ``F`` depends
only on the terrain and falls strictly with the angle (``delta_db <= 0``),
so the loss contour ``L = l_th`` is the one angle where
``F = (l_th - offset_db) / 20 - log10 h``, and the radius is
``h cot(theta)``. ``F`` is tabulated once per terrain; each radius is a
table lookup plus a few Newton steps on the angle. The radius-maximizing
elevation angle depends only on the terrain constants, so the best altitude
for a threshold follows from that angle and the closed-form radius along a
fixed-angle ray.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    Environment,
    QosClass,
    RadioConfig,
    los_curve,
    los_probability,
    mean_path_loss,
    path_loss_constants,
    sort_classes,
)
from .errors import InfeasibleThresholdError, InputError

RADIUS_TOL_M = 1e-3
ANGLE_TOL_DEG = 1e-4
MAX_RADIUS_M = 1e7
#: Newton steps of the scalar contour solve (the loop bound) and of the
#: vector one.
CONTOUR_NEWTON_STEPS = 6
PROFILE_NEWTON_STEPS = 2
#: Iteration cap of the golden-section and Illinois searches, far above the
#: steps they take; it only stops a bracket that floats cannot split further.
SEARCH_STEPS = 200

_DEG = math.pi / 180.0
_LN10 = math.log(10.0)
#: Contour table abscissa t = cot(theta) = r / h. Below the first node a
#: radius is under 1e-12 h; past the last one F has a closed form.
_CONTOUR_T = np.logspace(-12.0, 16.0, 2049)
#: Extra table nodes across the rise of p_LoS, as values of the logistic's
#: argument b (theta - a) - ln a, so that a steep terrain (large b) still
#: has cells in which F is nearly linear.
_CONTOUR_LOGIT = np.linspace(-20.0, 20.0, 257)
#: A scalar solve stops once a step moves the angle by less than this
#: fraction of its table cell.
_NEWTON_RTOL = 1e-6

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
#: Elevation search interval (0, 90) degrees, kept off the singular ends.
_ELEVATION_EPS_DEG = 1e-9
#: One-degree scan whose local gain peaks seed the elevation search.
_ELEVATION_SCAN_DEG = np.linspace(_ELEVATION_EPS_DEG, 90.0 - _ELEVATION_EPS_DEG, 91)
_COS_GAIN_SCAN_DB = 20.0 * np.log10(np.cos(np.radians(_ELEVATION_SCAN_DEG)))


@dataclass(frozen=True)
class OptimalPoint:
    """Radius-maximizing geometry for one loss threshold."""

    theta_star_deg: float
    h_star_m: float
    r_star_m: float


@dataclass(frozen=True)
class AltitudeBracket:
    """Altitude interval guaranteed to contain a count-maximizing altitude.

    The ends are the per-threshold optimal altitudes of the most and least
    demanding classes; they coincide iff all classes share one threshold.
    """

    h_lo_m: float
    h_hi_m: float

    def __post_init__(self) -> None:
        if not self.h_lo_m <= self.h_hi_m:
            raise InputError("bracket requires h_lo_m <= h_hi_m")


def _contour_terms(theta_deg, env: Environment, xp=math):
    # F(theta) = delta_db p(theta) / 20 - log10 sin(theta) and dF/dtheta per
    # degree, on floats (xp=math) or arrays (xp=numpy); F falls strictly.
    dh = (env.eta_los_db - env.eta_nlos_db) / 20.0
    p = los_curve(theta_deg, env, xp)
    rad = theta_deg * _DEG
    return dh * p - xp.log10(xp.sin(rad)), dh * env.b * p * (1.0 - p) - _DEG / (_LN10 * xp.tan(rad))


@lru_cache(maxsize=64)
def _contour(env: Environment):
    """The terrain's ``F`` at the angles of ``_CONTOUR_T`` and ``_CONTOUR_LOGIT``.

    Returns the angles (falling) and ``F`` (rising) as arrays for the vector
    solver and as lists of floats for the scalar one. Cached per terrain.
    """
    grid = np.degrees(np.arctan2(1.0, _CONTOUR_T))
    rise = env.a + (math.log(env.a) - _CONTOUR_LOGIT) / env.b
    rise = rise[(rise < grid[0]) & (rise > grid[-1])]
    # merge the two falling sequences by position: np.unique or np.insert
    # would page in 0.25-1.5 MB of sorting code that a small trial never runs
    at = np.searchsorted(-grid, -rise) + np.arange(len(rise))
    theta = np.empty(len(grid) + len(rise))
    on_grid = np.ones(len(theta), dtype=bool)
    on_grid[at] = False
    theta[at], theta[on_grid] = rise, grid
    # running maximum: rounding must not break the order that bisect needs
    f = np.maximum.accumulate(_contour_terms(theta, env, np)[0])
    return theta, f, theta.tolist(), f.tolist()


def _beyond_table(h, y, f_end):
    # Past the last node sin(theta) = 1 / t to rounding and p_LoS is constant
    # to within b * 1.5e-15, so F rises as log10 t. The radius is formed in
    # log10 and capped one decade past MAX_RADIUS_M, so no altitude or budget
    # overflows and the caller's cap bites.
    log_r = np.log10(h) + math.log10(_CONTOUR_T[-1]) + (y - f_end)
    return 10.0 ** np.minimum(log_r, math.log10(10.0 * MAX_RADIUS_M))


def coverage_radius(h_m: float, l_th_db: float, env: Environment, radio: RadioConfig) -> float:
    """Largest horizontal distance still covered from altitude ``h_m``.

    Returns 0 when even the overhead link exceeds the threshold, and
    ``MAX_RADIUS_M`` when the contour lies beyond it. The table cell that
    holds the contour is found by bisection, and at most
    ``CONTOUR_NEWTON_STEPS`` safeguarded Newton steps refine the angle.
    """
    if not h_m > 0.0:
        raise InputError(f"altitude h_m must be positive, got {h_m}")
    # ``not <=`` as in coverage_radius_profile, so a nan budget gives 0 in both
    if not mean_path_loss(h_m, 0.0, env, radio) <= l_th_db:
        return 0.0
    _, _, thetas, fs = _contour(env)
    y = (l_th_db - path_loss_constants(env, radio).offset_db) / 20.0 - math.log10(h_m)
    i = bisect_left(fs, y)
    if i == 0:
        return min(h_m / math.tan(thetas[0] * _DEG), MAX_RADIUS_M)
    if i == len(fs):
        return min(float(_beyond_table(h_m, y, fs[-1])), MAX_RADIUS_M)
    # F(hi) < y <= F(lo), and hi > lo as angles
    hi, lo, f_hi, f_lo = thetas[i - 1], thetas[i], fs[i - 1], fs[i]
    theta = hi + (y - f_hi) * (lo - hi) / (f_lo - f_hi)
    tol = _NEWTON_RTOL * (hi - lo)
    for _ in range(CONTOUR_NEWTON_STEPS):
        f, df = _contour_terms(theta, env)
        if f < y:
            hi = theta
        elif f > y:
            lo = theta
        step = (f - y) / df
        if abs(step) <= tol:
            theta -= step
            break
        theta = theta - step if lo < theta - step < hi else 0.5 * (lo + hi)
    return min(h_m / math.tan(theta * _DEG), MAX_RADIUS_M)


def coverage_radius_profile(h_values, l_th_db, env: Environment, radio: RadioConfig) -> np.ndarray:
    """Coverage radii for many altitudes at once (same contract as coverage_radius).

    ``l_th_db`` may be a scalar or an array matching ``h_values``. Each
    contour starts from linear interpolation in the table and takes
    ``PROFILE_NEWTON_STEPS`` Newton steps, each kept inside its table cell.
    """
    h = np.asarray(h_values, dtype=float)
    if h.ndim != 1:
        raise InputError("h_values must be one-dimensional")
    if not np.all(h > 0.0):
        raise InputError("all altitudes must be positive")
    l_th_db = np.broadcast_to(np.asarray(l_th_db, dtype=float), h.shape)
    thetas, fs, _, _ = _contour(env)
    k = path_loss_constants(env, radio)
    out = np.zeros_like(h)
    # the scalar zero rule, not mean_path_loss(h, 0) <= l_th, element-wise
    active = k.delta_db * los_probability(90.0, env) + 10.0 * np.log10(h * h) + k.offset_db <= l_th_db
    h = h[active]
    y = (l_th_db[active] - k.offset_db) / 20.0 - np.log10(h)
    y_in = np.clip(y, fs[0], fs[-1])
    i = np.clip(np.searchsorted(fs, y_in), 1, len(fs) - 1)
    lo, hi = thetas[i], thetas[i - 1]
    theta = np.interp(y_in, fs, thetas)
    for _ in range(PROFILE_NEWTON_STEPS):
        f, df = _contour_terms(theta, env, np)
        theta = np.clip(theta - (f - y_in) / df, lo, hi)
    r = np.where(y > fs[-1], _beyond_table(h, y, fs[-1]), h / np.tan(theta * _DEG))
    out[active] = np.minimum(r, MAX_RADIUS_M)
    return out


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(SEARCH_STEPS):
        if hi - lo <= tol:
            break
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


@lru_cache(maxsize=64)
def optimal_elevation(env: Environment) -> float:
    """Elevation angle (degrees) maximizing the coverage radius.

    Depends only on the terrain constants, not on the threshold or carrier:
    along a fixed-angle ray the radius scales monotonically with
    ``20 log10(cos theta) - delta_db * p_los(theta)``, so maximizing that gain
    maximizes the radius for every threshold. Golden-section search refines
    every local peak of a one-degree scan of the gain on the two cells around
    it, and the highest refined peak wins: some valid terrains give the gain
    two peaks, and the higher one need not hold the best sample. Cached per
    terrain.
    """
    delta_db = env.eta_los_db - env.eta_nlos_db

    def gain(theta_deg: float) -> float:
        return 20.0 * math.log10(math.cos(math.radians(theta_deg))) - delta_db * los_probability(theta_deg, env)

    grid = _ELEVATION_SCAN_DEG
    scan = _COS_GAIN_SCAN_DB - delta_db * los_curve(grid, env, np)
    padded = np.concatenate(([-np.inf], scan, [-np.inf]))
    peaks = np.flatnonzero((scan >= padded[:-2]) & (scan >= padded[2:]))
    cells = [(float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])) for i in peaks]
    return max((_golden_max(gain, lo, hi, ANGLE_TOL_DEG) for lo, hi in cells), key=gain)


def optimal_pair(l_th_db: float, env: Environment, radio: RadioConfig) -> OptimalPoint:
    """Best altitude and the associated maximum coverage radius for a threshold.

    The radius along the optimal-angle ray has a closed form once the angle is
    known; the altitude follows from the angle. The radius is computed in log
    form, and a budget whose radius exceeds ``MAX_RADIUS_M`` is rejected.
    """
    if not (math.isfinite(l_th_db) and l_th_db > 0.0):
        raise InfeasibleThresholdError(
            f"infeasible threshold: l_th_db = {l_th_db} admits no usable coverage radius"
        )
    theta_deg = optimal_elevation(env)
    k = path_loss_constants(env, radio)
    angle_term_db = k.delta_db * los_probability(theta_deg, env)
    theta_rad = math.radians(theta_deg)
    log_r = math.log10(math.cos(theta_rad)) + (l_th_db - k.offset_db - angle_term_db) / 20.0
    if not log_r <= math.log10(MAX_RADIUS_M):
        raise InputError(
            f"loss threshold l_th_db = {l_th_db} gives a coverage radius beyond {MAX_RADIUS_M:g} m"
        )
    r_star = 10.0 ** log_r
    h_star = r_star * math.tan(theta_rad)
    return OptimalPoint(theta_star_deg=theta_deg, h_star_m=h_star, r_star_m=r_star)


def altitude_bracket(classes, env: Environment, radio: RadioConfig) -> AltitudeBracket:
    """Altitude interval spanned by the optimal altitudes of the extreme classes."""
    cs = sort_classes(classes)
    lo = optimal_pair(cs[0].l_th_db, env, radio).h_star_m
    hi = optimal_pair(cs[-1].l_th_db, env, radio).h_star_m
    return AltitudeBracket(h_lo_m=lo, h_hi_m=hi)
