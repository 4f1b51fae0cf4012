"""Coverage radius of one loss threshold, and the altitude that maximizes it.

The mean-loss contour ``L(h, r) = l_th`` is transcendental in ``r``, so the
radius is bisected inside a closed-form bracket (the loss is strictly
increasing in ``r`` at fixed altitude, which makes bisection safe). The
radius-maximizing elevation angle depends only on the terrain constants, so
the best altitude for a threshold follows from that angle and the
closed-form radius along a fixed-angle ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import (
    Environment,
    QosClass,
    RadioConfig,
    los_probability,
    mean_path_loss,
    path_loss_constants,
    sort_classes,
)
from .errors import InfeasibleThresholdError, InputError

RADIUS_TOL_M = 1e-3
ANGLE_TOL_DEG = 1e-4
MAX_RADIUS_M = 1e7

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


def _contour_bracket(h, l_th_db, env: Environment, radio: RadioConfig):
    """Horizontal distances ``(lo, hi)`` between which the loss contour lies.

    The line-of-sight probability lies in [0, 1], so at slant distance ``d``
    the mean loss lies between ``offset + delta + 20 log10 d`` and
    ``offset + 20 log10 d``. Solving each bound for ``l_th`` gives a covered
    distance ``lo`` and an uncovered one ``hi``. The slant distances are
    capped at ``h + 2 MAX_RADIUS_M``, which lies beyond ``MAX_RADIUS_M`` and
    keeps a huge budget from overflowing. Accepts scalars or arrays.
    """
    k = path_loss_constants(env, radio)
    log_d = (l_th_db - k.offset_db) / 20.0
    d = 10.0 ** np.minimum([log_d, log_d - k.delta_db / 20.0], np.log10(h + 2.0 * MAX_RADIUS_M))
    return np.sqrt(np.maximum((d - h) * (d + h), 0.0))


def coverage_radius(h_m: float, l_th_db: float, env: Environment, radio: RadioConfig) -> float:
    """Largest horizontal distance still covered from altitude ``h_m``.

    Returns 0 when even the overhead link exceeds the threshold, and
    ``MAX_RADIUS_M`` when the contour lies beyond it. The root is bisected to
    ``RADIUS_TOL_M`` inside the closed-form bracket of ``_contour_bracket``.
    """
    if not h_m > 0.0:
        raise InputError(f"altitude h_m must be positive, got {h_m}")
    # ``not <=`` as in coverage_radius_profile, so a nan budget gives 0 in both
    if not mean_path_loss(h_m, 0.0, env, radio) <= l_th_db:
        return 0.0
    lo, hi = map(float, _contour_bracket(h_m, l_th_db, env, radio))
    while hi - lo > RADIUS_TOL_M:
        mid = 0.5 * (lo + hi)
        if mean_path_loss(h_m, mid, env, radio) <= l_th_db:
            lo = mid
        else:
            hi = mid
    return min(0.5 * (lo + hi), MAX_RADIUS_M)


def _mean_path_loss_array(h, r, env: Environment, radio: RadioConfig):
    # Vector twin of channel.mean_path_loss; arctan2 handles r = 0 exactly.
    k = path_loss_constants(env, radio)
    theta_deg = np.degrees(np.arctan2(h, r))
    p_los = 1.0 / (1.0 + env.a * np.exp(-env.b * (theta_deg - env.a)))
    return k.delta_db * p_los + 10.0 * np.log10(h * h + r * r) + k.offset_db


def coverage_radius_profile(h_values, l_th_db, env: Environment, radio: RadioConfig) -> np.ndarray:
    """Coverage radii for many altitudes at once (same contract as coverage_radius).

    ``l_th_db`` may be a scalar or an array matching ``h_values``.
    """
    h = np.asarray(h_values, dtype=float)
    if h.ndim != 1:
        raise InputError("h_values must be one-dimensional")
    if not np.all(h > 0.0):
        raise InputError("all altitudes must be positive")
    l_th_db = np.broadcast_to(np.asarray(l_th_db, dtype=float), h.shape)
    out = np.zeros_like(h)
    lo, hi = _contour_bracket(h, l_th_db, env, radio)
    active = _mean_path_loss_array(h, np.zeros_like(h), env, radio) <= l_th_db
    if active.any():
        while np.max((hi - lo)[active]) > RADIUS_TOL_M:
            mid = 0.5 * (lo + hi)
            below = _mean_path_loss_array(h, mid, env, radio) <= l_th_db
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out[active] = np.minimum(0.5 * (lo + hi), MAX_RADIUS_M)[active]
    return out


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
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
    p_los = 1.0 / (1.0 + env.a * np.exp(-env.b * (grid - env.a)))
    scan = _COS_GAIN_SCAN_DB - delta_db * p_los
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
