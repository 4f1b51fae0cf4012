"""Exact horizontal placement of a single coverage center over classed users.

A center covers user ``i`` iff the user lies within its class radius of the
center, i.e. the center lies in the disc of that radius around the user. The
count-maximizing center lies in a finite candidate set: every user position
plus every intersection point of the boundary circles around users. Some
optimal point is either interior to a lone disc (any disc center matches its
count) or on the boundary of at least two discs (a pairwise intersection point
attains the same count), so maximizing over the candidates is exact.

Scoring all ~n^2 candidates against all n users costs O(n^3), so from
``_SWEEP_MIN_USERS`` users on the candidates are counted by an angular sweep
(Chazelle & Lee, "On a circle placement problem", Computing 36, 1986). Each
intersection candidate is a query on the circle it was built from. Every user
disc covers one arc of that circle; the arc endpoints and the queries are
sorted by angle, and a running sum of arc starts minus arc ends gives every
query's count: O(n^2 log n) in all. Circles are swept in row blocks of about
``_SWEEP_POINTS`` user pairs, so the temporaries stay small as n grows. The
arcs are widened slightly, so the sweep counts bound the true counts from
above. The candidates with the highest bound are then scored exactly under
the same ``GEOM_SLACK`` rule, which keeps counts and centers identical to
scoring every candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError

#: Relative slack on disc membership, so candidates constructed on two circle
#: boundaries still count both defining users despite rounding.
GEOM_SLACK = 1e-6

#: Cap on candidate-or-grid points scored per vectorized block.
_BLOCK_POINTS = 262_144

#: Below this many users ``solve_exact`` scores every candidate directly: the
#: sweep's fixed array overhead only pays off above it (measured crossover on
#: a 2-core x86 host, between 35 and 45 users).
_SWEEP_MIN_USERS = 40

#: Widening of the sweep arcs in squared distance, relative to
#: ``rmax * (rmax + max |coordinate|)`` and per unit of sort-key truncation.
#: It stays far above the rounding of the angles, keys and candidate
#: coordinates, and at practical sizes far below the ``GEOM_SLACK`` margin.
_SWEEP_TOL = 1e-12

#: Cap on the elements of one sweep or intersection array, small enough that
#: a block's temporaries reuse freed memory instead of faulting in new pages.
_SWEEP_POINTS = 4096

_TWO_PI = 2.0 * math.pi
# Sweep event types (an arc start is 0); equal angles order arc start < query
# < arc end, so arcs are closed.
_QUERY, _END, _PAD = 1, 2, 3

RadiusMap = Mapping[int, float]


@dataclass(frozen=True)
class User:
    """Ground user: planar position in meters plus QoS class membership."""

    x_m: float
    y_m: float
    class_id: int


@dataclass(frozen=True)
class PlacementSolution:
    """A center with the per-user coverage flags it induces."""

    x_d_m: float
    y_d_m: float
    covered_flags: tuple[bool, ...]
    covered_count: int

    def __post_init__(self) -> None:
        if self.covered_count != sum(self.covered_flags):
            raise InputError("covered_count must equal the number of set flags")


def _user_arrays(users: Sequence[User], radius_map: RadiusMap):
    pts = np.empty((len(users), 2), dtype=float)
    radii = np.empty(len(users), dtype=float)
    for i, u in enumerate(users):
        try:
            radii[i] = radius_map[u.class_id]
        except KeyError:
            raise InputError(f"user {i} references unknown class id {u.class_id}") from None
        pts[i, 0] = u.x_m
        pts[i, 1] = u.y_m
    if not np.isfinite(pts).all():
        i = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
        raise InputError(f"user {i} has non-finite coordinates ({users[i].x_m}, {users[i].y_m})")
    if len(users) and not (np.all(np.isfinite(radii)) and np.all(radii >= 0.0)):
        raise InputError("all radii must be finite and >= 0")
    return pts, radii


def evaluate_center(
    x_m: float, y_m: float, users: Sequence[User], radius_map: RadiusMap
) -> PlacementSolution:
    """Coverage flags and count induced by placing the center at (x_m, y_m)."""
    pts, radii = _user_arrays(users, radius_map)
    d2 = (pts[:, 0] - x_m) ** 2 + (pts[:, 1] - y_m) ** 2
    flags = d2 <= (radii * (1.0 + GEOM_SLACK)) ** 2
    return PlacementSolution(
        x_d_m=float(x_m),
        y_d_m=float(y_m),
        covered_flags=tuple(bool(f) for f in flags),
        covered_count=int(flags.sum()),
    )


def _intersection_blocks(pts: np.ndarray, radii: np.ndarray, rows: int):
    """Boundary intersections of crossing pairs ``i < j``, ``rows`` values of i at a time.

    Yields ``(lo, hi, dx, dy, d2, d, i, plus, minus)``: the block's rows
    ``lo..hi-1``, their offsets and (squared) distances to every user, the
    lower index of each crossing pair in row-major pair order, and the pair's
    two intersection points as ``(x, y)`` arrays, built from circle i's center.
    """
    n = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        dx = x[None, :] - x[lo:hi, None]
        dy = y[None, :] - y[lo:hi, None]
        d2 = dx * dx + dy * dy
        d = np.sqrt(d2)
        # pairs i < j lie in columns lo + 1.. of the block
        r1, r2, dj = radii[lo:hi, None], radii[None, lo + 1 :], d[:, lo + 1 :]
        ok = (dj > 0.0) & (dj <= r1 + r2) & (dj >= np.abs(r1 - r2))
        ok &= np.arange(lo + 1, n)[None, :] > np.arange(lo, hi)[:, None]
        iu, ju = np.nonzero(ok)
        flat = iu * n + ju + lo + 1
        iu += lo
        r1, r2 = radii[iu], radii[ju + lo + 1]
        pdx, pdy, pd2, pd = dx.take(flat), dy.take(flat), d2.take(flat), d.take(flat)
        along = (r1 * r1 - r2 * r2 + pd2) / (2.0 * pd)
        h = np.sqrt(np.maximum(r1 * r1 - along * along, 0.0))
        bx = x[iu] + (along / pd) * pdx
        by = y[iu] + (along / pd) * pdy
        ux, uy = -pdy / pd, pdx / pd
        yield lo, hi, dx, dy, d2, d, iu, (bx + h * ux, by + h * uy), (bx - h * ux, by - h * uy)


def _pairwise_intersections(pts: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Both boundary intersection points of every crossing pair."""
    blocks = list(_intersection_blocks(pts, radii, max(1, _SWEEP_POINTS // max(1, len(pts)))))
    return np.concatenate(
        [np.column_stack(b[-2]) for b in blocks]
        + [np.column_stack(b[-1]) for b in blocks]
        + [np.empty((0, 2))]
    )


def _count_block(block: np.ndarray, pts: np.ndarray, eff2: np.ndarray) -> np.ndarray:
    d2 = (block[:, None, 0] - pts[None, :, 0]) ** 2 + (block[:, None, 1] - pts[None, :, 1]) ** 2
    return (d2 <= eff2[None, :]).sum(axis=1)


def _covered_counts(points: np.ndarray, pts: np.ndarray, eff2: np.ndarray) -> np.ndarray:
    rows = max(1, _BLOCK_POINTS // len(pts))
    return np.concatenate(
        [_count_block(points[s : s + rows], pts, eff2) for s in range(0, len(points), rows)]
    )


def _first_best(points: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    # Lexicographically smallest (x, y) among the highest counts.
    sel = points[counts == counts.max()]
    k = np.lexsort((sel[:, 1], sel[:, 0]))[0]
    return float(sel[k, 0]), float(sel[k, 1])


def _enumerate(pts: np.ndarray, radii: np.ndarray, eff2: np.ndarray) -> tuple[float, float]:
    """Best candidate by scoring every candidate against every user: O(n^3)."""
    cands = np.concatenate((pts, _pairwise_intersections(pts, radii)))
    return _first_best(cands, _covered_counts(cands, pts, eff2))


def _sweep(pts: np.ndarray, radii: np.ndarray, eff2: np.ndarray) -> tuple[float, float]:
    """Best candidate by sweep bounds plus exact scores of the top: O(n^2 log n).

    Every intersection point is a query on the circle of its pair's lower
    index i, from whose center it was built. Disc k covers the arc of circle
    i where ``|c_i + r_i u(phi) - c_k|^2 <= (r_k(1 + GEOM_SLACK))^2 + w``,
    i.e. ``cos(phi - alpha_ik) >= num / (2 r_i d_ik)``; discs covering all of
    circle i, and arcs that wrap past 2pi, add to the circle's base count. One
    sort per circle of the arc ends and the queries, then a running sum of
    starts minus ends, bounds each query's count from above: ``w`` exceeds
    every rounding error, so no disc that covers a point under the exact rule
    is missed. A point too far off its circle through rounding cannot be
    bounded and is always scored exactly.
    """
    n = len(pts)
    # Sort key: angle bits, then the event type, then the query's slot on its
    # circle (below 2n). Clearing the low angle bits only moves ties toward
    # inclusion, by far less than w.
    shift = (2 * n).bit_length()
    trunc = ~((4 << shift) - 1)
    pad = int(np.float64(16.0).view(np.int64)) & trunc | (_PAD << shift)  # after every angle
    rmax = float(radii.max())
    w = _SWEEP_TOL * (4 << shift) * rmax * (rmax + float(np.abs(pts).max()))
    reach2 = (radii * (1.0 + GEOM_SLACK)) ** 2 + w
    # |rho^2 - r^2| + 2 d |rho - r| <= 8 rmax |rho - r| stays below w / 2
    near_tol = w / (16.0 * rmax) if rmax > 0.0 else 0.0

    own, found, top = [], [], 0
    for lo, hi, dx, dy, d2, d, iu, p, q in _intersection_blocks(
        pts, radii, max(1, _SWEEP_POINTS // n)
    ):
        own.append((d2 <= eff2).sum(axis=1))  # user positions, scored exactly
        nb, m = hi - lo, len(iu)
        per_row = np.bincount(iu - lo, minlength=nb)
        first = np.cumsum(per_row) - per_row
        width = int(per_row.max())
        # Row i: arc starts, arc ends, then its plus points in slots 0.. and
        # its minus points in slots width..
        merged = np.empty((nb, 2 * n + 2 * width), dtype=np.int64)
        merged[:, 2 * n :] = pad
        filled = np.arange(width) < per_row[:, None]
        near = []
        cx, cy, cr = pts[iu, 0], pts[iu, 1], radii[iu]
        for k, (px, py) in enumerate((p, q)):
            ox, oy = cx - px, cy - py
            near.append(np.abs(np.sqrt(ox * ox + oy * oy) - cr) <= near_tol)
            phi = np.arctan2(oy, ox) + math.pi  # angle of p - c, in [0, 2pi]
            slot = np.arange(m) - first[iu - lo] + k * width
            queries = merged[:, 2 * n + k * width : 2 * n + (k + 1) * width]
            queries[filled] = phi.view(np.int64) & trunc | (_QUERY << shift) | slot

        ri = radii[lo:hi, None]
        num = ri * ri + d2 - reach2
        lim = 2.0 * ri * d
        whole = num <= -lim
        off = (num > lim) | whole
        with np.errstate(all="ignore"):  # only at discs that miss or swallow the circle
            half = np.arccos(np.clip(num / lim, -1.0, 1.0))
        start = np.arctan2(dy, dx) - half
        start += (start < 0.0) * _TWO_PI
        end = start + 2.0 * half
        wrap = (end >= _TWO_PI) > off
        end -= wrap * _TWO_PI
        after = off * pad  # discs that miss or swallow the circle: no events
        np.maximum(start.view(np.int64) & trunc, after, out=merged[:, :n])
        np.maximum(end.view(np.int64) & trunc | (_END << shift), after, out=merged[:, n : 2 * n])
        merged.sort(axis=1)

        kind = (merged >> shift) & 3
        step = 1 - kind  # +1 start, 0 query, -1 end; pads sort last
        step[:, 0] += whole.sum(axis=1) + wrap.sum(axis=1)
        isq = kind == _QUERY  # row by row, 2 per_row[i] queries each
        depth = np.cumsum(step, axis=1)[isq]
        far = np.flatnonzero(~np.concatenate(near))
        top = max(top, own[-1].max(), depth.max(initial=0))
        found.append((np.cumsum(2 * per_row), first, width, depth, merged[isq], far, p, q))

    own = np.concatenate(own)

    def rescore(least):
        # Exact counts of every candidate whose bound reaches ``least``, and of
        # the unbounded ones, in candidate order: users, plus points, minus points.
        plus, minus = [], []
        for ends, first, width, depth, keys, far, p, q in found:
            at = np.flatnonzero(depth >= least)
            slot = keys[at] & ((1 << shift) - 1)
            m = len(p[0])
            local = first[np.searchsorted(ends, at, "right")] + slot
            local = np.union1d(local + (slot >= width) * (m - width), far)
            sel = local[local < m]
            plus.append(np.column_stack((p[0][sel], p[1][sel])))
            sel = local[local >= m] - m
            minus.append(np.column_stack((q[0][sel], q[1][sel])))
        xy = np.concatenate([pts[own >= least]] + plus + minus)
        return xy, _covered_counts(xy, pts, eff2)

    xy, counts = rescore(top)
    if counts.max() < top:  # a loose bound: score every candidate that may tie
        xy, counts = rescore(counts.max())
    return _first_best(xy, counts)


def solve_exact(users: Sequence[User], radius_map: RadiusMap) -> PlacementSolution:
    """Center achieving the true maximum covered count.

    The maximum over every user position and every pairwise boundary
    intersection; among count ties, returns the lexicographically smallest
    (x, y) so results are reproducible regardless of evaluation order.
    """
    if not users:
        raise InputError("at least one user is required")
    pts, radii = _user_arrays(users, radius_map)
    eff2 = (radii * (1.0 + GEOM_SLACK)) ** 2
    solve = _enumerate if len(users) < _SWEEP_MIN_USERS else _sweep
    x, y = solve(pts, radii, eff2)
    return evaluate_center(x, y, users, radius_map)


def grid_oracle(
    users: Sequence[User],
    radius_map: RadiusMap,
    step: float,
    bounds,
) -> PlacementSolution:
    """Best center over a regular grid spanning ``bounds`` = (x0, y0, x1, y1).

    Exhaustive but resolution-limited: the returned count lower-bounds the
    true optimum. Ties resolve to the lexicographically smallest grid point.
    """
    if not step > 0.0:
        raise InputError(f"grid step must be positive, got {step}")
    x0, y0, x1, y1 = (float(v) for v in bounds)
    if x1 < x0 or y1 < y0:
        raise InputError("bounds must satisfy x1 >= x0 and y1 >= y0")
    pts, radii = _user_arrays(users, radius_map)
    eff2 = (radii * (1.0 + GEOM_SLACK)) ** 2

    # Half-step tolerance keeps the far edge in the grid when it divides evenly.
    nx = int(math.floor((x1 - x0) / step + 1e-9)) + 1
    ny = int(math.floor((y1 - y0) / step + 1e-9)) + 1
    ys = y0 + step * np.arange(ny)

    best_count = -1
    best_xy = (x0, y0)
    rows_per_block = max(1, _BLOCK_POINTS // ny)
    for rstart in range(0, nx, rows_per_block):
        xs = x0 + step * np.arange(rstart, min(rstart + rows_per_block, nx))
        block = np.column_stack(
            (np.repeat(xs, ny), np.tile(ys, len(xs)))
        )  # lexicographic scan order
        counts = _count_block(block, pts, eff2)
        top = int(counts.max()) if len(counts) else -1
        if top > best_count:
            k = int(np.argmax(counts))  # first hit = lexicographically smallest
            best_count = top
            best_xy = (float(block[k, 0]), float(block[k, 1]))
    return evaluate_center(best_xy[0], best_xy[1], users, radius_map)


def export_bigm_model(
    users: Sequence[User], radius_map: RadiusMap, bounds=None
) -> str:
    """Plain-text big-M model of the placement problem, for external solvers.

    One ``dist`` line per user encodes
    ``sqrt((x_u - x)^2 + (y_u - y)^2) <= radius + M * (1 - u_<id>)`` with
    binary ``u_<id>``; the objective is to maximize the sum of the binaries.
    ``M`` is the bounds-rectangle diagonal plus the largest radius, the
    smallest trivially safe constant. Default bounds: the user bounding box
    inflated by the largest radius.
    """
    if not users:
        raise InputError("at least one user is required")
    pts, radii = _user_arrays(users, radius_map)
    rmax = float(radii.max())
    if bounds is None:
        bounds = (
            float(pts[:, 0].min()) - rmax,
            float(pts[:, 1].min()) - rmax,
            float(pts[:, 0].max()) + rmax,
            float(pts[:, 1].max()) + rmax,
        )
    x0, y0, x1, y1 = (float(v) for v in bounds)
    big_m = math.hypot(x1 - x0, y1 - y0) + rmax
    lines = [
        "# single-center max-coverage model (big-M form)",
        "# variables: center (x, y) within the bounds below; one binary u_<id> per user",
        "# objective: maximize sum of u_<id>",
        "# dist <user_id> <x_u> <y_u> <radius> <M> encodes:",
        "#   sqrt((x_u - x)^2 + (y_u - y)^2) <= radius + M * (1 - u_<id>)",
        f"bounds x {x0!r} {x1!r}",
        f"bounds y {y0!r} {y1!r}",
    ]
    lines.extend(
        f"dist {i} {float(pts[i, 0])!r} {float(pts[i, 1])!r} {float(radii[i])!r} {big_m!r}"
        for i in range(len(users))
    )
    return "\n".join(lines) + "\n"
