"""Grid oracles for exact placement, independent of ``solve_exact``.

Both oracles return the best center over a regular grid spanning
``bounds = (x0, y0, x1, y1)`` under the package's membership rule
``d^2 <= (r (1 + GEOM_SLACK))^2``. The count lower-bounds the true optimum,
and ties resolve to the lexicographically smallest grid point.

``grid_oracle`` counts by per-column interval difference arrays: each user
disc covers one contiguous run of grid points in every grid column, so only
the two ends of each run are located, and a cumulative sum along the column
turns the run ends into counts. ``grid_oracle_brute`` scores every grid point
against every user; it is the reference for ``grid_oracle`` on small grids.
"""

import math

import numpy as np

import uavplace as up
from uavplace.errors import InputError
from uavplace.placement import _user_arrays

#: Cap on grid points scored per block by the brute-force oracle.
_BLOCK_POINTS = 262_144


def _grid_axes(step, bounds):
    if not step > 0.0:
        raise InputError(f"grid step must be positive, got {step}")
    x0, y0, x1, y1 = (float(v) for v in bounds)
    if x1 < x0 or y1 < y0:
        raise InputError("bounds must satisfy x1 >= x0 and y1 >= y0")
    # Half-step tolerance keeps the far edge in the grid when it divides evenly.
    nx = int(math.floor((x1 - x0) / step + 1e-9)) + 1
    ny = int(math.floor((y1 - y0) / step + 1e-9)) + 1
    return x0 + step * np.arange(nx), y0 + step * np.arange(ny)


def _center(users, radius_map, xs, ys, flat_index):
    i, j = divmod(int(flat_index), len(ys))
    return up.evaluate_center(float(xs[i]), float(ys[j]), users, radius_map)


def grid_oracle(users, radius_map, step, bounds) -> up.PlacementSolution:
    """Best grid center, counted by interval difference arrays per column."""
    xs, ys = _grid_axes(step, bounds)
    pts, radii = _user_arrays(users, radius_map)
    eff2 = (radii * (1.0 + up.GEOM_SLACK)) ** 2
    nx, ny = len(xs), len(ys)

    # one entry per (user, column) pair whose disc reaches the column at all
    dx2 = (xs[None, :] - pts[:, 0:1]) ** 2
    user, col = np.nonzero(dx2 <= eff2[:, None])
    dx2, py, e2 = dx2[user, col], pts[user, 1], eff2[user]

    def covered(j):
        # the exact rule at row j, for rows inside the grid
        inside = (j >= 0) & (j < ny)
        jj = np.clip(j, 0, ny - 1)
        return inside & (dx2 + (ys[jj] - py) ** 2 <= e2)

    # Rows of the run from the sqrt estimate, then both ends moved by the exact
    # rule until they settle. The rounded rule still grows monotonically with
    # the row's distance from py, so the covered rows of a column are contiguous.
    half = np.sqrt(e2 - dx2)
    lo = np.clip(np.ceil((py - half - ys[0]) / step), -1, ny).astype(np.int64)
    hi = np.clip(np.floor((py + half - ys[0]) / step), -1, ny).astype(np.int64)
    for end, outward in ((lo, -1), (hi, 1)):
        while True:
            grow = covered(end + outward)
            shrink = ~grow & ~covered(end) & (lo <= hi)
            if not (grow.any() or shrink.any()):
                break
            end += outward * (grow.astype(np.int64) - shrink)
    keep = lo <= hi
    col, lo, hi = col[keep], lo[keep], hi[keep]

    size = nx * (ny + 1)
    counts = np.bincount(col * (ny + 1) + lo, minlength=size)
    counts -= np.bincount(col * (ny + 1) + hi + 1, minlength=size)
    counts = np.cumsum(counts.reshape(nx, ny + 1), axis=1)[:, :ny]
    return _center(users, radius_map, xs, ys, np.argmax(counts))


def grid_oracle_brute(users, radius_map, step, bounds) -> up.PlacementSolution:
    """Best grid center, scoring every grid point against every user."""
    xs, ys = _grid_axes(step, bounds)
    pts, radii = _user_arrays(users, radius_map)
    eff2 = (radii * (1.0 + up.GEOM_SLACK)) ** 2
    ny = len(ys)

    best_count, best_index = -1, 0
    rows_per_block = max(1, _BLOCK_POINTS // ny)
    for rstart in range(0, len(xs), rows_per_block):
        bx = np.repeat(xs[rstart : rstart + rows_per_block], ny)  # lexicographic scan order
        by = np.tile(ys, len(bx) // ny)
        d2 = (bx[:, None] - pts[None, :, 0]) ** 2 + (by[:, None] - pts[None, :, 1]) ** 2
        counts = (d2 <= eff2[None, :]).sum(axis=1)
        if counts.max() > best_count:
            best_count = int(counts.max())
            best_index = rstart * ny + int(np.argmax(counts))  # first hit
    return _center(users, radius_map, xs, ys, best_index)
