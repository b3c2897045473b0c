"""Fixed-radius neighbour counts on a uniform grid (Eq. 5's X3 factor).

The demand factor X3 (Eq. 5) needs, for every task, the number of mobile
users within R meters ("neighbouring users").  A naive all-pairs scan is
O(tasks x users) per round.  :func:`bulk_counts` instead lays a grid of
cells at least R wide over the tasks' bounding box, so any user within R
of a task falls in the 3x3 block of cells around it, and each user is
compared only with the tasks whose block holds its cell.  A round's
pricing calls it once, over the published tasks only
(:meth:`RoundView.neighbour_counts
<repro.core.mechanisms.base.RoundView.neighbour_counts>`).

:func:`expand_ranges` expands the ranges of a sorted-array query into one
flat position vector (also the candidate expansion of
:mod:`repro.simulation.round_cache`'s sparse rounds).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.geometry.point import BOUNDARY_TOL, redecide

#: The 3x3 block of cell offsets around a center's cell.
_NINE_CELLS = np.asarray(
    [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=np.int64
)
#: Relative widening of the cells past R.  Cell coordinates carry a
#: rounding error of a few ulps per cell of the table's span, so a point
#: exactly R from a center could otherwise land two cells away from it;
#: 1e-6 covers tables of up to ~10^9 cells a side.
_CELL_MARGIN = 1e-6


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every position of the half-open ranges ``[lo, hi)``, range by range.

    ``lo`` and ``hi`` are equal-shape int arrays (any shape, read in C
    order) with ``hi >= lo``.  Returns ``(owner, positions)``: the flat
    index of the range each position came from, and the positions
    themselves, ascending within each range.
    """
    lo, hi = lo.ravel(), hi.ravel()
    # Empty ranges are dropped first: np.repeat's cost grows with the
    # ranges it walks, not only with the positions it writes.
    owner = np.flatnonzero(hi > lo)
    lengths = hi[owner] - lo[owner]
    # Position i of the expansion lies in range owner[i], at offset
    # i - start(owner[i]) from that range's lo.
    starts = np.cumsum(lengths) - lengths
    positions = np.repeat(lo[owner] - starts, lengths)
    positions += np.arange(len(positions))
    return np.repeat(owner, lengths), positions


def _center_table(
    centers: np.ndarray, radius: float, n_points: int
) -> Tuple[np.ndarray, float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A dense CSR table from grid cell to the centers whose 3x3 block
    holds it.

    Cells are at least ``radius`` wide (times ``1 + _CELL_MARGIN``), and
    wider when the centers' bounding box would otherwise need more than
    about ``n_points + 9 * len(centers)`` cells: a tiny radius coarsens
    the cells (more candidate pairs, never a missed one) instead of
    growing the table.  The grid starts three cells below and left of
    the box (so rounding cannot pull a block onto its edge), and the
    table's outermost ring of cells lies in no block, so points clipped
    onto it find no center.

    Returns ``(origin, width, shape, starts, sizes, members)``: point
    ``p`` lies in cell ``floor((p - origin) / width)`` (per axis,
    row-major in ``shape``), and the centers whose block holds cell
    ``c`` are ``members[starts[c]:starts[c] + sizes[c]]``.
    """
    low = centers.min(axis=0)
    extent = centers.max(axis=0) - low
    target = n_points + 9 * len(centers)
    width = max(
        radius,
        math.sqrt(float(extent[0] * extent[1]) / target),
        float(extent[0] + extent[1]) / target,
    ) * (1.0 + _CELL_MARGIN)
    origin = low - 3 * width
    cells = np.floor((centers - origin) / width).astype(np.int64)
    shape = cells.max(axis=0) + 3
    block = (cells[:, None, :] + _NINE_CELLS[None, :, :]).reshape(-1, 2)
    keys = block[:, 0] * shape[1] + block[:, 1]
    members = np.argsort(keys) // 9
    sizes = np.bincount(keys, minlength=int(shape[0] * shape[1]))
    starts = np.cumsum(sizes) - sizes
    return origin, width, shape, starts, sizes, members


def bulk_counts(
    points: np.ndarray, centers: np.ndarray, radius: float
) -> np.ndarray:
    """Fixed-radius neighbour counts, fully vectorised across centers.

    ``points`` and ``centers`` are ``(n, 2)`` and ``(m, 2)`` float64
    coordinate arrays.  Counts are inclusive of the boundary and equal a
    scalar per-center walk of the cells around it deciding each point by
    ``Point.distance_to`` (the test suite's grid oracle pins this).
    Each point is hashed to its cell of :func:`_center_table` with one
    ``floor``; points in cells no center's block holds are dropped, and
    the rest are paired with the centers listed for their cell.
    Distances within :data:`~repro.geometry.point.BOUNDARY_TOL` of the
    radius are re-decided by :func:`~repro.geometry.point.redecide`, the
    scalar predicate.

    Raises:
        ValueError: for a non-positive radius.
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    m = len(centers)
    counts = np.zeros(m, dtype=int)
    if len(points) == 0 or m == 0:
        return counts
    coords = np.asarray(points, dtype=float)
    carr = np.asarray(centers, dtype=float)
    origin, width, shape, starts, sizes, members = _center_table(
        carr, radius, len(coords)
    )
    cells = coords - origin
    cells /= width
    np.floor(cells, out=cells)
    # Points off the table land on its empty outer ring.
    for axis in (0, 1):
        np.clip(cells[:, axis], 0, shape[axis] - 1, out=cells[:, axis])
    index = cells.astype(np.int64)
    keys = index[:, 0] * shape[1] + index[:, 1]
    lengths = sizes[keys]
    rows = np.flatnonzero(lengths > 0)
    lo = starts[keys[rows]]
    owner, flat = expand_ranges(lo, lo + lengths[rows])
    if not len(flat):
        return counts
    cand = rows[owner]
    center_of = members[flat]
    dx = coords[cand, 0] - carr[center_of, 0]
    dy = coords[cand, 1] - carr[center_of, 1]
    distances = np.hypot(dx, dy)
    inside = distances <= radius
    near = np.flatnonzero(np.abs(distances - radius) <= BOUNDARY_TOL)
    redecide(
        inside, near, coords[cand[near]], carr[center_of[near]],
        np.full(len(near), radius),
    )
    return np.bincount(center_of[inside], minlength=m).astype(int)
