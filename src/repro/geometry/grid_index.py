"""A uniform-grid spatial index for fixed-radius neighbour queries.

The demand factor X3 (Eq. 5) needs, for every task, the number of mobile
users within R meters ("neighbouring users").  A naive all-pairs scan is
O(tasks x users) per round; the grid index makes each query inspect only
the 3x3 block of cells around the task, which matters once the engine is
swept over 40-140 users for hundreds of repetitions.

The cell size equals the query radius, so any point within ``radius`` of a
query location is guaranteed to fall in one of the 9 neighbouring cells.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point


class GridIndex:
    """Index a fixed set of points for repeated fixed-radius counting.

    Args:
        points: the points to index (e.g. current user positions).
        cell_size: side of each square cell in meters; queries with
            ``radius <= cell_size`` touch at most 9 cells.

    The index is immutable once built.  It is the scalar reference for
    :func:`bulk_counts`, which the engine and the mechanisms use (tests
    pin the two to the same counts).
    """

    def __init__(self, points: Sequence[Point], cell_size: float):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self._cell_size = float(cell_size)
        self._points: List[Point] = list(points)
        self._cells: Dict[Tuple[int, int], List[int]] = defaultdict(list)
        for idx, point in enumerate(self._points):
            self._cells[self._cell_of(point)].append(idx)

    @property
    def cell_size(self) -> float:
        return self._cell_size

    def __len__(self) -> int:
        return len(self._points)

    def _cell_of(self, point: Point) -> Tuple[int, int]:
        return (
            int(math.floor(point.x / self._cell_size)),
            int(math.floor(point.y / self._cell_size)),
        )

    def _candidate_cells(
        self, center: Point, radius: float
    ) -> Iterable[Tuple[int, int]]:
        reach = int(math.ceil(radius / self._cell_size))
        cx, cy = self._cell_of(center)
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                yield (cx + dx, cy + dy)

    def query(self, center: Point, radius: float) -> List[int]:
        """Indices of all indexed points within ``radius`` of ``center``.

        The boundary is inclusive, matching the paper's "distance is less
        than R meters" loosely; tests pin the inclusive behaviour.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        hits: List[int] = []
        for cell in self._candidate_cells(center, radius):
            for idx in self._cells.get(cell, ()):
                if self._points[idx].distance_to(center) <= radius:
                    hits.append(idx)
        return hits

    def count_within(self, center: Point, radius: float) -> int:
        """Number of indexed points within ``radius`` of ``center``."""
        return len(self.query(center, radius))

    def counts_for(self, centers: Sequence[Point], radius: float) -> List[int]:
        """Vector of :meth:`count_within` results, one per center.

        This is the shape the demand calculator consumes: one neighbour
        count per task, from one index built per round.
        """
        return [self.count_within(center, radius) for center in centers]


# -- bulk counting and incremental maintenance ---------------------------

#: Distances this close to the radius are re-decided with the scalar
#: predicate; np.hypot and math.hypot can disagree only in the last ulp,
#: far inside this window for any realistic geometry.
_BOUNDARY_TOL = 1e-6

#: The 3x3 block of cell offsets a radius-sized cell query inspects.
_NINE_CELLS = np.asarray(
    [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)], dtype=np.int64
)
#: Cell coordinates are packed into one int64 key for sorted lookup;
#: coordinates must stay within +-_CELL_OFFSET cells of the origin.
_CELL_OFFSET = np.int64(1) << 20
_CELL_STRIDE = np.int64(1) << 21


def _encode_cells(cells: np.ndarray) -> np.ndarray:
    """Pack ``(k, 2)`` integer cell coordinates into ``(k,)`` int64 keys."""
    if cells.size and np.abs(cells).max() >= _CELL_OFFSET:
        raise ValueError(
            "points lie too many cells from the origin for the packed "
            "cell encoding (|cell index| must stay below 2^20)"
        )
    return (cells[:, 0] + _CELL_OFFSET) * _CELL_STRIDE + (
        cells[:, 1] + _CELL_OFFSET
    )


def bulk_counts(
    points: np.ndarray, centers: np.ndarray, radius: float
) -> np.ndarray:
    """Fixed-radius neighbour counts, fully vectorised across centers.

    ``points`` and ``centers`` are ``(n, 2)`` and ``(m, 2)`` float64
    coordinate arrays.  Returns exactly what ``GridIndex(points,
    cell_size=radius).counts_for(centers, radius)`` returns for the same
    coordinates as :class:`Point` s (pinned by tests), without the
    per-center Python loop: cell membership, the 3x3 block gather, and
    the distance predicate all run as whole-array expressions, with the
    same :data:`_BOUNDARY_TOL` band re-decided by
    ``math.hypot`` (``Point.distance_to``'s predicate).

    Raises:
        ValueError: for a non-positive radius (a zero radius has no
            grid cell to hash into).
    """
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    m = len(centers)
    counts = np.zeros(m, dtype=int)
    if len(points) == 0 or m == 0:
        return counts
    coords = np.asarray(points, dtype=float)
    carr = np.asarray(centers, dtype=float)
    keys = _encode_cells(np.floor(coords / radius).astype(np.int64))
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    ccells = np.floor(carr / radius).astype(np.int64)
    nkeys = _encode_cells(
        (ccells[:, None, :] + _NINE_CELLS[None, :, :]).reshape(-1, 2)
    )
    lo = np.searchsorted(sorted_keys, nkeys, side="left")
    hi = np.searchsorted(sorted_keys, nkeys, side="right")
    lengths = hi - lo
    total = int(lengths.sum())
    if total == 0:
        return counts
    # Expand the 9m [lo, hi) ranges into one flat candidate vector:
    # positions within each range are 0..len-1, offset by the range's lo.
    reps = np.repeat(np.arange(lengths.size), lengths)
    starts = np.cumsum(lengths) - lengths
    flat = np.arange(total) - np.repeat(starts, lengths) + np.repeat(lo, lengths)
    cand = order[flat]
    center_of = reps // 9
    dx = coords[cand, 0] - carr[center_of, 0]
    dy = coords[cand, 1] - carr[center_of, 1]
    distances = np.hypot(dx, dy)
    inside = distances <= radius
    near = np.abs(distances - radius) <= _BOUNDARY_TOL
    if np.any(near):
        for j in np.nonzero(near)[0].tolist():
            (px, py), (cx, cy) = coords[cand[j]].tolist(), carr[center_of[j]].tolist()
            inside[j] = math.hypot(px - cx, py - cy) <= radius
    return np.bincount(center_of[inside], minlength=m).astype(int)


class IncrementalNeighbourCounter:
    """Eq. 5 neighbour counts maintained by movement deltas, not rebuilds.

    A per-round recount touches every user every round; at city scale
    most users do not move between rounds (stationary commuters, users
    with no reachable tasks), so the counter instead keeps one running
    count per *primed* center and updates it from the movers alone: a
    user moving from p to p' subtracts its old-position indicator and
    adds its new-position indicator for every center.  Indicators are
    computed by :func:`bulk_counts` with the exact :class:`GridIndex`
    predicate, and counts are integers, so any sequence of updates
    leaves every count bitwise equal to a from-scratch rebuild (pinned
    by tests).

    When a round moves at least :data:`FULL_REBUILD_FRACTION` of the
    population, two delta passes would cost more than one rebuild, so
    the counter recomputes everything instead — same counts, fewer
    flops.

    Args:
        positions: the tracked population's ``(n, 2)`` float64 position
            array.  The counter keeps a reference, not a copy: its owner
            moves rows in place and then reports them through
            :meth:`apply_moves`.
        radius: the neighbourhood radius R (also the grid cell size).
    """

    FULL_REBUILD_FRACTION = 0.5

    def __init__(self, positions: np.ndarray, radius: float):
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self._radius = float(radius)
        self._positions = positions
        self._centers = np.zeros((0, 2))
        self._slots: Dict[Tuple[float, float], int] = {}
        self._counts = np.zeros(0, dtype=int)

    @property
    def radius(self) -> float:
        return self._radius

    def __len__(self) -> int:
        return len(self._positions)

    def prime(self, centers: Sequence[Point]) -> None:
        """Start tracking counts for ``centers`` (idempotent per location).

        Priming costs one full count over the current population, so
        callers should prime every center they will ever query up front
        (the engine primes all task locations before round 1) — queries
        and moves after that never rescan the full population.
        """
        fresh = list(dict.fromkeys(
            (c.x, c.y) for c in centers if (c.x, c.y) not in self._slots
        ))
        if not fresh:
            return
        fresh_xy = np.asarray(fresh, dtype=float)
        for key in fresh:
            self._slots[key] = len(self._slots)
        self._centers = np.concatenate([self._centers, fresh_xy])
        self._counts = np.concatenate([
            self._counts, bulk_counts(self._positions, fresh_xy, self._radius)
        ])

    def counts_array(self, centers: Sequence[Point]) -> np.ndarray:
        """Current neighbour count per center (priming any new ones)."""
        self.prime(centers)
        slots = self._slots
        return self._counts[[slots[(c.x, c.y)] for c in centers]]

    def apply_moves(self, rows: np.ndarray, old: np.ndarray) -> None:
        """Fold one round of movement into every tracked count.

        Args:
            rows: the rows of the tracked array that moved; the array
                already holds their new positions.
            old: ``(len(rows), 2)`` positions they moved from — must be
                the positions previously counted, or counts would drift.
        """
        if not len(self._centers) or not len(rows):
            return
        if len(rows) >= self.FULL_REBUILD_FRACTION * len(self._positions):
            self._counts = bulk_counts(
                self._positions, self._centers, self._radius
            )
            return
        self._counts = (
            self._counts
            - bulk_counts(old, self._centers, self._radius)
            + bulk_counts(self._positions[rows], self._centers, self._radius)
        )
