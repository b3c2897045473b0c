"""The scalar uniform-grid index: the test oracle for ``bulk_counts``.

With the cell size equal to the query radius, any point within ``radius``
of a query location falls in one of the 9 neighbouring cells in exact
arithmetic; float division can push it one cell further (a center at
``-1e-300`` and a point at ``radius`` land in cells -1 and 1), so each
query walks one more ring of cells in Python and decides membership with
``Point.distance_to``.  :func:`repro.geometry.grid_index.bulk_counts` must
return the same counts.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

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
        # One extra ring: floor(x / cell) can round a point exactly
        # ``radius`` away into the second cell over.
        reach = int(math.ceil(radius / self._cell_size)) + 1
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
