"""Fixed-radius neighbour counts on a uniform grid (Eq. 5's X3 factor).

The demand factor X3 (Eq. 5) needs, for every task, the number of mobile
users within R meters ("neighbouring users").  A naive all-pairs scan is
O(tasks x users) per round; hashing users into square cells of side R
makes each task inspect only the 3x3 block of cells around it, since any
point within ``radius`` of a query location falls in one of those 9 cells.

- :func:`bulk_counts` — one whole-array count per round;
- :class:`IncrementalNeighbourCounter` — the same counts kept up to date
  from the users who moved, which is what the engine uses;
- :func:`expand_ranges` — the ``searchsorted`` ranges of a sorted-array
  query expanded into one flat position vector (also the candidate
  expansion of :mod:`repro.simulation.round_cache`'s sparse rounds).
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point


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


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Every position of the half-open ranges ``[lo, hi)``, range by range.

    ``lo`` and ``hi`` are equal-shape int arrays (any shape, read in C
    order) with ``hi >= lo``.  Returns ``(owner, positions)``: the flat
    index of the range each position came from, and the positions
    themselves, ascending within each range.
    """
    lo, hi = lo.ravel(), hi.ravel()
    lengths = hi - lo
    owner = np.repeat(np.arange(lengths.size), lengths)
    # Position i of the expansion lies in range owner[i], at offset
    # i - start(owner[i]) from that range's lo.
    starts = np.cumsum(lengths) - lengths
    positions = np.arange(len(owner)) + np.repeat(lo - starts, lengths)
    return owner, positions


def bulk_counts(
    points: np.ndarray, centers: np.ndarray, radius: float
) -> np.ndarray:
    """Fixed-radius neighbour counts, fully vectorised across centers.

    ``points`` and ``centers`` are ``(n, 2)`` and ``(m, 2)`` float64
    coordinate arrays.  Counts are inclusive of the boundary and equal a
    scalar per-center walk of the 3x3 cell block deciding each point by
    ``Point.distance_to`` (the test suite's grid oracle pins this).
    Cell membership, the block gather and the distance predicate all run
    as whole-array expressions; distances within :data:`_BOUNDARY_TOL`
    of the radius are re-decided by ``math.hypot``, the scalar
    predicate.

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
    reps, flat = expand_ranges(lo, hi)
    if not len(flat):
        return counts
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
    computed by :func:`bulk_counts` with its exact scalar boundary
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
