"""An immutable 2-D point and elementary distance functions.

The paper's tasks and users are both "location-dependent": each sensing
task :math:`t_i` is associated with a location :math:`L_{t_i}` and each
mobile user has a current position that changes as it travels.  A
:class:`Point` represents one such location, in meters, on the plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

#: Distances this close to a threshold (a travel budget, Eq. 5's radius)
#: are re-decided by :func:`redecide`: a vectorised distance can differ
#: from :meth:`Point.distance_to` only in the last ulp, far inside this band.
BOUNDARY_TOL = 1e-6


@dataclass(frozen=True, order=True)
class Point:
    """An immutable point on the 2-D plane, coordinates in meters.

    Points are hashable and ordered lexicographically, so they can be used
    as dictionary keys and sorted deterministically in tests.

    >>> Point(3.0, 4.0).distance_to(Point(0.0, 0.0))
    5.0
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance in meters to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def manhattan_to(self, other: "Point") -> float:
        """L1 (city-block) distance in meters to ``other``."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def translate(self, dx: float, dy: float) -> "Point":
        """Return a new point shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def midpoint(self, other: "Point") -> "Point":
        """Return the midpoint of the segment between this point and ``other``."""
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def towards(self, other: "Point", distance: float) -> "Point":
        """Return the point ``distance`` meters from ``self`` in the direction of ``other``.

        If ``distance`` meets or exceeds the separation, ``other`` is
        returned (travel never overshoots the destination).  Used by the
        mobility policies to interpolate partial movement.
        """
        total = self.distance_to(other)
        if total <= distance or total == 0.0:
            return other
        frac = distance / total
        return Point(self.x + (other.x - self.x) * frac, self.y + (other.y - self.y) * frac)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)`` as a plain tuple (for numpy interop)."""
        return (self.x, self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


def euclidean(a: Point, b: Point) -> float:
    """Euclidean distance between two points (function form)."""
    return a.distance_to(b)


def manhattan(a: Point, b: Point) -> float:
    """Manhattan distance between two points (function form)."""
    return a.manhattan_to(b)


def redecide(decided, band, a, b, limits) -> None:
    """Re-decide ``decided[band[i]]`` by the scalar predicate,
    :meth:`Point.distance_to`: are rows i of the ``(len(band), 2)``
    arrays ``a`` and ``b`` within ``limits[i]`` of each other?"""
    for j, (ax, ay), (bx, by), limit in zip(
        band.tolist(), a.tolist(), b.tolist(), limits.tolist()
    ):
        decided[j] = math.hypot(ax - bx, ay - by) <= limit


def centroid(points: Iterable[Point]) -> Point:
    """Return the arithmetic centroid of a non-empty iterable of points.

    Raises:
        ValueError: if ``points`` is empty.
    """
    pts = list(points)
    if not pts:
        raise ValueError("centroid() requires at least one point")
    sx = sum(p.x for p in pts)
    sy = sum(p.y for p in pts)
    return Point(sx / len(pts), sy / len(pts))
