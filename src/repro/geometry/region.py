"""Rectangular deployment regions with uniform random sampling.

The paper's experiments place tasks and users uniformly at random in a
3000 m x 3000 m area.  :class:`RectRegion` models that area and is the
single source of random locations in the world generators, so every
placement flows through one seeded :class:`numpy.random.Generator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.geometry.point import Point


@dataclass(frozen=True)
class RectRegion:
    """An axis-aligned rectangle ``[x_min, x_max] x [y_min, y_max]`` in meters."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError(
                f"degenerate region: ({self.x_min}, {self.y_min}) .. "
                f"({self.x_max}, {self.y_max})"
            )

    @classmethod
    def square(cls, side: float) -> "RectRegion":
        """A ``side x side`` square anchored at the origin (paper default: 3000 m)."""
        if side <= 0:
            raise ValueError(f"side must be positive, got {side}")
        return cls(0.0, 0.0, side, side)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    @property
    def diagonal(self) -> float:
        """Length of the diagonal — an upper bound on any in-region distance."""
        return Point(self.x_min, self.y_min).distance_to(Point(self.x_max, self.y_max))

    def contains(self, point: Point) -> bool:
        """Whether ``point`` lies inside the region (boundary inclusive)."""
        return (
            self.x_min <= point.x <= self.x_max
            and self.y_min <= point.y <= self.y_max
        )

    def clamp(self, point: Point) -> Point:
        """Project ``point`` onto the region (identity for interior points)."""
        return Point(
            min(max(point.x, self.x_min), self.x_max),
            min(max(point.y, self.y_min), self.y_max),
        )

    def clamp_points(self, points: np.ndarray) -> np.ndarray:
        """:meth:`clamp` for each row of an ``(n, 2)`` array, bit for
        bit: Python's ``min(max(v, lo), hi)`` keeps ``v`` itself unless
        a bound is strictly past it."""
        lows = np.array([self.x_min, self.y_min])
        highs = np.array([self.x_max, self.y_max])
        floored = np.where(lows > points, lows, points)
        return np.where(highs < floored, highs, floored)

    def sample(self, rng: np.random.Generator, count: int) -> List[Point]:
        """Draw ``count`` points uniformly at random from the region."""
        return [Point(x, y) for x, y in self.sample_array(rng, count).tolist()]

    def sample_array(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """:meth:`sample` as a float64 ``(count, 2)`` array (the same
        two ``uniform`` draws: every x, then every y)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        xs = rng.uniform(self.x_min, self.x_max, size=count)
        ys = rng.uniform(self.y_min, self.y_max, size=count)
        return np.column_stack([xs, ys])

    def sample_clusters(
        self,
        rng: np.random.Generator,
        centers: Sequence[Point],
        spread: float,
        count: int,
    ) -> np.ndarray:
        """``count`` points as a ``(count, 2)`` array, point ``i`` drawn
        from a Gaussian around ``centers[i % len(centers)]`` (its x, then
        its y) and clamped to the region: the clustered world's dense
        downtowns, where the paper's task inequality is sharpest.
        """
        if spread < 0:
            raise ValueError(f"spread must be non-negative, got {spread}")
        centers_xy = np.array([(c.x, c.y) for c in centers], dtype=float)
        means = centers_xy[np.arange(count) % len(centers)]
        return self.clamp_points(rng.normal(means, spread, size=(count, 2)))
