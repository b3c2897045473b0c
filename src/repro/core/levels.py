"""Demand levels: the Table III bucketing of normalised demand.

The paper maps normalised demand in [0, 1] into N uniform levels; with
N = 5 the buckets are [0, 0.2], (0.2, 0.4], (0.4, 0.6], (0.6, 0.8],
(0.8, 1.0] and a demand of e.g. 0.3 falls in level 2.  Levels are
half-open on the left except the first, exactly as the table is written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class DemandLevels:
    """A uniform partition of [0, 1] into ``count`` demand levels.

    >>> DemandLevels(5).level_of(0.3)
    2
    >>> DemandLevels(5).level_of(0.2)
    1
    """

    count: int = 5

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"level count must be >= 1, got {self.count}")

    @property
    def width(self) -> float:
        """Width of each bucket: 1 / count."""
        return 1.0 / self.count

    def level_of(self, normalized_demand: float) -> int:
        """The 1-based demand level of a normalised demand in [0, 1].

        The first bucket is closed ([0, width]); every later bucket is
        half-open ((low, high]), matching Table III.

        Raises:
            ValueError: for demand outside [0, 1] (beyond float slack).
        """
        d = normalized_demand
        if d < -1e-12 or d > 1.0 + 1e-12:
            raise ValueError(f"normalised demand must lie in [0, 1], got {d}")
        d = min(max(d, 0.0), 1.0)
        if d <= self.width:
            return 1
        # ceil(d / width) lands (low, high] in the right bucket; guard the
        # exact boundary against float noise by nudging down first.
        level = int(math.ceil(d / self.width - 1e-12))
        return min(level, self.count)

    def levels_of(self, demands: Sequence[float]) -> List[int]:
        """Vector form of :meth:`level_of`."""
        return [self.level_of(d) for d in demands]

    def levels_array(self, demands: "np.ndarray") -> "np.ndarray":
        """Vectorised :meth:`level_of`, bit-identical per element.

        Replicates the scalar arithmetic exactly (same clamp, same
        boundary nudge), so the vectorised pricing path buckets every
        demand into the same level as :meth:`level_of`.

        Raises:
            ValueError: if any demand lies outside [0, 1] beyond slack.
        """
        import numpy as np

        d = np.asarray(demands, dtype=float)
        if d.size and (np.any(d < -1e-12) or np.any(d > 1.0 + 1e-12)):
            raise ValueError("normalised demands must lie in [0, 1]")
        d = np.minimum(np.maximum(d, 0.0), 1.0)
        levels = np.minimum(
            np.ceil(d / self.width - 1e-12).astype(int), self.count
        )
        return np.where(d <= self.width, 1, levels)

    def bounds(self, level: int) -> Tuple[float, float]:
        """The (low, high] bounds of a 1-based level (level 1 is [0, high]).

        Raises:
            ValueError: for a level outside 1..count.
        """
        if not 1 <= level <= self.count:
            raise ValueError(f"level must be in 1..{self.count}, got {level}")
        return ((level - 1) * self.width, level * self.width)

    def table(self) -> List[Tuple[Tuple[float, float], int]]:
        """The full bucket table, Table III style: [((low, high), level), ...]."""
        return [(self.bounds(level), level) for level in range(1, self.count + 1)]
