"""Planar geometry substrate for location-dependent crowdsensing.

Everything in the simulation lives on a 2-D Euclidean plane measured in
meters.  This package provides the small set of geometric primitives the
rest of the library is built on:

- :class:`~repro.geometry.point.Point` — an immutable 2-D point.
- :mod:`~repro.geometry.distances` — vectorised pairwise-distance helpers
  built on numpy, used by the task-selection solvers.
- :class:`~repro.geometry.region.RectRegion` — the rectangular deployment
  area, with uniform random sampling.
- :mod:`~repro.geometry.grid_index` — uniform-grid neighbour counts
  (``bulk_counts``): the neighbouring mobile users of each task, the X3
  demand factor of Eq. 5.
"""

from repro.geometry.point import BOUNDARY_TOL, Point, euclidean, manhattan
from repro.geometry.distances import (
    pairwise_distances,
    cross_distances,
    path_length,
    distances_from,
)
from repro.geometry.region import RectRegion

__all__ = [
    "BOUNDARY_TOL",
    "Point",
    "euclidean",
    "manhattan",
    "pairwise_distances",
    "cross_distances",
    "path_length",
    "distances_from",
    "RectRegion",
]
