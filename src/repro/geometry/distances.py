"""Vectorised distance computations over collections of points.

The dynamic-programming task selector (Section V-A of the paper) works on
a *travel graph*: the user's origin plus the locations of the candidate
tasks, with edge weights equal to pairwise travel distances.  These
helpers build those matrices with numpy so a single selector call does no
per-pair Python arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.geometry.point import Point


def as_coordinates(points: Iterable[Point]) -> np.ndarray:
    """Convert an iterable of points to an ``(n, 2)`` float array."""
    pts = list(points)
    if not pts:
        return np.empty((0, 2), dtype=float)
    return np.asarray([(p.x, p.y) for p in pts], dtype=float)


def pairwise_distances(points: Sequence[Point]) -> np.ndarray:
    """Return the symmetric ``(n, n)`` matrix of Euclidean distances.

    ``result[i, j]`` is the travel distance in meters between
    ``points[i]`` and ``points[j]``; the diagonal is zero.
    """
    arr = as_coordinates(points)
    if arr.shape[0] == 0:
        return np.empty((0, 0), dtype=float)
    diff = arr[:, None, :] - arr[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def cross_distances(sources: Sequence[Point], targets: Sequence[Point]) -> np.ndarray:
    """Return the ``(len(sources), len(targets))`` distance matrix."""
    a = as_coordinates(sources)
    b = as_coordinates(targets)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.empty((a.shape[0], b.shape[0]), dtype=float)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def distances_from(origin: Point, targets: Sequence[Point]) -> np.ndarray:
    """Return the 1-D array of distances from ``origin`` to each target."""
    b = as_coordinates(targets)
    if b.shape[0] == 0:
        return np.empty((0,), dtype=float)
    diff = b - np.asarray(origin.as_tuple(), dtype=float)
    return np.sqrt((diff ** 2).sum(axis=1))


def path_length(points: Sequence[Point]) -> float:
    """Total length of the polyline visiting ``points`` in order.

    This is exactly the travel distance :math:`\\Gamma_{T^k_{u_i}}` of
    Eq. 1 for a user that starts at ``points[0]`` and visits the remaining
    points in sequence.  A path of zero or one point has length 0.
    """
    if len(points) < 2:
        return 0.0
    arr = as_coordinates(points)
    seg = np.diff(arr, axis=0)
    return float(np.sqrt((seg ** 2).sum(axis=1)).sum())


def nearest_index(origin: Point, targets: Sequence[Point]) -> int:
    """Index of the target nearest to ``origin``.

    Raises:
        ValueError: if ``targets`` is empty.
    """
    if not targets:
        raise ValueError("nearest_index() requires at least one target")
    return int(np.argmin(distances_from(origin, targets)))
