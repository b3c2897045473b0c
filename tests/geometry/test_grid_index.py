"""Unit tests for repro.geometry.grid_index."""

import numpy as np
import pytest

from repro.geometry.grid_index import IncrementalNeighbourCounter, bulk_counts
from repro.geometry.point import Point
from tests.geometry.grid_oracle import GridIndex


def brute_count(points, center, radius):
    return sum(1 for p in points if p.distance_to(center) <= radius)


class TestConstruction:
    def test_len(self):
        index = GridIndex([Point(0, 0), Point(1, 1)], cell_size=10.0)
        assert len(index) == 2

    def test_empty_index(self):
        index = GridIndex([], cell_size=10.0)
        assert index.count_within(Point(0, 0), 100.0) == 0

    def test_invalid_cell_size(self):
        with pytest.raises(ValueError, match="positive"):
            GridIndex([Point(0, 0)], cell_size=0.0)


class TestQueries:
    def test_inclusive_boundary(self):
        index = GridIndex([Point(10.0, 0.0)], cell_size=10.0)
        assert index.count_within(Point(0.0, 0.0), 10.0) == 1
        assert index.count_within(Point(0.0, 0.0), 9.999) == 0

    def test_negative_radius_raises(self):
        index = GridIndex([Point(0, 0)], cell_size=1.0)
        with pytest.raises(ValueError, match="non-negative"):
            index.count_within(Point(0, 0), -1.0)

    def test_zero_radius_exact_hit(self):
        index = GridIndex([Point(5.0, 5.0)], cell_size=1.0)
        assert index.count_within(Point(5.0, 5.0), 0.0) == 1
        assert index.count_within(Point(5.1, 5.0), 0.0) == 0

    def test_query_returns_indices(self):
        points = [Point(0, 0), Point(100, 100), Point(1, 1)]
        index = GridIndex(points, cell_size=10.0)
        assert sorted(index.query(Point(0, 0), 5.0)) == [0, 2]

    def test_negative_coordinates(self):
        points = [Point(-15.0, -15.0), Point(-14.0, -14.0), Point(20.0, 20.0)]
        index = GridIndex(points, cell_size=10.0)
        assert index.count_within(Point(-15.0, -15.0), 5.0) == 2

    def test_radius_larger_than_cell(self):
        # Radius may exceed cell_size; the index must widen its scan.
        points = [Point(float(x), 0.0) for x in range(0, 100, 10)]
        index = GridIndex(points, cell_size=10.0)
        assert index.count_within(Point(0.0, 0.0), 45.0) == 5

    def test_matches_brute_force_on_random_cloud(self, rng):
        points = [
            Point(float(x), float(y))
            for x, y in rng.uniform(0, 1000, size=(300, 2))
        ]
        index = GridIndex(points, cell_size=100.0)
        for _ in range(25):
            cx, cy = rng.uniform(0, 1000, size=2)
            center = Point(float(cx), float(cy))
            assert index.count_within(center, 100.0) == brute_count(
                points, center, 100.0
            )

    def test_counts_for_vector(self):
        points = [Point(0, 0), Point(50, 0), Point(100, 0)]
        index = GridIndex(points, cell_size=60.0)
        counts = index.counts_for([Point(0, 0), Point(100, 0)], 60.0)
        assert counts == [2, 2]

    def test_duplicate_points_counted_individually(self):
        index = GridIndex([Point(1, 1)] * 4, cell_size=10.0)
        assert index.count_within(Point(1, 1), 1.0) == 4


def xy(points):
    """``(n, 2)`` coordinates of a point list."""
    return np.asarray([(p.x, p.y) for p in points], dtype=float).reshape(-1, 2)


class TestBulkCounts:
    def test_matches_grid_index_on_random_cloud(self, rng):
        points = [
            Point(float(x), float(y))
            for x, y in rng.uniform(0, 1000, size=(300, 2))
        ]
        centers = [
            Point(float(x), float(y))
            for x, y in rng.uniform(0, 1000, size=(40, 2))
        ]
        index = GridIndex(points, cell_size=100.0)
        assert bulk_counts(xy(points), xy(centers), 100.0).tolist() == (
            index.counts_for(centers, 100.0)
        )

    def test_inclusive_boundary(self):
        counts = bulk_counts(np.array([[10.0, 0.0]]), np.array([[0.0, 0.0]]), 10.0)
        assert counts.tolist() == [1]

    def test_negative_coordinates(self):
        points = np.array([[-15.0, -15.0], [-14.0, -14.0], [20.0, 20.0]])
        assert bulk_counts(points, np.array([[-15.0, -15.0]]), 5.0).tolist() == [2]

    def test_empty_points_or_centers(self):
        empty = np.zeros((0, 2))
        assert bulk_counts(empty, np.zeros((1, 2)), 10.0).tolist() == [0]
        assert bulk_counts(np.zeros((1, 2)), empty, 10.0).tolist() == []

    def test_non_positive_radius_raises(self):
        with pytest.raises(ValueError, match="positive"):
            bulk_counts(np.zeros((1, 2)), np.zeros((1, 2)), 0.0)


class TestIncrementalNeighbourCounter:
    def rebuild(self, positions, centers, radius):
        """The from-scratch answer the counter must stay bitwise equal to."""
        return GridIndex(
            [Point(x, y) for x, y in positions.tolist()], cell_size=radius
        ).counts_for(centers, radius)

    def test_counts_match_rebuild_across_partial_moves(self, rng):
        positions = rng.uniform(0, 1000, size=(200, 2))
        centers = [
            Point(float(x), float(y))
            for x, y in rng.uniform(0, 1000, size=(30, 2))
        ]
        counter = IncrementalNeighbourCounter(positions, radius=100.0)
        counter.prime(centers)
        for _ in range(5):
            # Move ~10 % of the population: exercises the delta path.
            rows = np.sort(rng.choice(len(positions), size=20, replace=False))
            old = positions[rows]
            positions[rows] = rng.uniform(0, 1000, size=(len(rows), 2))
            counter.apply_moves(rows, old)
            assert counter.counts_array(centers).tolist() == self.rebuild(
                positions, centers, 100.0
            )

    def test_full_rebuild_path_matches(self, rng):
        positions = rng.uniform(0, 500, size=(60, 2))
        centers = [Point(100.0, 100.0), Point(400.0, 400.0)]
        counter = IncrementalNeighbourCounter(positions, radius=80.0)
        counter.prime(centers)
        # Move everyone: at >= FULL_REBUILD_FRACTION the counter rebuilds.
        rows = np.arange(len(positions))
        old = positions.copy()
        positions[:] = rng.uniform(0, 500, size=(len(positions), 2))
        counter.apply_moves(rows, old)
        assert counter.counts_array(centers).tolist() == self.rebuild(
            positions, centers, 80.0
        )

    def test_prime_is_idempotent(self):
        counter = IncrementalNeighbourCounter(
            np.array([[0.0, 0.0], [5.0, 0.0]]), radius=10.0
        )
        center = Point(1.0, 0.0)
        counter.prime([center])
        counter.prime([center, center])
        assert counter.counts_array([center]).tolist() == [2]

    def test_unseen_center_primed_on_query(self):
        counter = IncrementalNeighbourCounter(np.zeros((1, 2)), radius=10.0)
        assert counter.counts_array([Point(3.0, 4.0)]).tolist() == [1]

    def test_counts_array_shape(self):
        counter = IncrementalNeighbourCounter(np.zeros((1, 2)), radius=10.0)
        counts = counter.counts_array([Point(0, 0), Point(100, 100)])
        assert counts.tolist() == [1, 0]

    def test_non_positive_radius_raises(self):
        with pytest.raises(ValueError, match="positive"):
            IncrementalNeighbourCounter(np.zeros((1, 2)), radius=0.0)
