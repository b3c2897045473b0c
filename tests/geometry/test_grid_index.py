"""Unit tests for repro.geometry.grid_index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.grid_index import bulk_counts
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

    def test_far_from_the_origin(self):
        # UTM-scale coordinates with a 1 m radius lie about 5e6 cells
        # from the origin.
        base = np.array([512_345.25, 5_412_345.75])
        centers = base + np.array([[0.0, 0.0], [3.0, 0.0]])
        points = base + np.array([
            [1.0, 0.0], [0.0, -1.0], [0.6, 0.8], [1.5, 0.0], [4.0, 0.0],
            [-2.0, 0.0],
        ])
        expected = [
            GridIndex([Point(*p) for p in points.tolist()], 1.0).count_within(
                Point(*c), 1.0
            )
            for c in centers.tolist()
        ]
        assert bulk_counts(points, centers, 1.0).tolist() == expected == [3, 1]

    def test_point_at_radius_across_the_origin(self):
        # floor(-1e-300 / 1) = -1 but floor(1 / 1) = 1: a 3x3 block of
        # R-wide cells from the origin misses this point, which lies
        # exactly R away.
        center = np.array([[-1e-300, 0.0]])
        assert bulk_counts(np.array([[1.0, 0.0]]), center, 1.0).tolist() == [1]
        assert GridIndex([Point(1.0, 0.0)], 1.0).count_within(
            Point(-1e-300, 0.0), 1.0
        ) == 1

    def test_points_outside_the_centers_box_are_dropped(self):
        # Points far past the table, and at infinity, count nowhere.
        points = np.array([[0.0, 0.0], [1e300, -1e300], [np.inf, 0.0], [5.0, 5.0]])
        centers = np.array([[5.0, 5.0], [6.0, 5.0]])
        assert bulk_counts(points, centers, 1.0).tolist() == [1, 1]


#: Coordinates on both sides of the origin; the scale strategy spreads
#: clouds from millimetres to hundreds of kilometres.
signed_units = st.floats(min_value=-1.0, max_value=1.0)
#: The four axis directions, for points placed exactly R from a center.
AXES = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0))


# The example count is left to the profile, so CI's deep run
# (--hypothesis-profile=ci-deep) can raise it.
@settings(deadline=None)
@given(
    st.lists(st.tuples(signed_units, signed_units), max_size=40),
    st.lists(st.tuples(signed_units, signed_units), min_size=1, max_size=8),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=7),
                  st.sampled_from(AXES)),
        max_size=8,
    ),
    st.sampled_from([1e-2, 1.0, 1e2, 1e4, 3e5]),
    st.floats(min_value=1e-3, max_value=1e5),
)
def test_bulk_counts_match_the_grid_oracle(cloud, raw_centers, at_radius,
                                           scale, radius):
    """bulk_counts equals the scalar grid oracle: radii far below the
    cloud's spacing (coarsened cells) and far above it, points placed
    exactly R from a center along each axis, negative coordinates."""
    centers = [(x * scale, y * scale) for x, y in raw_centers]
    points = [(x * scale, y * scale) for x, y in cloud]
    points += [
        (centers[i % len(centers)][0] + dx * radius,
         centers[i % len(centers)][1] + dy * radius)
        for i, (dx, dy) in at_radius
    ]
    index = GridIndex([Point(x, y) for x, y in points], cell_size=radius)
    expected = index.counts_for([Point(x, y) for x, y in centers], radius)
    got = bulk_counts(
        np.asarray(points, dtype=float).reshape(-1, 2),
        np.asarray(centers, dtype=float), radius,
    )
    assert got.tolist() == expected
