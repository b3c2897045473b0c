"""Property-based tests for the geometry substrate (hypothesis)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distances import pairwise_distances, path_length
from repro.geometry.point import Point
from repro.geometry.region import RectRegion
from tests.geometry.grid_oracle import GridIndex

coordinates = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coordinates, coordinates)


@given(points, points)
def test_distance_symmetry(a, b):
    assert math.isclose(a.distance_to(b), b.distance_to(a), rel_tol=1e-12)


@given(points, points)
def test_distance_non_negative_and_identity(a, b):
    assert a.distance_to(b) >= 0.0
    assert a.distance_to(a) == 0.0


@given(points, points, points)
def test_triangle_inequality(a, b, c):
    assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6


@given(points, points, st.floats(min_value=0.0, max_value=1e6))
def test_towards_travels_at_most_distance(a, b, step):
    moved = a.towards(b, step)
    assert a.distance_to(moved) <= step + max(1e-9, 1e-9 * abs(step)) or moved == b
    # Never farther from the target than the start was.
    assert moved.distance_to(b) <= a.distance_to(b) + 1e-6


@given(st.lists(points, min_size=2, max_size=8))
def test_path_length_at_least_endpoint_distance(path):
    assert path_length(path) >= path[0].distance_to(path[-1]) - 1e-6


@given(st.lists(points, min_size=1, max_size=10))
def test_pairwise_matches_point_distance(pts):
    matrix = pairwise_distances(pts)
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            assert math.isclose(matrix[i, j], a.distance_to(b), abs_tol=1e-6)


bounded_coordinates = st.floats(min_value=0.0, max_value=1000.0)
bounded_points = st.builds(Point, bounded_coordinates, bounded_coordinates)


@settings(max_examples=50)
@given(
    st.lists(bounded_points, min_size=0, max_size=40),
    bounded_points,
    st.floats(min_value=1.0, max_value=500.0),
)
def test_grid_index_matches_brute_force(cloud, center, radius):
    index = GridIndex(cloud, cell_size=radius)
    expected = sum(1 for p in cloud if p.distance_to(center) <= radius)
    assert index.count_within(center, radius) == expected


@given(bounded_points)
def test_clamp_is_idempotent_and_contained(p):
    region = RectRegion(100.0, 100.0, 900.0, 900.0)
    clamped = region.clamp(p)
    assert region.contains(clamped)
    assert region.clamp(clamped) == clamped
