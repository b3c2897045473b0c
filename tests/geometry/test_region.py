"""Unit tests for repro.geometry.region."""

import numpy as np
import pytest

from repro.geometry.point import Point
from repro.geometry.region import RectRegion


class TestConstruction:
    def test_square(self):
        region = RectRegion.square(3000.0)
        assert region.width == 3000.0
        assert region.height == 3000.0
        assert region.area == 9_000_000.0

    def test_square_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            RectRegion.square(0.0)
        with pytest.raises(ValueError, match="positive"):
            RectRegion.square(-5.0)

    def test_degenerate_rect_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            RectRegion(10.0, 0.0, 0.0, 10.0)

    def test_zero_area_rect_allowed(self):
        # A degenerate-but-ordered rectangle (a point) is permitted.
        region = RectRegion(1.0, 1.0, 1.0, 1.0)
        assert region.area == 0.0

    def test_center_and_diagonal(self):
        region = RectRegion.square(100.0)
        assert region.center == Point(50.0, 50.0)
        assert region.diagonal == pytest.approx(100.0 * np.sqrt(2.0))


class TestContainsAndClamp:
    def test_contains_interior_and_boundary(self):
        region = RectRegion.square(10.0)
        assert region.contains(Point(5.0, 5.0))
        assert region.contains(Point(0.0, 0.0))
        assert region.contains(Point(10.0, 10.0))

    def test_excludes_exterior(self):
        region = RectRegion.square(10.0)
        assert not region.contains(Point(-0.1, 5.0))
        assert not region.contains(Point(5.0, 10.1))

    def test_clamp_interior_is_identity(self):
        region = RectRegion.square(10.0)
        assert region.clamp(Point(3.0, 4.0)) == Point(3.0, 4.0)

    def test_clamp_projects_outside_points(self):
        region = RectRegion.square(10.0)
        assert region.clamp(Point(-5.0, 20.0)) == Point(0.0, 10.0)
        assert region.contains(region.clamp(Point(999.0, -999.0)))


class TestSampling:
    def test_sample_count_and_containment(self, rng):
        region = RectRegion.square(500.0)
        points = region.sample(rng, 200)
        assert len(points) == 200
        assert all(region.contains(p) for p in points)

    def test_sample_zero(self, rng):
        assert RectRegion.square(10.0).sample(rng, 0) == []

    def test_sample_negative_raises(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            RectRegion.square(10.0).sample(rng, -1)

    def test_sample_deterministic_per_seed(self):
        region = RectRegion.square(100.0)
        a = region.sample(np.random.Generator(np.random.PCG64(5)), 10)
        b = region.sample(np.random.Generator(np.random.PCG64(5)), 10)
        assert a == b

    def test_sample_roughly_uniform(self, rng):
        region = RectRegion.square(100.0)
        points = region.sample(rng, 4000)
        left = sum(1 for p in points if p.x < 50.0)
        # Binomial(4000, 0.5): 5 sigma is about 158.
        assert abs(left - 2000) < 200


def clustered(region, rng, centers, spread, count):
    """``region.sample_clusters`` as :class:`Point` s."""
    return [
        Point(x, y)
        for x, y in region.sample_clusters(rng, centers, spread, count).tolist()
    ]


class TestClusterSampling:
    def test_cluster_containment(self, rng):
        region = RectRegion.square(100.0)
        points = clustered(region, rng, [Point(95.0, 95.0)], 30.0, 100)
        assert len(points) == 100
        assert all(region.contains(p) for p in points)

    def test_cluster_concentrates(self, rng):
        region = RectRegion.square(1000.0)
        center = Point(500.0, 500.0)
        points = clustered(region, rng, [center], 50.0, 200)
        mean_distance = np.mean([p.distance_to(center) for p in points])
        # Rayleigh mean = spread * sqrt(pi/2) ~ 62.7; allow generous slack.
        assert mean_distance < 150.0

    def test_negative_spread_raises(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            RectRegion.square(10.0).sample_clusters(rng, [Point(5, 5)], -1.0, 3)

    def test_zero_spread_pins_to_center(self, rng):
        region = RectRegion.square(10.0)
        points = clustered(region, rng, [Point(5.0, 5.0)], 0.0, 5)
        assert all(p == Point(5.0, 5.0) for p in points)
