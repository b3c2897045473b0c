"""Unit tests for repro.world.user."""

import pytest

from repro.geometry.point import Point
from tests.conftest import make_user


class TestValidation:
    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="user_id"):
            make_user(user_id=-1)

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError, match="speed"):
            make_user(speed=0.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="cost_per_meter"):
            make_user(cost_per_meter=-0.001)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="time_budget"):
            make_user(time_budget=-1.0)


class TestBudgetGeometry:
    def test_max_travel_distance(self):
        user = make_user(speed=2.0, time_budget=900.0)
        assert user.max_travel_distance == 1800.0

    def test_travel_time_and_cost(self):
        user = make_user(speed=2.0, cost_per_meter=0.002)
        assert user.travel_time(500.0) == 250.0
        assert user.travel_cost(500.0) == 1.0

    def test_home_defaults_to_initial_location(self):
        user = make_user(x=7.0, y=9.0)
        assert user.home == Point(7.0, 9.0)
        # Live positions are the world's, not the user's.
        assert not hasattr(user, "location")

