"""Unit tests for the ASCII world map."""

import pytest

from repro.io.worldmap import render_world
from repro.world.generator import World
from tests.conftest import make_task, make_user


@pytest.fixture
def world(region):
    tasks = [
        make_task(0, 100.0, 100.0, required=1),
        make_task(1, 900.0, 900.0, required=1),
    ]
    users = [make_user(0, 500.0, 500.0)]
    return World(region=region, tasks=tasks, users=users)


class TestRenderWorld:
    def test_markers_present(self, world):
        text = render_world(world)
        assert "T" in text
        assert "." in text

    def test_legend_counts(self, world):
        text = render_world(world)
        assert "T=active(2)" in text
        assert ".=user(1)" in text
        assert "area 1000x1000 m" in text

    def test_completed_and_expired_markers(self, world):
        world.tasks.record([0], [0], round_no=1)
        world.tasks.expired[1] = True
        text = render_world(world)
        assert "C=completed(1)" in text
        assert "X=expired(1)" in text
        assert "C" in text and "X" in text

    def test_task_marker_wins_over_user(self, region):
        tasks = [make_task(0, 500.0, 500.0, required=1)]
        users = [make_user(0, 500.0, 500.0)]
        text = render_world(World(region=region, tasks=tasks, users=users))
        grid_rows = [line for line in text.splitlines() if line.startswith("|")]
        assert any("T" in row for row in grid_rows)
        assert not any("." in row for row in grid_rows)

    def test_corner_positions(self, region):
        """Boundary coordinates must land inside the grid (no IndexError)."""
        tasks = [make_task(0, 0.0, 0.0, required=1),
                 make_task(1, 1000.0, 1000.0, required=1)]
        users = [make_user(0, 1000.0, 0.0)]
        text = render_world(World(region=region, tasks=tasks, users=users))
        grid_rows = [line for line in text.splitlines() if line.startswith("|")]
        # Bottom-left task in the last grid row, top-right in the first.
        assert "T" in grid_rows[0]
        assert "T" in grid_rows[-1]

    def test_y_axis_points_up(self, region):
        tasks = [make_task(0, 500.0, 990.0, required=1)]
        users = [make_user(0, 500.0, 10.0)]
        text = render_world(World(region=region, tasks=tasks, users=users))
        grid_rows = [line for line in text.splitlines() if line.startswith("|")]
        task_row = next(i for i, row in enumerate(grid_rows) if "T" in row)
        user_row = next(i for i, row in enumerate(grid_rows) if "." in row)
        assert task_row < user_row

    def test_grid_validated(self, world):
        with pytest.raises(ValueError, match="grid too small"):
            render_world(world, width=5, height=2)

    def test_fixed_line_width(self, world):
        text = render_world(world, width=40, height=10)
        grid_rows = [line for line in text.splitlines() if line.startswith("|")]
        assert len(grid_rows) == 10
        assert all(len(row) == 42 for row in grid_rows)
