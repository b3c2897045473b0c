"""ASCII rendering of the deployment area: where tasks and users are.

Used by the examples and the ``repro simulate --map`` flag to show the
spatial story behind the numbers — clustered users, a starved corner
task, the drift of the crowd over rounds.

Cell precedence (when several entities share a cell): an incomplete task
is the thing the reader is looking for, so task markers win over user
markers, and the needier marker wins between tasks.
"""

from __future__ import annotations

from collections import Counter
from typing import List

from repro.world.generator import World
from repro.world.task import TaskStatus

#: Marker per task state, by precedence (highest first).
EXPIRED = "X"
ACTIVE = "T"
COMPLETED = "C"
USER = "."
EMPTY = " "

_PRECEDENCE = {EXPIRED: 3, ACTIVE: 2, COMPLETED: 1, USER: 0}

_MARKERS = {
    TaskStatus.EXPIRED: EXPIRED,
    TaskStatus.COMPLETED: COMPLETED,
    TaskStatus.ACTIVE: ACTIVE,
}


def render_world(world: World, width: int = 60, height: int = 24) -> str:
    """Render the world's current state on a ``width x height`` grid.

    Raises:
        ValueError: for a degenerate grid.
    """
    if width < 10 or height < 5:
        raise ValueError(f"grid too small: {width}x{height}")
    region = world.region
    grid: List[List[str]] = [[EMPTY] * width for _ in range(height)]

    def place(x: float, y: float, marker: str) -> None:
        column = 0
        row = 0
        if region.width > 0:
            column = min(width - 1, int((x - region.x_min) / region.width * width))
        if region.height > 0:
            row = min(height - 1, int((y - region.y_min) / region.height * height))
        row = height - 1 - row  # y grows upward on the map
        current = grid[row][column]
        if current == EMPTY or _PRECEDENCE[marker] > _PRECEDENCE.get(current, -1):
            grid[row][column] = marker

    for x, y in world.positions.tolist():
        place(x, y, USER)
    statuses = world.tasks.statuses()
    for (x, y), status in zip(world.tasks.locations.tolist(), statuses):
        place(x, y, _MARKERS[status])

    counts = Counter(statuses)
    active = counts[TaskStatus.ACTIVE]
    completed = counts[TaskStatus.COMPLETED]
    expired = counts[TaskStatus.EXPIRED]
    lines = ["+" + "-" * width + "+"]
    lines.extend("|" + "".join(row) + "|" for row in grid)
    lines.append("+" + "-" * width + "+")
    lines.append(
        f"{ACTIVE}=active({active})  {COMPLETED}=completed({completed})  "
        f"{EXPIRED}=expired({expired})  {USER}=user({len(world.users)})  "
        f"area {region.width:.0f}x{region.height:.0f} m"
    )
    return "\n".join(lines)
