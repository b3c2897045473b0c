"""Coverage: the spatial-balance metric of Fig. 6.

"Coverage measures how good the algorithm balances the popularity among
sensing tasks ... The demand-based incentive mechanism ... achieve[s]
100% coverage which means that each sensing task is at least selected
once by users."

A task counts as covered once it has received at least one accepted
measurement.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.simulation.events import SimulationResult


def covered_task_ids(
    result: SimulationResult, up_to_round: Optional[int] = None
) -> Set[int]:
    """Ids of tasks with >= 1 accepted measurement by ``up_to_round`` (inclusive).

    Args:
        up_to_round: 1-based cutoff; None means the whole run.
    """
    # The task table's contribution log holds the same information as
    # the round records, and survives streamed runs.
    tasks = result.world.tasks
    rows, _, rounds = tasks.log.T
    if up_to_round is not None:
        rows = rows[rounds <= up_to_round]
    return set(tasks.ids[rows].tolist())


def coverage(result: SimulationResult, up_to_round: Optional[int] = None) -> float:
    """Fraction of tasks covered, in [0, 1] (multiply by 100 for the paper's %)."""
    total = len(result.world.tasks)
    if total == 0:
        return 1.0
    return len(covered_task_ids(result, up_to_round)) / total


def coverage_by_round(result: SimulationResult, horizon: int) -> List[float]:
    """Cumulative coverage after each of rounds 1..horizon (Fig. 6(b) series).

    Rounds past the actual history (early stop: every task completed or
    expired) repeat the final value — coverage is cumulative, so it can
    no longer change.

    Raises:
        ValueError: for a non-positive horizon.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return [coverage(result, round_no) for round_no in range(1, horizon + 1)]
