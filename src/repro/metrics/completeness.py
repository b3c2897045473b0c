"""Overall completeness: the deadline-sensitive metric of Fig. 7.

"Each sensing task is expected to be completed before its deadline and
the overall completeness measures how good of task completeness before
their deadlines."

We report the mean, over tasks, of the fraction of required measurements
received *by the deadline* (capped at 1).  :func:`completed_fraction`
additionally reports the stricter all-or-nothing variant (fraction of
tasks fully complete by their deadline); both appear in EXPERIMENTS.md.

**Denominator basis.** Closed-world runs average over every task (the
paper's definition).  Open-world runs can instead declare
``completeness_basis="exclude-expired"`` in their config, dropping tasks
that expired unmet from the denominator — the mechanism never got a full
deadline window for a task whose renewal lottery failed, so scoring it
is a scenario-level choice, made explicit in the config rather than
silently by the metric.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.simulation.events import SimulationResult


def _basis_tasks(result: SimulationResult):
    """The task table the run's configured completeness basis scores.

    ``"all"`` (the default, and the paper's definition) scores every
    task; ``"exclude-expired"`` drops tasks that expired without
    completing (open-world runs opt in via the config knob).
    """
    basis = getattr(result.config, "completeness_basis", "all")
    tasks = result.world.tasks
    if basis == "exclude-expired":
        return tasks.take(~tasks.expired)
    return tasks


def _fractions(tasks, cutoffs: np.ndarray) -> List[float]:
    """Per task: received by ``cutoffs`` / required, capped at 1."""
    return np.minimum(1.0, tasks.received_by(cutoffs) / tasks.required).tolist()


def per_task_completeness(result: SimulationResult) -> Dict[int, float]:
    """Per task: received-by-deadline / required, capped at 1.

    Covers the tasks the config's ``completeness_basis`` selects (all
    of them unless the scenario opted expired-unmet tasks out).
    """
    tasks = _basis_tasks(result)
    return dict(zip(tasks.ids.tolist(), _fractions(tasks, tasks.deadline)))


def overall_completeness(result: SimulationResult) -> float:
    """Mean per-task completeness in [0, 1] (Fig. 7's y-axis, /100)."""
    fractions = per_task_completeness(result)
    if not fractions:
        return 1.0
    return sum(fractions.values()) / len(fractions)


def completeness_at_round(result: SimulationResult, round_no: int) -> float:
    """Overall completeness as it stood after round ``round_no``.

    A task's contribution is the fraction of its required measurements
    received by ``min(deadline, round_no)`` — i.e. the metric the paper
    would have reported had the experiment stopped at that round.  The
    fractions add left to right, in task order.

    Raises:
        ValueError: for a non-positive round number.
    """
    if round_no < 1:
        raise ValueError(f"round_no must be >= 1, got {round_no}")
    tasks = _basis_tasks(result)
    if not len(tasks):
        return 1.0
    return sum(_fractions(tasks, np.minimum(tasks.deadline, round_no))) / len(tasks)


def completeness_by_round(result: SimulationResult, horizon: int) -> List[float]:
    """:func:`completeness_at_round` for every round 1..horizon (Fig. 7(b))."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return [completeness_at_round(result, r) for r in range(1, horizon + 1)]


def completed_fraction(result: SimulationResult) -> float:
    """Fraction of tasks *fully* complete by their deadline (strict variant)."""
    fractions = per_task_completeness(result)
    if not fractions:
        return 1.0
    complete = sum(1 for value in fractions.values() if value >= 1.0 - 1e-12)
    return complete / len(fractions)
