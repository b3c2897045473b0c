"""A per-task reference for the task table's sensing state.

:class:`ReferenceTask` is one mutable task object with the acceptance
rules applied upload by upload: the paper's one-measurement-per-user
rule (Section III-A), at most :math:`\\varphi_i` measurements, and
nothing accepted once the task is completed or expired.  The table
tests and the upload test hold :class:`~repro.world.task.TaskTable` to
it.
"""

from __future__ import annotations

from typing import Sequence

from repro.world.task import TaskStatus


class ReferenceTask:
    def __init__(self, task_id: int, deadline: int, required: int):
        self.task_id = task_id
        self.deadline = deadline
        self.required_measurements = required
        self.contributors = set()
        self.measurements_by_round = {}
        self.status = TaskStatus.ACTIVE
        self.completed_round = 0

    @property
    def received(self) -> int:
        return sum(self.measurements_by_round.values())

    @property
    def remaining(self) -> int:
        return max(0, self.required_measurements - self.received)

    @property
    def is_active(self) -> bool:
        return self.status is TaskStatus.ACTIVE

    def can_accept(self, user_id: int) -> bool:
        return self.is_active and self.remaining > 0 and user_id not in self.contributors

    def refusal(self, user_ids: Sequence[int]):
        """``(turn, message)`` for the first of ``user_ids`` a one-by-one
        walk would refuse (the status is the task's before the batch),
        or None."""
        seen = set(self.contributors)
        for turn, user_id in enumerate(user_ids):
            received = self.received + turn
            if (
                not self.is_active
                or received >= self.required_measurements
                or user_id in seen
            ):
                return turn, (
                    f"task {self.task_id} cannot accept a measurement from "
                    f"user {user_id} (status={self.status.value}, "
                    f"received={received}/{self.required_measurements})"
                )
            seen.add(user_id)
        return None

    def record_measurements(self, user_ids: Sequence[int], round_no: int) -> None:
        """All or nothing: raise for the first user a one-by-one walk
        refuses, else accept every user."""
        refused = self.refusal(user_ids)
        if refused is not None:
            raise ValueError(refused[1])
        for user_id in user_ids:
            self.contributors.add(user_id)
            self.measurements_by_round[round_no] = (
                self.measurements_by_round.get(round_no, 0) + 1
            )
        if self.remaining == 0:
            self.status = TaskStatus.COMPLETED
            self.completed_round = round_no

    def expire_if_due(self, next_round: int) -> bool:
        if self.is_active and next_round > self.deadline:
            self.status = TaskStatus.EXPIRED
            return True
        return False

    def received_by_deadline(self) -> int:
        return sum(
            count for round_no, count in self.measurements_by_round.items()
            if round_no <= self.deadline
        )


def task_state(tasks):
    """Every task's comparable sensing state, rows or references alike."""
    return [
        (t.task_id, sorted(t.contributors), dict(t.measurements_by_round),
         t.status, t.completed_round, t.received)
        for t in tasks
    ]
