"""The location-dependent sensing task.

A task carries both its static description (location, deadline, required
measurements — Section III-C of the paper) and its mutable sensing state
(how many measurements it has received, from whom, and when).  The
incentive mechanisms read the state to compute demand; the engine writes
it once per round for each task that accepted uploads, through the one
writer, :meth:`SensingTask.record_measurements`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Sequence, Set

from repro.geometry.point import Point


class TaskStatus(enum.Enum):
    """Lifecycle of a task within one simulation.

    ``ACTIVE``    — published; accepts measurements.
    ``COMPLETED`` — received its required measurements; no longer published.
    ``EXPIRED``   — its deadline passed before completion; no longer published.
    """

    ACTIVE = "active"
    COMPLETED = "completed"
    EXPIRED = "expired"


@dataclass
class SensingTask:
    """A location-dependent sensing task :math:`t_i`.

    Args:
        task_id: unique non-negative integer id (index into the world).
        location: where the measurement must be taken (:math:`L_{t_i}`).
        deadline: last round (1-based, inclusive) by which the task should
            be complete (:math:`\\tau_i` / :math:`D_{t_i}`).
        required_measurements: number of independent measurements needed
            (:math:`\\varphi_i`); each user contributes at most once.
        release_round: first round (1-based) at which the platform
            publishes the task.  The paper releases everything at round 1;
            later releases model the streaming-arrival setting its related
            work ([20]) studies.  Must not exceed the deadline.
    """

    task_id: int
    location: Point
    deadline: int
    required_measurements: int
    release_round: int = 1
    # --- mutable sensing state ---------------------------------------
    contributors: Set[int] = field(default_factory=set)
    measurements_by_round: Dict[int, int] = field(default_factory=dict)
    status: TaskStatus = TaskStatus.ACTIVE
    completed_round: int = 0  # 0 means "not completed"

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError(f"task_id must be non-negative, got {self.task_id}")
        if self.deadline < 1:
            raise ValueError(f"deadline must be >= 1 round, got {self.deadline}")
        if self.required_measurements < 1:
            raise ValueError(
                f"required_measurements must be >= 1, got {self.required_measurements}"
            )
        if not 1 <= self.release_round <= self.deadline:
            raise ValueError(
                f"release_round must be in [1, deadline={self.deadline}], "
                f"got {self.release_round}"
            )
        # Cached measurement total: `received` is read per task per
        # round (remaining, demand), where re-summing the per-round dict
        # is O(rounds) per read.  The count only changes through
        # record_measurements, which maintains it.
        self._received = sum(self.measurements_by_round.values())

    # -- derived quantities -------------------------------------------

    @property
    def received(self) -> int:
        """Total measurements received so far (:math:`\\pi_i`)."""
        return self._received

    @property
    def progress(self) -> float:
        """Completing progress :math:`\\pi_i / \\varphi_i` in [0, 1]."""
        return min(1.0, self.received / self.required_measurements)

    @property
    def remaining(self) -> int:
        """Measurements still needed to complete the task."""
        return max(0, self.required_measurements - self.received)

    @property
    def is_active(self) -> bool:
        return self.status is TaskStatus.ACTIVE

    def is_published(self, round_no: int) -> bool:
        """Whether the platform offers this task in round ``round_no``."""
        return self.is_active and round_no >= self.release_round

    @property
    def was_selected(self) -> bool:
        """Whether at least one user ever contributed (coverage, Fig. 6)."""
        return bool(self.contributors)

    def received_by_deadline(self) -> int:
        """Measurements received at rounds ``<= deadline`` (completeness, Fig. 7)."""
        return sum(
            count
            for round_no, count in self.measurements_by_round.items()
            if round_no <= self.deadline
        )

    # -- state transitions ---------------------------------------------

    def can_accept(self, user_id: int) -> bool:
        """Whether a measurement from ``user_id`` would be accepted now.

        Rejected if the task is no longer active, already full, or the
        user already contributed (the paper's one-measurement-per-user
        rule, Section III-A).
        """
        return (
            self.is_active
            and self.remaining > 0
            and user_id not in self.contributors
        )

    def record_measurement(self, user_id: int, round_no: int) -> None:
        """Accept one measurement from ``user_id`` at round ``round_no``
        (:meth:`record_measurements` with one user).

        Raises:
            ValueError: if :meth:`can_accept` is false — the engine must
                check before paying a reward, so a violation here is a bug.
        """
        self.record_measurements((user_id,), round_no)

    def record_measurements(self, user_ids: Sequence[int], round_no: int) -> None:
        """Accept one measurement from each of ``user_ids``, in order, at
        round ``round_no`` — the one writer of the sensing state.

        The engine folds a round's accepted uploads into each task with
        one call.  The batch is all or nothing: it is checked as if the
        users uploaded one by one, and nothing is recorded unless every
        upload would be accepted.

        Raises:
            ValueError: naming the first user :meth:`can_accept` would
                refuse at its turn — the task is inactive, already full,
                or the user contributed before (earlier in the batch
                included).
        """
        fresh = set(user_ids)
        count = len(user_ids)
        if not (
            self.is_active
            and count <= self.remaining
            and len(fresh) == count
            and fresh.isdisjoint(self.contributors)
        ):
            self._refuse(user_ids)
        self.contributors |= fresh
        self.measurements_by_round[round_no] = (
            self.measurements_by_round.get(round_no, 0) + count
        )
        self._received += count
        if self.remaining == 0:
            self.status = TaskStatus.COMPLETED
            self.completed_round = round_no

    def _refuse(self, user_ids: Sequence[int]) -> None:
        """Raise for the first of ``user_ids`` a one-by-one upload would
        have refused."""
        seen = set(self.contributors)
        for turn, user_id in enumerate(user_ids):
            received = self.received + turn
            if (
                not self.is_active
                or received >= self.required_measurements
                or user_id in seen
            ):
                raise ValueError(
                    f"task {self.task_id} cannot accept a measurement from "
                    f"user {user_id} (status={self.status.value}, "
                    f"received={received}/{self.required_measurements})"
                )
            seen.add(user_id)

    def expire_if_due(self, next_round: int) -> bool:
        """Mark the task expired if ``next_round`` is past its deadline.

        Called by the engine between rounds.  Returns True if the task
        transitioned to ``EXPIRED`` on this call.
        """
        if self.is_active and next_round > self.deadline:
            self.status = TaskStatus.EXPIRED
            return True
        return False
