"""Unit tests for repro.world.task: the task table's one writer and the
state derived from its contribution log."""

import numpy as np
import pytest

from repro.world.task import TaskStatus, TaskTable
from tests.conftest import make_task


def table(**kwargs) -> TaskTable:
    """A one-task table (row 0) built from :func:`make_task`."""
    return TaskTable.from_tasks([make_task(**kwargs)])


def expire_overdue(tasks: TaskTable, next_round: int) -> bool:
    """The engine's expiry rule on row 0: expire it if it is active and
    ``next_round`` is past its deadline; True if it expired now."""
    due = bool(tasks.active[0] and tasks.deadline[0] < next_round)
    tasks.expired[0] |= due
    return due


class TestValidation:
    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="task_id"):
            make_task(task_id=-1)

    def test_zero_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline"):
            make_task(deadline=0)

    def test_zero_required_rejected(self):
        with pytest.raises(ValueError, match="required_measurements"):
            make_task(required=0)


class TestProgress:
    def test_fresh_task_state(self):
        tasks = table(required=3)
        assert tasks.received.tolist() == [0]
        assert tasks.remaining.tolist() == [3]
        assert tasks.active[0]
        assert not tasks[0].contributors

    def test_progress_after_measurements(self):
        tasks = table(required=4)
        tasks.record([0], [1], round_no=1)
        tasks.record([0], [2], round_no=1)
        assert tasks.received.tolist() == [2]
        assert tasks.remaining.tolist() == [2]
        assert tasks[0].contributors == {1, 2}

    def test_measurements_tracked_per_round(self):
        tasks = table(required=5)
        tasks.record([0], [1], round_no=1)
        tasks.record([0, 0], [2, 3], round_no=3)
        assert tasks[0].measurements_by_round == {1: 1, 3: 2}


class TestAcceptance:
    def test_duplicate_contributor_rejected(self):
        tasks = table(required=3)
        tasks.record([0], [7], round_no=1)
        assert tasks.contributed(np.array([0]), np.array([7])).tolist() == [True]
        with pytest.raises(ValueError, match="cannot accept"):
            tasks.record([0], [7], round_no=2)

    def test_other_user_still_accepted(self):
        tasks = table(required=3)
        tasks.record([0], [7], round_no=1)
        assert tasks.contributed(np.array([0]), np.array([8])).tolist() == [False]
        tasks.record([0], [8], round_no=1)

    def test_completion_at_required_count(self):
        tasks = table(required=2)
        tasks.record([0], [1], round_no=1)
        assert tasks[0].status is TaskStatus.ACTIVE
        tasks.record([0], [2], round_no=2)
        assert tasks[0].status is TaskStatus.COMPLETED
        assert tasks[0].completed_round == 2
        assert not tasks.active[0]

    def test_full_task_rejects_even_new_users(self):
        tasks = table(required=1)
        tasks.record([0], [1], round_no=1)
        with pytest.raises(ValueError, match="cannot accept"):
            tasks.record([0], [2], round_no=1)


class TestBatchRecording:
    """record: the one writer, checked as one-by-one uploads."""

    def test_batch_equals_one_by_one(self):
        batch, single = table(required=3), table(required=3)
        batch.record([0], [9], round_no=1)
        single.record([0], [9], round_no=1)
        batch.record([0, 0], [4, 5], round_no=2)
        single.record([0], [4], round_no=2)
        single.record([0], [5], round_no=2)
        assert list(batch) == list(single)
        assert batch[0].status is TaskStatus.COMPLETED

    @pytest.mark.parametrize("user_ids, refused, received", [
        ([1, 7], 7, 2),        # contributed before
        ([1, 2, 3], 3, 3),     # over capacity
        ([1, 1], 1, 2),        # twice in one batch
    ])
    def test_refusal_names_the_first_refused_user(self, user_ids, refused, received):
        tasks = table(required=3)
        tasks.record([0], [7], round_no=1)
        with pytest.raises(
            ValueError,
            match=rf"cannot accept a measurement from user {refused} "
                  rf"\(status=active, received={received}/3\)",
        ):
            tasks.record([0] * len(user_ids), user_ids, round_no=2)
        # all or nothing
        assert tasks[0].contributors == {7}
        assert tasks[0].measurements_by_round == {1: 1}

    def test_inactive_task_refuses(self):
        tasks = table(deadline=1)
        expire_overdue(tasks, next_round=2)
        with pytest.raises(ValueError, match="user 4 .*status=expired"):
            tasks.record([0], [4], round_no=2)


class TestDeadline:
    def test_expires_after_deadline(self):
        tasks = table(deadline=3)
        assert not expire_overdue(tasks, next_round=3)
        assert tasks.active[0]
        assert expire_overdue(tasks, next_round=4)
        assert tasks[0].status is TaskStatus.EXPIRED

    def test_expire_is_idempotent(self):
        tasks = table(deadline=1)
        assert expire_overdue(tasks, next_round=2)
        assert not expire_overdue(tasks, next_round=3)
        assert tasks[0].status is TaskStatus.EXPIRED

    def test_completed_task_does_not_expire(self):
        tasks = table(deadline=1, required=1)
        tasks.record([0], [1], round_no=1)
        assert not expire_overdue(tasks, next_round=5)
        assert tasks[0].status is TaskStatus.COMPLETED

    def test_received_by_deadline_ignores_late_measurements(self):
        tasks = table(deadline=2, required=10)
        tasks.record([0], [1], round_no=1)
        tasks.record([0], [2], round_no=2)
        tasks.record([0], [3], round_no=3)  # late (engine would not, but the metric must filter)
        assert tasks.received_by(tasks.deadline).tolist() == [2]
        assert tasks.received.tolist() == [3]
