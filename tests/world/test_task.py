"""Unit tests for repro.world.task."""

import pytest

from repro.world.task import TaskStatus
from tests.conftest import make_task


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
        task = make_task(required=3)
        assert task.received == 0
        assert task.progress == 0.0
        assert task.remaining == 3
        assert task.is_active
        assert not task.was_selected

    def test_progress_after_measurements(self):
        task = make_task(required=4)
        task.record_measurement(user_id=1, round_no=1)
        task.record_measurement(user_id=2, round_no=1)
        assert task.received == 2
        assert task.progress == 0.5
        assert task.remaining == 2
        assert task.was_selected

    def test_measurements_tracked_per_round(self):
        task = make_task(required=5)
        task.record_measurement(1, round_no=1)
        task.record_measurement(2, round_no=3)
        task.record_measurement(3, round_no=3)
        assert task.measurements_by_round == {1: 1, 3: 2}


class TestAcceptance:
    def test_duplicate_contributor_rejected(self):
        task = make_task(required=3)
        task.record_measurement(7, round_no=1)
        assert not task.can_accept(7)
        with pytest.raises(ValueError, match="cannot accept"):
            task.record_measurement(7, round_no=2)

    def test_other_user_still_accepted(self):
        task = make_task(required=3)
        task.record_measurement(7, round_no=1)
        assert task.can_accept(8)

    def test_completion_at_required_count(self):
        task = make_task(required=2)
        task.record_measurement(1, round_no=1)
        assert task.status is TaskStatus.ACTIVE
        task.record_measurement(2, round_no=2)
        assert task.status is TaskStatus.COMPLETED
        assert task.completed_round == 2
        assert not task.can_accept(3)

    def test_full_task_rejects_even_new_users(self):
        task = make_task(required=1)
        task.record_measurement(1, round_no=1)
        with pytest.raises(ValueError, match="cannot accept"):
            task.record_measurement(2, round_no=1)


class TestBatchRecording:
    """record_measurements: the one writer, checked as one-by-one uploads."""

    def test_batch_equals_one_by_one(self):
        batch, single = make_task(required=3), make_task(required=3)
        batch.record_measurement(9, round_no=1)
        single.record_measurement(9, round_no=1)
        batch.record_measurements([4, 5], round_no=2)
        single.record_measurement(4, round_no=2)
        single.record_measurement(5, round_no=2)
        for name in ("contributors", "measurements_by_round", "status",
                     "completed_round", "received"):
            assert getattr(batch, name) == getattr(single, name)
        assert batch.status is TaskStatus.COMPLETED

    @pytest.mark.parametrize("user_ids, refused, received", [
        ([1, 7], 7, 2),        # contributed before
        ([1, 2, 3], 3, 3),     # over capacity
        ([1, 1], 1, 2),        # twice in one batch
    ])
    def test_refusal_names_the_first_refused_user(self, user_ids, refused, received):
        task = make_task(required=3)
        task.record_measurement(7, round_no=1)
        with pytest.raises(
            ValueError,
            match=rf"cannot accept a measurement from user {refused} "
                  rf"\(status=active, received={received}/3\)",
        ):
            task.record_measurements(user_ids, round_no=2)
        # all or nothing
        assert task.contributors == {7}
        assert task.measurements_by_round == {1: 1}

    def test_inactive_task_refuses(self):
        task = make_task(deadline=1)
        task.expire_if_due(next_round=2)
        with pytest.raises(ValueError, match="user 4 .*status=expired"):
            task.record_measurements([4], round_no=2)


class TestDeadline:
    def test_expires_after_deadline(self):
        task = make_task(deadline=3)
        assert not task.expire_if_due(next_round=3)
        assert task.is_active
        assert task.expire_if_due(next_round=4)
        assert task.status is TaskStatus.EXPIRED

    def test_expire_is_idempotent(self):
        task = make_task(deadline=1)
        assert task.expire_if_due(next_round=2)
        assert not task.expire_if_due(next_round=3)
        assert task.status is TaskStatus.EXPIRED

    def test_completed_task_does_not_expire(self):
        task = make_task(deadline=1, required=1)
        task.record_measurement(1, round_no=1)
        assert not task.expire_if_due(next_round=5)
        assert task.status is TaskStatus.COMPLETED

    def test_received_by_deadline_ignores_late_measurements(self):
        task = make_task(deadline=2, required=10)
        task.record_measurement(1, round_no=1)
        task.record_measurement(2, round_no=2)
        task.record_measurement(3, round_no=3)  # late (engine would not, but the metric must filter)
        assert task.received_by_deadline() == 2
        assert task.received == 3
