"""Step 3 of the round (data upload): acceptance, rejection reasons and
the records they leave.

- :class:`TestArrayUploadEquivalence` checks the engine's one-pass
  upload against :func:`sequential_upload`, the per-walker loop it
  replaced, on random rounds.
- :class:`TestRejectionReasonsPinned` pins one scripted round that
  produces both rejection reasons, including a contributor who reaches
  a task that fills earlier in the same round (reported "full", not
  "duplicate").  Its expected values were recorded from the sequential
  loop.
- :class:`TestUnknownTask` covers a coordinator naming a task the round
  did not publish.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.region import RectRegion
from repro.selection import Selection, SelectionColumns
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import (
    MeasurementEvent,
    MeasurementRecords,
    RejectedContribution,
    RejectionRecords,
)
from repro.world.generator import World

from tests.conftest import make_task, make_user
from tests.world.task_oracle import ReferenceTask, task_state
from tests.simulation.test_engine_edges import ScriptedCoordinator


def _line_world() -> World:
    """Four two-slot tasks on a line and five users near them."""
    tasks = [
        make_task(i, 100.0 + 200.0 * i, 300.0, deadline=6, required=2)
        for i in range(4)
    ]
    users = [make_user(u, 400.0 + 10.0 * u, 500.0) for u in range(5)]
    return World(region=RectRegion.square(1000.0), tasks=tasks, users=users)


def _scripted_engine(script, seed: int = 5) -> SimulationEngine:
    config = SimulationConfig(
        n_users=5, n_tasks=4, rounds=3, mechanism="fixed", seed=seed
    )
    return SimulationEngine(
        config, world=_line_world(), coordinator=ScriptedCoordinator(script)
    )


class TestRejectionReasonsPinned:
    # Round 1: user 0 contributes to tasks 0 and 1 (one of two slots each).
    # Round 2: user 0 walks back to both.  Task 0 stays open until user 4
    # arrives after user 0, so user 0 is a "duplicate" there; task 1 is
    # filled by user 2 before users 0 and 1 arrive, so both are "full" —
    # user 0 although it also contributed before.
    SCRIPT = {
        1: {0: (0, 1)},
        2: {0: (0, 1), 1: (1,), 2: (1, 2), 3: (2,), 4: (3, 0)},
    }

    @pytest.fixture(scope="class")
    def played(self):
        engine = _scripted_engine(self.SCRIPT)
        engine.step()
        return engine, engine.step()

    def test_measurements(self, played):
        _, record = played
        assert record.measurements == (
            MeasurementEvent(2, 2, 3, 125.0),
            MeasurementEvent(2, 1, 2, 123.5),
            MeasurementEvent(2, 2, 2, 125.0),
            MeasurementEvent(2, 3, 4, 123.0),
            MeasurementEvent(2, 0, 4, 124.0),
        )
        assert record.completed_task_ids == (1, 2, 0)

    def test_rejections_carry_both_reasons(self, played):
        _, record = played
        assert record.rejections == (
            RejectedContribution(2, 0, 0, "duplicate"),
            RejectedContribution(2, 1, 0, "full"),
            RejectedContribution(2, 1, 1, "full"),
        )

    def test_rewards(self, played):
        _, record = played
        assert [(r.user_id, repr(r.reward)) for r in record.user_records] == [
            (0, "0.0"), (1, "0.0"), (2, "248.5"), (3, "125.0"), (4, "247.0"),
        ]
        assert repr(record.total_paid) == "620.5"

    def test_metric_counters(self, played):
        engine, _ = played
        totals = engine.result.metrics_totals()
        assert totals.value("measurements_total", outcome="accepted") == 7.0
        assert totals.value(
            "measurements_total", outcome="rejected", reason="duplicate"
        ) == 1.0
        assert totals.value(
            "measurements_total", outcome="rejected", reason="full"
        ) == 2.0
        assert totals.value("payout_total") == 868.0


class TestUnknownTask:
    def test_coordinator_naming_an_unpublished_task_is_named(self):
        engine = _scripted_engine({1: {3: (1, 99999, 2)}})
        with pytest.raises(ValueError) as caught:
            engine.step()
        message = str(caught.value)
        for part in ("ScriptedCoordinator", "round 1", "user 3", "[99999]"):
            assert part in message

    def test_no_task_state_is_written(self):
        engine = _scripted_engine({1: {0: (0,), 3: (99999,)}})
        with pytest.raises(ValueError, match="did not publish"):
            engine.step()
        assert all(not task.contributors for task in engine.world.tasks)


# -- the sequential oracle ---------------------------------------------------


def sequential_upload(walkers, selections, user_ids, tasks_by_id, prices, round_no):
    """The per-walker upload loop: each walker in arrival order walks its
    path and each task accepts or rejects it on the spot."""
    measurements, rejections, completed, earned_by_walker = [], [], [], []
    for row in walkers:
        user_id = user_ids[row]
        earned = 0.0
        for task_id in selections[row].task_ids:
            task = tasks_by_id[task_id]
            if task.can_accept(user_id):
                task.record_measurements([user_id], round_no)
                price = prices[task_id]
                earned += price
                measurements.append(
                    MeasurementEvent(round_no, task_id, user_id, price)
                )
                if not task.is_active:
                    completed.append(task_id)
            else:
                reason = "full" if task.remaining == 0 else "duplicate"
                rejections.append(
                    RejectedContribution(round_no, task_id, user_id, reason)
                )
        earned_by_walker.append(earned)
    return measurements, rejections, completed, earned_by_walker


@st.composite
def upload_rounds(draw):
    """A round to upload: tasks with 1..phi slots left, some already
    holding contributions from this round's users, and users walking
    overlapping paths of 1-8 tasks in a random arrival order."""
    n_users = draw(st.integers(1, 10))
    n_tasks = draw(st.integers(1, 10))
    pool = list(range(n_users + 3))  # ids >= n_users are absent users
    tasks = []
    for task_id in range(n_tasks):
        required = draw(st.integers(1, 5))
        received = draw(st.integers(0, required - 1))
        prior = draw(st.lists(
            st.sampled_from(pool), min_size=received, max_size=received,
            unique=True,
        ))
        tasks.append((task_id, required, prior))
    paths = [
        draw(st.lists(
            st.integers(0, n_tasks - 1), max_size=min(8, n_tasks), unique=True,
        ))
        for _ in range(n_users)
    ]
    arrival = draw(st.permutations(range(n_users)))
    prices = {
        task_id: draw(st.floats(0.0, 50.0, allow_nan=False))
        for task_id, *_ in tasks
    }
    return tasks, paths, arrival, prices


class TestArrayUploadEquivalence:
    @given(round_=upload_rounds())
    @settings(deadline=None)
    def test_array_upload_equals_sequential_walk(self, round_):
        tasks, paths, arrival, prices = round_
        round_no = 2
        users = [make_user(u, 500.0, 500.0) for u in range(len(paths))]
        world = World(
            region=RectRegion.square(1000.0),
            tasks=[make_task(task_id, required=required, deadline=10)
                   for task_id, required, _ in tasks],
            users=users,
        )
        oracle_tasks = []
        for task_id, required, prior in tasks:
            world.tasks.record([task_id] * len(prior), prior, round_no=1)
            oracle_tasks.append(ReferenceTask(task_id, 10, required))
            oracle_tasks[-1].record_measurements(prior, round_no=1)
        engine = SimulationEngine(
            SimulationConfig(n_users=len(users), n_tasks=len(tasks)),
            world=world,
        )
        selections = [
            Selection(tuple(path), 0.0, 0.0, 0.0) for path in paths
        ]
        walkers = [row for row in arrival if paths[row]]

        want_m, want_r, want_c, want_earned = sequential_upload(
            walkers, selections, [u.user_id for u in users],
            {t.task_id: t for t in oracle_tasks}, prices, round_no,
        )
        got_m, got_r, got_c, got_walkers, got_earned, got_ends = engine._upload(
            round_no, np.array(arrival),
            SelectionColumns.from_selections(selections), prices,
        )

        assert got_walkers.tolist() == walkers
        # Each walker's last task, as a task-table row (here its id).
        assert got_ends.tolist() == [paths[row][-1] for row in walkers]

        assert got_m == tuple(want_m)
        assert got_r == tuple(want_r)
        assert got_c == tuple(want_c)
        assert [repr(x) for x in got_earned.tolist()] == [
            repr(x) for x in want_earned
        ]
        assert task_state(world.tasks) == task_state(oracle_tasks)


class TestColumnarRecords:
    EVENTS = (
        MeasurementEvent(3, 7, 1, 2.5),
        MeasurementEvent(3, 4, 2, 0.1),
    )

    def test_round_record_converts_event_tuples(self):
        from repro.simulation.events import RoundRecord

        record = RoundRecord(
            round_no=3, published_rewards={}, user_records=(),
            measurements=self.EVENTS,
            rejections=(RejectedContribution(3, 7, 5, "full"),),
            completed_task_ids=(), expired_task_ids=(),
        )
        assert isinstance(record.measurements, MeasurementRecords)
        assert isinstance(record.rejections, RejectionRecords)
        assert record.measurements == self.EVENTS
        assert list(record.measurements) == list(self.EVENTS)
        assert record.measurements[-1] == self.EVENTS[-1]
        assert record.rejections.reasons.tolist() == [0]
        assert record.total_paid == 2.5 + 0.1

    def test_rows_are_plain_tuples(self):
        records = MeasurementRecords.from_events(3, self.EVENTS)
        assert list(records.rows()) == [(3, 7, 1, 2.5), (3, 4, 2, 0.1)]

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            MeasurementRecords.from_events(3, self.EVENTS)[2]

    def test_unknown_reason_and_foreign_round_are_refused(self):
        with pytest.raises(ValueError, match="bogus"):
            RejectionRecords.from_events(3, [RejectedContribution(3, 1, 1, "bogus")])
        with pytest.raises(ValueError, match="round 4"):
            MeasurementRecords.from_events(3, [MeasurementEvent(4, 1, 1, 1.0)])
