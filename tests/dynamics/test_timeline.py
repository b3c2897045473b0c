"""WorldTimeline against live engines: application, renewal, presence."""

import pytest

from repro.core.mechanisms import RoundView
from repro.dynamics.processes import DynamicsSpec, EventStream, WorldEvent
from repro.dynamics.stream import WorldTimeline
from repro.geometry.point import Point
from repro.simulation import SimulationConfig, make_engine
from repro.world.task import TaskStatus

from tests.geometry.grid_oracle import GridIndex

CHURN = dict(
    user_arrival_rate=2.0,
    user_departure_rate=0.1,
    task_arrival_rate=1.0,
    task_deadline_range=[3, 5],
)


def churn_config(**overrides):
    base = dict(
        n_users=15,
        n_tasks=6,
        area_side=1500.0,
        required_measurements=4,
        deadline_range=(3, 8),
        rounds=8,
        budget=200.0,
        seed=7,
        dynamics=dict(CHURN),
    )
    base.update(overrides)
    return SimulationConfig(**base)


def hand_timeline(events=(), renewals=None, spec=None, rounds=8):
    """A timeline over a hand-built stream (no RNG, no engine needed)."""
    stream = EventStream(
        events=tuple(events),
        renewals=renewals or {},
        last_task_round=max(
            (e.round_no for e in events if e.kind == "task_published"),
            default=0,
        ),
    )
    return WorldTimeline(
        spec or DynamicsSpec(), stream, rounds, seed_user_ids=[0, 1, 2]
    )


class TestEngineIntegration:
    def test_closed_world_has_no_timeline(self):
        engine = make_engine(churn_config(dynamics={}))
        assert engine.timeline is None
        result = engine.run()
        assert all(record.dynamics == () for record in result.rounds)

    def test_events_mutate_the_world(self):
        engine = make_engine(churn_config())
        assert engine.timeline is not None
        before_users = {u.user_id for u in engine.world.users}
        before_tasks = {t.task_id for t in engine.world.tasks}
        result = engine.run()

        arrived = {
            e.subject_id
            for r in result.rounds
            for e in r.dynamics
            if e.kind == "user_arrived"
        }
        departed = {
            e.subject_id
            for r in result.rounds
            for e in r.dynamics
            if e.kind == "user_departed"
        }
        published = {
            e.subject_id
            for r in result.rounds
            for e in r.dynamics
            if e.kind == "task_published"
        }
        assert arrived and published, "churn rates should produce events"
        after_users = {u.user_id for u in engine.world.users}
        assert after_users == (before_users | arrived) - departed
        assert {t.task_id for t in engine.world.tasks} == (
            before_tasks | published
        )

    def test_eq5_counts_after_churn_equal_a_fresh_count(self, monkeypatch):
        """Each round's neighbour counts, taken after that round's
        arrivals and departures, equal a fresh scalar count over the
        users then in the world."""
        priced = []
        recount = RoundView.neighbour_counts

        def spy(view, tasks, radius):
            counts = recount(view, tasks, radius)
            assert view.user_locations is engine.world.positions
            assert len(view.user_locations) == len(engine.world.users)
            priced.append((
                [Point(x, y) for x, y in view.user_locations.tolist()],
                [t.location for t in tasks], radius, counts.tolist(),
            ))
            return counts

        monkeypatch.setattr(RoundView, "neighbour_counts", spy)
        engine = make_engine(churn_config(n_users=40, area_side=1000.0))
        result = engine.run()
        kinds = {e.kind for r in result.rounds for e in r.dynamics}
        assert {"user_arrived", "user_departed"} <= kinds
        # One recount per round that published a price.
        assert len(priced) == sum(1 for r in result.rounds if r.published_rewards)
        for users, centers, radius, counts in priced:
            oracle = GridIndex(users, cell_size=radius)
            assert counts == oracle.counts_for(centers, radius)
        assert any(any(counts) for *_, counts in priced)

    def test_streamed_tasks_join_the_economy(self):
        """Streamed tasks get rewards published and can be measured."""
        config = churn_config(
            dynamics=dict(task_arrival_rate=3.0), seed=3
        )
        engine = make_engine(config)
        result = engine.run()
        published = {
            e.subject_id
            for r in result.rounds
            for e in r.dynamics
            if e.kind == "task_published"
        }
        assert published
        priced = {
            task_id
            for r in result.rounds
            for task_id in r.published_rewards
        }
        assert published <= priced

    def test_record_dynamics_round_trip_order(self):
        """Events land on the record of the round they take effect in."""
        engine = make_engine(churn_config())
        result = engine.run()
        for record in result.rounds:
            assert all(e.round_no == record.round_no for e in record.dynamics)

    def test_run_extends_past_quiet_rounds_for_pending_tasks(self):
        """The engine must not stop while the stream still owes tasks."""
        engine = make_engine(churn_config())
        last = engine.timeline.stream.last_task_round
        assert engine.timeline.has_pending_tasks(last)
        assert not engine.timeline.has_pending_tasks(last + 1)


class TestRenewal:
    def test_renewal_extends_deadline(self):
        timeline = hand_timeline(
            renewals={0: ((0.1, 4),)},
            spec=DynamicsSpec(deadline_renewal_prob=0.5),
        )
        assert timeline.try_renew(0, deadline=3) == 7
        # The single pre-drawn lottery is spent.
        assert timeline.try_renew(0, deadline=7) is None

    def test_losing_draw_returns_none(self):
        timeline = hand_timeline(
            renewals={0: ((0.9, 4),)},
            spec=DynamicsSpec(deadline_renewal_prob=0.5),
        )
        assert timeline.try_renew(0, deadline=3) is None

    def test_unknown_task_has_no_lottery(self):
        timeline = hand_timeline()
        assert timeline.try_renew(99, deadline=3) is None

    def test_engine_emits_renewal_and_expiry_events(self):
        config = churn_config(
            n_users=4,
            required_measurements=30,  # unmeetable: every task goes unmet
            budget=800.0,  # keep Eq. 9's base reward positive
            deadline_range=(2, 3),
            dynamics=dict(
                deadline_renewal_prob=0.5, max_deadline_renewals=1
            ),
            seed=1,
        )
        engine = make_engine(config)
        result = engine.run()
        kinds = {e.kind for r in result.rounds for e in r.dynamics}
        assert "task_expired" in kinds
        expired_events = {
            e.subject_id
            for r in result.rounds
            for e in r.dynamics
            if e.kind == "task_expired"
        }
        expired_records = {
            tid for r in result.rounds for tid in r.expired_task_ids
        }
        assert expired_events == expired_records
        for task in engine.world.tasks:
            if task.task_id in expired_records:
                assert task.status is TaskStatus.EXPIRED

    def test_renewed_task_outlives_original_deadline(self):
        config = churn_config(
            n_users=4,
            required_measurements=30,
            budget=800.0,
            deadline_range=(2, 2),
            rounds=6,
            dynamics=dict(
                deadline_renewal_prob=1.0, max_deadline_renewals=1
            ),
            seed=1,
        )
        engine = make_engine(config)
        result = engine.run()
        renewed = [
            e
            for r in result.rounds
            for e in r.dynamics
            if e.kind == "deadline_renewed"
        ]
        assert renewed, "prob=1.0 must renew every unmet deadline once"
        for event in renewed:
            assert event.get("deadline") > 2
            # A renewed task is not expired in the same round.
            record = result.rounds[event.round_no - 1]
            assert event.subject_id not in record.expired_task_ids


class TestPresenceLedger:
    def test_seed_crowd_scores_full_presence(self):
        timeline = hand_timeline()
        assert timeline.mean_presence(5) == pytest.approx(1.0)

    def test_new_arrivals_lower_mean_presence(self):
        arrival = WorldEvent(
            "user_arrived",
            4,
            10,
            payload=(
                ("cost_per_meter", 0.002),
                ("speed", 2.0),
                ("time_budget", 900.0),
                ("x", 10.0),
                ("y", 20.0),
            ),
        )

        class _Sink:
            def _apply_dynamics(self, changes):
                pass

        timeline = hand_timeline(events=[arrival])
        timeline.advance(4, _Sink())
        # Three seed users at 1.0, one arrival at 1/4.
        assert timeline.mean_presence(4) == pytest.approx(
            (3 * 1.0 + 0.25) / 4
        )

    def test_departures_leave_the_ledger(self):
        class _Sink:
            def _apply_dynamics(self, changes):
                pass

        timeline = hand_timeline(
            events=[WorldEvent("user_departed", 3, 0)]
        )
        timeline.advance(3, _Sink())
        assert 0 not in timeline._alive
        assert timeline.mean_presence(3) == pytest.approx(1.0)

    def test_advance_returns_events_for_the_record(self):
        event = WorldEvent("user_departed", 2, 1)

        applied = []

        class _Sink:
            def _apply_dynamics(self, changes):
                applied.append(changes)

        timeline = hand_timeline(events=[event])
        assert timeline.advance(2, _Sink()) == [event]
        assert len(applied) == 1 and applied[0].departures == [1]
        assert timeline.advance(5, _Sink()) == []
        assert len(applied) == 1, "no-change rounds must not call the hook"


class TestStreamedRequiredTotal:
    def test_sums_required_over_published_tasks(self):
        events = [
            WorldEvent(
                "task_published",
                2,
                7,
                payload=(("deadline", 5), ("required", 4), ("x", 1.0), ("y", 2.0)),
            ),
            WorldEvent(
                "task_published",
                3,
                8,
                payload=(("deadline", 6), ("required", 6), ("x", 3.0), ("y", 4.0)),
            ),
            WorldEvent("user_departed", 3, 0),
        ]
        assert hand_timeline(events=events).streamed_required_total() == 10

    def test_empty_stream_totals_zero(self):
        assert hand_timeline().streamed_required_total() == 0
