"""Unit tests for repro.simulation.events."""

import dataclasses
import pickle

import pytest

from repro.allocation.greedy_server import GreedyServerCoordinator
from repro.io.events import read_events_jsonl, write_events_jsonl
from repro.selection import Selection, SelectionColumns
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine, make_engine, simulate
from repro.simulation.events import (
    MeasurementEvent,
    RoundRecord,
    RunTotals,
    SimulationResult,
    UserRoundRecord,
    UserRoundRecords,
    round_fingerprint,
)
from repro.world.generator import World


@pytest.fixture(scope="module")
def result():
    return simulate(SimulationConfig(n_users=15, n_tasks=6, rounds=8,
                                     required_measurements=4, budget=200.0,
                                     area_side=1500.0, seed=3))


def reversed_world(config):
    """The world ``config`` generates, with its users' rows (and so
    their positions) in reverse id order."""
    world = make_engine(config).world
    return World(world.region, world.tasks, world.users[::-1])


class TestUserRoundRecord:
    def test_profit_and_participation(self):
        record = UserRoundRecord(
            round_no=1, user_id=0, selected_task_ids=(1, 2),
            distance=100.0, reward=3.0, cost=0.2,
        )
        assert record.profit == pytest.approx(2.8)
        assert record.participated

    def test_sit_out(self):
        record = UserRoundRecord(
            round_no=1, user_id=0, selected_task_ids=(),
            distance=0.0, reward=0.0, cost=0.0,
        )
        assert not record.participated
        assert record.profit == 0.0


class TestRoundRecord:
    def test_round_accessors(self, result):
        first = result.round(1)
        assert isinstance(first, RoundRecord)
        assert first.round_no == 1
        assert first.measurement_count == len(first.measurements)
        assert first.total_paid == pytest.approx(
            sum(e.reward for e in first.measurements)
        )

    def test_round_out_of_range(self, result):
        with pytest.raises(IndexError, match="not played"):
            result.round(result.rounds_played + 1)
        with pytest.raises(IndexError, match="not played"):
            result.round(0)

    def test_participating_users_counts_selectors(self, result):
        record = result.round(1)
        expected = sum(1 for r in record.user_records if r.selected_task_ids)
        assert record.participating_users == expected


class TestSimulationResult:
    def test_totals_add_up(self, result):
        assert result.total_measurements == sum(
            r.measurement_count for r in result.rounds
        )
        assert result.total_paid == pytest.approx(
            sum(r.total_paid for r in result.rounds)
        )

    def test_measurements_by_task_covers_all_tasks(self, result):
        counts = result.measurements_by_task()
        assert set(counts) == {t.task_id for t in result.world.tasks}
        assert sum(counts.values()) == result.total_measurements

    def test_task_counts_match_world_state(self, result):
        counts = result.measurements_by_task()
        for task in result.world.tasks:
            assert counts[task.task_id] == task.received

    def test_user_profits_whole_run(self, result):
        profits = result.user_profits()
        assert len(profits) == len(result.world.users)
        # Cross-check against the round records: each user's profit is
        # the sum of its per-round reward - cost, in round order.
        for user, profit in zip(result.world.users, profits):
            from_records = 0.0
            for record in result.rounds:
                for r in record.user_records:
                    if r.user_id == user.user_id:
                        from_records += r.profit
            assert profit == from_records

    def test_user_profits_single_round(self, result):
        profits = result.user_profits(round_no=1)
        record = result.round(1)
        assert profits == [r.profit for r in record.user_records]

    def test_rounds_given_at_construction_are_folded(self, result):
        again = SimulationResult(
            config=result.config, world=result.world, rounds=list(result.rounds)
        )
        assert not again.streamed
        for name in ("rounds_played", "total_measurements", "total_paid",
                     "total_selector_fallbacks", "measurements_by_task", "perf"):
            assert getattr(again.totals, name) == getattr(result.totals, name)
        assert again.totals.user_profits.tolist() == result.totals.user_profits.tolist()
        assert (
            again.metrics_totals().as_dict() == result.metrics_totals().as_dict()
        )


def _round(round_no, users, measurements=()):
    """A hand-built round: ``users`` are ``(user_id, task_ids, reward,
    cost)`` tuples."""
    return RoundRecord(
        round_no=round_no,
        published_rewards={},
        user_records=[
            UserRoundRecord(round_no, user_id, task_ids, 1.0, reward, cost)
            for user_id, task_ids, reward, cost in users
        ],
        measurements=tuple(measurements),
        rejections=(),
        completed_task_ids=(),
        expired_task_ids=(),
    )


class TestRunTotals:
    """The run ledger every aggregate is read from."""

    def test_folds_profit_per_user_in_round_order(self):
        totals = RunTotals()
        totals.absorb(_round(1, [(0, (1,), 5.0, 2.0), (2, (), 0.0, 0.0)]))
        totals.absorb(_round(2, [(0, (2,), 1.0, 3.0), (2, (3,), 4.0, 1.0)]))
        assert totals.user_profits.tolist() == [(5.0 - 2.0) + (1.0 - 3.0), 0.0, 3.0]

    def test_user_who_never_walked_has_zero_profit(self):
        totals = RunTotals()
        totals.absorb(_round(1, [(0, (), 0.0, 0.0), (1, (), 0.0, 0.0)]))
        assert totals.user_profits.tolist() == [0.0, 0.0]
        assert totals.rounds_played == 1
        empty = RunTotals()
        empty.absorb(_round(1, []))
        assert empty.user_profits.tolist() == []

    def test_costs_column_holds_each_users_cost(self):
        record = _round(1, [(0, (), 0.0, 0.0), (1, (4,), 2.0, 0.5),
                            (3, (5, 6), 3.0, 1.0)])
        assert record.user_records.costs.tolist() == [0.0, 0.5, 1.0]

    def test_engine_folds_profits_when_users_are_not_in_id_order(self, result):
        """The engine reorders its rows into id order; a world whose
        users are not in id order still folds each user's profit under
        its own id, and the cost column matches the selections."""
        world = reversed_world(result.config)
        run = SimulationEngine(result.config, world=world).run()
        expected = {}
        for record in run.rounds:
            users = record.user_records
            assert users.costs.tolist() == [s.cost for s in users.selections]
            for r in users:
                expected[r.user_id] = expected.get(r.user_id, 0.0) + r.profit
        assert run.user_profits() == [expected[u.user_id] for u in run.world.users]

    def test_payout_is_added_left_to_right(self):
        """Ten 0.1 rewards pay 0.9999999999999999 (plain left-to-right
        float adds) on every interpreter; CPython 3.12's compensated
        ``sum()`` would give 1.0."""
        events = [MeasurementEvent(1, task_id, 0, 0.1) for task_id in range(10)]
        record = _round(1, [], events)
        assert record.total_paid == 0.9999999999999999
        totals = RunTotals()
        totals.absorb(record)
        assert totals.total_paid == 0.9999999999999999
        assert totals.measurements_by_task == {t: 1 for t in range(10)}


class TestUserRoundRecords:
    """The engine's columnar user records behave like the record tuple."""

    def _as_tuple(self, records):
        return tuple(
            UserRoundRecord(
                round_no=r.round_no, user_id=r.user_id,
                selected_task_ids=r.selected_task_ids, distance=r.distance,
                reward=r.reward, cost=r.cost,
            )
            for r in records
        )

    def test_engine_emits_columns_in_user_id_order(self, result):
        records = result.round(1).user_records
        assert isinstance(records, UserRoundRecords)
        ids = [r.user_id for r in records]
        assert ids == sorted(ids) == [u.user_id for u in result.world.users]

    def test_sequence_protocol_and_equality(self, result):
        records = result.round(2).user_records
        plain = self._as_tuple(records)
        assert len(records) == len(plain)
        assert records == plain and plain == records
        assert records[0] == plain[0] and records[-1] == plain[-1]
        assert list(records) == list(plain)
        with pytest.raises(IndexError):
            records[len(records)]
        assert records != plain[:-1]
        assert result.round(1).user_records != records

    def test_pickle_round_trip(self, result):
        record = result.round(result.rounds_played)
        clone = pickle.loads(pickle.dumps(record))
        assert clone.user_records == record.user_records
        assert round_fingerprint(clone) == round_fingerprint(record)

    def test_record_tuples_are_stored_as_columns(self, result):
        for record in result.rounds:
            plain = dataclasses.replace(
                record, user_records=self._as_tuple(record.user_records)
            )
            assert isinstance(plain.user_records, UserRoundRecords)
            assert plain.user_records == record.user_records
            assert round_fingerprint(plain) == round_fingerprint(record)
            assert plain.participating_users == record.participating_users

    def test_records_from_another_round_rejected(self, result):
        record = result.round(1)
        with pytest.raises(ValueError, match="another round"):
            dataclasses.replace(
                record,
                round_no=2,
                user_records=self._as_tuple(record.user_records),
            )


class TestColumnarUserRecords:
    """The engine's user records are columns (a selection table plus
    earned rewards and costs), and equal the records they stand for."""

    @pytest.fixture(scope="class")
    def runs(self, result):
        """The module's run, plus one whose world is not in id order (its
        records are the round table permuted into id order)."""
        world = reversed_world(result.config)
        return [result, SimulationEngine(result.config, world=world).run()]

    def test_columns_equal_from_records_of_their_rows(self, runs):
        for run in runs:
            for record in run.rounds:
                records = record.user_records
                assert isinstance(records.selections, SelectionColumns)
                rebuilt = UserRoundRecords.from_records(
                    record.round_no, [UserRoundRecord(*row) for row in records.rows()]
                )
                assert rebuilt == records and records == rebuilt
                assert list(rebuilt.rows()) == list(records.rows())
                assert [repr(r) for r in rebuilt] == [repr(r) for r in records]

    def test_permuted_rows_keep_each_users_selection(self, result):
        world = reversed_world(result.config)
        engine = SimulationEngine(result.config, world=world)
        tables = []
        collect = engine._collect_selections

        def capture(*args):
            tables.append(collect(*args))
            return tables[-1]

        engine._collect_selections = capture
        while not engine.finished:
            record = engine.step()
            by_user = {r.user_id: r for r in record.user_records}
            assert list(by_user) == sorted(by_user)
            for user, selection in zip(engine.world.users, tables[-1]):
                mine = by_user[user.user_id]
                assert mine.selected_task_ids == selection.task_ids
                assert mine.distance == selection.distance
                assert mine.cost == selection.cost
        assert any(len(s) for table in tables for s in table)

    def test_events_jsonl_round_trip_is_byte_identical(self, runs, tmp_path):
        for index, run in enumerate(runs):
            path = write_events_jsonl(run, tmp_path / f"run{index}.jsonl")
            replay = read_events_jsonl(path)
            for original, loaded in zip(run.rounds, replay.rounds):
                assert loaded.user_records == original.user_records
                assert list(loaded.user_records.rows()) == list(
                    original.user_records.rows()
                )
            again = SimulationResult(
                config=run.config, world=run.world, rounds=replay.rounds
            )
            rewritten = write_events_jsonl(again, tmp_path / f"again{index}.jsonl")
            assert rewritten.read_bytes() == path.read_bytes()

    def test_participating_users_counts_non_empty_rows(self, result):
        for record in result.rounds:
            assert record.participating_users == sum(
                1 for r in record.user_records if r.selected_task_ids
            )

    def test_replayed_selection_is_checked(self):
        with pytest.raises(ValueError, match="duplicate task ids"):
            UserRoundRecords.from_records(
                1, [UserRoundRecord(1, 0, (4, 4), 1.0, 0.0, 0.0)]
            )
        for distance in (-1.0, None):
            with pytest.raises(ValueError, match="non-negative"):
                UserRoundRecords.from_records(
                    1, [UserRoundRecord(1, 0, (4,), distance, 0.0, 0.0)]
                )


class TestServerAssignedRound:
    """A SAT round's records are the coordinator's selections, converted
    to the round table once."""

    def test_records_hold_the_assigned_selections(self):
        assigned = {}

        class Recording(GreedyServerCoordinator):
            def assign(self, round_no, *args):
                assigned[round_no] = super().assign(round_no, *args)
                return assigned[round_no]

        config = SimulationConfig(n_users=15, n_tasks=6, rounds=4,
                                  required_measurements=4, budget=200.0,
                                  area_side=1500.0, seed=3)
        run = SimulationEngine(config, coordinator=Recording()).run()
        assert any(assigned.values())
        for record in run.rounds:
            plan = assigned[record.round_no]
            for row in record.user_records:
                want = plan.get(row.user_id, Selection.empty())
                assert (row.selected_task_ids, row.distance.hex(), row.cost.hex()) == (
                    want.task_ids, float(want.distance).hex(), float(want.cost).hex()
                )
