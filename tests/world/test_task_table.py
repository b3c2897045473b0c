"""Property tests for the columnar task table, :class:`TaskTable`.

The table's one writer and everything derived from its contribution
log are held to :class:`~tests.world.task_oracle.ReferenceTask`, a
mutable per-task object applying the acceptance rules upload by
upload.
"""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.geometry.point import Point
from repro.geometry.region import RectRegion
from repro.world import task as task_module
from repro.world.generator import World
from repro.world.task import SensingTask, TaskStatus, TaskTable
from tests.conftest import make_task, make_user
from tests.world.task_oracle import ReferenceTask, task_state

_REGION = RectRegion.square(1000.0)


@st.composite
def fresh_tables(draw, max_size=6):
    """A table without state, distinct ids in any order, and its
    references in row order."""
    n = draw(st.integers(0, max_size))
    ids = draw(st.permutations(range(0, 3 * n, 3)))
    deadline = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    required = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    release = [draw(st.integers(1, d)) for d in deadline]
    table = TaskTable(
        ids, [(float(i), 2.0 * i) for i in range(n)], deadline, required, release
    )
    references = [ReferenceTask(*row) for row in zip(ids, deadline, required)]
    return table, references


def reference_record(references, rows, user_ids, round_no):
    """The table writer's batch on the references: each task's pairs are
    that task's batch; the first refusal in batch order is raised, and
    nothing is written unless no pair is refused."""
    refused = []
    for row in sorted(set(rows)):
        at = [j for j, r in enumerate(rows) if r == row]
        found = references[row].refusal([user_ids[j] for j in at])
        if found is not None:
            refused.append((at[found[0]], found[1]))
    if refused:
        raise ValueError(min(refused)[1])
    for row in sorted(set(rows)):
        references[row].record_measurements(
            [u for r, u in zip(rows, user_ids) if r == row], round_no
        )


@st.composite
def played_tables(draw):
    """A table and its references after a random history of batches
    (some refused) and expiries, rounds ascending."""
    table, references = draw(fresh_tables())
    for round_no in range(1, draw(st.integers(1, 5)) + 1):
        if len(table):
            _apply_batch(draw, table, references, round_no)
        for row in range(len(table)):
            if references[row].expire_if_due(round_no + 1):
                table.expired[row] = True
    return table, references


def _apply_batch(draw, table, references, round_no):
    pairs = draw(st.lists(
        st.tuples(st.integers(0, len(table) - 1), st.integers(0, 5)), max_size=8,
    ))
    rows = [row for row, _ in pairs]
    user_ids = [user for _, user in pairs]
    try:
        reference_record(references, rows, user_ids, round_no)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            table.record(rows, user_ids, round_no)
        assert str(info.value) == str(exc)
    else:
        table.record(rows, user_ids, round_no)


def _assert_same_state(table, expected):
    """Same columns and the same derived state, row for row."""
    assert list(table) == list(expected)
    for name in ("ids", "locations", "deadline", "required", "release",
                 "expired", "received"):
        np.testing.assert_array_equal(getattr(table, name), getattr(expected, name))


class TestTaskTableAgainstReference:
    @given(data=st.data(), played=played_tables())
    @settings(deadline=None)
    def test_random_batches_match_one_by_one_uploads(self, data, played):
        table, references = played
        if len(table):
            _apply_batch(data.draw, table, references, 9)
        assert task_state(table) == task_state(references)
        assert table.received.tolist() == [t.received for t in references]
        assert table.remaining.tolist() == [t.remaining for t in references]
        assert table.active.tolist() == [t.is_active for t in references]
        assert table.statuses() == [t.status for t in references]

    @given(played=played_tables())
    @settings(deadline=None)
    def test_received_by_deadline_and_rounds_read_the_log(self, played):
        table, references = played
        assert table.received_by(table.deadline).tolist() == [
            t.received_by_deadline() for t in references
        ]
        for row, reference in zip(table, references):
            assert row.measurements_by_round == reference.measurements_by_round
        for cutoff in range(0, 7):
            assert table.received_by(np.full(len(table), cutoff)).tolist() == [
                sum(c for r, c in t.measurements_by_round.items() if r <= cutoff)
                for t in references
            ]

    @given(played=played_tables(), data=st.data())
    @settings(deadline=None)
    def test_published_mask_is_active_and_released(self, played, data):
        table, references = played
        round_no = data.draw(st.integers(1, 8))
        assert table.published(round_no).tolist() == [
            t.is_active and table.release[row] <= round_no
            for row, t in enumerate(references)
        ]

    @given(played=played_tables(), data=st.data())
    @settings(deadline=None)
    def test_mask_take_and_append_keep_rows_and_state_together(self, played, data):
        table, _ = played
        n = len(table)
        mask = np.asarray(
            data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        )
        rows = np.asarray(data.draw(st.lists(
            st.integers(0, max(n - 1, 0)), max_size=n, unique=True,
        )), dtype=np.intp)
        everything = list(table)
        for part, index in ((table.take(mask), np.flatnonzero(mask)),
                            (table[mask], np.flatnonzero(mask)),
                            (table.take(rows), rows),
                            (table[::-1], np.arange(n)[::-1])):
            assert list(part) == [everything[i] for i in index.tolist()]
            assert part.received.tolist() == table.received[index].tolist()
            assert part.expired.tolist() == table.expired[index].tolist()
        both = TaskTable.concatenate([table.take(mask), table.take(~mask)])
        order = np.concatenate([np.flatnonzero(mask), np.flatnonzero(~mask)])
        _assert_same_state(both, table.take(order))
        assert table.rows_of(table.ids[order]).tolist() == order.tolist()


class TestTaskTableWriter:
    def test_a_slice_is_a_copy_the_writer_does_not_reach(self):
        table = TaskTable.from_tasks([make_task(0), make_task(1)])
        part = table.take(table.active)
        table.record([0], [5], round_no=1)
        table.expired[1] = True
        assert part.received.tolist() == [0, 0]
        assert not part.expired.any()

    def test_a_batch_over_several_tasks_names_the_first_refusal(self):
        table = TaskTable.from_tasks(
            [make_task(0, required=1), make_task(1, required=2)]
        )
        # Task 0 takes user 3 and is then full for user 4; task 1 takes both.
        with pytest.raises(ValueError, match=r"task 0 .* user 4 \(status=active, "
                                             r"received=1/1\)"):
            table.record([1, 0, 1, 0], [3, 3, 4, 4], round_no=1)
        assert len(table.log) == 0

    @pytest.mark.parametrize("ids", [[7, 3, 10**12], [3, 7, 10**12], [10**12, 7, 3]])
    def test_unknown_ids_have_no_row(self, ids):
        table = TaskTable(ids, [(0.0, 0.0)] * 3, [5] * 3, [1] * 3)
        asked = np.array([3, 7, 10**12, 4, 99, 10**12 + 1, -1])
        rows = [ids.index(i) if i in ids else -1 for i in asked.tolist()]
        assert table.rows_of(asked).tolist() == rows
        assert TaskTable.empty().rows_of(np.array([0])).tolist() == [-1]

    def test_columns_are_read_only_but_deadline(self):
        table = TaskTable.from_tasks([make_task(0)])
        with pytest.raises(ValueError):
            table.required[0] = 3
        table.deadline[0] = 12
        with pytest.raises(AttributeError):
            table[0].deadline = 3

    def test_rows_of_a_hand_built_list(self):
        tasks = [make_task(4, 10.0, 20.0, deadline=3, required=2)]
        row = TaskTable.from_tasks(tasks)[0]
        assert row == tasks[0]
        assert row.status is TaskStatus.ACTIVE and type(row.deadline) is int
        assert row.location == Point(10.0, 20.0)


class TestRepeatedIds:
    def test_a_world_refuses_a_repeated_task_id(self):
        tasks = [make_task(0, 10.0, 10.0), make_task(1), make_task(0, 20.0, 20.0)]
        with pytest.raises(ValueError, match=r"task_id 0 is repeated: rows 0 and 2"):
            World(_REGION, tasks, [make_user(0)])

    def test_a_world_refuses_a_repeated_user_id(self):
        users = [make_user(3), make_user(1), make_user(3, 5.0, 5.0)]
        with pytest.raises(ValueError, match=r"user_id 3 is repeated: rows 0 and 2"):
            World(_REGION, [make_task(0)], users)

    def test_appended_tasks_are_checked_against_the_table(self):
        table = TaskTable.from_tasks([make_task(0), make_task(5)])
        with pytest.raises(ValueError, match=r"task_id 5 is repeated: rows 1 and 2"):
            TaskTable.concatenate([table, TaskTable.from_tasks([make_task(5)])])


def test_a_generated_city_run_builds_no_task_rows():
    """A generated world's tasks stay columns for a whole run: no
    ``SensingTask`` is constructed and no row value is built."""
    inits, rows = [], []
    real_init, real_row = SensingTask.__init__, task_module._row

    def counting_init(self, *args, **kwargs):
        inits.append(1)
        real_init(self, *args, **kwargs)

    def counting_row(*args):
        rows.append(1)
        return real_row(*args)

    config = api.build_config("city-2k", seed=0, rounds=3)
    with mock.patch.object(SensingTask, "__init__", counting_init), \
            mock.patch.object(task_module, "_row", counting_row):
        result = api.make_engine(config).run()
    assert result.rounds_played == 3
    assert len(result.world.tasks) == config.n_tasks
    assert inits == [] and rows == []


def test_reference_batches_are_all_or_nothing():
    """The reference refuses a batch whole, as the writer does."""
    reference = ReferenceTask(0, 5, 2)
    before = copy.deepcopy(reference)
    with pytest.raises(ValueError):
        reference.record_measurements([1, 2, 3], round_no=1)
    assert task_state([reference]) == task_state([before])
