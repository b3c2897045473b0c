"""Block selection: ``select_block`` answers exactly what ``select`` does.

``GreedySelector.select_block`` solves a whole block of equal-size
instances with array steps, and ``DynamicProgrammingSelector.select_block``
in one layer-by-layer DP pass; each must return, row for row, the very
selection solving that row alone returns — same task order and
bit-identical distance, reward and cost.  Every other selector answers a
block through the default row-by-row ``select_block``.  Either way the
answer is one ``SelectionColumns`` table (CSR task ids plus float64
distance/reward/cost columns), checked once per block.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.selection import (
    SELECTORS,
    DynamicProgrammingSelector,
    GreedySelector,
    ProblemBlock,
    Selection,
    SelectionColumns,
    TimeBoundedSelector,
)
from repro.selection import dp as dp_module
from repro.selection.reference_dp import ReferenceDPSelector

#: Budget offsets that put a path's length within 1e-9 of the budget,
#: on either side of the greedy's ``max_distance + 1e-9`` test.
BOUNDARY_OFFSETS = (-2e-9, -1e-9, -5e-10, 0.0, 5e-10, 1e-9, 2e-9)


def make_block(distances, rewards, max_distance, cost_per_meter, task_ids=None):
    """A block whose rows each own their candidate locations."""
    distances = np.asarray(distances)
    rewards = np.asarray(rewards, dtype=np.float64)
    n, k = rewards.shape
    if task_ids is None:
        task_ids = np.tile(np.arange(k, dtype=np.int64) * 7 + 3, (n, 1))
    columns = np.arange(n * k, dtype=np.int64).reshape(n, k)
    locations = np.asarray(
        [(float(j), float(i)) for j in range(n) for i in range(k)],
        dtype=np.float64,
    ).reshape(n * k, 2)
    return ProblemBlock(
        distances=distances,
        rewards=rewards,
        task_ids=np.asarray(task_ids, dtype=np.int64),
        max_distance=np.asarray(max_distance, dtype=np.float64),
        cost_per_meter=np.asarray(cost_per_meter, dtype=np.float64),
        origins=np.asarray([(float(j), -1.0) for j in range(n)]),
        columns=columns,
        locations=locations,
    )


def exact(selection):
    """A selection's content with every float compared bit for bit."""
    return (
        selection.task_ids,
        tuple(type(task_id) for task_id in selection.task_ids),
        selection.distance.hex(),
        selection.reward.hex(),
        selection.cost.hex(),
    )


def per_row(selector, block):
    return [selector.select(block.problem(j)) for j in range(len(block))]


@st.composite
def blocks(draw, max_n=50, max_k=12):
    """Random blocks: tie-heavy integer grids and continuous geometry."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # Small integers: equal gains are common and every path length
        # is exact, so budgets can sit exactly at the 1e-9 boundary.
        half = rng.integers(0, 6, size=(n, k + 1, k + 1)).astype(np.float64)
        legs = np.triu(half, 1) + np.triu(half, 1).transpose(0, 2, 1)
        rewards = rng.integers(0, 4, size=(n, k)).astype(np.float64)
        cost = rng.choice([0.0, 0.5, 1.0], size=n)
        max_distance = rng.integers(0, 12, size=n).astype(np.float64)
    else:
        points = rng.uniform(0.0, 800.0, size=(n, k + 1, 2))
        diff = points[:, :, None, :] - points[:, None, :, :]
        legs = np.sqrt((diff**2).sum(axis=-1))
        rewards = rng.uniform(0.0, 6.0, size=(n, k))
        cost = rng.uniform(0.0, 0.02, size=n)
        # A random path's running length, in the float64 the greedy
        # sums the (cast) legs in.
        cast = legs.astype(dtype).astype(np.float64)
        stops = rng.integers(1, k + 1, size=n)
        max_distance = np.empty(n)
        for j in range(n):
            path = np.concatenate(([0], rng.permutation(k)[: stops[j]] + 1))
            walked = 0.0
            for a, b in zip(path[:-1], path[1:]):
                walked += float(cast[j, a, b])
            max_distance[j] = walked
    max_distance = np.maximum(
        max_distance + rng.choice(BOUNDARY_OFFSETS, size=n), 0.0
    )
    if draw(st.booleans()):
        rewards[rng.random(size=(n, k)) < 0.5] = 0.0
    task_ids = np.stack([rng.permutation(k) + 1000 for _ in range(n)])
    return make_block(legs.astype(dtype), rewards, max_distance, cost, task_ids)


class TestGreedyBlockEquivalence:
    @given(block=blocks(), min_step_profit=st.sampled_from([0.0, 0.5, 1.0, 2.5]))
    @settings(deadline=None)
    def test_block_equals_per_row_select(self, block, min_step_profit):
        selector = GreedySelector(min_step_profit=min_step_profit)
        got = selector.select_block(block)
        want = per_row(selector, block)
        assert [exact(s) for s in got] == [exact(s) for s in want]

    def test_first_of_equal_gains_wins(self):
        # Candidates 1 and 2 tie on gain; the scalar loop keeps the first.
        distances = np.array([[[0, 2, 2], [2, 0, 9], [2, 9, 0]]], dtype=float)
        block = make_block(distances, [[3.0, 3.0]], [5.0], [0.5])
        (selection,) = GreedySelector().select_block(block)
        assert selection.task_ids == (3,)
        assert [exact(selection)] == [exact(s) for s in per_row(GreedySelector(), block)]

    def test_rows_stop_independently(self):
        # Row 0 walks both tasks, row 1 one of them, row 2 none.
        distances = np.tile(
            np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=np.float32),
            (3, 1, 1),
        )
        block = make_block(
            distances, [[2.0, 2.0], [2.0, 2.0], [0.0, 0.0]],
            [5.0, 1.0, 5.0], [0.1, 0.1, 0.1],
        )
        got = GreedySelector().select_block(block)
        assert [len(s) for s in got] == [2, 1, 0]
        assert got[2].is_empty
        assert [exact(s) for s in got] == [
            exact(s) for s in per_row(GreedySelector(), block)
        ]


def row_block(block, j):
    """Row ``j`` of ``block`` as a one-row block of its own."""
    rows = slice(j, j + 1)
    return ProblemBlock(
        distances=block.distances[rows],
        rewards=block.rewards[rows],
        task_ids=block.task_ids[rows],
        max_distance=block.max_distance[rows],
        cost_per_meter=block.cost_per_meter[rows],
        origins=block.origins[rows],
        columns=block.columns[rows],
        locations=block.locations,
    )


class TestDPBlockEquivalence:
    @given(block=blocks(), min_profit=st.sampled_from([0.0, 0.5, 2.5]))
    @settings(deadline=None)
    def test_block_equals_each_row_alone(self, block, min_profit):
        selector = DynamicProgrammingSelector(min_profit=min_profit)
        got = [exact(s) for s in selector.select_block(block)]
        assert got == [
            exact(selector.select_block(row_block(block, j))[0])
            for j in range(len(block))
        ]
        assert got == [exact(s) for s in per_row(selector, block)]

    @given(
        block=blocks(max_n=12, max_k=10),
        min_profit=st.sampled_from([0.0, 0.5, 2.5]),
    )
    @settings(deadline=None, max_examples=50)
    def test_profits_match_the_reference_dp(self, block, min_profit):
        got = DynamicProgrammingSelector(min_profit=min_profit).select_block(block)
        want = per_row(ReferenceDPSelector(min_profit=min_profit), block)
        assert [s.profit for s in got] == pytest.approx(
            [s.profit for s in want], abs=1e-9
        )

    @given(block=blocks())
    @settings(deadline=None, max_examples=50)
    def test_states_expanded_sum_over_rows(self, block):
        selector = DynamicProgrammingSelector()
        selector.select_block(block)
        expanded = selector.consume_states_expanded()
        for j in range(len(block)):
            selector.select(block.problem(j))
        assert expanded == selector.consume_states_expanded()
        assert selector.total_states_expanded == 2 * expanded

    def test_wide_block_returns_the_capped_answers(self):
        block = geometric_block(k=6)
        capped = DynamicProgrammingSelector(max_exact_tasks=3)
        got = capped.select_block(block)
        assert [exact(s) for s in got] == [
            exact(s) for s in per_row(DynamicProgrammingSelector(max_exact_tasks=3), block)
        ]
        # Each answer is the exact optimum over the row's three
        # highest-potential candidates, as the reference DP caps them.
        reference = ReferenceDPSelector(max_exact_tasks=3)
        for j, selection in enumerate(got):
            problem = block.problem(j)
            assert selection == DynamicProgrammingSelector().select(
                reference._capped(problem)
            )

    @pytest.mark.parametrize("k", [16, 17, 18])
    def test_blocks_split_into_bounded_passes(self, k):
        # 2^20 masks per pass: 16, 8 and 4 rows at these widths, so a
        # 9-row block takes one, two and three passes.  Budgets of a few
        # short legs keep the instances small.
        rng = np.random.default_rng(k)
        n = 9
        half = rng.integers(1, 4, size=(n, k + 1, k + 1)).astype(np.float64)
        legs = np.triu(half, 1) + np.triu(half, 1).transpose(0, 2, 1)
        block = make_block(
            legs, rng.integers(1, 4, size=(n, k)).astype(np.float64),
            rng.integers(2, 5, size=n).astype(np.float64), np.full(n, 0.25),
        )
        selector = DynamicProgrammingSelector()
        got = selector.select_block(block)
        expanded = selector.consume_states_expanded()
        assert [exact(s) for s in got] == [exact(s) for s in per_row(selector, block)]
        assert expanded == selector.consume_states_expanded()
        assert any(not s.is_empty for s in got)

    def test_keys_too_wide_for_int64_go_row_by_row(self):
        # k = 60 with 16 rows: (row << k | mask) would overflow int64
        # if the rows shared a pass.  Tiny budgets leave each row two
        # nearby tasks to chain.
        n, k = 16, 60
        distances = np.full((n, k + 1, k + 1), 1000.0)
        distances[:, 0, :] = distances[:, :, 0] = np.arange(k + 1.0) / 10
        distances[:, np.arange(k + 1), np.arange(k + 1)] = 0.0
        distances[:, 1, 2] = distances[:, 2, 1] = 0.1
        block = make_block(
            distances, np.full((n, k), 1.0), np.full(n, 0.35), np.full(n, 0.5)
        )
        selector = DynamicProgrammingSelector(max_exact_tasks=k)
        got = selector.select_block(block)
        assert [s.task_ids for s in got] == [(3, 10)] * n
        assert [exact(s) for s in got] == [exact(s) for s in per_row(selector, block)]


def empty_block(n=2):
    """``n`` rows without a candidate."""
    return make_block(np.zeros((n, 1, 1)), np.zeros((n, 0)), [1.0] * n,
                      [0.1] * n, task_ids=np.zeros((n, 0), dtype=np.int64))


class TestDPMultiBlockEquivalence:
    """One ``select_blocks`` call pads an assembly chunk's rows, of mixed
    candidate counts, into shared passes; each row must still answer
    what solving it alone answers."""

    @given(
        chunk=st.lists(blocks(max_n=8, max_k=22), min_size=1, max_size=5),
        max_exact_tasks=st.sampled_from([3, 5, 8]),
        min_profit=st.sampled_from([0.0, 0.5]),
        pass_masks=st.sampled_from([dp_module._PASS_MASKS, 1 << 5]),
    )
    @settings(deadline=None)
    def test_every_row_equals_its_select(
        self, chunk, max_exact_tasks, min_profit, pass_masks
    ):
        # 2^5 masks per pass leaves one to four rows a pass: many passes,
        # each cut at a width boundary or inside a block.
        selector = DynamicProgrammingSelector(
            max_exact_tasks=max_exact_tasks, min_profit=min_profit
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dp_module, "_PASS_MASKS", pass_masks)
            got = selector.select_blocks(chunk)
            expanded = selector.consume_states_expanded()
            per_block = [selector.select_block(block) for block in chunk]
            assert expanded == selector.consume_states_expanded()
        assert len(got) == len(chunk)
        for answer, alone, block in zip(got, per_block, chunk):
            assert isinstance(answer, SelectionColumns)
            want = [exact(s) for s in per_row(selector, block)]
            assert [exact(s) for s in answer] == want
            assert [exact(s) for s in alone] == want

    def test_empty_blocks_keep_their_places(self):
        block = geometric_block()
        selector = DynamicProgrammingSelector()
        got = selector.select_blocks([empty_block(3), block, empty_block(1)])
        assert [len(answer) for answer in got] == [3, len(block), 1]
        assert list(got[0]) == [Selection.empty()] * 3
        assert list(got[2]) == [Selection.empty()]
        assert [exact(s) for s in got[1]] == [
            exact(s) for s in per_row(selector, block)
        ]
        assert selector.select_blocks([]) == []

    def test_infinite_budget_creates_no_padded_state(self):
        # The k = 2 row shares a width-4 pass with the k = 4 row; an
        # infinite budget must not reach its padding.
        wide, narrow = geometric_block(n=1, k=4), geometric_block(n=1, k=2)
        narrow = make_block(narrow.distances, narrow.rewards, [np.inf],
                            narrow.cost_per_meter)
        selector = DynamicProgrammingSelector()
        got = selector.select_blocks([narrow, wide])
        expanded = selector.consume_states_expanded()
        assert [exact(s) for s in got[0]] == [
            exact(s) for s in per_row(selector, narrow)
        ]
        selector.select_block(wide)
        assert expanded == selector.consume_states_expanded()


@st.composite
def mirrored_blocks(draw):
    """Wide blocks whose candidates come in mirrored pairs around the
    origin with equal rewards, so potentials tie exactly and often."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(9, 24))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = (k + 1) // 2
    points = rng.integers(1, 30, size=(n, half, 2)).astype(np.float64) * 10.0
    points = np.concatenate([points, points * [-1.0, 1.0]], axis=1)
    rewards = rng.integers(1, 4, size=(n, half)).astype(np.float64)
    rewards = np.concatenate([rewards, rewards], axis=1)
    order = np.argsort(rng.random(size=(n, 2 * half)), axis=1)[:, :k]
    points = np.take_along_axis(points, order[:, :, None], axis=1)
    rewards = np.take_along_axis(rewards, order, axis=1)
    nodes = np.concatenate([np.zeros((n, 1, 2)), points], axis=1)
    diff = nodes[:, :, None, :] - nodes[:, None, :, :]
    distances = np.sqrt((diff**2).sum(axis=-1)).astype(dtype)
    return make_block(
        distances, rewards, rng.uniform(50.0, 250.0, size=n),
        rng.choice([0.0, 0.01, 0.02], size=n),
    )


class TestDPCapping:
    """Wide rows are capped in one array step, to the very candidates the
    reference DP's per-problem cap keeps (``np.argsort(-potential)``)."""

    @given(block=mirrored_blocks(), max_exact_tasks=st.sampled_from([3, 5, 8]))
    @settings(deadline=None, max_examples=60)
    def test_the_array_cap_keeps_the_reference_candidates(
        self, block, max_exact_tasks
    ):
        selector = DynamicProgrammingSelector(max_exact_tasks=max_exact_tasks)
        reference = ReferenceDPSelector(max_exact_tasks=max_exact_tasks)
        keep, _, rewards = selector._capped(
            block.distances, block.rewards, block.cost_per_meter
        )
        got = selector.select_block(block)
        for j in range(len(block)):
            capped = reference._capped(block.problem(j))
            assert block.task_ids[j, keep[j]].tolist() == [
                c.task_id for c in capped.candidates
            ]
            assert rewards[j].tolist() == capped.rewards.tolist()
            assert exact(got[j]) == exact(
                DynamicProgrammingSelector().select(capped)
            )
            assert exact(got[j]) == exact(selector.select(block.problem(j)))

    def test_a_float32_row_is_ranked_as_its_problem_ranks_it(self):
        # Candidate 1 is 999.9 m away with reward 10, candidate 2 at the
        # origin with 10 less a cost between the two roundings of
        # 0.01 * 999.9: the float32 product (9.99899959...) ranks
        # candidate 1 first, the float64 one (9.99900024...) candidate 2.
        far = np.float32(999.9)
        distances = np.array(
            [[[0.0, far, 0.0], [far, 0.0, far], [0.0, far, 0.0]]],
            dtype=np.float32,
        )
        between = 10.0 - (float(np.float32(0.01) * far) + 0.01 * float(far)) / 2
        block = make_block(distances, [[10.0, between]], [2000.0], [0.01])
        selector = DynamicProgrammingSelector(max_exact_tasks=1)
        keep, _, _ = selector._capped(
            block.distances, block.rewards, block.cost_per_meter
        )
        capped = ReferenceDPSelector(max_exact_tasks=1)._capped(block.problem(0))
        assert block.task_ids[0, keep[0]].tolist() == [
            c.task_id for c in capped.candidates
        ] == [block.task_ids[0, 0]]


def geometric_block(n=6, k=5, seed=3):
    """Rows built from real points, small enough for the exact solvers."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, 600.0, size=(n, k + 1, 2))
    diff = points[:, :, None, :] - points[:, None, :, :]
    distances = np.sqrt((diff**2).sum(axis=-1))
    rewards = rng.uniform(1.0, 8.0, size=(n, k))
    return make_block(
        distances, rewards, rng.uniform(300.0, 1500.0, size=n),
        np.full(n, 0.004),
    )


class TestDefaultSelectBlock:
    @pytest.mark.parametrize("name", SELECTORS.available())
    def test_every_selector_matches_its_select(self, name):
        selector = SELECTORS.create(name)
        block = geometric_block()
        got = selector.select_block(block)
        assert len(got) == len(block)
        assert [exact(s) for s in got] == [
            exact(s) for s in per_row(SELECTORS.create(name), block)
        ]

    def test_watchdog_counts_each_fallback(self):
        class FailsOnOddIds:
            """Crashes on every row whose first candidate id is odd."""

            name = "fails-on-odd-ids"

            def select(self, problem):
                if problem.candidates[0].task_id % 2:
                    raise RuntimeError("injected")
                return GreedySelector().select(problem)

        block = geometric_block()
        block = make_block(
            block.distances, block.rewards, block.max_distance,
            block.cost_per_meter,
            # k = 5: row j's first id is 5j, odd on every other row.
            task_ids=np.arange(len(block) * block.size).reshape(
                len(block), block.size
            ),
        )
        failing = sum(
            block.problem(j).candidates[0].task_id % 2 for j in range(len(block))
        )
        assert 0 < failing < len(block)
        guarded = TimeBoundedSelector(FailsOnOddIds(), timeout=30.0)
        got = guarded.select_block(block)
        assert guarded.total_fallbacks == failing
        assert guarded.consume_round_fallbacks() == failing
        assert [exact(s) for s in got] == [
            exact(s) for s in per_row(GreedySelector(), block)
        ]


def selectors(kind):
    """A fresh selector answering blocks through each kind of path."""
    return {
        "greedy": GreedySelector,
        "dp": DynamicProgrammingSelector,
        "watchdog": lambda: TimeBoundedSelector(GreedySelector(), timeout=30.0),
        "two-opt": lambda: SELECTORS.create("greedy-2opt"),
    }[kind]()


class TestColumnarAnswers:
    """A block's answer is one :class:`SelectionColumns` table whose rows
    are the per-row ``select`` answers, bit for bit."""

    @given(
        block=blocks(),
        kind=st.sampled_from(["greedy", "dp", "watchdog", "two-opt"]),
    )
    @settings(deadline=None)
    def test_row_views_equal_per_row_select(self, block, kind):
        got = selectors(kind).select_block(block)
        want = per_row(selectors(kind), block)
        assert isinstance(got, SelectionColumns)
        assert len(got) == len(block)
        assert [exact(s) for s in got] == [exact(s) for s in want]
        assert [exact(got[j]) for j in range(-len(got), 0)] == [
            exact(s) for s in want
        ]
        # The columns themselves: CSR ids in visit order, float64 sums.
        assert got.lengths.tolist() == [len(s) for s in want]
        assert got.task_ids.tolist() == [t for s in want for t in s.task_ids]
        for column in ("distance", "reward", "cost"):
            assert getattr(got, column).dtype == np.float64
            assert [x.hex() for x in getattr(got, column).tolist()] == [
                getattr(s, column).hex() for s in want
            ]
        assert got == want

    def test_empty_block_answers_sit_outs(self):
        block = make_block(np.zeros((3, 1, 1)), np.zeros((3, 0)), [1.0] * 3,
                           [0.1] * 3, task_ids=np.zeros((3, 0), dtype=np.int64))
        for kind in ("greedy", "dp", "watchdog"):
            got = selectors(kind).select_block(block)
            assert got.lengths.tolist() == [0, 0, 0]
            assert list(got) == [Selection.empty()] * 3


class TestColumnValidation:
    """One array check per block: non-negative columns, no repeated id
    within a row, and errors that name the offending row's values."""

    def test_negative_distance_is_refused(self):
        with pytest.raises(ValueError, match=r"non-negative, got -1\.5/2\.0/0\.25"):
            SelectionColumns([0, 1, 2], [3, 4], [1.0, -1.5], [1.0, 2.0], [0.5, 0.25])

    @pytest.mark.parametrize(
        "columns", [([1.0], [-1.0], [0.0]), ([1.0], [1.0], [-1.0])]
    )
    def test_negative_reward_or_cost_is_refused(self, columns):
        with pytest.raises(ValueError, match="non-negative"):
            SelectionColumns([0, 1], [7], *columns)

    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match="non-negative, got 1.0/nan/0.0"):
            SelectionColumns([0, 1], [7], [1.0], [float("nan")], [0.0])

    def test_repeated_id_within_a_row_is_refused(self):
        with pytest.raises(ValueError, match=r"duplicate task ids in selection: \(9, 4, 9\)"):
            SelectionColumns([0, 2, 5], [4, 9, 9, 4, 9], [1.0, 2.0],
                             [1.0, 1.0], [0.0, 0.0])

    def test_repeated_id_with_ids_too_far_apart_for_one_key(self):
        far = 1 << 62
        with pytest.raises(ValueError, match="duplicate task ids"):
            SelectionColumns([0, 1, 4], [0, far, -far, far], [1.0, 1.0],
                             [1.0, 1.0], [0.0, 0.0])
        SelectionColumns([0, 2, 4], [far, -far, -far, far], [1.0, 1.0],
                         [1.0, 1.0], [0.0, 0.0])

    def test_the_same_id_in_two_rows_is_fine(self):
        got = SelectionColumns([0, 2, 4], [3, 5, 5, 3], [1.0, 2.0], [1.0, 1.0],
                               [0.5, 0.5])
        assert [s.task_ids for s in got] == [(3, 5), (5, 3)]

    def test_misaligned_columns_are_refused(self):
        with pytest.raises(ValueError, match="misaligned"):
            SelectionColumns([0, 2], [3], [1.0], [1.0], [0.0])
        with pytest.raises(ValueError, match="misaligned"):
            SelectionColumns([0, 1], [3], [1.0, 2.0], [1.0], [0.0])

    def test_a_block_answer_is_checked(self):
        # A negative leg drives the greedy's running distance below 0.
        distances = np.array([[[0, -2, 9], [-2, 0, 9], [9, 9, 0]]], dtype=float)
        block = make_block(distances, [[3.0, 0.0]], [5.0], [0.5])
        with pytest.raises(ValueError, match=r"non-negative, got -2\.0"):
            GreedySelector().select_block(block)

    def test_columns_from_selections_keep_their_values(self):
        selections = [Selection((2, 1), 3.0, 4.0, 0.5), Selection.empty()]
        got = SelectionColumns.from_selections(selections)
        assert got.offsets.tolist() == [0, 2, 2]
        assert list(got) == selections
