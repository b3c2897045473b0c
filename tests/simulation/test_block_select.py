"""The engine's select phase: counters, cancellation, chunks and blocks.

The engine hands a whole assembly chunk to a selector that solves it
together (the greedy and the exact DP) in one ``select_chunk`` call, and
each equal-k problem block of the chunk to any other selector in one
``select_block`` call.  Its counters keep their per-instance meaning
(one selector call per user with a candidate, one problem-cache hit per
participant), and cancellation is polled before every call.
"""

import numpy as np
import pytest

from repro.obs.trace import SpanTracer
from repro.resilience.cancel import FlagToken
from repro.resilience.errors import OperationCancelled
from repro.scenarios import PRESETS
from repro.selection import GreedySelector, Selector
from repro.simulation import SimulationEngine
from repro.simulation.round_cache import RoundProblems
from tests.simulation.test_batch import (
    located,
    reference_problem,
    user_columns,
)


def small_city(**overrides):
    config = dict(
        rounds=3, n_users=400, n_tasks=60, area_side=6000.0,
        stream_rounds=False, seed=11,
    )
    config.update(overrides)
    return PRESETS["city-2k"].to_config(**config)


def assert_one_call_per_chunk(selector):
    tracer = SpanTracer()
    config = small_city(selector=selector, rounds=2)
    result = SimulationEngine(config, tracer=tracer).run()
    calls = [r for r in tracer.spans if r.name == "select-block"]
    # city-2k's few hundred users fit one assembly chunk.
    assert len(calls) == result.rounds_played
    assert all(call.args["blocks"] > 1 for call in calls)
    assert sum(call.args["users"] for call in calls) == (
        result.perf_totals().selector_calls
    )
    assert [r.metrics.histogram("selector_seconds").count
            for r in result.rounds] == [1] * result.rounds_played


class TestCounters:
    def test_calls_count_users_with_a_candidate(self):
        engine = SimulationEngine(small_city())
        masks = []
        draw = engine._participation_mask

        def capture():
            masks.append(draw())
            return masks[-1]

        engine._participation_mask = capture
        while not engine.finished:
            # Candidates counted independently, by the reference builder.
            tasks, prices = engine.published_tasks(), engine.published_rewards()
            has_candidate = np.array([
                reference_problem(u, origin, tasks, prices).size > 0
                for u, origin in located(engine.world)
            ])
            record = engine.step()
            participants = masks[-1]
            assert participants.sum() < len(participants)
            assert record.perf.problem_cache_hits == participants.sum()
            assert record.perf.selector_calls == (
                has_candidate & participants
            ).sum()
            # The latency histogram holds one value per selector call:
            # here one chunk, answered by the greedy's chunk pass.
            calls = record.metrics.histogram("selector_seconds").count
            assert 0 < calls < record.perf.selector_calls

    def test_the_dp_gets_one_call_per_chunk(self):
        assert_one_call_per_chunk("dp")

    def test_the_greedy_gets_one_call_per_chunk(self):
        assert_one_call_per_chunk("greedy")

    def test_small_chunks_get_one_greedy_call_each(self):
        chunks = []

        class CountsChunks(GreedySelector):
            def select_chunk(self, chunk):
                chunks.append(len(chunk))
                return super().select_chunk(chunk)

        tracer = SpanTracer()
        engine = SimulationEngine(
            small_city(rounds=2), selector=CountsChunks(), tracer=tracer
        )
        engine.chunk_bytes = 40 * 60 * 4  # ~40 users of 60 tasks a chunk
        result = engine.run()
        calls = [r for r in tracer.spans if r.name == "select-block"]
        assert len(calls) == len(chunks) > 2 * result.rounds_played
        assert [call.args["users"] for call in calls] == chunks
        assert sum(chunks) == result.perf_totals().selector_calls


class TestCancellation:
    def test_cancel_from_the_selector_stops_before_the_next_block(self):
        token = FlagToken()
        blocks = []

        class CancelsOnFirstBlock(Selector):
            """Answers block by block: no chunk pass of its own."""

            name = "cancels-on-first-block"

            def select(self, problem):
                return GreedySelector().select(problem)

            def select_block(self, block):
                blocks.append(len(block))
                token.cancel("stop mid-round")
                return super().select_block(block)

        config = PRESETS["city-2k"].to_config(seed=4, rounds=2)
        engine = SimulationEngine(
            config, selector=CancelsOnFirstBlock(), cancel=token
        )
        with pytest.raises(OperationCancelled) as excinfo:
            engine.step()
        assert excinfo.value.reason == "stop mid-round"
        assert len(blocks) == 1
        assert not engine.result.rounds

    def test_cancel_from_the_greedy_stops_before_the_next_chunk(self):
        token = FlagToken()
        chunks = []

        class Greedy(GreedySelector):
            cancels = False

            def select_chunk(self, chunk):
                chunks.append(len(chunk))
                if self.cancels:
                    token.cancel("stop mid-round")
                return super().select_chunk(chunk)

        def engine(selector):
            config = PRESETS["city-2k"].to_config(seed=4, rounds=2)
            engine = SimulationEngine(config, selector=selector, cancel=token)
            engine.chunk_bytes = 64 << 10
            return engine

        # The same first round, uncancelled, takes several chunk calls.
        engine(Greedy()).step()
        assert len(chunks) >= 2
        chunks.clear()
        cancelling = Greedy()
        cancelling.cancels = True
        stopped = engine(cancelling)
        with pytest.raises(OperationCancelled) as excinfo:
            stopped.step()
        assert excinfo.value.reason == "stop mid-round"
        assert len(chunks) == 1
        assert not stopped.result.rounds


class TestBlocks:
    def test_block_rows_carry_their_problems_fields(self):
        config = small_city(distance_dtype="float64")
        engine = SimulationEngine(config)
        tasks, prices = engine.published_tasks(), engine.published_rewards()
        problems = RoundProblems(tasks, prices)
        users = engine.world.users
        columns = user_columns(users, engine.world.positions)
        origins = located(engine.world)
        seen = []
        for indices, block in problems.iter_blocks(**columns):
            assert block.distances.shape == (len(block), block.size + 1,
                                             block.size + 1)
            for j, index in enumerate(indices.tolist()):
                problem = block.problem(j)
                want = reference_problem(*origins[index], tasks, prices)
                assert problem.origin == want.origin
                assert problem.candidates == want.candidates
                assert problem.max_distance == want.max_distance
                assert problem.cost_per_meter == want.cost_per_meter
                np.testing.assert_array_equal(
                    problem.distance_matrix, want.distance_matrix
                )
                assert block.rewards[j].tolist() == problem.rewards.tolist()
                assert block.task_ids[j].tolist() == [
                    c.task_id for c in problem.candidates
                ]
                assert block.max_distance[j] == problem.max_distance
                assert block.cost_per_meter[j] == problem.cost_per_meter
                seen.append(index)
        assert sorted(seen) == [
            index for index, _ in problems.iter_problems(**columns)
        ]
        assert len(set(seen)) == len(seen)

    def test_duck_typed_selector_answers_row_by_row(self):
        class SelectOnly:
            """A selector with ``select`` and nothing else."""

            def select(self, problem):
                return GreedySelector().select(problem)

        config = small_city()
        duck = SimulationEngine(config, selector=SelectOnly()).run()
        greedy = SimulationEngine(config, selector=GreedySelector()).run()
        assert [r.user_records for r in duck.rounds] == [
            r.user_records for r in greedy.rounds
        ]
