"""The sharded select phase: bit-identical at every worker count.

The contract under test is the one docs/architecture.md pins: sharding
is an *execution* knob.  For any preset and any worker count the engine
must produce exactly the RoundRecord sequence the in-process batched
path produces — same prices, same selections, same measurements, same
rejections, same completions — and the perf accounting must not vary
with the worker count either.
"""

import pytest

from repro.resilience.errors import ConfigError
from repro.scenarios import PRESETS
from repro.simulation import make_engine
from repro.simulation.batch import BatchedSimulationEngine


def round_histories(result):
    """Every behavioural field of every round, comparison-ready."""
    return [
        (
            record.round_no,
            tuple(sorted(record.published_rewards.items())),
            tuple(
                (u.user_id, u.selected_task_ids, u.distance, u.reward, u.cost)
                for u in record.user_records
            ),
            tuple(
                (m.task_id, m.user_id, m.reward) for m in record.measurements
            ),
            tuple(
                (r.task_id, r.user_id, r.reason) for r in record.rejections
            ),
            record.completed_task_ids,
            record.expired_task_ids,
        )
        for record in result.rounds
    ]


def final_positions(engine):
    return [(u.user_id, u.location.x, u.location.y) for u in engine.world.users]


#: Downsized preset overrides: every preset through city-2k, shrunk so a
#: full worker sweep stays unit-test fast.  ``stream_rounds=False`` so
#: the result retains the rounds we compare.
PRESET_OVERRIDES = {
    "paper-2018": dict(rounds=2),
    "poisson-stream": dict(rounds=2),
    "rush-hour": dict(rounds=3, n_users=120),
    "city-2k": dict(rounds=3, n_users=400, n_tasks=60, area_side=6000.0),
}


def preset_config(name):
    overrides = dict(PRESET_OVERRIDES[name])
    overrides.update(engine="batched", stream_rounds=False, seed=11)
    return PRESETS[name].to_config(**overrides)


class TestWorkerCountDeterminism:
    @pytest.mark.parametrize("name", sorted(PRESET_OVERRIDES))
    @pytest.mark.parametrize("workers", [2, 4, 8])
    def test_history_identical_at_every_worker_count(self, name, workers):
        config = preset_config(name)
        baseline_engine = BatchedSimulationEngine(config)
        baseline = round_histories(baseline_engine.run())
        assert baseline, "preset must play at least one round"

        sharded_engine = BatchedSimulationEngine(config, workers=workers)
        try:
            sharded = round_histories(sharded_engine.run())
        finally:
            sharded_engine.close()
        assert sharded == baseline
        assert final_positions(sharded_engine) == final_positions(
            baseline_engine
        )

    def test_perf_accounting_is_worker_count_independent(self):
        config = preset_config("city-2k")
        baseline = BatchedSimulationEngine(config).run().perf_totals()
        engine = BatchedSimulationEngine(config, workers=2)
        try:
            sharded = engine.run().perf_totals()
        finally:
            engine.close()
        # One shared construction per round, one assembled problem per
        # participant, one selector call per user with candidates —
        # regardless of how many processes did the work.
        assert sharded.problem_cache_misses == baseline.problem_cache_misses
        assert sharded.problem_cache_hits == baseline.problem_cache_hits
        assert sharded.selector_calls == baseline.selector_calls


class TestWorkerKnobValidation:
    def test_scalar_engine_rejects_workers(self):
        config = PRESETS["paper-2018"].to_config(rounds=2)
        assert config.engine == "scalar"
        with pytest.raises(ConfigError, match="batched"):
            make_engine(config, workers=2)

    def test_scalar_engine_accepts_workers_one(self):
        config = PRESETS["paper-2018"].to_config(rounds=2)
        engine = make_engine(config, workers=1)
        assert type(engine).__name__ == "SimulationEngine"

    def test_pool_rejects_single_worker(self):
        from repro.simulation.shard import ShardedSelectionPool

        config = preset_config("city-2k")
        engine = BatchedSimulationEngine(config)
        with pytest.raises(ConfigError, match="workers >= 2"):
            ShardedSelectionPool(engine, 1)

    def test_unpicklable_selector_is_a_config_error(self):
        config = preset_config("city-2k")

        class LocalSelector:  # not importable from a worker process
            def select(self, problem):  # pragma: no cover - never called
                raise AssertionError

        with pytest.raises(ConfigError, match="picklable"):
            BatchedSimulationEngine(
                config, selector=LocalSelector(), workers=2
            )

    def test_close_leaves_engine_usable_in_process(self):
        config = preset_config("city-2k")
        engine = BatchedSimulationEngine(config, workers=2)
        engine.step()
        engine.close()
        # After the pool is gone, the same engine finishes on the
        # in-process path (shared arrays were copied back private).
        record = engine.step()
        assert record.round_no == 2


class TestShardTracePropagation:
    def test_pool_workers_write_trace_shards(self, tmp_path, monkeypatch):
        from repro.obs.trace import (
            TRACE_DIR_ENV,
            TRACE_ID_ENV,
            merge_traces,
            read_trace_shard,
        )

        monkeypatch.setenv(TRACE_ID_ENV, "feedcafe00000001")
        monkeypatch.setenv(TRACE_DIR_ENV, str(tmp_path))
        config = preset_config("city-2k")
        engine = BatchedSimulationEngine(config, workers=2)
        try:
            engine.run()
        finally:
            engine.close()
        shards = sorted(tmp_path.glob("shard-*.trace.jsonl"))
        assert shards, "pool workers wrote no trace shards"
        for shard in shards:
            loaded = read_trace_shard(shard)
            assert loaded["meta"]["trace_id"] == "feedcafe00000001"
            assert loaded["meta"]["parent_span_id"] == "select"
            # One shard-select span per shard solve, with one
            # select-block span per solved block nested inside it.
            names = {
                (span["name"], span["depth"]) for span in loaded["spans"]
            }
            assert names == {("shard-select", 0), ("select-block", 1)}
        payload = merge_traces(shards)
        assert payload["otherData"]["trace_id"] == "feedcafe00000001"

    def test_pool_is_silent_without_a_trace_context(self, tmp_path,
                                                    monkeypatch):
        from repro.obs.trace import TRACE_DIR_ENV, TRACE_ID_ENV

        monkeypatch.delenv(TRACE_ID_ENV, raising=False)
        monkeypatch.delenv(TRACE_DIR_ENV, raising=False)
        config = preset_config("city-2k")
        engine = BatchedSimulationEngine(config, workers=2)
        try:
            engine.run()
        finally:
            engine.close()
        assert not list(tmp_path.glob("*.trace.jsonl"))
