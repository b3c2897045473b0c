"""Engine edge cases: RNG accounting, rejection reasons, early stop.

Complements test_engine.py with the boundary behaviours the resilience
work leans on: exact participation-stream consumption (so legacy seeds
replay bit-identically), both contribution-rejection reasons, and the
finished-engine guard after an early stop.
"""

import pytest

from repro.resilience.errors import ConfigError, MechanismPriceError
from repro.selection import Selection
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import spawn_streams


class ScriptedCoordinator:
    """Assigns exactly the scripted selections: {round: {user_id: task_ids}}."""

    def __init__(self, script):
        self.script = script

    def assign(self, round_no, active_tasks, users, positions, prices):
        plan = self.script.get(round_no, {})
        return {
            user_id: Selection(
                task_ids=tuple(task_ids), distance=0.0, reward=0.0, cost=0.0
            )
            for user_id, task_ids in plan.items()
        }


@pytest.fixture
def tiny_config():
    return SimulationConfig(n_users=3, n_tasks=4, rounds=5, mechanism="fixed")


class TestParticipationStream:
    def test_full_rate_consumes_no_randomness(self, fast_config):
        engine = SimulationEngine(fast_config)
        before = engine._streams["participation"].bit_generator.state
        engine.step()
        assert engine._streams["participation"].bit_generator.state == before

    def test_partial_rate_consumes_one_draw_per_user_per_round(self):
        config = SimulationConfig(
            n_users=10, n_tasks=4, rounds=3, participation_rate=0.6, seed=11
        )
        engine = SimulationEngine(config)
        engine.step()
        engine.step()
        # Exactly n_users draws per round, from the dedicated stream.
        reference = spawn_streams(config.seed)["participation"]
        reference.random(2 * config.n_users)
        assert (
            engine._streams["participation"].bit_generator.state
            == reference.bit_generator.state
        )

    def test_zero_rate_is_a_config_error(self):
        with pytest.raises(ConfigError, match="participation_rate"):
            SimulationConfig(participation_rate=0.0)


class TestRejectionReasons:
    def test_full_task_rejects_the_late_arrival(self, tiny_world, tiny_config):
        # All three users walk to task 0 (capacity 2): whoever the random
        # arrival order puts last is rejected because the task is full.
        engine = SimulationEngine(
            tiny_config,
            world=tiny_world,
            coordinator=ScriptedCoordinator({1: {0: (0,), 1: (0,), 2: (0,)}}),
        )
        record = engine.step()
        assert len(record.measurements) == 2
        assert [r.reason for r in record.rejections] == ["full"]
        assert record.completed_task_ids == (0,)

    def test_repeat_contribution_is_rejected_as_duplicate(
        self, tiny_world, tiny_config
    ):
        # Round 1: user 0 contributes to task 0 (1 of 2 slots used).
        # Round 2: user 0 is sent back to the *still-open* task 0.
        engine = SimulationEngine(
            tiny_config,
            world=tiny_world,
            coordinator=ScriptedCoordinator({1: {0: (0,)}, 2: {0: (0,)}}),
        )
        engine.step()
        record = engine.step()
        assert [r.reason for r in record.rejections] == ["duplicate"]
        assert record.measurements == ()


class TestPriceBoundary:
    class _NegativeMechanism:
        name = "negative"

        def initialize(self, world, rng):
            pass

        def rewards(self, view):
            return {t.task_id: -1.0 for t in view.active_tasks}

    def test_negative_prices_rejected_at_the_boundary(self, fast_config):
        engine = SimulationEngine(fast_config, mechanism=self._NegativeMechanism())
        with pytest.raises(MechanismPriceError, match="negative"):
            engine.step()


class TestBuildProblemsPrices:
    """A caller price map is checked before any problem is built."""

    def test_missing_task_ids_are_named(self, fast_config):
        engine = SimulationEngine(fast_config)
        tasks = engine.published_tasks()
        prices = {t.task_id: 1.0 for t in tasks[1:]}
        missing = rf"missing task ids \[{tasks[0].task_id}\]"
        with pytest.raises(ValueError, match=missing):
            engine.build_problems(prices=prices)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_non_finite_or_negative_prices_are_named(self, fast_config, bad):
        engine = SimulationEngine(fast_config)
        prices = {t.task_id: 1.0 for t in engine.published_tasks()}
        first = next(iter(prices))
        prices[first] = bad
        with pytest.raises(ValueError, match="bad prices") as excinfo:
            engine.build_problems(prices=prices)
        assert f"{first}: {bad}" in str(excinfo.value)

    def test_valid_map_leaves_the_round_cache_alone(self, fast_config):
        engine = SimulationEngine(fast_config)
        published = engine.build_problems()
        doubled = {
            task_id: 2.0 * price
            for task_id, price in engine.published_rewards().items()
        }
        probed = engine.build_problems(prices=doubled)
        assert [p.candidates for _, p in engine.build_problems()] == [
            p.candidates for _, p in published
        ]
        assert any(
            c.reward == 2.0 * want.reward
            for (_, p), (_, q) in zip(probed, published)
            for c, want in zip(p.candidates, q.candidates)
        )


class TestEarlyStop:
    def test_step_after_early_completion_raises(self, tiny_world, tiny_config):
        # Users 0 and 1 each sweep all four tasks in round 1; every task
        # reaches its 2 required measurements, so the run ends 4 rounds
        # before the horizon.
        engine = SimulationEngine(
            tiny_config,
            world=tiny_world,
            coordinator=ScriptedCoordinator(
                {1: {0: (0, 1, 2, 3), 1: (0, 1, 2, 3)}}
            ),
        )
        record = engine.step()
        assert sorted(record.completed_task_ids) == [0, 1, 2, 3]
        assert engine.finished
        with pytest.raises(RuntimeError, match="finished"):
            engine.step()
