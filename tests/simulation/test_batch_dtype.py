"""The float32 distance pipeline and the dtype-aware chunk budget.

float32 halves the distance-matrix memory traffic; the contract is that
it may only perturb low-order bits of *distances*, never decisions:
every reachability comparison within the float32 error band of a user's
budget is re-decided in float64, so candidate sets — and with a
deterministic selector, selections — match the float64 pipeline exactly.
"""

import numpy as np
import pytest

from repro.api import build_config, make_engine
from repro.resilience.errors import ConfigError
from repro.simulation import SimulationConfig, SimulationEngine
from repro.simulation.round_cache import (
    DEFAULT_CHUNK_BYTES,
    RoundProblems,
    float32_boundary_tol,
)
from repro.world.task import TaskTable
from tests.simulation.test_batch import user_columns


def selections_by_round(result):
    return [
        [(u.user_id, u.selected_task_ids) for u in record.user_records]
        for record in result.rounds
    ]


BASE = dict(
    n_users=400,
    n_tasks=60,
    rounds=4,
    area_side=8000.0,
    budget=9000.0,
    deadline_range=(2, 4),
    participation_rate=0.8,
    arrival="poisson",
    selector="greedy",
    seed=5,
)


class TestFloat32SelectionParity:
    def test_selections_match_float64_pipeline(self):
        r64 = SimulationEngine(SimulationConfig(**BASE)).run()
        r32 = SimulationEngine(
            SimulationConfig(distance_dtype="float32", **BASE)
        ).run()
        assert selections_by_round(r32) == selections_by_round(r64)
        assert r32.total_measurements == r64.total_measurements

    def test_float32_matrices_reach_the_selector(self):
        config = SimulationConfig(distance_dtype="float32", **BASE)
        engine = SimulationEngine(config)
        problems = engine._round_problems(
            engine.published_tasks(), engine.published_rewards()
        )
        assert problems.dtype == np.float32
        users = engine.world.users[:20]
        columns = user_columns(users, engine.world.positions[:20])
        for _index, problem in problems.iter_problems(**columns):
            assert problem.distance_matrix.dtype == np.float32

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_build_problems_are_the_played_instances(self, seed):
        """The paired-experiment hook hands out the float32 instances the
        round solves, so their selections match the played ones bit for
        bit (a float64 rebuild differs in distance/cost bits)."""
        engine = make_engine(build_config("city-2k", seed=seed))
        for _ in range(2):
            engine.step()
        problems = engine.build_problems()
        assert len(problems) == len(engine.world.users)
        assert all(p.distance_matrix.dtype == np.float32 for _, p in problems)
        built = {
            user.user_id: engine.selector.select(problem)
            for user, problem in problems
        }
        played = [r for r in engine.step().user_records if r.selected_task_ids]
        assert len(played) > 100
        for record in played:
            selection = built[record.user_id]
            assert selection.task_ids == record.selected_task_ids
            assert selection.distance.hex() == record.distance.hex()
            assert selection.cost.hex() == record.cost.hex()

    def test_boundary_tol_scales_with_magnitude(self):
        small = float32_boundary_tol(1000.0, 1000.0)
        large = float32_boundary_tol(100_000.0, 1000.0)
        assert large > small > 0.0
        # At city-1m magnitudes the band stays sub-meter: wide enough
        # to cover float32 rounding, far too narrow to change geometry.
        assert large < 1.0


class TestDtypeKnob:
    def test_config_rejects_unknown_dtype(self):
        with pytest.raises(ConfigError, match="distance_dtype"):
            SimulationConfig(distance_dtype="float16")

    def test_problems_reject_unknown_dtype(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            RoundProblems(TaskTable.empty(), {}, dtype=np.int32)


class TestChunkByteBudget:
    def test_chunk_elements_derived_from_byte_budget(self):
        p64 = RoundProblems(TaskTable.empty(), {}, dtype=np.float64)
        p32 = RoundProblems(TaskTable.empty(), {}, dtype=np.float32)
        assert p64.chunk_elements == DEFAULT_CHUNK_BYTES // 8
        # Same byte footprint, twice the elements in float32.
        assert p32.chunk_elements == 2 * p64.chunk_elements

    def test_chunk_bytes_must_hold_an_element(self):
        with pytest.raises(ValueError, match="chunk_bytes"):
            RoundProblems(TaskTable.empty(), {}, chunk_bytes=4, dtype=np.float64)
