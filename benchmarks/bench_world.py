"""Substrate micro-benchmarks: world generation and neighbour counting.

Not paper panels — these watch the hot paths under the experiment
harness: every repetition generates a world, and every round counts each
task's neighbouring users on a uniform grid (the X3 factor).
"""

import numpy as np

from repro.geometry.grid_index import bulk_counts
from repro.simulation.config import SimulationConfig
from repro.world.generator import default_generator


def test_uniform_world_generation(benchmark):
    generator = default_generator(n_users=140)
    seeds = iter(np.random.Generator(np.random.PCG64(s)) for s in range(10_000))
    world = benchmark(lambda: generator.uniform(next(seeds)))
    assert len(world.users) == 140


def test_clustered_world_generation(benchmark):
    generator = default_generator(n_users=140)
    seeds = iter(np.random.Generator(np.random.PCG64(s)) for s in range(10_000))
    world = benchmark(lambda: generator.clustered(next(seeds)))
    assert len(world.tasks) == 20


def test_grid_counts_round(benchmark):
    """One round's X3 computation: every task's count over 140 users."""
    rng = np.random.default_rng(0)
    users = rng.uniform(0, 3000, (140, 2))
    tasks = rng.uniform(0, 3000, (20, 2))

    counts = benchmark(lambda: bulk_counts(users, tasks, 500.0))
    assert len(counts) == 20


def test_problem_building(benchmark):
    """Per-user Eq. 1 instance construction at paper scale."""
    from repro.simulation.engine import SimulationEngine

    engine = SimulationEngine(SimulationConfig(n_users=100, seed=0))
    engine.step()

    problems = benchmark(engine.build_problems)
    assert len(problems) == 100
