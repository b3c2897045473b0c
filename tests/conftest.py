"""Shared fixtures: small deterministic worlds and fast configurations.

The full paper configuration (20 tasks x 20 measurements, 100 users,
15 rounds) takes a few hundred milliseconds per run; unit and
integration tests use these scaled-down variants so the whole suite
stays fast while exercising the same code paths.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import settings

from repro.geometry.point import Point
from repro.geometry.region import RectRegion
from repro.simulation.config import SimulationConfig
from repro.world.generator import World
from repro.world.task import SensingTask
from repro.world.user import MobileUser

#: A deeper property run for CI steps that ask for it with
#: ``--hypothesis-profile=ci-deep``.  It only raises the example count of
#: tests that leave ``max_examples`` to the profile; the default profile
#: (and so the plain ``pytest`` run) is unchanged.
settings.register_profile("ci-deep", max_examples=2000, deadline=None)


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    """Undo logger reconfiguration after every test.

    ``repro.obs.log.configure_logging`` (called by the CLI's ``main``)
    installs a handler and disables propagation on the ``"repro"``
    logger tree — process-global state that would otherwise leak between
    tests and break ``caplog``-based assertions in whichever file runs
    later.
    """
    root = logging.getLogger("repro")
    saved_handlers = list(root.handlers)
    saved_level = root.level
    saved_propagate = root.propagate
    yield
    root.handlers[:] = saved_handlers
    root.setLevel(saved_level)
    root.propagate = saved_propagate


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.Generator(np.random.PCG64(12345))


@pytest.fixture
def region() -> RectRegion:
    """A 1 km square region."""
    return RectRegion.square(1000.0)


def make_task(
    task_id: int = 0,
    x: float = 0.0,
    y: float = 0.0,
    deadline: int = 10,
    required: int = 3,
) -> SensingTask:
    """A hand-built task (test helper, not a fixture, so ids can vary)."""
    return SensingTask(
        task_id=task_id,
        location=Point(x, y),
        deadline=deadline,
        required_measurements=required,
    )


def make_user(
    user_id: int = 0,
    x: float = 0.0,
    y: float = 0.0,
    speed: float = 2.0,
    cost_per_meter: float = 0.002,
    time_budget: float = 900.0,
) -> MobileUser:
    """A hand-built user with the paper's movement constants."""
    return MobileUser(
        user_id=user_id,
        home=Point(x, y),
        speed=speed,
        cost_per_meter=cost_per_meter,
        time_budget=time_budget,
    )


@pytest.fixture
def tiny_world(region: RectRegion) -> World:
    """Four tasks in the corners-ish, three users near the center.

    Geometry chosen so every task is reachable by someone and the
    south-west task (id 0) is closest to everyone.
    """
    tasks = [
        make_task(0, 300.0, 300.0, deadline=5, required=2),
        make_task(1, 700.0, 300.0, deadline=6, required=2),
        make_task(2, 300.0, 700.0, deadline=7, required=2),
        make_task(3, 700.0, 700.0, deadline=8, required=2),
    ]
    users = [
        make_user(0, 450.0, 450.0),
        make_user(1, 500.0, 500.0),
        make_user(2, 550.0, 550.0),
    ]
    return World(region=region, tasks=tasks, users=users)


@pytest.fixture
def fast_config() -> SimulationConfig:
    """A small but non-trivial configuration (runs in ~10 ms)."""
    return SimulationConfig(
        n_users=15,
        n_tasks=6,
        area_side=1500.0,
        required_measurements=4,
        deadline_range=(3, 8),
        rounds=8,
        budget=200.0,
        seed=7,
    )
