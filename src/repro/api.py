"""The stable facade: everything downstream code should import.

``repro.api`` (re-exported by the top-level ``repro`` package) is the
supported surface of the library.  Anything not importable from here —
engine internals, cache layers, the obs plumbing — is internal and may
change between releases without notice (see README "Public API").

Typical use::

    from repro import api

    # a named scenario, overriding one knob
    result = api.simulate(scenario="paper-2018", seed=7)

    # or explicit configuration
    result = api.simulate(api.SimulationConfig(n_users=500, selector="greedy"))

    print(api.summarize(result).as_dict())

    # a paper panel
    panel = api.run_experiment("fig6a", repetitions=5)
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.core.ahp import PairwiseComparisonMatrix, example_comparison_matrix
from repro.core.demand import DemandCalculator, DemandWeights, TaskDemandInputs
from repro.core.levels import DemandLevels
from repro.core.mechanisms import (
    MECHANISMS,
    POLICIES,
    IncentiveMechanism,
    PolicyContext,
    PolicyMechanism,
    apply_incentive_action,
)
from repro.core.rewards import RewardSchedule
from repro.envs import (
    ACTION_ADAPTERS,
    OBS_BUILDERS,
    REWARD_FUNCTIONS,
    IncentiveEnv,
)
from repro.dynamics import DynamicsSpec, WorldEvent
from repro.experiments.registry import experiment_ids, run_experiment
from repro.geometry import Point, RectRegion
from repro.io.ascii_chart import render_chart
from repro.io.events import RoundStreamWriter, read_events_jsonl, write_events_jsonl
from repro.io.tables import render_experiment, render_table
from repro.io.worldmap import render_world
from repro.metrics import (
    MetricsSummary,
    average_profit_per_user,
    coverage,
    coverage_by_round,
    measurements_per_round,
    measurements_per_task,
    overall_completeness,
    total_paid,
    user_profits,
)
from repro.scenarios import (
    PRESETS,
    ScenarioSpec,
    get_preset,
    load_scenario,
    load_spec,
    preset_names,
    save_spec,
)
from repro.selection import (
    SELECTORS,
    CandidateTask,
    Selection,
    Selector,
    TaskSelectionProblem,
)
from repro.simulation import (
    SessionObservation,
    SimulationConfig,
    SimulationResult,
    SimulationSession,
    TaskSnapshot,
    make_engine,
    result_fingerprint,
    round_fingerprint,
)
from repro.simulation import simulate as _simulate
from repro.world import MobileUser, SensingTask, World, WorldGenerator

if TYPE_CHECKING:  # pragma: no cover - the client is imported on first use
    from repro.server.client import ServerClient

#: The registered mechanism / selector names, in registration order —
#: valid values for ``SimulationConfig.mechanism`` / ``.selector``.
MECHANISM_NAMES = MECHANISMS.available()
SELECTOR_NAMES = SELECTORS.available()

ScenarioLike = Union[str, Path, ScenarioSpec]


def _resolve_scenario(scenario: ScenarioLike) -> ScenarioSpec:
    if isinstance(scenario, ScenarioSpec):
        return scenario
    return load_scenario(scenario)


def build_config(
    scenario: Optional[ScenarioLike] = None, **overrides: Any
) -> SimulationConfig:
    """A :class:`SimulationConfig` from a scenario and/or field overrides.

    Args:
        scenario: a preset name (``"city-50k"``), a ``.toml``/``.json``
            spec path, or a :class:`ScenarioSpec`; None starts from the
            config defaults.
        **overrides: :class:`SimulationConfig` fields applied on top
            (unknown names raise ``ValueError`` listing the valid ones).
    """
    if scenario is not None:
        return _resolve_scenario(scenario).to_config(**overrides)
    return SimulationConfig().with_overrides(**overrides)


def simulate(
    config: Optional[SimulationConfig] = None,
    *,
    scenario: Optional[ScenarioLike] = None,
    **overrides: Any,
) -> SimulationResult:
    """Run one seeded simulation (the facade's one-call entry point).

    Exactly one of ``config`` / ``scenario`` may be given (neither means
    the defaults); ``overrides`` are config fields applied on top either
    way.

    >>> simulate(scenario="paper-2018", n_users=30, rounds=3).rounds_played
    3
    """
    if config is not None and scenario is not None:
        raise ValueError("pass either config or scenario, not both")
    if config is None:
        config = build_config(scenario, **overrides)
    elif overrides:
        config = config.with_overrides(**overrides)
    return _simulate(config)


def open_session(
    config: Optional[SimulationConfig] = None,
    *,
    scenario: Optional[ScenarioLike] = None,
    observers=(),
    **overrides: Any,
) -> SimulationSession:
    """Open a stepwise simulation session (the interactive ``simulate``).

    Same configuration surface as :func:`simulate` — one of ``config`` /
    ``scenario`` plus field overrides — but instead of running to
    completion it returns a :class:`SimulationSession` whose round loop
    the caller drives: ``observe()`` for a read-only snapshot,
    ``step(action=None)`` to play one round (optionally retuning the
    mechanism first), ``result()`` for the history so far, ``close()``
    (or a ``with`` block) to end it.

    Stepped with no actions, a session replays ``simulate()``
    bit-identically.

    >>> with open_session(scenario="paper-2018", rounds=3) as session:
    ...     records = [session.step() for _ in range(3)]
    >>> [r.round_no for r in records]
    [1, 2, 3]
    """
    if config is not None and scenario is not None:
        raise ValueError("pass either config or scenario, not both")
    if config is None:
        config = build_config(scenario, **overrides)
    elif overrides:
        config = config.with_overrides(**overrides)
    return SimulationSession(config, observers=observers)


def make_env(
    config: Optional[SimulationConfig] = None,
    *,
    scenario: Optional[ScenarioLike] = None,
    obs: Any = "demand-levels",
    actions: Any = "incentive",
    reward: Any = "completeness-delta",
    **overrides: Any,
) -> IncentiveEnv:
    """Build an :class:`IncentiveEnv` with the facade's scenario surface.

    One of ``config`` / ``scenario`` plus overrides, exactly like
    :func:`simulate`; ``obs`` / ``actions`` / ``reward`` select the
    pluggable pieces by registry name (see :mod:`repro.envs`).
    """
    if config is not None and scenario is not None:
        raise ValueError("pass either config or scenario, not both")
    if config is None:
        config = build_config(scenario, **overrides)
    elif overrides:
        config = config.with_overrides(**overrides)
    return IncentiveEnv(config, obs=obs, actions=actions, reward=reward)


def connect(target: Union[str, Path], timeout: float = 10.0) -> ServerClient:
    """A :class:`ServerClient` for a running job service.

    Args:
        target: ``"host:port"``, an ``http://host:port`` URL, or a
            server state directory (the client then reads the
            ``server.json`` the service wrote at startup).
        timeout: per-request socket timeout in seconds.

    Raises:
        ServerUnavailable: for a directory target with no readable
            ``server.json``.
    """
    from repro.server.client import ServerClient

    text = str(target)
    address = text[7:] if text.startswith("http://") else text
    host, sep, port = address.rpartition(":")
    if sep and "/" not in port and port.isdigit():
        return ServerClient(host or "127.0.0.1", int(port), timeout=timeout)
    return ServerClient.from_root(target, timeout=timeout)


def __getattr__(name: str) -> Any:
    # The job-service client pulls in the whole ``repro.server`` package
    # (asyncio, the app, queue and supervisor), which simulating never
    # needs, so ``ServerClient`` is imported on first access.
    if name == "ServerClient":
        from repro.server.client import ServerClient

        return ServerClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def summarize(result: SimulationResult) -> MetricsSummary:
    """The standard metrics digest for a finished run."""
    return MetricsSummary.from_result(result)


def create_mechanism(name: str, **kwargs: Any) -> IncentiveMechanism:
    """Instantiate an incentive mechanism from :data:`MECHANISM_NAMES`."""
    return MECHANISMS.create(name, **kwargs)


def create_selector(name: str, **kwargs: Any) -> Selector:
    """Instantiate a task selector from :data:`SELECTOR_NAMES`."""
    return SELECTORS.create(name, **kwargs)


__all__ = [
    # run things
    "SimulationConfig",
    "SimulationResult",
    "build_config",
    "simulate",
    "make_engine",
    "summarize",
    "run_experiment",
    "experiment_ids",
    # stepwise sessions
    "open_session",
    "SimulationSession",
    "SessionObservation",
    "TaskSnapshot",
    "round_fingerprint",
    "result_fingerprint",
    # policy environment
    "make_env",
    "IncentiveEnv",
    "OBS_BUILDERS",
    "ACTION_ADAPTERS",
    "REWARD_FUNCTIONS",
    "POLICIES",
    "PolicyMechanism",
    "PolicyContext",
    "apply_incentive_action",
    # server client
    "connect",
    "ServerClient",
    # scenarios
    "PRESETS",
    "get_preset",
    "load_spec",
    "ScenarioSpec",
    "load_scenario",
    "preset_names",
    "save_spec",
    # registries
    "MECHANISM_NAMES",
    "SELECTOR_NAMES",
    "create_mechanism",
    "create_selector",
    # building blocks
    "DemandCalculator",
    "DemandLevels",
    "DemandWeights",
    "IncentiveMechanism",
    "PairwiseComparisonMatrix",
    "RewardSchedule",
    "TaskDemandInputs",
    "example_comparison_matrix",
    "CandidateTask",
    "Selection",
    "Selector",
    "TaskSelectionProblem",
    # open-world dynamics
    "DynamicsSpec",
    "WorldEvent",
    # world
    "MobileUser",
    "Point",
    "RectRegion",
    "SensingTask",
    "World",
    "WorldGenerator",
    # metrics
    "MetricsSummary",
    "average_profit_per_user",
    "coverage",
    "coverage_by_round",
    "measurements_per_round",
    "measurements_per_task",
    "overall_completeness",
    "total_paid",
    "user_profits",
    # io
    "RoundStreamWriter",
    "read_events_jsonl",
    "render_chart",
    "render_experiment",
    "render_table",
    "render_world",
    "write_events_jsonl",
]
