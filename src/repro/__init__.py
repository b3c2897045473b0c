"""repro — Pay On-demand: dynamic incentives for mobile crowdsensing.

A from-scratch reproduction of Wang et al., *Pay On-demand: Dynamic
Incentive and Task Selection for Location-dependent Mobile Crowdsensing
Systems* (ICDCS 2018): the demand-based dynamic incentive mechanism
(AHP-weighted demand indicator, Eq. 2–9), the NP-hard distributed task
selection problem with an exact bitmask DP and the O(m²) greedy
(Section V), the fixed and steered baselines, the full round-based
simulation with declarative scenarios (up to a 1M-user city),
and an experiment harness regenerating every table and figure of the
paper's evaluation.

Quickstart::

    from repro import api

    result = api.simulate(scenario="paper-2018", seed=42)
    print(api.summarize(result).as_dict())

The supported import surface is :mod:`repro.api` (everything in it is
also re-exported here); any module not reachable from the facade is
internal.  See README.md for the architecture tour, DESIGN.md for the
system inventory, and EXPERIMENTS.md for the paper-vs-measured record.
"""

from repro import api
from repro.api import (
    MECHANISM_NAMES,
    PRESETS,
    SELECTOR_NAMES,
    CandidateTask,
    DemandCalculator,
    DemandLevels,
    DemandWeights,
    IncentiveEnv,
    IncentiveMechanism,
    MetricsSummary,
    MobileUser,
    PairwiseComparisonMatrix,
    Point,
    RectRegion,
    RewardSchedule,
    PolicyMechanism,
    ScenarioSpec,
    Selection,
    Selector,
    SensingTask,
    SessionObservation,
    SimulationConfig,
    SimulationResult,
    SimulationSession,
    TaskSelectionProblem,
    World,
    WorldGenerator,
    build_config,
    connect,
    create_mechanism,
    create_selector,
    experiment_ids,
    load_scenario,
    make_engine,
    make_env,
    open_session,
    preset_names,
    result_fingerprint,
    round_fingerprint,
    run_experiment,
    save_spec,
    simulate,
    summarize,
)
from repro.core import (
    OnDemandMechanism,
    FixedMechanism,
    SteeredMechanism,
    ProportionalDemandMechanism,
)
from repro.selection import (
    DynamicProgrammingSelector,
    GreedySelector,
    GreedyTwoOptSelector,
    BruteForceSelector,
    TimeBoundedSelector,
)
from repro.simulation import SimulationEngine
from repro.resilience import (
    ReproError,
    ConfigError,
    SelectorTimeout,
    MechanismPriceError,
    ResultCorruption,
    TransientIOError,
    RunJournal,
)

__version__ = "1.1.0"


def __getattr__(name: str):
    # ``ServerClient`` resolves through :mod:`repro.api`, which imports
    # the job-service package on first access only.
    if name == "ServerClient":
        return api.ServerClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "api",
    # facade (repro.api re-exports)
    "MECHANISM_NAMES",
    "PRESETS",
    "SELECTOR_NAMES",
    "CandidateTask",
    "DemandCalculator",
    "DemandLevels",
    "DemandWeights",
    "IncentiveMechanism",
    "MetricsSummary",
    "MobileUser",
    "PairwiseComparisonMatrix",
    "Point",
    "RectRegion",
    "RewardSchedule",
    "ScenarioSpec",
    "Selection",
    "Selector",
    "SensingTask",
    "SimulationConfig",
    "SimulationResult",
    "TaskSelectionProblem",
    "World",
    "WorldGenerator",
    "build_config",
    "create_mechanism",
    "create_selector",
    "experiment_ids",
    "load_scenario",
    "make_engine",
    "preset_names",
    "run_experiment",
    "save_spec",
    "simulate",
    "summarize",
    # sessions, envs, server (repro.api re-exports)
    "open_session",
    "SimulationSession",
    "SessionObservation",
    "round_fingerprint",
    "result_fingerprint",
    "make_env",
    "IncentiveEnv",
    "PolicyMechanism",
    "connect",
    "ServerClient",
    # concrete classes kept at top level for compatibility
    "SimulationEngine",
    "OnDemandMechanism",
    "FixedMechanism",
    "SteeredMechanism",
    "ProportionalDemandMechanism",
    "DynamicProgrammingSelector",
    "GreedySelector",
    "GreedyTwoOptSelector",
    "BruteForceSelector",
    "TimeBoundedSelector",
    # errors
    "ReproError",
    "ConfigError",
    "SelectorTimeout",
    "MechanismPriceError",
    "ResultCorruption",
    "TransientIOError",
    "RunJournal",
    "__version__",
]
