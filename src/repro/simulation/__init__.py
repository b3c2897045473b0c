"""The round-based crowdsensing simulation engine (Fig. 1 of the paper).

A simulation wires together one world, one incentive mechanism, and one
task-selection algorithm, then plays the paper's loop for a fixed round
horizon: *reward update → task publish → per-user task selection →
travel & data upload → demand recalculation*.

- :class:`~repro.simulation.config.SimulationConfig` — every knob of the
  Section VI setup, preloaded with the paper's constants.
- :class:`~repro.simulation.engine.SimulationEngine` — the loop itself,
  one array-backed engine from the paper's 100 users to a 1M-user city.
- :class:`~repro.simulation.round_cache.RoundProblems` — the round's
  Eq. 1 instances, assembled per user chunk as CSR candidate pairs.
- :mod:`~repro.simulation.events` — the structured per-round history the
  metrics suite consumes.
- :mod:`~repro.simulation.rng` — named, independently seeded random
  streams so repetitions are reproducible and mechanisms/selection/
  mobility noise never alias.
"""

from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine, make_engine, simulate
from repro.simulation.events import (
    MeasurementEvent,
    RejectedContribution,
    UserRoundRecord,
    RoundRecord,
    SimulationResult,
    round_fingerprint,
    result_fingerprint,
)
from repro.simulation.session import (
    SessionObservation,
    SimulationSession,
    TaskSnapshot,
    open_session,
)
from repro.simulation.perf import PerfStats
from repro.simulation.rng import spawn_streams, child_seed
from repro.simulation.round_cache import RoundProblems

__all__ = [
    "PerfStats",
    "RoundProblems",
    "SimulationConfig",
    "SimulationEngine",
    "make_engine",
    "simulate",
    "MeasurementEvent",
    "RejectedContribution",
    "UserRoundRecord",
    "RoundRecord",
    "SimulationResult",
    "round_fingerprint",
    "result_fingerprint",
    "SimulationSession",
    "SessionObservation",
    "TaskSnapshot",
    "open_session",
    "spawn_streams",
    "child_seed",
]
