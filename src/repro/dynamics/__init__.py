"""Open-world dynamics: churn, streaming tasks, deadline renewal.

The closed-world engine simulates a fixed crowd and a task set drawn up
front.  This package opens the world:

- :mod:`repro.dynamics.processes` — seeded Poisson arrival/departure
  processes, pre-generated into an immutable event stream so dynamic
  runs stay exactly as reproducible (and resumable) as closed ones,
- :mod:`repro.dynamics.stream` — the :class:`WorldTimeline` that applies
  those events between rounds, including the engine's array and
  neighbour-counter upkeep,
- :mod:`repro.dynamics.online` — online incentive baselines for the open
  world: OMG-style multi-stage budget-feasible threshold pricing and
  IncentMe-style mobility-uncertainty-weighted rewards.

A :class:`~repro.simulation.config.SimulationConfig` with an empty
``dynamics`` mapping never touches this package and is bit-identical to
the closed-world engine (pinned by tests/dynamics/test_identity.py).
"""

from repro.dynamics.processes import DynamicsSpec, EventStream, WorldEvent
from repro.dynamics.stream import RoundChanges, WorldTimeline

__all__ = [
    "DynamicsSpec",
    "EventStream",
    "WorldEvent",
    "RoundChanges",
    "WorldTimeline",
]
