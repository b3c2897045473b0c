"""World model: sensing tasks, mobile users, and world generation.

This package models the physical side of the crowdsensing system from
Section III of the paper:

- :class:`~repro.world.task.TaskTable` — the tasks as columns: each
  location-dependent task :math:`t_i`'s location :math:`L_{t_i}`,
  deadline :math:`\\tau_i` (in rounds), required number of
  measurements :math:`\\varphi_i` and release round, one row per task,
  plus the run's sensing state as one contribution log;
  :class:`~repro.world.task.SensingTask` is one row as a value.
- :class:`~repro.world.user.UserTable` — the users as columns: each
  user :math:`u_i`'s home, walking speed, movement cost, per-round
  time budget :math:`B^k_{u_i}` and group, one row per user;
  :class:`~repro.world.user.MobileUser` is one row as a value.
- :class:`~repro.world.generator.World` — the region, task and user
  tables, plus ``World.positions``, the one record of where users stand.
- :class:`~repro.world.generator.WorldGenerator` — seeded generators for
  the uniform layout the paper evaluates and a clustered layout that
  exaggerates the "remote task" inequality the paper motivates.
- :mod:`~repro.world.mobility` — policies moving users' positions to
  where they start the next round (the paper leaves this unspecified;
  see DESIGN.md §3).
"""

from repro.world.task import SensingTask, TaskStatus, TaskTable
from repro.world.user import MobileUser, UserTable
from repro.world.generator import WorldGenerator, World
from repro.world.arrivals import (
    ARRIVALS,
    ArrivalStream,
    StaticArrival,
    PoissonArrival,
    BurstArrival,
)
from repro.world.population import PopulationGroup, parse_population
from repro.world.mobility import (
    MOBILITY,
    MobilityPolicy,
    StationaryMobility,
    FollowPathMobility,
    RandomWaypointMobility,
    MixedMobility,
    make_mobility,
)

__all__ = [
    "SensingTask",
    "TaskStatus",
    "TaskTable",
    "MobileUser",
    "UserTable",
    "WorldGenerator",
    "World",
    "ARRIVALS",
    "ArrivalStream",
    "StaticArrival",
    "PoissonArrival",
    "BurstArrival",
    "PopulationGroup",
    "parse_population",
    "MOBILITY",
    "MobilityPolicy",
    "StationaryMobility",
    "FollowPathMobility",
    "RandomWaypointMobility",
    "MixedMobility",
    "make_mobility",
]
