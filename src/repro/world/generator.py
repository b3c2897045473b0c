"""Seeded world generation: the initial placement of tasks and users.

The paper's experiments (Section VI) draw task and user locations
uniformly at random in a 3000 m square, deadlines uniformly in [5, 15]
rounds, with 20 tasks each requiring 20 measurements.
:meth:`WorldGenerator.uniform` reproduces that; :meth:`WorldGenerator.clustered`
adds a stylised city — dense user clusters plus deliberately remote tasks —
to stress the popularity-inequality problem the paper motivates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.geometry.region import RectRegion
from repro.world.arrivals import ARRIVALS
from repro.world.population import apply_population, parse_population
from repro.world.task import TaskTable
from repro.world.user import UserTable


@dataclass
class World:
    """A region, its tasks, its users, and where those users stand.

    ``tasks`` and ``users`` are column tables (:class:`TaskTable`,
    :class:`UserTable`; a list of :class:`SensingTask` or
    :class:`MobileUser` is turned into one on construction).  The task
    table carries the run's sensing state.  ``positions`` is the one
    mutable record of where users are: a float64 ``(n, 2)`` array
    aligned with ``users``' rows, built from their homes.  The engine's
    mobility pass moves it in place and its open-world dynamics filter
    and extend it together with ``users``, under one mask.
    """

    region: RectRegion
    tasks: TaskTable
    users: UserTable
    positions: np.ndarray = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.tasks, TaskTable):
            self.tasks = TaskTable.from_tasks(self.tasks)
        if not isinstance(self.users, UserTable):
            self.users = UserTable.from_users(self.users)
        for kind, ids, points in (
            ("task", self.tasks.ids, self.tasks.locations),
            ("user", self.users.ids, self.users.homes),
        ):
            outside = (self.region.clamp_points(points) != points).any(axis=1)
            if outside.any():
                row = int(np.argmax(outside))
                raise ValueError(
                    f"{kind} {ids[row]} at {Point(*points[row].tolist())} "
                    f"lies outside {self.region}"
                )
        self.positions = self.users.homes.copy()

    @property
    def total_required_measurements(self) -> int:
        """:math:`\\sum_i \\varphi_i` — the denominator of Eq. 9."""
        return int(self.tasks.required.sum())


@dataclass(frozen=True)
class WorldGenerator:
    """Generates :class:`World` instances from explicit parameters.

    All randomness flows through the generator passed to each method, so
    the same seed always produces the same world (repetition i of an
    experiment uses a spawned child seed; see ``repro.simulation.rng``).

    Args:
        region: the deployment area.
        n_tasks: number of sensing tasks m.
        n_users: number of mobile users n.
        required_measurements: :math:`\\varphi` for every task.
        deadline_range: inclusive integer range for deadlines (in rounds).
        user_speed: walking speed in m/s.
        user_cost_per_meter: movement cost in $/m.
        user_time_budget: per-round time budget in seconds.
        heterogeneity: relative spread h of the user population.  The
            paper assumes identical users; with h > 0 each user's speed,
            movement cost, and time budget are drawn uniformly from
            ``[x (1 - h), x (1 + h)]`` around the configured value —
            modelling the real mix of cyclists, walkers, and busy people
            a deployment sees.  Must lie in [0, 1).
        release_range: inclusive integer range of task *release* rounds.
            The paper publishes everything at round 1 (the default
            ``(1, 1)``, which draws no extra randomness, so legacy seeds
            reproduce bit-exactly); a wider range staggers arrivals and
            each task's deadline becomes ``release - 1 + duration`` with
            the duration drawn from ``deadline_range``.
        arrival: arrival-stream registry name ("static", "poisson",
            "burst"; see :mod:`repro.world.arrivals`).  "static" with
            the default ``release_range`` is the paper's setup and draws
            nothing extra, so legacy seeds reproduce bit-exactly.
        arrival_kwargs: constructor knobs for the arrival stream.
        horizon: the simulated horizon in rounds — non-static streams
            clamp releases to it so every task is publishable in-run.
        population: group specs for a heterogeneous crowd (see
            :mod:`repro.world.population`); empty keeps the paper's
            homogeneous population and draws nothing extra.
    """

    region: RectRegion
    n_tasks: int
    n_users: int
    required_measurements: int
    deadline_range: Tuple[int, int]
    user_speed: float
    user_cost_per_meter: float
    user_time_budget: float
    heterogeneity: float = 0.0
    release_range: Tuple[int, int] = (1, 1)
    arrival: str = "static"
    arrival_kwargs: Dict[str, Any] = field(default_factory=dict)
    horizon: int = 15
    population: Tuple[Dict[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.n_tasks < 1:
            raise ValueError(f"n_tasks must be >= 1, got {self.n_tasks}")
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {self.n_users}")
        low, high = self.deadline_range
        if low < 1 or high < low:
            raise ValueError(f"bad deadline_range {self.deadline_range}")
        if not 0.0 <= self.heterogeneity < 1.0:
            raise ValueError(
                f"heterogeneity must be in [0, 1), got {self.heterogeneity}"
            )
        release_low, release_high = self.release_range
        if release_low < 1 or release_high < release_low:
            raise ValueError(f"bad release_range {self.release_range}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        # Fail at construction, not mid-generation: resolve the arrival
        # name and parse the population spec eagerly.
        ARRIVALS.get(self.arrival)
        parse_population(self.population)

    # -- internals -------------------------------------------------------

    def _draw_deadlines(self, rng: np.random.Generator) -> np.ndarray:
        low, high = self.deadline_range
        return rng.integers(low, high + 1, size=self.n_tasks)

    def _draw_releases(self, rng: np.random.Generator) -> np.ndarray:
        stream = ARRIVALS.create(self.arrival, **self.arrival_kwargs)
        return stream.releases(self.n_tasks, self.horizon, self.release_range, rng)

    def _make_tasks(
        self, locations: np.ndarray, durations: np.ndarray, releases: np.ndarray
    ) -> TaskTable:
        return TaskTable(
            np.arange(self.n_tasks), locations, releases - 1 + durations,
            np.full(self.n_tasks, self.required_measurements), releases,
        )

    def _make_users(self, homes: np.ndarray, rng: np.random.Generator) -> UserTable:
        count = len(homes)
        params = {
            "speed": np.full(count, self.user_speed, dtype=float),
            "cost_per_meter": np.full(count, self.user_cost_per_meter, dtype=float),
            "time_budget": np.full(count, self.user_time_budget, dtype=float),
        }
        if self.heterogeneity > 0.0:
            # No draws at h == 0 so existing seeds reproduce bit-exactly.
            spread = (1.0 - self.heterogeneity, 1.0 + self.heterogeneity)
            for column in params.values():
                column *= rng.uniform(*spread, size=count)
        group = apply_population(params, parse_population(self.population), rng)
        return UserTable(np.arange(count), homes, group=group, **params)

    # -- public generators -------------------------------------------------

    def uniform(self, rng: np.random.Generator) -> World:
        """The paper's layout: tasks and users uniform over the region."""
        task_locations = self.region.sample_array(rng, self.n_tasks)
        homes = self.region.sample_array(rng, self.n_users)
        tasks = self._make_tasks(
            task_locations, self._draw_deadlines(rng), self._draw_releases(rng)
        )
        return World(self.region, tasks, self._make_users(homes, rng))

    def clustered(
        self,
        rng: np.random.Generator,
        n_clusters: int = 3,
        cluster_spread: float = 300.0,
        remote_task_fraction: float = 0.3,
    ) -> World:
        """A stylised city: clustered users, some deliberately remote tasks.

        Users live in ``n_clusters`` Gaussian clusters.  A
        ``remote_task_fraction`` of tasks is placed at the region location
        *farthest* from every cluster center (on a coarse grid), the rest
        near clusters — the sharpest version of the paper's popular/
        unpopular task inequality.

        Raises:
            ValueError: for non-positive ``n_clusters`` or a fraction
                outside [0, 1].
        """
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        if not 0.0 <= remote_task_fraction <= 1.0:
            raise ValueError(
                f"remote_task_fraction must be in [0, 1], got {remote_task_fraction}"
            )
        centers = self.region.sample(rng, n_clusters)

        # Users: round-robin over clusters.
        homes = self.region.sample_clusters(
            rng, centers, cluster_spread, self.n_users
        )

        # Tasks: remote ones go to grid points far from all clusters.
        n_remote = int(round(self.n_tasks * remote_task_fraction))
        near = self.region.sample_clusters(
            rng, centers, cluster_spread * 1.5, self.n_tasks - n_remote
        )
        task_locations = np.concatenate(
            [self._far_grid_points(centers, n_remote), near]
        )
        tasks = self._make_tasks(
            task_locations, self._draw_deadlines(rng), self._draw_releases(rng)
        )
        return World(self.region, tasks, self._make_users(homes, rng))

    def _far_grid_points(
        self, centers: Sequence[Point], count: int, grid_side: int = 12
    ) -> np.ndarray:
        """The ``count`` grid points with maximal distance to any center,
        as a ``(count, 2)`` array."""
        xs = np.linspace(self.region.x_min, self.region.x_max, grid_side)
        ys = np.linspace(self.region.y_min, self.region.y_max, grid_side)
        candidates = [Point(float(x), float(y)) for x in xs for y in ys]
        scored = sorted(
            candidates,
            key=lambda p: min(p.distance_to(c) for c in centers),
            reverse=True,
        )
        return np.array([(p.x, p.y) for p in scored[:count]]).reshape(count, 2)


def default_generator(
    n_users: int,
    n_tasks: int = 20,
    side: float = 3000.0,
    required_measurements: int = 20,
    deadline_range: Tuple[int, int] = (5, 15),
    user_speed: float = 2.0,
    user_cost_per_meter: float = 0.002,
    user_time_budget: float = 900.0,
    region: Optional[RectRegion] = None,
) -> WorldGenerator:
    """A :class:`WorldGenerator` preloaded with the paper's Section VI constants."""
    return WorldGenerator(
        region=region if region is not None else RectRegion.square(side),
        n_tasks=n_tasks,
        n_users=n_users,
        required_measurements=required_measurements,
        deadline_range=deadline_range,
        user_speed=user_speed,
        user_cost_per_meter=user_cost_per_meter,
        user_time_budget=user_time_budget,
    )
