"""The full parameterisation of one simulation run.

Defaults reproduce the paper's Section VI setup exactly where the paper
states a value, and DESIGN.md §3 documents the choices where it does not
(per-user time budget, neighbour radius, mobility, steered scaling).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.dynamics.processes import DynamicsSpec
from repro.geometry.region import RectRegion
from repro.resilience.errors import ConfigError
from repro.world.generator import WorldGenerator
from repro.world.population import parse_population

#: The values the retired ``engine`` key may still carry in saved specs
#: (see :meth:`SimulationConfig.with_overrides`).
RETIRED_ENGINE_VALUES = ("scalar", "batched")

#: The mechanisms whose ``initialize`` derives the base reward r0 from
#: the budget by Eq. 9 (:meth:`SimulationConfig.base_reward`).
EQ9_MECHANISMS = (
    "on-demand", "fixed", "proportional", "adaptive", "incentme", "policy",
)

#: The Eq. 9 mechanisms whose Σφ also counts every task an open world's
#: timeline streams in (IncentMe's known-stream budgeting).
STREAM_PRICED_MECHANISMS = ("incentme",)


@dataclass(frozen=True)
class SimulationConfig:
    """Every knob of one simulation run.

    Args:
        n_users: number of mobile users (the paper sweeps 40–140).
        n_tasks: number of sensing tasks m (paper: 20).
        area_side: side of the square deployment area in meters (paper: 3000).
        required_measurements: measurements per task :math:`\\varphi` (paper: 20).
        deadline_range: inclusive deadline range in rounds (paper: [5, 15]).
        rounds: the simulated horizon in rounds (paper plots up to 15).
        budget: platform reward budget B in $ (paper: 1000).
        reward_step: the per-level increment :math:`\\lambda` in $ (paper: 0.5).
        level_count: number of demand levels N (paper: 5).
        neighbour_radius: the R of the X3 factor in meters (DESIGN.md §3).
        user_speed: walking speed in m/s (paper: 2).
        cost_per_meter: movement cost in $/m (paper: 0.002).
        user_time_budget: per-round time budget in seconds (DESIGN.md §3).
        heterogeneity: relative spread of per-user speed/cost/time budget
            (0 = the paper's identical users; see
            :class:`~repro.world.generator.WorldGenerator`).
        release_range: inclusive range of task release rounds ((1, 1) =
            the paper's everything-at-round-1; wider ranges stagger task
            arrivals, see :class:`~repro.world.generator.WorldGenerator`).
        participation_rate: probability that a given user is available in
            a given round (1.0 = the paper's always-available crowd).
            Unavailable users neither select nor perform tasks that round
            but still count as potential neighbours for the X3 factor —
            the platform sees phones, not intentions.
        mechanism: incentive mechanism registry name.
        mechanism_kwargs: extra constructor arguments for the mechanism.
        selector: task-selection registry name ("dp" or "greedy" in the paper).
        selector_kwargs: extra constructor arguments for the selector.
        mobility: mobility policy registry name.
        layout: world layout, "uniform" (paper) or "clustered".
        distance_dtype: precision of the engine's chunked distance
            pipeline — "float64" (default, bit-identical to
            :meth:`~repro.selection.problem.TaskSelectionProblem.build`)
            or "float32" (half the memory traffic at city scale;
            reachability decisions within the float32 error band are
            re-decided in float64 so candidate sets never flip on
            precision).
        arrival: task arrival stream — "static" (all releases drawn from
            ``release_range``, the paper's setup), "poisson" (release
            rounds from a truncated Poisson process across the horizon)
            or "burst" (a background trickle plus one release spike).
        arrival_kwargs: knobs of the arrival stream (e.g. ``rate`` for
            "poisson"; ``round``/``fraction`` for "burst"); see
            :mod:`repro.world.arrivals`.
        population: optional tuple of population-group specs (mappings)
            describing a heterogeneous crowd: each group names a
            ``fraction`` of the users, a ``mobility`` policy, and
            optional ``speed`` / ``time_budget`` / ``cost_per_meter``
            values or ``[low, high]`` uniform ranges.  Empty (default)
            keeps the paper's homogeneous population; see
            :mod:`repro.world.population`.
        dynamics: open-world knobs (see :class:`~repro.dynamics.
            processes.DynamicsSpec`): ``user_arrival_rate`` /
            ``user_departure_rate`` (Poisson churn),
            ``task_arrival_rate`` / ``task_deadline_range`` (mid-run
            task publication), ``deadline_renewal_prob`` /
            ``max_deadline_renewals`` (deadline extension lotteries).
            The empty mapping (default) is the closed world and is
            bit-identical to runs predating this field — no extra
            randomness is consumed.
        completeness_basis: which tasks count in the completeness
            denominator — ``"all"`` (default: every task, the paper's
            Fig. 7 definition) or ``"exclude-expired"`` (tasks that
            expired unmet are dropped from the denominator, the
            open-world convention where renewable deadlines make
            expiry a scheduling outcome rather than a failure).
        stream_rounds: when True the engine does not retain per-round
            records in :class:`SimulationResult` (observers still see
            every record as it finishes, so a JSONL stream writer keeps
            the full history on disk); totals and summary metrics come
            from the same run ledger either way, bit for bit.  Bounds
            memory on 50k-user runs.
        seed: root seed for all random streams.
        selector_timeout: optional wall-clock deadline (seconds) on every
            ``Selector.select`` call.  When set, the engine wraps the
            configured selector in a
            :class:`~repro.selection.watchdog.TimeBoundedSelector` that
            degrades to the greedy solver on breach and records the
            degradation count in each round record.  None (the default)
            runs the selector unguarded, exactly as before.
    """

    n_users: int = 100
    n_tasks: int = 20
    area_side: float = 3000.0
    required_measurements: int = 20
    deadline_range: Tuple[int, int] = (5, 15)
    rounds: int = 15
    budget: float = 1000.0
    reward_step: float = 0.5
    level_count: int = 5
    neighbour_radius: float = 500.0
    user_speed: float = 2.0
    cost_per_meter: float = 0.002
    user_time_budget: float = 900.0
    heterogeneity: float = 0.0
    release_range: Tuple[int, int] = (1, 1)
    participation_rate: float = 1.0
    mechanism: str = "on-demand"
    mechanism_kwargs: Dict[str, Any] = field(default_factory=dict)
    selector: str = "dp"
    selector_kwargs: Dict[str, Any] = field(default_factory=dict)
    mobility: str = "follow-path"
    layout: str = "uniform"
    distance_dtype: str = "float64"
    arrival: str = "static"
    arrival_kwargs: Dict[str, Any] = field(default_factory=dict)
    population: Tuple[Dict[str, Any], ...] = ()
    dynamics: Dict[str, Any] = field(default_factory=dict)
    completeness_basis: str = "all"
    stream_rounds: bool = False
    seed: int = 0
    selector_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        """Eager validation: every nonsensical knob dies here, at
        construction, with a :class:`ConfigError` naming the field and
        the accepted range — never ten frames deep in the engine."""
        if self.n_users < 1:
            raise ConfigError(
                f"n_users must be >= 1, got {self.n_users} "
                f"(a crowdsensing system needs a crowd)"
            )
        if self.n_tasks < 1:
            raise ConfigError(
                f"n_tasks must be >= 1, got {self.n_tasks} "
                f"(nothing to sense, nothing to simulate)"
            )
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.area_side <= 0:
            raise ConfigError(f"area_side must be positive, got {self.area_side}")
        if self.required_measurements < 1:
            raise ConfigError(
                f"required_measurements must be >= 1, "
                f"got {self.required_measurements}"
            )
        if self.budget <= 0:
            raise ConfigError(
                f"budget must be positive, got {self.budget} "
                f"(the platform cannot pay rewards from an empty purse)"
            )
        if self.reward_step <= 0:
            raise ConfigError(
                f"reward_step must be positive, got {self.reward_step}"
            )
        if self.level_count < 1:
            raise ConfigError(f"level_count must be >= 1, got {self.level_count}")
        if self.neighbour_radius <= 0:
            raise ConfigError(
                f"neighbour_radius must be positive, got {self.neighbour_radius}"
            )
        if self.user_speed <= 0:
            raise ConfigError(f"user_speed must be positive, got {self.user_speed}")
        if self.cost_per_meter < 0:
            raise ConfigError(
                f"cost_per_meter must be non-negative, got {self.cost_per_meter}"
            )
        if self.user_time_budget <= 0:
            raise ConfigError(
                f"user_time_budget must be positive, got {self.user_time_budget}"
            )
        if not 0.0 <= self.heterogeneity < 1.0:
            raise ConfigError(
                f"heterogeneity must be in [0, 1), got {self.heterogeneity}"
            )
        if not 0.0 < self.participation_rate <= 1.0:
            raise ConfigError(
                f"participation_rate must be in (0, 1], got "
                f"{self.participation_rate} (0 would mean nobody ever works; "
                f"lower it only as far as your smallest viable crowd)"
            )
        if self.layout not in ("uniform", "clustered"):
            raise ConfigError(
                f"layout must be 'uniform' or 'clustered', got {self.layout!r}"
            )
        if self.distance_dtype not in ("float64", "float32"):
            raise ConfigError(
                f"distance_dtype must be 'float64' or 'float32', "
                f"got {self.distance_dtype!r}"
            )
        if self.arrival not in ("static", "poisson", "burst"):
            raise ConfigError(
                f"arrival must be 'static', 'poisson' or 'burst', "
                f"got {self.arrival!r}"
            )
        for group in self.population:
            if not isinstance(group, dict) or "name" not in group:
                raise ConfigError(
                    f"each population group must be a mapping with a 'name', "
                    f"got {group!r}"
                )
        try:
            parse_population(self.population)
        except ValueError as exc:
            raise ConfigError(f"population spec is invalid: {exc}") from exc
        low, high = self.deadline_range
        if low < 1 or high < low:
            raise ConfigError(
                f"bad deadline_range {self.deadline_range}: need "
                f"1 <= low <= high (rounds are 1-based; an inverted range "
                f"usually means the tuple is backwards)"
            )
        release_low, release_high = self.release_range
        if release_low < 1 or release_high < release_low:
            raise ConfigError(
                f"bad release_range {self.release_range}: need "
                f"1 <= low <= high"
            )
        if self.dynamics:
            # Eager, named validation of the open-world knobs (raises
            # ConfigError for unknown keys / out-of-range rates).
            dynamics = DynamicsSpec.from_mapping(self.dynamics)
            if self.mechanism == "fixed" and dynamics.task_arrival_rate > 0:
                raise ConfigError(
                    f"mechanism 'fixed' cannot run with "
                    f"dynamics.task_arrival_rate="
                    f"{dynamics.task_arrival_rate}: it draws every task's "
                    f"price once, before round 1, so tasks streamed in "
                    f"mid-run would have no price (use task_arrival_rate "
                    f"0 or another mechanism)"
                )
        if self.completeness_basis not in ("all", "exclude-expired"):
            raise ConfigError(
                f"completeness_basis must be 'all' or 'exclude-expired', "
                f"got {self.completeness_basis!r}"
            )
        if self.selector_timeout is not None and self.selector_timeout <= 0:
            raise ConfigError(
                f"selector_timeout must be positive seconds (or None to "
                f"disable the watchdog), got {self.selector_timeout}"
            )

    # -- derived helpers ---------------------------------------------------

    @property
    def region(self) -> RectRegion:
        return RectRegion.square(self.area_side)

    @property
    def total_required_measurements(self) -> int:
        """:math:`\\sum_i \\varphi_i` for the Eq. 9 base-reward derivation."""
        return self.n_tasks * self.required_measurements

    def base_reward(self) -> Optional[float]:
        """Eq. 9's base reward r0, or None when the mechanism does not
        derive one from the budget.

        Computed from the config alone, with the seed tasks' Σφ
        (:attr:`total_required_measurements`), so no world is built.
        For the mechanisms that price the stream
        (:data:`STREAM_PRICED_MECHANISMS`), Σφ also counts the tasks an
        open world streams in, drawn from the config's own ``dynamics``
        stream exactly as the engine draws it; for the others those
        tasks only add to Σφ later, so a budget this rejects fails in
        every world.

        Raises:
            ConfigError: when r0 would not be positive, naming B, Σφ,
                λ, N and the budget Eq. 9 needs.
        """
        if self.mechanism not in EQ9_MECHANISMS:
            return None
        from repro.core.rewards import RewardSchedule

        total = self.total_required_measurements
        if self.dynamics and self.mechanism in STREAM_PRICED_MECHANISMS:
            from repro.dynamics.stream import WorldTimeline
            from repro.simulation.rng import spawn_streams

            total += WorldTimeline.from_config(
                self, None, spawn_streams(self.seed)["dynamics"]
            ).streamed_required_total()
        arguments = self.mechanism_arguments()
        return RewardSchedule.from_budget(
            budget=arguments["budget"],
            total_required_measurements=total,
            step=arguments["step"],
            levels=arguments["levels"],
        ).base_reward

    def world_generator(self) -> WorldGenerator:
        """The :class:`WorldGenerator` implied by this config."""
        return WorldGenerator(
            region=self.region,
            n_tasks=self.n_tasks,
            n_users=self.n_users,
            required_measurements=self.required_measurements,
            deadline_range=self.deadline_range,
            user_speed=self.user_speed,
            user_cost_per_meter=self.cost_per_meter,
            user_time_budget=self.user_time_budget,
            heterogeneity=self.heterogeneity,
            release_range=self.release_range,
            arrival=self.arrival,
            arrival_kwargs=dict(self.arrival_kwargs),
            horizon=self.rounds,
            population=tuple(self.population),
        )

    def with_overrides(self, **changes: Any) -> "SimulationConfig":
        """A copy of this config with fields replaced (sweep helper).

        Every override path — the API, scenario files, job specs and
        the CLI — comes through here.  The retired ``engine`` key is
        accepted with its two legacy values (``"scalar"``,
        ``"batched"``) and ignored, since there is one engine now, so
        saved scenario and job specs keep loading.

        Raises:
            ConfigError: for any other value of the retired ``engine``
                key.
            ValueError: when a key does not name a config field — a typo
                in a sweep would otherwise be silently absorbed into a
                confusing ``dataclasses.replace`` traceback.
        """
        if "engine" in changes:
            engine = changes.pop("engine")
            if engine not in RETIRED_ENGINE_VALUES:
                raise ConfigError(
                    f"the 'engine' key is retired (there is one engine); "
                    f"only its legacy values 'scalar' and 'batched' are "
                    f"still accepted, and ignored: got {engine!r}"
                )
        valid = {f.name for f in fields(self)}
        unknown = sorted(set(changes) - valid)
        if unknown:
            raise ValueError(
                f"unknown SimulationConfig field(s) {', '.join(map(repr, unknown))}; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        return replace(self, **changes)

    def mechanism_arguments(self) -> Dict[str, Any]:
        """Constructor kwargs for the configured mechanism.

        Demand-driven mechanisms receive the budget/step/level/radius
        knobs from the config; the steered baseline takes none of those,
        so only explicit ``mechanism_kwargs`` reach it.
        """
        demand_driven = (
            "on-demand",
            "fixed",
            "proportional",
            "adaptive",
            "omg-online",
            "incentme",
            "policy",
        )
        if self.mechanism in demand_driven:
            from repro.core.levels import DemandLevels

            base: Dict[str, Any] = {
                "budget": self.budget,
                "step": self.reward_step,
                "levels": DemandLevels(self.level_count),
            }
            if self.mechanism in (
                "on-demand", "proportional", "adaptive", "incentme", "policy"
            ):
                base["neighbour_radius"] = self.neighbour_radius
            if self.mechanism == "omg-online":
                base["horizon"] = self.rounds
        else:
            base = {}
        base.update(self.mechanism_kwargs)
        return base
