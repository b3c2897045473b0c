"""The sensing-round loop: Fig. 1 of the paper, executable.

Per round k:

1. **Reward update / task publish** — the incentive mechanism prices
   every active task from the platform's view of the round (task
   progress + current user positions).
2. **Task select** — each user independently solves its Eq. 1 instance
   over the tasks it has not yet contributed to, using the configured
   selector (exact DP or greedy).  Users decide simultaneously against
   the same published prices.
3. **Data upload** — users travel their chosen paths.  A task accepts at
   most :math:`\\varphi_i` measurements and at most one per user; users
   arriving after a task fills are rejected unpaid (the WST redundancy
   drawback — their travel cost is sunk).  Arrival order within a round
   is a uniformly random permutation per round.  Users with an empty
   selection upload nothing and are skipped.
4. **Demand calculate** — implicit: the next round's step 1 reads the
   updated task state.

Between rounds the mobility policy moves every user in one array call,
tasks past their deadline expire, and the loop ends at the configured
horizon or as soon as no task is active.

The engine is steppable: :meth:`SimulationEngine.step` plays exactly one
round, which lets experiments freeze the world mid-run and hand the *same*
selection problems to several solvers (the Fig. 5 paired comparison).

**The sparse, array-backed round.**  At city scale most users do nothing
in a given round, so per-user Python work is spent only on the users who
act:

- *problem* — :class:`~repro.simulation.round_cache.RoundProblems`
  assembles, chunk by chunk, one
  :class:`~repro.selection.problem.ProblemChunk` of candidate (user,
  task) pairs, covering only the participants with at least one
  eligible, reachable task.  The greedy and the exact DP take a whole
  chunk in one ``select_chunk`` call — the greedy as one ragged array
  pass over the pairs, the DP padding the chunk's equal-size blocks
  into as few shared layer-by-layer passes as its pass bound allows;
  every other selector gets one ``select_block`` call per equal-size
  block, answered row by row.  Each call answers as one
  :class:`~repro.selection.base.SelectionColumns` table (CSR task ids
  plus distance/reward/cost columns), scattered by row into the round's
  table; everyone else has an empty row there, without a selector call.
  No per-user ``Selection`` object is built on the round path.
- *pricing* — the mechanism reads the platform's ledger off the
  :class:`~repro.core.mechanisms.base.RoundView`: ``total_paid`` is the
  run ledger's spend before the round, and the Eq. 5 neighbour counts
  are one exact recount per round of the users around the published
  tasks only (:func:`~repro.geometry.grid_index.bulk_counts`); the
  round's published set is one mask over the task table, and its
  slice is shared by pricing and assembly.
- *upload* — one array pass over the walkers' (walker, task) pairs in
  arrival order, read from the round table's columns: a pair is
  accepted iff its user had not contributed to the task before and
  fewer than ``remaining`` earlier first contributions reached the task
  this round (a grouped prefix count, the same answer as walking the
  uploads one by one; see
  :meth:`SimulationEngine._upload`).  The accepted pairs are appended
  to the task table's contribution log in one write.
- *mobility* — one :meth:`~repro.world.mobility.MobilityPolicy.move`
  call over every row in arrival order: walkers are first placed at
  their last task, everyone else starts where they stand, and the
  policy writes the rows it moves in place (follow-path rows are not
  touched).
- *state* — the engine reads the users and tasks straight from the
  world's column tables (:class:`~repro.world.user.UserTable`,
  :class:`~repro.world.task.TaskTable`).  The open world filters and
  extends the users together with :attr:`World.positions
  <repro.world.generator.World.positions>`, the one record of where
  users stand, moved in place, and appends published tasks to the task
  table.  A task's sensing state is the table's contribution log and
  expired flag; a round's published tasks are the mask of active,
  released rows, and its expiry is one mask of the overdue ones.
- *records* — the round's user records (the round table permuted into
  ``user_id`` order), measurements and rejections are columnar
  (:class:`~repro.simulation.events.UserRoundRecords`,
  :class:`~repro.simulation.events.MeasurementRecords`,
  :class:`~repro.simulation.events.RejectionRecords`), materialised per
  record only on access.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.allocation.base import Coordinator

import math
from functools import partial
from time import perf_counter

import numpy as np

from repro.core.mechanisms import MECHANISMS, IncentiveMechanism, RoundView
from repro.dynamics.processes import WorldEvent
from repro.geometry.point import Point
from repro.obs.log import bind
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.resilience.cancel import NEVER_CANCELLED, CancellationToken
from repro.resilience.errors import MechanismPriceError
from repro.selection import (
    SELECTORS,
    Selection,
    SelectionColumns,
    Selector,
    TaskSelectionProblem,
    TimeBoundedSelector,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.perf import PerfStats
from repro.simulation.round_cache import DEFAULT_CHUNK_BYTES, RoundProblems
from repro.simulation.events import (
    REJECTION_REASONS,
    MeasurementRecords,
    RejectionRecords,
    RoundRecord,
    SimulationResult,
    UserRoundRecords,
)
from repro.simulation.rng import spawn_streams
from repro.world.generator import World
from repro.world.mobility import MixedMobility, MobilityPolicy, make_mobility
from repro.world.task import TaskTable, running_counts
from repro.world.user import MobileUser, UserTable

#: Observer callback invoked with each finished RoundRecord.
RoundObserver = Callable[[RoundRecord], None]


class SimulationEngine:
    """Runs one seeded simulation, either whole (:meth:`run`) or round by
    round (:meth:`step`).

    Args:
        config: the full parameterisation.
        mechanism: optional pre-built mechanism (overrides the config's
            registry name — used by ablations injecting custom pricing).
        selector: optional pre-built selector, same idea.
        world: optional pre-built world (overrides generation — used by
            tests pinning exact geometry).
        observers: callables invoked with every finished round record.
        coordinator: optional server-side task allocator.  When given,
            the engine runs in the Server-Assigned-Tasks (SAT) mode: the
            coordinator decides every user's selection for the round
            instead of the users solving Eq. 1 themselves (see
            :mod:`repro.allocation`).
        tracer: optional span tracer (default: the zero-cost
            :data:`~repro.obs.trace.NULL_TRACER`).  When a real
            :class:`~repro.obs.trace.SpanTracer` is passed, the engine
            emits run → round → phase spans (price-publish / select /
            upload, plus one ``select-block`` span per selector call).
            Tracing reads clocks only — never the random streams — so
            traced runs are bit-identical to untraced ones.
        cancel: optional :class:`~repro.resilience.cancel.
            CancellationToken`.  The engine polls it at safe boundaries
            — before every round, and inside a round before every
            selector call (a chunk or a block) — and raises
            :class:`~repro.resilience.errors.OperationCancelled` when it
            trips.  Rounds already recorded stay valid (observers saw
            them, streamed events are on disk), which is what makes a
            cancelled run resumable: re-running the same config replays
            the completed rounds bit-identically.  The default token
            never cancels and costs one attribute read per check.
    """

    #: Per-chunk byte budget for the distance pipeline (the element
    #: count adapts to the configured dtype).
    chunk_bytes = DEFAULT_CHUNK_BYTES

    def __init__(
        self,
        config: SimulationConfig,
        mechanism: Optional[IncentiveMechanism] = None,
        selector: Optional[Selector] = None,
        world: Optional[World] = None,
        observers: Sequence[RoundObserver] = (),
        coordinator: Optional["Coordinator"] = None,
        tracer=None,
        cancel: Optional[CancellationToken] = None,
    ):
        self.config = config
        self._streams = spawn_streams(config.seed)
        self.mechanism = mechanism if mechanism is not None else MECHANISMS.create(
            config.mechanism, **config.mechanism_arguments()
        )
        self.selector = selector if selector is not None else self._build_selector()
        self.mobility: MobilityPolicy = self._build_mobility()
        self.world = world if world is not None else self._generate_world()
        # Open-world timeline: pre-generates every churn/publication draw
        # from the dedicated "dynamics" stream at construction.  An empty
        # dynamics block builds no timeline and consumes no randomness,
        # so closed-world histories stay bit-identical.
        self.timeline = None
        self._pending_dynamics: List[WorldEvent] = []
        if config.dynamics:
            from repro.dynamics.stream import WorldTimeline

            self.timeline = WorldTimeline.from_config(
                config, self.world, self._streams["dynamics"]
            )
        if self.timeline is not None and hasattr(self.mechanism, "timeline"):
            self.mechanism.timeline = self.timeline
        self.observers = list(observers)
        self.coordinator = coordinator
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.cancel = cancel if cancel is not None else NEVER_CANCELLED
        self.result = SimulationResult(config=self.config, world=self.world)
        self._next_round = 1
        self._mechanism_ready = False
        # Per-round caches (invalidated by the round number they carry)
        # and the perf/metric accumulators drained into each RoundRecord.
        self._price_cache: Optional[Tuple[int, Dict[int, float]]] = None
        self._problems_cache: Optional[Tuple[int, RoundProblems]] = None
        self._perf = PerfStats()
        self._metrics = MetricsRegistry()
        #: The user table the mobility policy was last bound to.
        self._bound_users: Optional[UserTable] = None
        self._dtype = np.dtype(self.config.distance_dtype)

    # -- setup -----------------------------------------------------------

    def _build_selector(self) -> Selector:
        selector = SELECTORS.create(self.config.selector, **self.config.selector_kwargs)
        if self.config.selector_timeout is not None and not isinstance(
            selector, TimeBoundedSelector
        ):
            selector = TimeBoundedSelector(
                selector, timeout=self.config.selector_timeout
            )
        return selector

    def _build_mobility(self) -> MobilityPolicy:
        """The config's policy, routed per group for mixed populations.

        One instance per mobility name: every group of a policy that
        draws shares it, so the waypoint draws stay in global arrival
        order (see :class:`MixedMobility`).
        """
        built: Dict[str, MobilityPolicy] = {}

        def policy(name: str) -> MobilityPolicy:
            if name not in built:
                built[name] = make_mobility(name)
            return built[name]

        default = policy(self.config.mobility)
        per_group = {
            str(group["name"]): policy(group["mobility"])
            for group in self.config.population
            if group.get("mobility")
        }
        if per_group:
            return MixedMobility(per_group, default)
        return default

    def _generate_world(self) -> World:
        generator = self.config.world_generator()
        rng = self._streams["world"]
        if self.config.layout == "clustered":
            return generator.clustered(rng)
        return generator.uniform(rng)

    def _ensure_mechanism(self) -> None:
        if not self._mechanism_ready:
            self.mechanism.initialize(self.world, self._streams["mechanism"])
            self._mechanism_ready = True

    # -- round state -----------------------------------------------------------

    @property
    def current_round(self) -> int:
        """The 1-based round :meth:`step` would play next."""
        return self._next_round

    @property
    def finished(self) -> bool:
        """Whether the horizon is exhausted or no task remains active.

        An open world also keeps going while the timeline still has
        tasks left to publish, even if every published task is done.
        """
        if self._next_round > self.config.rounds:
            return True
        if self.world.tasks.active.any():
            return False
        return not (
            self.timeline is not None
            and self.timeline.has_pending_tasks(self._next_round)
        )

    def published_tasks(self) -> TaskTable:
        """The tasks the platform offers in the upcoming round, as a
        slice of the task table.

        A task is published once its release round arrives (the paper
        releases everything at round 1) and until it completes/expires.
        """
        tasks = self.world.tasks
        return tasks.take(tasks.published(self._next_round))

    def published_rewards(self) -> Dict[int, float]:
        """The prices the mechanism would publish for the upcoming round.

        Safe to call repeatedly: mechanisms are pure functions of the
        round view, so the engine computes each round's price map (and
        the neighbour recount behind it) once and answers repeated calls
        from a per-round cache.  Callers get a copy.
        """
        return self._rewards_for(None)

    def _rewards_for(self, published: Optional[TaskTable]) -> Dict[int, float]:
        """:meth:`published_rewards`, pricing ``published`` (the round's
        :meth:`published_tasks`, already scanned by the caller) on a
        cache miss; ``None`` scans for it."""
        cached = self._price_cache
        if cached is not None and cached[0] == self._next_round:
            self._perf.price_cache_hits += 1
            return dict(cached[1])
        self._ensure_mechanism()
        view = RoundView(
            round_no=self._next_round,
            active_tasks=(
                self.published_tasks() if published is None else published
            ),
            user_locations=self.world.positions,
            total_paid=self.result.total_paid,
        )
        prices = self.mechanism.rewards(view)
        self._price_cache = (self._next_round, dict(prices))
        return prices

    def build_problems(
        self, prices: Optional[Dict[int, float]] = None
    ) -> List[Tuple[MobileUser, TaskSelectionProblem]]:
        """The Eq. 1 instance every user faces in the upcoming round.

        Used by the paired Fig. 5 experiment: freeze the round, hand the
        identical problems to both solvers, compare profits.  The
        instances are the ones the round solves, in the engine's
        distance dtype bit for bit; users with no candidate get a
        size-0 problem (the round skips them).

        Args:
            prices: published rewards to use; defaults to
                :meth:`published_rewards`.  A caller map must price
                every published task with a finite, non-negative reward.

        Raises:
            ValueError: for a caller map that omits published task ids
                or holds non-finite or negative prices.
        """
        tasks = self.published_tasks()
        if prices is None:
            problems = self._round_problems(tasks, self._rewards_for(tasks))
        else:
            missing, bad = _price_faults(prices, tasks)
            if missing or bad:
                raise ValueError(
                    f"prices must give every published task a finite, "
                    f"non-negative reward: missing task ids {missing}, "
                    f"bad prices {bad}"
                )
            # Caller-supplied prices (e.g. an ablation probing a what-if
            # price map) must not poison the per-round cache.
            problems = self._round_problems(tasks, prices, cached=False)
        users, positions = self.world.users, self.world.positions
        built = dict(problems.iter_problems(
            users.ids, origins=positions, budgets=users.budgets,
            costs=users.cost_per_meter,
        ))
        return [
            (user, built.get(row) or TaskSelectionProblem(
                origin=Point(*positions[row].tolist()),
                candidates=(),
                max_distance=float(user.max_travel_distance),
                cost_per_meter=float(user.cost_per_meter),
                distance_matrix=np.zeros((1, 1), dtype=self._dtype),
            ))
            for row, user in enumerate(users)
        ]

    def _round_problems(
        self,
        active: TaskTable,
        prices: Dict[int, float],
        cached: bool = True,
    ) -> RoundProblems:
        """The shared per-round problem state, built once per round.

        The cache key is the upcoming round number: task state and user
        positions only change when :meth:`step` completes (which also
        advances the round number), so within a round every caller —
        :meth:`build_problems` and the round loop itself — reads the
        same reward vector and task-to-task distances.
        """
        hit = self._problems_cache
        if cached and hit is not None and hit[0] == self._next_round:
            return hit[1]
        problems = RoundProblems(
            active,
            prices,
            stats=self._perf,
            dtype=self._dtype,
            chunk_bytes=self.chunk_bytes,
        )
        if cached:
            self._problems_cache = (self._next_round, problems)
        return problems

    # -- main loop -------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Play every remaining round and return the accumulated result.

        The run-to-completion entry point is a thin orchestration shell:
        one "run" tracer span around :meth:`run_rounds`.  Callers that
        need finer control — pausing between rounds, injecting incentive
        actions, observing mid-run state — should drive the round kernel
        through a :class:`~repro.simulation.session.SimulationSession`
        instead, which steps the *same* kernel and therefore produces
        bit-identical histories.

        Raises:
            OperationCancelled: when the engine's cancellation token
                trips; the result retains every round completed before
                the check (`self.result` on the engine).
        """
        with self.tracer.span(
            "run",
            cat="run",
            seed=self.config.seed,
            mechanism=self.config.mechanism,
            selector=self.config.selector,
        ):
            return self.run_rounds()

    def run_rounds(self) -> SimulationResult:
        """The orchestration loop over the round kernel (:meth:`step`).

        Pure sequencing — poll cancellation, play one round, repeat
        until :attr:`finished` — with no tracing or IO of its own, so
        stepping the kernel externally (a session, a debugger, a test)
        replays exactly this loop.
        """
        while not self.finished:
            self.cancel.raise_if_cancelled()
            self.step()
        return self.result

    def step(self) -> RoundRecord:
        """Play exactly one round and return its record.

        Raises:
            RuntimeError: if the simulation is already finished.
        """
        if self.finished:
            raise RuntimeError(
                f"simulation finished after round {self._next_round - 1}"
            )
        self._ensure_mechanism()
        # Open world: fold this round's arrivals/departures/publications
        # in before the round plays (they invalidate the price cache, so
        # the published prices see the post-churn world).
        if self.timeline is not None:
            self._pending_dynamics = self.timeline.advance(
                self._next_round, self
            )
        # Bind log provenance for the round: any warning raised below
        # (watchdog fallback, price-map violation, retried IO) carries
        # which run and round it happened in.
        with bind(
            seed=self.config.seed,
            mechanism=self.config.mechanism,
            round=self._next_round,
        ), self.tracer.span("round", cat="round", round=self._next_round):
            record = self._play_round(self._next_round, self.published_tasks())
        self.result.absorb(record)
        self._next_round += 1
        for observer in self.observers:
            observer(record)
        return record

    # -- one round ----------------------------------------------------------------

    def _play_round(self, round_no: int, active: TaskTable) -> RoundRecord:
        tracer = self.tracer
        with tracer.span("price-publish", cat="phase", round=round_no):
            prices = self._rewards_for(active)
            self._validate_prices(prices, active, round_no)
        participating = self._participation_mask()

        # Step 2: either WST (each user solves Eq. 1 independently) or
        # SAT (the coordinator assigns selections centrally).  Users who
        # sit this round out (participation_rate < 1) select nothing.
        with tracer.span("select", cat="phase", round=round_no):
            if self.coordinator is not None:
                rows = np.flatnonzero(participating)
                assigned = self.coordinator.assign(
                    round_no, active, self.world.users.take(rows),
                    self.world.positions[rows], prices,
                )
                empty = Selection.empty()
                selections = SelectionColumns.from_selections(
                    assigned.get(user_id, empty)
                    for user_id in self.world.users.ids.tolist()
                )
            else:
                selections = self._collect_selections(
                    active, prices, participating
                )

        # Step 3: uploads processed in a random arrival order.  Only the
        # users who walk a path upload anything; everyone else earns 0.
        with tracer.span("upload", cat="phase", round=round_no):
            arrival = self._streams["arrival"].permutation(len(selections))
            (
                measurements, rejections, completed, walkers, earned, ends,
            ) = self._upload(round_no, arrival, selections, prices)
            rewards = np.zeros(len(selections))
            rewards[walkers] = earned
            costs = np.zeros(len(selections))
            costs[walkers] = selections.cost[walkers]
            # Mobility is a single post-upload pass in the same arrival
            # order: nothing in the upload reads another user's
            # position, and the mobility stream is consumed in the same
            # sequence, so this is bit-identical to interleaved moves.
            self._apply_moves(arrival, walkers, self.world.tasks.locations[ends])
            # The records are in user_id order.
            ids, order = self.world.users.ids, self.world.users.id_order
            if order is not None:
                ids, selections = ids[order], selections.take(order)
                rewards, costs = rewards[order], costs[order]
            user_records = UserRoundRecords(round_no, ids, selections, rewards, costs)

        # Step 4 prep: expire tasks whose deadline has passed.  The open
        # world first offers each overdue task its pre-drawn renewal
        # lottery (deadline extension) before letting it expire.
        dynamics = tuple(self._pending_dynamics)
        self._pending_dynamics = []
        expired, lifecycle = self._expire_overdue(round_no)
        dynamics += tuple(lifecycle)
        metrics, self._metrics = self._metrics, MetricsRegistry()
        record = RoundRecord(
            round_no=round_no,
            published_rewards=dict(prices),
            user_records=user_records,
            measurements=measurements,
            rejections=rejections,
            completed_task_ids=completed,
            expired_task_ids=tuple(expired),
            dynamics=dynamics,
            selector_fallbacks=self._drain_selector_fallbacks(),
            perf=self._drain_perf(),
            metrics=metrics,
        )
        self._record_round_metrics(record)
        return record

    def _expire_overdue(self, round_no: int) -> Tuple[List[int], List[WorldEvent]]:
        """Step 4 prep: expire the active tasks whose deadline has passed
        (one mask, world order); return their ids and the open world's
        lifecycle events.  With a timeline, each overdue task first
        draws its pre-drawn renewal lottery; a winner gets a later
        deadline instead of expiring.
        """
        tasks = self.world.tasks
        overdue = np.flatnonzero(tasks.active & (tasks.deadline <= round_no))
        lifecycle: List[WorldEvent] = []
        for row in overdue.tolist() if self.timeline is not None else ():
            task_id = int(tasks.ids[row])
            renewed = self.timeline.try_renew(task_id, int(tasks.deadline[row]))
            if renewed is None:
                lifecycle.append(WorldEvent("task_expired", round_no, task_id))
            else:
                tasks.deadline[row] = renewed
                lifecycle.append(WorldEvent(
                    "deadline_renewed", round_no, task_id, (("deadline", renewed),)
                ))
        # A renewal adds at least one round, so renewed tasks are not due.
        expired = overdue[tasks.deadline[overdue] <= round_no]
        tasks.expired[expired] = True
        return tasks.ids[expired].tolist(), lifecycle

    def _apply_dynamics(self, changes) -> None:
        """Fold one round's open-world changes into the live world.

        Called by the :class:`~repro.dynamics.stream.WorldTimeline`
        before the round plays.  ``World.users`` and ``World.positions``
        are filtered with one mask and extended with the arrivals table,
        so their rows stay aligned (arrivals stand at their homes); the
        mobility policy rebinds to the new table on its next move, and
        the round's Eq. 5 recount reads the new positions.  Published
        tasks are appended to the task table after its existing rows.
        """
        world = self.world
        if changes.departures:
            stay = ~np.isin(world.users.ids, changes.departures)
            world.users = world.users.take(stay)
            world.positions = world.positions[stay]
        if changes.arrivals:
            world.users = UserTable.concatenate([world.users, changes.arrivals])
            world.positions = np.concatenate(
                [world.positions, changes.arrivals.homes]
            )
        if changes.tasks:
            world.tasks = TaskTable.concatenate([world.tasks, changes.tasks])
        self._price_cache = None
        self._problems_cache = None

    def _collect_selections(
        self,
        active: TaskTable,
        prices: Dict[int, float],
        participating: np.ndarray,
    ) -> SelectionColumns:
        """Step 2 (WST): every user's Eq. 1 answer for this round.

        One row per user in world order: the selector's answers
        scattered to their users' rows, and empty rows for users sitting
        the round out (``participating`` is the per-row participation
        mask) or with no candidate.  Assembly yields the problems chunk
        by chunk; a selector that solves a chunk together (one that
        overrides :meth:`Selector.select_chunk`, as the greedy and the
        exact DP do) gets each chunk in one ``select_chunk`` call, any
        other one ``select_block`` call per block of the chunk's
        :meth:`~repro.selection.problem.ProblemChunk.blocks`.  The
        cancellation token is polled before every call, each call adds
        its wall time to ``selector_wall_time`` and one
        ``selector_seconds`` observation, and ``selector_calls`` counts
        the call's rows, i.e. the instances solved.  With a real tracer
        each call gets one ``select-block`` span (args ``users``,
        ``blocks`` — the call's distinct candidate counts — and the
        widest row's ``tasks``).  Selectors without ``select_block``
        (duck-typed ones) answer row by row through
        :meth:`Selector.select_block`.
        """
        problems = self._round_problems(active, prices)
        users = self.world.users
        answers = []
        if participating.all():
            rows, user_ids = None, users.ids
            origins, budgets = self.world.positions, users.budgets
            costs = users.cost_per_meter
        else:
            rows = np.flatnonzero(participating)
            user_ids = users.ids[rows]
            origins = self.world.positions[rows]
            budgets, costs = users.budgets[rows], users.cost_per_meter[rows]
        # Only a selector with its own select_chunk gains from a whole
        # chunk; the rest keep one call per block, so a cancel still
        # lands between their blocks.
        chunked = getattr(type(self.selector), "select_chunk", None) not in (
            None, Selector.select_chunk,
        )
        if chunked:
            solve = self.selector.select_chunk
        else:
            solve = getattr(self.selector, "select_block", None) or partial(
                Selector.select_block, self.selector
            )
        tracer, perf = self.tracer, self._perf
        latency = self._metrics.histogram("selector_seconds")
        for chunk in problems.iter_chunks(
            user_ids, origins=origins, budgets=budgets, costs=costs
        ):
            calls = [(chunk.indices, chunk, chunk.sizes)] if chunked else [
                (chunk.indices[part], block, [block.size])
                for part, block in chunk.blocks()
            ]
            for indices, problem, sizes in calls:
                self.cancel.raise_if_cancelled()
                if tracer.enabled:
                    with tracer.span(
                        "select-block", cat="selector", users=len(indices),
                        blocks=int(np.count_nonzero(np.bincount(sizes))),
                        tasks=int(np.max(sizes)),
                    ):
                        started = perf_counter()
                        solved = solve(problem)
                        elapsed = perf_counter() - started
                else:
                    started = perf_counter()
                    solved = solve(problem)
                    elapsed = perf_counter() - started
                perf.selector_wall_time += elapsed
                perf.selector_calls += len(indices)
                latency.observe(elapsed)
                answers.append((indices if rows is None else rows[indices], solved))
        return SelectionColumns.scatter(len(self.world.users), answers)

    def _apply_moves(
        self, arrival: np.ndarray, walkers: np.ndarray, ends: np.ndarray
    ) -> None:
        """Move every user (world rows, ``arrival`` order) to its
        next-round position in one mobility call, in place.

        ``walkers`` are the rows that walked a path and ``ends`` the
        ``(len(walkers), 2)`` coordinates of each one's last task; every
        other user starts from where it stands.  The policy is bound to
        the user table first whenever the table changed.
        """
        positions, users = self.world.positions, self.world.users
        if users is not self._bound_users:
            self.mobility.bind(users)
            self._bound_users = users
        # Walkers stand at their last task when the policy moves them.
        positions[walkers] = ends
        self.mobility.move(
            positions, arrival, users.homes, users.budgets,
            self.world.region, self._streams["mobility"],
        )

    def _validate_prices(
        self,
        prices: Dict[int, float],
        active: TaskTable,
        round_no: int,
    ) -> None:
        """Boundary check on the mechanism's price map.

        A mechanism omitting a task id used to die later as a bare
        ``KeyError`` inside the selection loop; malformed prices are an
        error *in the mechanism*, so they are named as such here.

        Raises:
            MechanismPriceError: for missing task ids or non-finite /
                negative rewards.
        """
        mechanism = f"mechanism {type(self.mechanism).__name__!r}"
        missing, bad = _price_faults(prices, active)
        if missing:
            raise MechanismPriceError(
                f"{mechanism} omitted task ids {missing} from its round-"
                f"{round_no} price map (priced {sorted(prices)}); every "
                f"published task must be priced"
            )
        if bad:
            raise MechanismPriceError(
                f"{mechanism} returned non-finite or negative rewards in "
                f"round {round_no}: {bad}"
            )

    def _drain_selector_fallbacks(self) -> int:
        """Watchdog degradations this round (0 for unguarded selectors)."""
        consume = getattr(self.selector, "consume_round_fallbacks", None)
        return consume() if consume is not None else 0

    def _drain_perf(self) -> PerfStats:
        """This round's perf counters (the accumulator is reset)."""
        self._perf.dp_states_expanded += self._drain_selector_states()
        stats, self._perf = self._perf, PerfStats()
        return stats

    def _record_round_metrics(self, record: RoundRecord) -> None:
        """Complete the round's metrics snapshot, ``record.metrics``.

        Registry series per round: measurement acceptance/rejection
        counters (rejections labelled by reason — the WST redundancy
        drawback made countable), the platform payout, the remaining
        budget gauge, the demand-level distribution the mechanism
        priced at (when it exposes one), watchdog degradations, and the
        :class:`PerfStats` bridge (cache counters + selector latency,
        whose per-call distribution was observed live in the select
        loop).  Metrics are observability only — nothing reads them
        back into the simulation.
        """
        metrics = record.metrics
        metrics.counter("measurements_total", outcome="accepted").inc(
            record.measurement_count
        )
        reasons = record.rejections.reasons
        codes, first, counts = np.unique(
            reasons, return_index=True, return_counts=True
        )
        for at in np.argsort(first, kind="stable").tolist():
            metrics.counter(
                "measurements_total", outcome="rejected",
                reason=REJECTION_REASONS[int(codes[at])],
            ).inc(int(counts[at]))
        paid = record.total_paid
        metrics.counter("payout_total").inc(paid)
        # The run ledger has not absorbed this round yet.
        metrics.gauge("budget_remaining").set(
            self.config.budget - (self.result.total_paid + paid)
        )
        demands = getattr(self.mechanism, "last_demands", None)
        levels = getattr(self.mechanism, "levels", None)
        if demands and levels is not None:
            for level in levels.levels_of(list(demands.values())):
                metrics.counter("demand_level_total", level=level).inc()
        if record.selector_fallbacks:
            metrics.counter("selector_fallbacks_total").inc(record.selector_fallbacks)
        metrics.record_perf(record.perf)

    def _drain_selector_states(self) -> int:
        """DP states expanded since the last drain (0 for non-DP
        selectors), reaching through one wrapper level (the watchdog)."""
        for candidate in (self.selector, getattr(self.selector, "inner", None)):
            consume = getattr(candidate, "consume_states_expanded", None)
            if consume is not None:
                return consume()
        return 0

    def _participation_mask(self) -> np.ndarray:
        """Per-row mask of the users willing to work this round (all, at
        the paper's rate 1.0).

        Draws one Bernoulli per user from the dedicated participation
        stream; at rate 1.0 no randomness is consumed, so legacy seeds
        replay bit-exactly.
        """
        n = len(self.world.users)
        if self.config.participation_rate >= 1.0:
            return np.ones(n, dtype=bool)
        draws = self._streams["participation"].random(n)
        return draws < self.config.participation_rate

    def _upload(
        self,
        round_no: int,
        arrival: np.ndarray,
        selections: SelectionColumns,
        prices: Dict[int, float],
    ) -> Tuple[
        MeasurementRecords, RejectionRecords, Tuple[int, ...], np.ndarray,
        np.ndarray, np.ndarray,
    ]:
        """Step 3: every walker's uploads, accepted or rejected in one
        array pass over the round's (walker, task) pairs.

        The walkers are the world rows with a non-empty selection, in
        ``arrival`` order; each walks its path in visit order, so the
        pairs flattened walker by walker are in upload order.  A pair is
        a duplicate if its user already contributed to the task before
        the round (:class:`SelectionColumns` forbids repeated task ids
        within a row, so a pair cannot duplicate another of the same
        round).  With ``before`` the number of earlier non-duplicate
        pairs of the same task (:func:`~repro.world.task.running_counts`),
        a pair is accepted iff it is not a duplicate and
        ``before < remaining``, exactly as a one-by-one walk would
        decide: arrival order alone decides who comes first at a task,
        and only non-duplicates take a slot.  A rejection is ``"full"``
        iff ``before >= remaining`` (a full task reports "full" even to
        a duplicate) and ``"duplicate"`` otherwise.  The accepted pairs
        are appended to the task table's log in one
        :meth:`~repro.world.task.TaskTable.record` call.

        Returns the round's measurements and rejections, the ids of the
        tasks completed (in upload order), the walkers' rows in arrival
        order, each walker's earned reward, added left to right along
        its path, and the task-table row of each walker's last task.

        Raises:
            ValueError: naming the coordinator (or selector), round,
                user and task ids when a selection names a task the
                round did not publish.
        """
        # The world-order paths are reordered to arrival order.
        lengths = selections.lengths
        walkers = arrival[lengths[arrival] > 0]
        walked = lengths[walkers]
        owner = np.repeat(np.arange(len(walkers)), walked)
        step = np.arange(len(owner)) - np.repeat(np.cumsum(walked) - walked, walked)
        task_ids = selections.task_ids[selections.offsets[walkers][owner] + step]
        user_ids = self.world.users.ids[walkers][owner]
        tasks = self.world.tasks
        rows = tasks.rows_of(task_ids)
        unknown = ~tasks.published(round_no)[rows] | (rows < 0)
        if unknown.any():
            first = int(np.argmax(unknown))
            role, source = (
                ("coordinator", self.coordinator) if self.coordinator is not None
                else ("selector", self.selector)
            )
            raise ValueError(
                f"{role} {type(source).__name__!r} sent user "
                f"{int(user_ids[first])} to task ids "
                f"{task_ids[unknown & (owner == owner[first])].tolist()} in "
                f"round {round_no}, which the round did not publish"
            )
        touched, group = np.unique(rows, return_inverse=True)
        remaining = tasks.remaining[rows]
        price = np.array(
            [prices[task_id] for task_id in tasks.ids[touched].tolist()], dtype=float
        )[group]
        fresh = ~tasks.contributed(rows, user_ids)
        before = running_counts(rows, fresh)
        accepted = fresh & (before < remaining)
        rejected = ~accepted
        tasks.record(rows[accepted], user_ids[accepted], round_no)

        completed = task_ids[accepted & (before == remaining - 1)]
        # bincount adds each bin's weights in order, from 0.0: the same
        # left-to-right sum as walking the path (and int zeros, if
        # nothing was accepted).
        earned = np.bincount(
            owner[accepted], weights=price[accepted], minlength=len(walkers)
        ).astype(float, copy=False)
        measurements = MeasurementRecords(
            round_no, task_ids[accepted], user_ids[accepted], price[accepted]
        )
        # Reason codes index REJECTION_REASONS: 0 "full", 1 "duplicate".
        rejections = RejectionRecords(
            round_no, task_ids[rejected], user_ids[rejected],
            np.where(before[rejected] >= remaining[rejected], 0, 1),
        )
        ends = rows[np.cumsum(walked) - 1]
        return (
            measurements, rejections, tuple(completed.tolist()), walkers,
            earned, ends,
        )


def _price_faults(
    prices: Dict[int, float], tasks: TaskTable
) -> Tuple[List[int], Dict[int, float]]:
    """A price map's faults against ``tasks``: the task ids it omits,
    and its non-finite or negative prices."""
    missing = [task_id for task_id in tasks.ids.tolist() if task_id not in prices]
    bad = {
        task_id: price
        for task_id, price in prices.items()
        if not math.isfinite(price) or price < 0
    }
    return missing, bad


def make_engine(config: SimulationConfig, **engine_kwargs) -> SimulationEngine:
    """Build the :class:`SimulationEngine` for ``config``.

    ``engine_kwargs`` are the engine's keyword arguments (mechanism,
    selector, world, observers, coordinator, tracer, cancel).
    """
    return SimulationEngine(config, **engine_kwargs)


def simulate(config: SimulationConfig, **engine_kwargs) -> SimulationResult:
    """Build an engine for ``config`` and run it (the one-call entry point).

    >>> result = simulate(SimulationConfig(n_users=40, seed=7))
    >>> result.rounds_played >= 1
    True
    """
    return make_engine(config, **engine_kwargs).run()
