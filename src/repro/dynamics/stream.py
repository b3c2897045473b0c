"""The world timeline: applying open-world events between rounds.

:class:`WorldTimeline` owns a run's pre-generated
:class:`~repro.dynamics.processes.EventStream` and replays it against a
live engine: before round ``r`` plays, the round's departures, arrivals,
and task publications are folded into the engine's world through its
``_apply_dynamics`` hook (which filters and extends the user table and
its positions under one mask and appends to the task table; the
round's Eq. 5 recount then reads the new positions).

The timeline consumes **no randomness at runtime** — every draw already
happened in :func:`~repro.dynamics.processes.generate_stream` — so the
same config and seed replays identically, stepped or run, and across
resume boundaries.

It also keeps the per-user presence ledger the IncentMe mechanism reads
(when did each user join; who is still here), giving "historical visit
frequency" a concrete, engine-independent definition: the fraction of
elapsed rounds a user has been present for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dynamics.processes import (
    DynamicsSpec,
    EventStream,
    WorldEvent,
    generate_stream,
)
from repro.world.task import TaskTable
from repro.world.user import UserTable


@dataclass
class RoundChanges:
    """One round's world mutations, in application order."""

    round_no: int
    departures: List[int] = field(default_factory=list)
    arrivals: UserTable = field(default_factory=UserTable.empty)
    tasks: TaskTable = field(default_factory=TaskTable.empty)


class WorldTimeline:
    """Replays a pre-generated event stream against a live engine.

    Args:
        spec: the validated dynamics knobs.
        stream: the pre-generated events (see
            :func:`~repro.dynamics.processes.generate_stream`).
        rounds: the run's horizon.
        seed_user_ids: the generated world's user ids (present from
            round 1, for the presence ledger).
    """

    def __init__(
        self,
        spec: DynamicsSpec,
        stream: EventStream,
        rounds: int,
        seed_user_ids: List[int],
    ):
        self.spec = spec
        self.stream = stream
        self.rounds = rounds
        self._events_by_round: Dict[int, List[WorldEvent]] = {}
        for event in stream.events:
            self._events_by_round.setdefault(event.round_no, []).append(event)
        self._renewals: Dict[int, List[Tuple[float, int]]] = {
            tid: list(pairs) for tid, pairs in stream.renewals.items()
        }
        #: round each user joined in (seed users join at round 1).
        self.joined_round: Dict[int, int] = {uid: 1 for uid in seed_user_ids}
        self._alive: Dict[int, int] = dict(self.joined_round)

    @classmethod
    def from_config(cls, config, world, rng) -> "WorldTimeline":
        """Build the timeline a config's ``dynamics`` mapping describes.

        Consumes the engine's dedicated ``dynamics`` stream exactly once
        (at construction); an all-zero spec draws nothing.  ``world``
        None stands for the world the config generates (user and task
        ids ``0..n-1``), so the stream is drawn without building one.
        """
        spec = DynamicsSpec.from_mapping(config.dynamics)
        if world is None:
            seed_user_ids = list(range(config.n_users))
            seed_task_ids = list(range(config.n_tasks))
        else:
            seed_user_ids = world.users.ids.tolist()
            seed_task_ids = world.tasks.ids.tolist()
        stream = generate_stream(
            spec,
            region=config.region,
            rounds=config.rounds,
            seed_user_ids=seed_user_ids,
            seed_task_ids=seed_task_ids,
            required_measurements=config.required_measurements,
            deadline_range=config.deadline_range,
            user_speed=config.user_speed,
            cost_per_meter=config.cost_per_meter,
            user_time_budget=config.user_time_budget,
            heterogeneity=config.heterogeneity,
            rng=rng,
        )
        return cls(spec, stream, config.rounds, seed_user_ids)

    # -- between-round application --------------------------------------

    def changes_for(self, round_no: int) -> RoundChanges:
        """The world mutations due before ``round_no`` plays."""
        changes = RoundChanges(round_no=round_no)
        events = self._events_by_round.get(round_no, ())
        arrived = [
            (e.subject_id, (e.get("x"), e.get("y")), e.get("speed"),
             e.get("cost_per_meter"), e.get("time_budget"))
            for e in events if e.kind == "user_arrived"
        ]
        if arrived:
            changes.arrivals = UserTable(*zip(*arrived))
        published = [
            (e.subject_id, (e.get("x"), e.get("y")), e.get("deadline"),
             e.get("required"), round_no)
            for e in events if e.kind == "task_published"
        ]
        if published:
            changes.tasks = TaskTable(*zip(*published))
        changes.departures = [
            e.subject_id for e in events if e.kind == "user_departed"
        ]
        return changes

    def advance(self, round_no: int, engine) -> List[WorldEvent]:
        """Apply round ``round_no``'s events; return them for the record.

        The engine's ``_apply_dynamics`` hook does the world and array
        mutation; the timeline itself only maintains the presence
        ledger.
        """
        events = list(self._events_by_round.get(round_no, ()))
        changes = self.changes_for(round_no)
        if changes.departures or changes.arrivals or changes.tasks:
            engine._apply_dynamics(changes)
        for uid in changes.departures:
            self._alive.pop(uid, None)
        for uid in changes.arrivals.ids.tolist():
            self.joined_round[uid] = round_no
            self._alive[uid] = round_no
        return events

    # -- deadline renewal ------------------------------------------------

    def try_renew(self, task_id: int, deadline: int) -> Optional[int]:
        """Task ``task_id``'s next renewal lottery: its new deadline
        (``deadline`` plus the pre-drawn duration) if it wins.

        Consumes at most one pre-drawn (uniform, duration) pair per call
        — never the live RNG — so whether other tasks completed cannot
        shift this task's renewal outcome.
        """
        pending = self._renewals.get(task_id)
        if not pending:
            return None
        draw, duration = pending.pop(0)
        if draw < self.spec.deadline_renewal_prob:
            return deadline + duration
        return None

    # -- run-shape queries ----------------------------------------------

    def has_pending_tasks(self, round_no: int) -> bool:
        """Whether any task is still due to be published at/after
        ``round_no`` (the engine's "don't stop yet" signal)."""
        return round_no <= self.stream.last_task_round

    def streamed_required_total(self) -> int:
        """Total required measurements across every task the stream will
        publish — lets budget-derived reward schedules (Eq. 9) cover the
        open world, not just the seed tasks."""
        return sum(
            event.get("required", 0)
            for event in self.stream.events
            if event.kind == "task_published"
        )

    def mean_presence(self, round_no: int) -> float:
        """Mean presence fraction of the current crowd at ``round_no``.

        A user present since round 1 scores 1.0; one that joined this
        round scores ``1/round_no``.  The IncentMe mechanism reads this
        as its population-stability signal (1.0 = fully predictable
        crowd, lower = more mobility uncertainty).
        """
        if not self._alive or round_no <= 0:
            return 1.0
        total = sum(
            (round_no - joined + 1) / round_no
            for joined in self._alive.values()
        )
        return total / len(self._alive)
