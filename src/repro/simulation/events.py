"""Structured simulation history: what happened, round by round.

The engine emits one :class:`RoundRecord` per simulated round, whose
user records, measurements and rejections are stored as columns
(:class:`UserRoundRecords`, :class:`MeasurementRecords`,
:class:`RejectionRecords`) and built into per-event objects only on
access; a full run is a :class:`SimulationResult`.  Every round is folded once into
the run ledger, :class:`RunTotals`, which answers every whole-run
aggregate (payout, per-task measurements, per-user profit, merged perf
and metrics) whether the rounds were kept, streamed or replayed from
an events log.  The metrics suite (:mod:`repro.metrics`) is a pure
function of these records, the ledger and the final world state —
nothing in the engine computes a metric, which keeps the measurement
definitions in one reviewable place.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro.dynamics.processes import WorldEvent
from repro.obs.metrics import MetricsRegistry
from repro.selection.base import SelectionColumns
from repro.simulation.perf import PerfStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.config import SimulationConfig
    from repro.world.generator import World


@dataclass(frozen=True)
class MeasurementEvent:
    """One accepted measurement: who sensed what, when, for how much."""

    round_no: int
    task_id: int
    user_id: int
    reward: float


@dataclass(frozen=True)
class RejectedContribution:
    """A user reached a task but the measurement was not accepted.

    This is the WST redundancy drawback from Section II: the task filled
    up after the user committed to its path (reason ``"full"``), or the
    user had already contributed to it (``"duplicate"``).  The user's
    travel cost is already sunk; no reward is paid.
    """

    round_no: int
    task_id: int
    user_id: int
    reason: str


#: The rejection reasons, indexed by the code a :class:`RejectionRecords`
#: column stores.
REJECTION_REASONS: Tuple[str, ...] = ("full", "duplicate")


class _ContributionRecords(Sequence):
    """One round's contributions of one kind, stored as three columns.

    The shared base of :class:`MeasurementRecords` and
    :class:`RejectionRecords`: task ids, user ids and a value column
    (``values``), aligned and in upload order.  Events are built only
    when indexed or iterated; :meth:`rows` yields plain tuples for the
    fingerprint and events-JSONL writers.  Compares equal to any
    sequence of equal events.
    """

    #: The event class a row materialises as, and its value field.
    event: type
    value_field: str

    def __init__(self, round_no: int, task_ids, user_ids, values):
        self.round_no = round_no
        self.task_ids = np.asarray(task_ids, dtype=np.int64)
        self.user_ids = np.asarray(user_ids, dtype=np.int64)
        self.values = np.asarray(values, dtype=self._dtype)

    @classmethod
    def from_rows(cls, round_no: int, rows: Iterable) -> "_ContributionRecords":
        """Columns holding ``(round_no, task_id, user_id, value)`` rows
        (a replayed log).

        Raises:
            ValueError: naming the first row that is not four items,
                belongs to another round or holds a value the column
                cannot represent.
        """
        task_ids, user_ids, values = [], [], []
        for index, row in enumerate(rows):
            try:
                row_round, task_id, user_id, value = row
            except (TypeError, ValueError):
                raise ValueError(
                    f"entry {index} is {row!r}, not a [round_no, task_id, "
                    f"user_id, {cls.value_field}] row"
                ) from None
            if row_round != round_no:
                raise ValueError(
                    f"entry {index} belongs to round {row_round!r}, not "
                    f"{round_no}"
                )
            task_ids.append(task_id)
            user_ids.append(user_id)
            values.append(cls._code(value, index))
        return cls(round_no, task_ids, user_ids, values)

    @classmethod
    def from_events(cls, round_no: int, events: Iterable) -> "_ContributionRecords":
        """Columns holding ``events`` (a hand-built round)."""
        field = cls.value_field
        return cls.from_rows(round_no, (
            (e.round_no, e.task_id, e.user_id, getattr(e, field)) for e in events
        ))

    def __len__(self) -> int:
        return len(self.task_ids)

    def _event(self, index: int):
        return self.event(
            self.round_no,
            int(self.task_ids[index]),
            int(self.user_ids[index]),
            self._decode(self.values[index].item()),
        )

    def __getitem__(self, index: int):
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"{self.event.__name__} index out of range")
        return self._event(index)

    def __iter__(self) -> Iterator:
        return map(self._event, range(len(self)))

    def rows(self) -> Iterator[Tuple[int, int, int, object]]:
        """One ``(round_no, task_id, user_id, value)`` tuple per event,
        read from the columns without building events."""
        round_no, decode = self.round_no, self._decode
        for task_id, user_id, value in zip(
            self.task_ids.tolist(), self.user_ids.tolist(), self.values.tolist()
        ):
            yield round_no, task_id, user_id, decode(value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, list, _ContributionRecords)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)!r})"


class MeasurementRecords(_ContributionRecords):
    """A round's accepted measurements as columns: task ids, user ids
    and the rewards paid (``rewards``), in acceptance order."""

    event = MeasurementEvent
    value_field = "reward"
    _dtype = float

    @property
    def rewards(self) -> np.ndarray:
        return self.values

    @staticmethod
    def _code(reward: float, index: int) -> float:
        return reward

    @staticmethod
    def _decode(value: float) -> float:
        return value


class RejectionRecords(_ContributionRecords):
    """A round's rejected contributions as columns: task ids, user ids
    and reason codes (``reasons``, indices into
    :data:`REJECTION_REASONS`), in upload order."""

    event = RejectedContribution
    value_field = "reason"
    _dtype = np.int8

    @property
    def reasons(self) -> np.ndarray:
        return self.values

    @staticmethod
    def _code(reason: str, index: int) -> int:
        if reason not in REJECTION_REASONS:
            raise ValueError(
                f"entry {index} has unknown rejection reason {reason!r} "
                f"(expected one of {', '.join(REJECTION_REASONS)})"
            )
        return REJECTION_REASONS.index(reason)

    @staticmethod
    def _decode(code: int) -> str:
        return REJECTION_REASONS[code]


@dataclass(frozen=True)
class UserRoundRecord:
    """One user's round: the selection it made and what it got."""

    round_no: int
    user_id: int
    selected_task_ids: Tuple[int, ...]
    distance: float
    reward: float
    cost: float

    @property
    def profit(self) -> float:
        return self.reward - self.cost

    @property
    def participated(self) -> bool:
        """Whether the user left home at all this round."""
        return bool(self.selected_task_ids)


#: A user record as a plain tuple:
#: ``(round_no, user_id, task_ids, distance, reward, cost)``.
UserRow = Tuple[int, int, Tuple[int, ...], float, float, float]


class UserRoundRecords(Sequence):
    """One round's user records, stored as columns.

    A round at city scale has tens of thousands of users, most of whom
    sat out or found nothing worth a trip.  Instead of one frozen
    :class:`UserRoundRecord` per user, a round holds aligned columns in
    ``user_id`` order, sit-outs included: user ids, the users'
    selections as one :class:`SelectionColumns` table (CSR task ids in
    visit order, distances, costs), the rewards actually earned and the
    movement costs incurred.  Records are materialised only when
    indexed or iterated; the fingerprint and events-JSONL writers read
    :meth:`rows`.

    Behaves as a read-only sequence of :class:`UserRoundRecord` and
    compares equal to any sequence of equal records.

    Args:
        round_no: the round every record belongs to.
        user_ids: ``(n,)`` int64 user ids, ascending.
        selections: the ``n`` users' selections, aligned with ``user_ids``.
        rewards: ``(n,)`` float64 rewards earned, aligned likewise.
        costs: ``(n,)`` float64 movement costs incurred (each walker's
            selection cost, 0.0 for a sit-out), aligned likewise — what
            the run ledger folds profits from.
    """

    def __init__(
        self, round_no: int, user_ids, selections: SelectionColumns, rewards,
        costs,
    ):
        self.round_no = round_no
        self.user_ids = np.asarray(user_ids, dtype=np.int64)
        self.selections = selections
        self.rewards = np.asarray(rewards, dtype=float)
        self.costs = np.asarray(costs, dtype=float)

    @classmethod
    def from_records(
        cls, round_no: int, records: Sequence[UserRoundRecord]
    ) -> "UserRoundRecords":
        """Columns holding ``records`` (a replayed log, a hand-built
        round).  The rebuilt selections carry the earned reward.

        Raises:
            ValueError: for a record of another round, and as
                :class:`SelectionColumns` does for its selection.
        """
        if any(r.round_no != round_no for r in records):
            raise ValueError(f"user records from another round than {round_no}")
        n = len(records)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            [len(r.selected_task_ids) for r in records], out=offsets[1:]
        )
        rewards = [r.reward for r in records]
        costs = [r.cost for r in records]
        selections = SelectionColumns(
            offsets,
            [task_id for r in records for task_id in r.selected_task_ids],
            [r.distance for r in records], rewards, costs,
        )
        return cls(round_no, [r.user_id for r in records], selections, rewards, costs)

    def __len__(self) -> int:
        return len(self.user_ids)

    def __getitem__(self, index: int) -> UserRoundRecord:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("user record index out of range")
        selection = self.selections[index]
        return UserRoundRecord(
            round_no=self.round_no,
            user_id=int(self.user_ids[index]),
            selected_task_ids=selection.task_ids,
            distance=selection.distance,
            reward=float(self.rewards[index]),
            cost=selection.cost,
        )

    def __iter__(self) -> Iterator[UserRoundRecord]:
        return (UserRoundRecord(*row) for row in self.rows())

    def rows(self) -> Iterator[UserRow]:
        """One :data:`UserRow` per user, read from the columns without
        building records."""
        round_no, selections = self.round_no, self.selections
        ids, bounds = selections.task_ids.tolist(), selections.offsets.tolist()
        for user_id, start, stop, distance, reward, cost in zip(
            self.user_ids.tolist(), bounds, bounds[1:],
            selections.distance.tolist(), self.rewards.tolist(),
            selections.cost.tolist(),
        ):
            yield round_no, user_id, tuple(ids[start:stop]), distance, reward, cost

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, list, UserRoundRecords)):
            return NotImplemented
        return len(self) == len(other) and all(
            mine == theirs for mine, theirs in zip(self, other)
        )

    __hash__ = None


@dataclass(frozen=True)
class RoundRecord:
    """Everything that happened in one sensing round.

    Args:
        round_no: 1-based round number.
        published_rewards: the mechanism's price per active task id.
        user_records: one record per user (including sit-outs), in
            ``user_id`` order; any sequence of :class:`UserRoundRecord`
            is stored as :class:`UserRoundRecords`.
        measurements: accepted measurements, in acceptance order, as a
            columnar :class:`MeasurementRecords`; any sequence of
            :class:`MeasurementEvent` is converted on construction.
        rejections: contributions the tasks refused, in upload order,
            as a columnar :class:`RejectionRecords` (converted likewise).
        completed_task_ids: tasks that reached :math:`\\varphi` this round.
        expired_task_ids: tasks whose deadline passed at the end of this round.
        selector_fallbacks: how many Eq. 1 instances this round were
            answered by the watchdog's fallback solver instead of the
            configured one (0 unless a
            :class:`~repro.selection.watchdog.TimeBoundedSelector`
            breached its deadline — the degradation-rate signal).
        perf: execution counters for the round (cache hits/misses, DP
            states expanded, selector wall time) — observability only;
            None in replays of event logs written before the counters
            existed.
        metrics: the round's metrics-registry snapshot (measurement
            acceptance/rejection counters, payout, budget-remaining
            gauge, demand-level distribution, selector-latency
            histogram; see :mod:`repro.obs.metrics`) — observability
            only; None in replays of event logs written before the
            registry existed.
        dynamics: the open-world events applied around this round
            (arrivals/departures/publications before it played, renewals
            and expiries after) — always empty for closed-world runs,
            so their serialised records are unchanged byte for byte.
    """

    round_no: int
    published_rewards: Dict[int, float]
    user_records: UserRoundRecords
    measurements: MeasurementRecords
    rejections: RejectionRecords
    completed_task_ids: Tuple[int, ...]
    expired_task_ids: Tuple[int, ...]
    selector_fallbacks: int = 0
    perf: Optional[PerfStats] = None
    metrics: Optional[MetricsRegistry] = None
    dynamics: Tuple[WorldEvent, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.user_records, UserRoundRecords):
            object.__setattr__(
                self,
                "user_records",
                UserRoundRecords.from_records(self.round_no, self.user_records),
            )
        for name, columns in (
            ("measurements", MeasurementRecords),
            ("rejections", RejectionRecords),
        ):
            if not isinstance(getattr(self, name), columns):
                object.__setattr__(
                    self, name,
                    columns.from_events(self.round_no, getattr(self, name)),
                )

    @property
    def measurement_count(self) -> int:
        return len(self.measurements)

    @property
    def total_paid(self) -> float:
        """Rewards the platform paid out this round, added left to right.

        An explicit loop rather than ``sum()`` or ``np.sum``, whose
        floats are compensated (CPython 3.12) or pairwise: totals must
        not move with the interpreter.
        """
        total = 0.0
        for reward in self.measurements.rewards.tolist():
            total += reward
        return total

    @property
    def participating_users(self) -> int:
        return int(np.count_nonzero(self.user_records.selections.lengths))


@dataclass
class RunTotals:
    """The run ledger: every run aggregate, folded one round at a time.

    Each finished :class:`RoundRecord` is :meth:`absorb`\\ ed once —
    by the engine whether or not it keeps the record, or on building a
    result or replay from rounds — so a run that drops its records
    (``stream_rounds``) reports the same figures, bit for bit, as one
    that keeps them.  State is O(tasks + users): ``user_profits[user_id]``
    is the user's sum of per-round ``reward - cost`` in round order,
    folded as one array add per round over the record's columns (user
    ids are dense; a sit-out adds exactly 0.0, and a user past the
    array's end has profit 0.0).
    """

    rounds_played: int = 0
    total_measurements: int = 0
    total_paid: float = 0.0
    total_selector_fallbacks: int = 0
    measurements_by_task: Dict[int, int] = field(default_factory=dict)
    user_profits: np.ndarray = field(default_factory=lambda: np.zeros(0))
    perf: PerfStats = field(default_factory=PerfStats)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def absorb(self, record: RoundRecord) -> None:
        """Fold one finished round into the ledger."""
        self.rounds_played += 1
        self.total_measurements += record.measurement_count
        self.total_paid += record.total_paid
        self.total_selector_fallbacks += record.selector_fallbacks
        counts = self.measurements_by_task
        for task_id in record.measurements.task_ids.tolist():
            counts[task_id] = counts.get(task_id, 0) + 1
        users = record.user_records
        if len(users):
            grow = int(users.user_ids.max()) + 1 - len(self.user_profits)
            if grow > 0:
                self.user_profits = np.concatenate([self.user_profits, np.zeros(grow)])
            # Ids are unique within a round: one exact add per user.
            self.user_profits[users.user_ids] += users.rewards - users.costs
        if record.perf is not None:
            self.perf.add(record.perf)
        self.metrics.merge(record.metrics)


@dataclass
class RunAggregates:
    """Whole-run aggregates of a history, all read from its ledger.

    The base of :class:`SimulationResult` and the events-JSONL replay:
    a subclass has a ``rounds`` list, folded into ``totals`` on
    construction, and names the tasks :meth:`measurements_by_task`
    reports (:meth:`_task_ids`).
    """

    totals: RunTotals = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.totals = RunTotals()
        for record in self.rounds:
            self.totals.absorb(record)

    def _task_ids(self) -> Iterable[int]:
        raise NotImplementedError

    @property
    def rounds_played(self) -> int:
        return self.totals.rounds_played

    @property
    def total_measurements(self) -> int:
        return self.totals.total_measurements

    @property
    def total_paid(self) -> float:
        """Total platform payout over the whole run (must respect Eq. 8)."""
        return self.totals.total_paid

    @property
    def total_selector_fallbacks(self) -> int:
        """Watchdog degradations over the whole run (0 = fully exact)."""
        return self.totals.total_selector_fallbacks

    def perf_totals(self) -> PerfStats:
        """All rounds' perf counters merged into one :class:`PerfStats`."""
        return self.totals.perf

    def metrics_totals(self) -> MetricsRegistry:
        """All rounds' metric snapshots merged, in round order.

        Counters and histograms sum; gauges keep the last round's value
        (so ``budget_remaining`` ends at the run's final figure).  Empty
        for replays of logs written before the registry existed.
        """
        return self.totals.metrics

    def measurements_by_task(self) -> Dict[int, int]:
        """Accepted measurement counts per task over the whole run (0
        for known tasks that received none)."""
        counts = dict.fromkeys(self._task_ids(), 0)
        counts.update(self.totals.measurements_by_task)
        return counts


@dataclass
class SimulationResult(RunAggregates):
    """A finished run: the config, the final world, and the history.

    Every round is folded into the :class:`RunTotals` ledger
    (``totals``), which answers every whole-run aggregate.  The records
    are kept in ``rounds`` too unless the config streams them
    (``stream_rounds``); then per-round accessors raise.
    """

    config: "SimulationConfig"
    world: "World"
    rounds: List[RoundRecord] = field(default_factory=list)

    def absorb(self, record: RoundRecord) -> None:
        """Fold a finished round into the ledger; keep it unless the
        config streams rounds."""
        self.totals.absorb(record)
        if not self.config.stream_rounds:
            self.rounds.append(record)

    def _task_ids(self) -> Iterable[int]:
        return self.world.tasks.ids.tolist()

    @property
    def streamed(self) -> bool:
        """Whether per-round records were dropped after aggregation."""
        return len(self.rounds) < self.totals.rounds_played

    def round(self, round_no: int) -> RoundRecord:
        """The record for a 1-based round number.

        Raises:
            IndexError: if that round was not played (e.g. early stop),
                or if the run streamed its rounds instead of keeping them.
        """
        if self.streamed:
            raise IndexError(
                f"round {round_no} not retained: this run streamed its "
                f"records (config.stream_rounds) — read them back from "
                f"the events JSONL instead"
            )
        if not 1 <= round_no <= len(self.rounds):
            raise IndexError(
                f"round {round_no} not played (history has {len(self.rounds)})"
            )
        return self.rounds[round_no - 1]

    def user_profits(self, round_no: int = None) -> List[float]:
        """Per-user profit, either for one round or the whole run, in
        the final roster's order (users who departed mid-run are not in
        it).

        Args:
            round_no: restrict to one 1-based round; None sums all rounds.
                Per-round profits require retained rounds (non-streaming).
        """
        if round_no is not None:
            return [
                reward - cost
                for *_, reward, cost in self.round(round_no).user_records.rows()
            ]
        profits = self.totals.user_profits
        return [
            float(profits[user_id]) if user_id < len(profits) else 0.0
            for user_id in self.world.users.ids.tolist()
        ]


def _canonical_round(record: RoundRecord) -> Dict:
    """The deterministic content of a round, as plain JSON-able data.

    Includes exactly the fields two bit-identical runs must agree on;
    excludes ``perf`` and ``metrics``, which carry wall-clock timings
    and therefore differ between identical replays.
    """
    return {
        "round_no": record.round_no,
        "published_rewards": [
            [task_id, record.published_rewards[task_id]]
            for task_id in sorted(record.published_rewards)
        ],
        "user_records": [
            [round_no, user_id, list(task_ids), distance, reward, cost]
            for round_no, user_id, task_ids, distance, reward, cost
            in record.user_records.rows()
        ],
        "measurements": list(record.measurements.rows()),
        "rejections": list(record.rejections.rows()),
        "completed_task_ids": list(record.completed_task_ids),
        "expired_task_ids": list(record.expired_task_ids),
        "selector_fallbacks": record.selector_fallbacks,
        "dynamics": [
            [e.kind, e.round_no, e.subject_id,
             [[key, value] for key, value in e.payload]]
            for e in record.dynamics
        ],
    }


def round_fingerprint(record: RoundRecord) -> str:
    """A sha256 hex digest of the round's deterministic content.

    Two rounds fingerprint equal iff every decision the simulation made
    — prices, selections, uploads, expiries, open-world events — was
    identical; perf counters and metric snapshots (which embed wall
    times) are excluded.  This is the equality the session/engine
    bit-identity guarantee is stated in.
    """
    payload = json.dumps(
        _canonical_round(record),
        separators=(",", ":"),
        default=repr,  # exotic dynamics payload values hash via repr
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def result_fingerprint(result: SimulationResult) -> str:
    """A sha256 hex digest of a whole run's deterministic history.

    Chains :func:`round_fingerprint` over the retained rounds plus the
    run's headline totals, so it works for streamed results too (where
    per-round records were dropped and only totals remain).
    """
    digest = hashlib.sha256()
    for record in result.rounds:
        digest.update(round_fingerprint(record).encode("ascii"))
    totals = json.dumps(
        {
            "rounds_played": result.rounds_played,
            "total_measurements": result.total_measurements,
            "total_paid": result.total_paid,
            "total_selector_fallbacks": result.total_selector_fallbacks,
            "measurements_by_task": [
                [task_id, count]
                for task_id, count in sorted(
                    result.measurements_by_task().items()
                )
            ],
        },
        separators=(",", ":"),
    )
    digest.update(totals.encode("utf-8"))
    return digest.hexdigest()

