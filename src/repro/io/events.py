"""JSONL export/import of full simulation histories.

A :class:`~repro.simulation.events.SimulationResult` is the library's
in-memory truth; this module flattens it to one JSON object per line —
one ``meta`` line, one line per round — so external tooling (pandas,
jq, spreadsheets) can consume runs without importing the library, and so
runs can be archived next to the experiment results they produced.

The loader rebuilds a *replay*: the structured history, the task
outcomes and the same :class:`~repro.simulation.events.RunTotals`
ledger a live run keeps, sufficient for every metric in
:mod:`repro.metrics` that reads rounds (coverage, measurements,
rewards, profits).  It does not rebuild live ``World`` objects —
replays are for analysis, not resumption.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Tuple, Union

from repro.dynamics.processes import WorldEvent
from repro.io.atomic import parse_jsonl, read_lines
from repro.simulation.events import (
    MeasurementRecords,
    RejectionRecords,
    RoundRecord,
    RunAggregates,
    SimulationResult,
    UserRoundRecord,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience.errors import ResultCorruption
from repro.simulation.perf import PerfStats

FORMAT_VERSION = 1


def _round_payload(record: RoundRecord) -> Dict:
    return {
        "kind": "round",
        "round_no": record.round_no,
        "published_rewards": {str(k): v for k, v in record.published_rewards.items()},
        "user_records": [
            {
                "user_id": user_id,
                "selected_task_ids": list(task_ids),
                "distance": distance,
                "reward": reward,
                "cost": cost,
            }
            for _, user_id, task_ids, distance, reward, cost
            in record.user_records.rows()
        ],
        "measurements": list(record.measurements.rows()),
        "rejections": list(record.rejections.rows()),
        "completed_task_ids": list(record.completed_task_ids),
        "expired_task_ids": list(record.expired_task_ids),
        "selector_fallbacks": record.selector_fallbacks,
        **(
            {"perf": record.perf.as_dict()} if record.perf is not None else {}
        ),
        **(
            {"metrics": record.metrics.as_dict()} if record.metrics else {}
        ),
        # Only open-world rounds carry dynamics events; closed-world
        # lines stay byte-identical to pre-dynamics logs.
        **(
            {"dynamics": [e.as_dict() for e in record.dynamics]}
            if record.dynamics
            else {}
        ),
    }


def _meta_payload(world, rounds_played: int) -> Dict:
    ids = [str(task_id) for task_id in world.tasks.ids.tolist()]
    return {
        "kind": "meta",
        "format_version": FORMAT_VERSION,
        "rounds_played": rounds_played,
        "n_tasks": len(world.tasks),
        "n_users": len(world.users),
        "task_deadlines": dict(zip(ids, world.tasks.deadline.tolist())),
        "task_required": dict(zip(ids, world.tasks.required.tolist())),
    }


def write_events_jsonl(result: SimulationResult, path: Union[str, Path]) -> Path:
    """Write one meta line plus one line per round (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = _meta_payload(result.world, result.rounds_played)
    with path.open("w") as handle:
        handle.write(json.dumps(meta) + "\n")
        for record in result.rounds:
            handle.write(json.dumps(_round_payload(record)) + "\n")
    return path


class RoundStreamWriter:
    """Streams round records to an events JSONL as they finish.

    Register an instance as an engine observer and a large run writes
    its full history to disk without holding any round in memory —
    pair with ``SimulationConfig(stream_rounds=True)``.  The format is
    identical to :func:`write_events_jsonl` except that the meta line's
    ``rounds_played`` is unknown at open time (written as 0; the reader
    counts round lines, it never trusts the meta figure).

    Usable as a context manager; :meth:`close` is idempotent.

    >>> with RoundStreamWriter("events.jsonl", engine.world) as stream:
    ...     engine.observers.append(stream)
    ...     engine.run()                                   # doctest: +SKIP
    """

    def __init__(self, path: Union[str, Path], world) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.rounds_written = 0
        self._handle = self.path.open("w")
        self._handle.write(json.dumps(_meta_payload(world, 0)) + "\n")

    def __call__(self, record: RoundRecord) -> None:
        if self._handle is None:
            raise ValueError(f"{self.path}: stream writer already closed")
        self._handle.write(json.dumps(_round_payload(record)) + "\n")
        self.rounds_written += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RoundStreamWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class SimulationReplay(RunAggregates):
    """A loaded history: rounds + the task parameters metrics need,
    with the same run ledger (``totals``) as the result it was written
    from."""

    rounds: List[RoundRecord]
    n_tasks: int
    n_users: int
    task_deadlines: Dict[int, int]
    task_required: Dict[int, int]

    def _task_ids(self) -> Iterable[int]:
        return self.task_deadlines


def check_event_lines(path: Union[str, Path], payloads: List[Tuple[int, Dict]]) -> int:
    """Check the shape of an events log's lines (each with its 1-based
    line number): a version-:data:`FORMAT_VERSION` meta line first, then
    round lines numbered 1..n.  Returns n.

    Raises:
        ResultCorruption: naming the path and the offending line.
    """
    if not payloads:
        raise ResultCorruption(f"{path}: empty event log")
    _, meta = payloads[0]
    if meta.get("kind") != "meta" or meta.get("format_version") != FORMAT_VERSION:
        raise ResultCorruption(
            f"{path}: not a version-{FORMAT_VERSION} event log (got "
            f"{meta.get('kind')!r}, format_version "
            f"{meta.get('format_version')!r})"
        )
    for expected, (number, payload) in enumerate(payloads[1:], 1):
        if payload.get("kind") != "round":
            raise ResultCorruption(
                f"{path}: unexpected line kind {payload.get('kind')!r} at "
                f"line {number}"
            )
        if payload.get("round_no") != expected:
            raise ResultCorruption(
                f"{path}: round sequence broken at line {number} (expected "
                f"round {expected}, got {payload.get('round_no')!r})"
            )
    return len(payloads) - 1


def _field(payload: Dict, name: str, where: str, build: Callable = lambda v: v):
    """``build(payload[name])``; a missing or malformed field raises
    :class:`ResultCorruption` naming ``where`` (path and line) and the
    field."""
    if name not in payload:
        raise ResultCorruption(f"{where}: round line has no {name!r} field")
    try:
        return build(payload[name])
    except (KeyError, TypeError, ValueError) as exc:
        raise ResultCorruption(
            f"{where}: field {name!r} is malformed: {exc}"
        ) from exc


def _round_record(payload: Dict, where: str) -> RoundRecord:
    """One round line's record (``where`` names its path and line)."""
    round_no = _field(payload, "round_no", where)
    return RoundRecord(
        round_no=round_no,
        published_rewards=_field(
            payload, "published_rewards", where,
            lambda rewards: {int(k): v for k, v in rewards.items()},
        ),
        user_records=_field(
            payload, "user_records", where,
            lambda records: tuple(
                UserRoundRecord(
                    round_no=round_no,
                    user_id=r["user_id"],
                    selected_task_ids=tuple(r["selected_task_ids"]),
                    distance=r["distance"],
                    reward=r["reward"],
                    cost=r["cost"],
                )
                for r in records
            ),
        ),
        measurements=_field(
            payload, "measurements", where,
            partial(MeasurementRecords.from_rows, round_no),
        ),
        rejections=_field(
            payload, "rejections", where,
            partial(RejectionRecords.from_rows, round_no),
        ),
        completed_task_ids=_field(payload, "completed_task_ids", where, tuple),
        expired_task_ids=_field(payload, "expired_task_ids", where, tuple),
        # absent in logs written before the watchdog existed
        selector_fallbacks=payload.get("selector_fallbacks", 0),
        # absent in logs written before the perf counters existed
        perf=(
            PerfStats.from_dict(payload["perf"])
            if "perf" in payload
            else None
        ),
        # absent in logs written before the metrics registry existed
        metrics=(
            MetricsRegistry.from_dict(payload["metrics"])
            if "metrics" in payload
            else None
        ),
        # absent in closed-world logs (and all pre-dynamics ones)
        dynamics=tuple(
            WorldEvent.from_dict(entry)
            for entry in payload.get("dynamics", ())
        ),
    )


def read_events_jsonl(path: Union[str, Path]) -> SimulationReplay:
    """Load a history written by :func:`write_events_jsonl` (blank
    lines are skipped; a last line without its newline still counts).

    Raises:
        ResultCorruption: for a line that is not valid JSON (named with
            the path, the 1-based line and whether it is a torn last
            line or damage mid-stream), a log that fails
            :func:`check_event_lines`, or a round line with a missing or
            malformed field.
    """
    lines, tail = read_lines(path)
    payloads = parse_jsonl(path, lines, "events", ResultCorruption, tail=tail)
    check_event_lines(path, payloads)
    _, meta = payloads[0]
    rounds = [
        _round_record(payload, f"{path}: line {number}")
        for number, payload in payloads[1:]
    ]
    task_deadlines = {int(k): v for k, v in meta["task_deadlines"].items()}
    task_required = {int(k): v for k, v in meta["task_required"].items()}
    # Open-world logs publish tasks mid-run (and may renew deadlines);
    # fold those into the task tables so replay metrics cover them.
    for record in rounds:
        for event in record.dynamics:
            if event.kind == "task_published":
                task_deadlines[event.subject_id] = event.get("deadline")
                task_required[event.subject_id] = event.get("required")
            elif event.kind == "deadline_renewed":
                task_deadlines[event.subject_id] = event.get("deadline")
    return SimulationReplay(
        rounds=rounds,
        n_tasks=len(task_deadlines),
        n_users=meta["n_users"],
        task_deadlines=task_deadlines,
        task_required=task_required,
    )
