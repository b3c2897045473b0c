"""The run store: an append-only, queryable history of runs.

PR 3 made every run emit telemetry — manifests, metric registries, trace
summaries — but each artifact was write-only: nothing compared runs over
time, so perf trajectories and paper-shape claims were checked by
eyeball.  The store gives that telemetry a durable, queryable home:

- one directory per store, holding a JSONL **index** (one line per
  ingested run, carrying the flat numeric summary and labels, so every
  query below is answered without opening payloads) and a ``runs/``
  payload tree (one directory per run with the full record: manifest,
  metrics registry snapshot, trace summary);
- ingestion is **append-only** and serialized by an exclusive file lock
  (``flock`` where available), so concurrent benchmark processes and CI
  jobs can ingest into one store without corrupting the index; the
  index follows the crash rule of :mod:`repro.io.atomic` (a line counts
  once its newline is on disk): readers skip a torn tail, whose payload
  was never indexed, and the next ingest removes it before appending;
- every run gets a **stable run id** ``<kind>-<seq>`` assigned under the
  lock, so ids are monotonic in ingestion order and a metric's history
  is simply its value read across the index in order;
- index lines and payloads both carry ``format_version`` — a store
  written by a future schema loads loudly (:class:`StoreError`), never
  silently misread.

:mod:`repro.obs.regress` consumes the store for baseline-window
regression verdicts; :mod:`repro.obs.report` renders it as dashboards.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.obs.metrics import Histogram

try:  # POSIX: real inter-process exclusion.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX (e.g. Windows)
    fcntl = None

#: Env var forcing the portable lockfile path even where fcntl exists —
#: how the fallback is exercised by the multiprocess stress test.
NO_FCNTL_ENV = "REPRO_OBS_NO_FCNTL"

#: A fallback lockfile older than this is presumed left by a dead
#: process (belt and braces next to the liveness probe on its pid).
STALE_LOCK_SECONDS = 30.0


def _use_fcntl() -> bool:
    return fcntl is not None and not os.environ.get(NO_FCNTL_ENV)


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (EPERM counts as alive)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's process
        return True
    except OSError:  # pragma: no cover - platform oddity: assume alive
        return True
    return True


FORMAT_VERSION = 1

#: The label under which :meth:`RunStore.ingest` records a dedupe key.
DEDUPE_LABEL = "ingest_fingerprint"


class StoreError(ValueError):
    """A malformed or version-incompatible run store."""


@dataclass(frozen=True)
class RunRecord:
    """One ingested run: identity, summary numbers, and full payloads.

    Args:
        run_id: the store-assigned stable id (``<kind>-<seq>``).
        kind: the run family (``"bench"``, ``"simulate"``, …) — series
            are compared *within* a kind, never across kinds.
        created_at: ISO-8601 UTC timestamp (the producer's, when it has
            one — bench trajectory entries keep their original stamp).
        labels: string key/values for filtering (mechanism, scale, …).
        values: the flat numeric summary — the only part regression
            detection and trend charts read.
        manifest: the run's provenance manifest, when one exists.
        metrics: a full metrics-registry snapshot
            (:meth:`~repro.obs.metrics.MetricsRegistry.as_dict`).
        trace_summary: per-phase timing rows from a span trace.
    """

    run_id: str
    kind: str
    created_at: str
    labels: Dict[str, str] = field(default_factory=dict)
    values: Dict[str, float] = field(default_factory=dict)
    manifest: Optional[Dict[str, Any]] = None
    metrics: Optional[Dict[str, Any]] = None
    trace_summary: Optional[List[Dict[str, Any]]] = None
    format_version: int = FORMAT_VERSION

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


def registry_values(registry_dict: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten a metrics-registry snapshot into store-ready numbers.

    Counters and gauges keep their value under the series key;
    histograms expand to ``<series>/count``, ``/mean``, ``/p50``,
    ``/p95`` (bucket-interpolated) so latency distributions are
    regression-gateable without replaying raw observations.
    """
    values: Dict[str, float] = {}
    for series, state in registry_dict.items():
        kind = state.get("kind")
        if kind in ("counter", "gauge"):
            values[series] = float(state["value"])
        elif kind == "histogram":
            histogram = Histogram.from_dict(
                {k: v for k, v in state.items() if k != "kind"}
            )
            values[f"{series}/count"] = float(histogram.count)
            if histogram.count:
                values[f"{series}/mean"] = histogram.mean
                values[f"{series}/p50"] = float(histogram.percentile(50.0))
                values[f"{series}/p95"] = float(histogram.percentile(95.0))
    return values


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _clean_values(values: Mapping[str, Any]) -> Dict[str, float]:
    """Validate and coerce the numeric summary (finite floats only)."""
    cleaned: Dict[str, float] = {}
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise StoreError(
                f"store values must be numbers; {name!r} is {type(value).__name__}"
            )
        number = float(value)
        if not math.isfinite(number):
            raise StoreError(f"store value {name!r} is not finite: {number}")
        cleaned[str(name)] = number
    return cleaned


class RunStore:
    """One on-disk run history (see module docstring for the layout).

    Args:
        root: the store directory; created (with parents) when absent.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.index_path = self.root / "index.jsonl"
        self._lock_path = self.root / ".lock"

    # -- locking ---------------------------------------------------------

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Exclusive inter-process lock for the append path.

        Where ``fcntl`` exists the lock is a plain ``flock`` on a
        sidecar file.  Elsewhere (or under ``REPRO_OBS_NO_FCNTL=1``) the
        fallback is an atomic lockfile: ``O_CREAT|O_EXCL`` creation is
        the acquisition, so exactly one process wins; losers spin with a
        short jittered sleep.  The previous fallback was a silent no-op,
        which let concurrent ingests interleave index lines and mint
        duplicate run ids — the stress test in
        ``tests/obs/test_store_locking.py`` hammers one store from 8
        processes down both paths.
        """
        if _use_fcntl():
            with self._lock_path.open("a") as handle:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            return
        self._acquire_lockfile()
        try:
            yield
        finally:
            self._release_lockfile()

    @property
    def _lockfile_path(self) -> Path:
        # Distinct from the flock sidecar: the flock file is opened in
        # append mode (existence is meaningless), the fallback lockfile's
        # very existence *is* the lock.
        return self.root / ".lockfile"

    def _acquire_lockfile(self, timeout: float = 30.0) -> None:
        """Win the ``O_CREAT|O_EXCL`` race, stealing stale locks.

        A lock is stale when its owner pid is dead, or when it is older
        than :data:`STALE_LOCK_SECONDS` (covers pid reuse and
        unreadable lockfiles).  Stealing is itself racy-safe: whoever
        loses the re-creation race after the unlink simply spins again.
        """
        deadline = time.monotonic() + timeout
        rng = random.Random()
        while True:
            try:
                descriptor = os.open(
                    self._lockfile_path,
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                self._steal_if_stale()
                if time.monotonic() >= deadline:
                    raise StoreError(
                        f"{self._lockfile_path}: could not acquire the store "
                        f"lock within {timeout:g}s; if no other process is "
                        f"ingesting, delete the stale lockfile"
                    )
                time.sleep(rng.uniform(0.001, 0.01))
                continue
            with os.fdopen(descriptor, "w") as handle:
                handle.write(f"{os.getpid()} {time.time():.3f}\n")
            return

    def _steal_if_stale(self) -> None:
        """Unlink the lockfile when its owner is provably gone."""
        try:
            raw = self._lockfile_path.read_text().split()
            owner = int(raw[0])
            written_at = float(raw[1])
        except (OSError, ValueError, IndexError):
            # Unreadable or half-written: fall back to the age check via
            # the file's mtime.
            owner = None
            try:
                written_at = self._lockfile_path.stat().st_mtime
            except OSError:
                return  # gone already — the next O_EXCL attempt decides
        stale = (
            (owner is not None and not _pid_alive(owner))
            or time.time() - written_at > STALE_LOCK_SECONDS
        )
        if stale:
            try:
                self._lockfile_path.unlink()
            except OSError:
                pass  # someone else stole it first; spin again

    def _release_lockfile(self) -> None:
        try:
            self._lockfile_path.unlink()
        except OSError:  # pragma: no cover - already stolen as stale
            pass

    # -- ingestion -------------------------------------------------------

    def ingest(
        self,
        kind: str,
        values: Mapping[str, Any],
        labels: Optional[Mapping[str, Any]] = None,
        manifest: Optional[Mapping[str, Any]] = None,
        metrics: Optional[Mapping[str, Any]] = None,
        trace_summary: Optional[List[Dict[str, Any]]] = None,
        created_at: Optional[str] = None,
        dedupe_key: Optional[str] = None,
    ) -> Tuple[RunRecord, bool]:
        """Append one run; returns ``(record, created)``.

        Args:
            kind: the run family (non-empty; no ``/``).
            values: flat numeric summary (finite numbers only).
            labels: optional string labels for filtering.
            manifest / metrics / trace_summary: full payloads, stored in
                the run's payload directory.
            created_at: producer timestamp; defaults to now (UTC).
            dedupe_key: when given, an existing run of this kind with
                the same key is returned instead of ingesting a
                duplicate (``created`` False) — how re-ingesting the
                same bench trajectory stays idempotent.

        Raises:
            StoreError: for an invalid kind/values or a corrupt index.
        """
        if not kind or "/" in kind:
            raise StoreError(f"invalid run kind {kind!r}")
        cleaned = _clean_values(values)
        label_map = {str(k): str(v) for k, v in (labels or {}).items()}
        if dedupe_key is not None:
            label_map[DEDUPE_LABEL] = dedupe_key
        from repro.io.atomic import append_line, reopen_jsonl  # leaf rule

        with self._locked():
            # Reopen as the writer: a torn tail left by a crashed ingest
            # is removed, so this run's line does not land on it.
            entries = (
                self._versioned(
                    reopen_jsonl(self.index_path, "index", StoreError)
                )
                if self.index_path.exists()
                else []
            )
            if dedupe_key is not None:
                for entry in entries:
                    if (
                        entry["kind"] == kind
                        and entry["labels"].get(DEDUPE_LABEL) == dedupe_key
                    ):
                        return self.load(entry["run_id"]), False
            run_id = f"{kind}-{len(entries) + 1:06d}"
            record = RunRecord(
                run_id=run_id,
                kind=kind,
                created_at=created_at or _utc_now(),
                labels=label_map,
                values=cleaned,
                manifest=dict(manifest) if manifest is not None else None,
                metrics=dict(metrics) if metrics is not None else None,
                trace_summary=trace_summary,
            )
            # Payload first, index line second: an index line always
            # points at a complete payload (a crash in between leaves an
            # unindexed payload dir that the next ingest overwrites).
            self._write_payload(record)
            with self.index_path.open("a") as handle:
                append_line(handle, json.dumps({
                    "format_version": FORMAT_VERSION,
                    "run_id": run_id,
                    "kind": kind,
                    "created_at": record.created_at,
                    "labels": label_map,
                    "values": cleaned,
                }, sort_keys=True))
        return record, True

    def _payload_path(self, run_id: str) -> Path:
        return self.root / "runs" / run_id / "record.json"

    def _write_payload(self, record: RunRecord) -> None:
        from repro.io.atomic import atomic_write_text  # leaf-package rule

        atomic_write_text(
            self._payload_path(record.run_id),
            json.dumps(record.as_dict(), indent=2, sort_keys=True) + "\n",
        )

    # -- queries ---------------------------------------------------------

    def _versioned(self, parsed: List[Tuple[int, Any]]) -> List[Dict[str, Any]]:
        """Numbered index lines as entries; a foreign ``format_version``
        raises :class:`StoreError` naming the line."""
        for number, entry in parsed:
            if entry.get("format_version") != FORMAT_VERSION:
                raise StoreError(
                    f"{self.index_path}: index line {number} has "
                    f"format_version {entry.get('format_version')!r}, "
                    f"expected {FORMAT_VERSION}"
                )
        return [entry for _, entry in parsed]

    def _index(self) -> List[Dict[str, Any]]:
        """The indexed runs; a torn tail is an ingest still in flight
        (or one that crashed) and is skipped."""
        from repro.io.atomic import parse_jsonl, read_lines  # leaf rule

        if not self.index_path.exists():
            return []
        lines, _tail = read_lines(self.index_path)
        return self._versioned(
            parse_jsonl(self.index_path, lines, "index", StoreError)
        )

    def entries(
        self, kind: Optional[str] = None, **labels: str
    ) -> List[Dict[str, Any]]:
        """Index entries in ingestion order, filtered by kind and labels."""
        selected = []
        for entry in self._index():
            if kind is not None and entry["kind"] != kind:
                continue
            if any(entry["labels"].get(k) != str(v) for k, v in labels.items()):
                continue
            selected.append(entry)
        return selected

    def __len__(self) -> int:
        return len(self._index())

    def kinds(self) -> List[str]:
        """Distinct run kinds, in first-ingestion order."""
        seen: Dict[str, None] = {}
        for entry in self._index():
            seen.setdefault(entry["kind"], None)
        return list(seen)

    def value_names(self, kind: Optional[str] = None) -> List[str]:
        """Sorted names of every numeric value recorded under ``kind``."""
        names = set()
        for entry in self.entries(kind=kind):
            names.update(entry["values"])
        return sorted(names)

    def series(
        self, value_name: str, kind: Optional[str] = None, **labels: str
    ) -> List[Tuple[str, float]]:
        """``(run_id, value)`` history of one metric, ingestion order.

        Runs without the value are skipped (schemas may grow over time).
        """
        return [
            (entry["run_id"], float(entry["values"][value_name]))
            for entry in self.entries(kind=kind, **labels)
            if value_name in entry["values"]
        ]

    def latest(self, kind: Optional[str] = None) -> Optional[Dict[str, Any]]:
        """The most recently ingested index entry, or None when empty."""
        selected = self.entries(kind=kind)
        return selected[-1] if selected else None

    def load(self, run_id: str) -> RunRecord:
        """The full record for a run id.

        Raises:
            KeyError: for an unknown run id.
            StoreError: for a payload from an incompatible schema.
        """
        path = self._payload_path(run_id)
        if not path.exists():
            raise KeyError(f"run {run_id!r} not in store {self.root}")
        payload = json.loads(path.read_text())
        if payload.get("format_version") != FORMAT_VERSION:
            raise StoreError(
                f"{path}: payload format_version "
                f"{payload.get('format_version')!r}, expected {FORMAT_VERSION}"
            )
        return RunRecord.from_dict(payload)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RunStore({str(self.root)!r}, {len(self)} runs)"


#: Numeric fields of a ``BENCH_selectors.json`` entry worth gating.
BENCH_VALUE_FIELDS = (
    "reference_ms_per_call",
    "vectorized_ms_per_call",
    "speedup",
    "mean_profit",
    "batched_rounds_per_second",
    "rounds_per_second",
    "wall_seconds",
    "peak_rss_mb",
    "churn_rounds_per_second",
    "baseline_rounds_per_second",
    "dynamics_overhead",
    "plain_rounds_per_second",
    "live_rounds_per_second",
    "obs_overhead",
    "simulate_rounds_per_second",
    "session_rounds_per_second",
    "session_overhead",
)


def ingest_bench_trajectory(
    store: RunStore, path: Union[str, Path], kind: str = "bench"
) -> List[RunRecord]:
    """Import shim: fold a ``BENCH_selectors.json`` trajectory into a store.

    Each trajectory entry becomes one run of ``kind`` (idempotently —
    entries are fingerprinted, so re-ingesting the same file is a
    no-op).  Entries carrying a ``bench`` field (e.g. the engine
    throughput bench) land under ``{kind}:{bench}`` so each bench keeps
    its own regression baseline.  Returns only the records created *by
    this call*.

    Raises:
        StoreError: if the file is not a JSON list of objects.
    """
    path = Path(path)
    try:
        trajectory = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise StoreError(f"{path}: not a JSON bench trajectory") from exc
    if not isinstance(trajectory, list) or not all(
        isinstance(entry, dict) for entry in trajectory
    ):
        raise StoreError(f"{path}: bench trajectory must be a list of objects")
    created: List[RunRecord] = []
    for entry in trajectory:
        fingerprint = hashlib.sha256(
            json.dumps(entry, sort_keys=True, default=repr).encode()
        ).hexdigest()[:12]
        values = {
            name: entry[name]
            for name in BENCH_VALUE_FIELDS
            if isinstance(entry.get(name), (int, float))
        }
        labels = {"source": path.name}
        for label in ("scale", "python", "numpy", "bench", "scenario"):
            if entry.get(label) is not None:
                labels[label] = str(entry[label])
        entry_kind = f"{kind}:{entry['bench']}" if entry.get("bench") else kind
        record, was_created = store.ingest(
            entry_kind,
            values,
            labels=labels,
            created_at=entry.get("timestamp"),
            dedupe_key=fingerprint,
        )
        if was_created:
            created.append(record)
    return created
