"""Lightweight span tracing: run → round → phase, exportable to Perfetto.

A tracer hands out *spans* — named, nested wall-clock intervals — via a
context manager::

    with tracer.span("round", round=3):
        with tracer.span("select"):
            ...

Two implementations share that interface:

- :data:`NULL_TRACER` (the default everywhere): every ``span()`` call
  returns one preallocated no-op context manager.  Tracing off costs two
  attribute lookups per span — no clock reads, no allocation — which is
  what keeps instrumented hot paths honest.
- :class:`SpanTracer`: records every finished span (name, category,
  start, duration, depth, args) and exports either **JSONL** (one span
  per line, for jq/pandas) or the **Chrome trace-event format** (a JSON
  object with ``traceEvents`` of ``ph: "X"`` complete events) loadable
  in ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_.

Spans read :func:`time.perf_counter` only — they never touch the
simulation's random streams, so a traced run's numbers are bit-identical
to an untraced one (pinned by ``tests/simulation/test_tracing.py``).

:func:`summarize` aggregates a written trace file back into per-phase
timing rows — the engine behind ``repro trace summarize``.

**Cross-process stitching** (the job service's live-operations layer):
a :class:`TraceContext` — trace id, parent span id, shard directory —
travels through environment variables from the server's supervisor into
the worker subprocess.  Each process writes its own JSONL *shard*
(:meth:`SpanTracer.write_jsonl` under :meth:`TraceContext.shard_path`),
and :func:`merge_traces` rebases every shard onto the shared wall clock
(``epoch_unix``) and emits one Chrome trace in which the worker's spans
sit inside the server's ``supervise`` span — one trace id, one timeline
(``repro trace merge``).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union


class _NullSpan:
    """The reusable no-op context manager NULL_TRACER hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-cost default: spans are no-ops, nothing is recorded."""

    #: Hot paths may gate per-item spans on this instead of paying even
    #: the no-op context manager per iteration.
    enabled = False

    #: No span is ever active (the profiler attributes samples to this).
    current_span_name = ""

    def span(self, name: str, cat: str = "", **args: Any) -> _NullSpan:
        return _NULL_SPAN


#: The shared do-nothing tracer (stateless, safe to share everywhere).
NULL_TRACER = NullTracer()


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, in tracer-relative seconds."""

    name: str
    cat: str
    start: float
    duration: float
    depth: int
    args: Dict[str, Any] = field(default_factory=dict)


class _Span:
    """The live context manager :meth:`SpanTracer.span` returns."""

    __slots__ = ("_tracer", "_name", "_cat", "_args", "_start", "_depth")

    def __init__(self, tracer: "SpanTracer", name: str, cat: str, args: Dict):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_Span":
        self._depth = self._tracer._enter(self._name)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = perf_counter()
        self._tracer._exit(
            SpanRecord(
                name=self._name,
                cat=self._cat,
                start=self._start - self._tracer.epoch,
                duration=end - self._start,
                depth=self._depth,
                args=self._args,
            )
        )


class SpanTracer:
    """Records spans in memory; export with :meth:`write_jsonl` /
    :meth:`write_chrome`.

    Args:
        metadata: run-level key/values embedded in exports (e.g. the
            config summary the CLI attaches).

    Not thread-safe by design: the engine is single-threaded, and a
    tracer is scoped to one run.
    """

    enabled = True

    def __init__(self, metadata: Optional[Mapping[str, Any]] = None):
        self.epoch = perf_counter()
        #: Wall-clock time at the perf_counter epoch: spans are recorded
        #: relative to ``epoch``, so ``epoch_unix + span.start`` is an
        #: absolute timestamp — what cross-process merging rebases on.
        self.epoch_unix = time.time()
        self.spans: List[SpanRecord] = []
        self.metadata: Dict[str, Any] = dict(metadata or {})
        # The stack of open span names.  Its length is the depth; its top
        # is ``current_span_name``, which the resource profiler's sampling
        # thread reads to attribute samples — appends/pops are atomic
        # under the GIL, so the reader needs no lock.
        self._stack: List[str] = []

    def span(self, name: str, cat: str = "", **args: Any) -> _Span:
        return _Span(self, name, cat, args)

    @property
    def current_span_name(self) -> str:
        """The innermost open span's name ("" outside any span)."""
        stack = self._stack
        try:
            return stack[-1]
        except IndexError:
            return ""

    def _enter(self, name: str) -> int:
        depth = len(self._stack)
        self._stack.append(name)
        return depth

    def _exit(self, record: SpanRecord) -> None:
        self._stack.pop()
        self.spans.append(record)

    # -- export ----------------------------------------------------------

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """One meta line + one JSON object per span (chronological)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps(
                {
                    "kind": "meta",
                    "format": "repro-trace",
                    "epoch_unix": self.epoch_unix,
                    **self.metadata,
                }
            ) + "\n")
            for record in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "kind": "span",
                    "name": record.name,
                    "cat": record.cat,
                    "start": record.start,
                    "duration": record.duration,
                    "depth": record.depth,
                    "args": record.args,
                }) + "\n")
        return path

    def chrome_payload(
        self, counters: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """The Chrome trace-event JSON object (see module docstring).

        Args:
            counters: optional metrics snapshot
                (:meth:`~repro.obs.metrics.MetricsRegistry.as_dict`)
                stored under ``otherData`` — viewers ignore it, and
                ``repro trace summarize`` reports it as hot counters.
        """
        events = [
            {
                "name": record.name,
                "cat": record.cat or "repro",
                "ph": "X",
                "ts": round(record.start * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": record.args,
            }
            for record in sorted(self.spans, key=lambda s: s.start)
        ]
        other: Dict[str, Any] = dict(self.metadata)
        if counters:
            other["counters"] = dict(counters)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": other,
        }

    def write_chrome(
        self,
        path: Union[str, Path],
        counters: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Write the Chrome trace-event file (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_payload(counters), indent=1))
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpanTracer({len(self.spans)} spans)"


@dataclass(frozen=True)
class PhaseSummary:
    """Aggregated timings for one span name in a trace file."""

    name: str
    count: int
    total_seconds: float
    mean_seconds: float
    max_seconds: float
    p50_seconds: float = 0.0
    p95_seconds: float = 0.0


def _exact_percentile(sorted_values: List[float], q: float) -> float:
    """The q-th percentile of pre-sorted raw values (linear interpolation).

    Exact counterpart of :meth:`~repro.obs.metrics.Histogram.percentile`
    for when the raw observations are still at hand (span durations).
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    position = (q / 100.0) * (len(sorted_values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    return sorted_values[lower] + (sorted_values[upper] - sorted_values[lower]) * fraction


def _spans_from_payload(payload: Any, path: Path) -> List[Tuple[str, float]]:
    """(name, duration-seconds) pairs from either export format."""
    if isinstance(payload, dict) and "traceEvents" in payload:
        return [
            (event["name"], float(event.get("dur", 0.0)) / 1e6)
            for event in payload["traceEvents"]
            if event.get("ph") == "X"
        ]
    raise ValueError(f"{path}: not a repro trace file")


def load_trace(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a trace written by either exporter into a uniform shape:
    ``{"spans": [(name, seconds)...], "counters": {...}, "metadata": {...}}``.

    Raises:
        ValueError: for a file in neither export format.
    """
    path = Path(path)
    text = path.read_text()
    stripped = text.lstrip()
    if stripped.startswith("{") and '"traceEvents"' in text:
        payload = json.loads(text)
        other = payload.get("otherData", {}) or {}
        counters = other.pop("counters", {}) if isinstance(other, dict) else {}
        return {
            "spans": _spans_from_payload(payload, path),
            "counters": counters,
            "metadata": other,
        }
    shard = read_trace_shard(path)
    spans = [
        (entry["name"], float(entry["duration"])) for entry in shard["spans"]
    ]
    metadata = {
        k: v
        for k, v in shard["meta"].items()
        if k not in ("kind", "format", "epoch_unix")
    }
    return {"spans": spans, "counters": {}, "metadata": metadata}


# -- cross-process trace stitching --------------------------------------

TRACE_ID_ENV = "REPRO_TRACE_ID"
TRACE_PARENT_ENV = "REPRO_TRACE_PARENT_SPAN"
TRACE_DIR_ENV = "REPRO_TRACE_DIR"
TRACE_PROCESS_ENV = "REPRO_TRACE_PROCESS"


def trace_id_for_job(job_id: str) -> str:
    """A deterministic 16-hex-digit trace id for one job.

    Derived from the job id alone, so a SIGKILLed-and-recovered job's
    new supervise attempt lands in the *same* trace as the shards its
    first life wrote — restarts extend a trace, they never fork one.

    >>> trace_id_for_job("job-000001") == trace_id_for_job("job-000001")
    True
    """
    digest = hashlib.sha256(f"repro-job:{job_id}".encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class TraceContext:
    """The trace lineage one process hands to the processes it spawns.

    Travels by environment variables (:meth:`to_env` /
    :meth:`from_env`): server → supervisor-launched worker.  The
    context carries *identity only* — each process still records its
    own spans into its own shard file under ``trace_dir``.
    """

    trace_id: str
    trace_dir: str
    parent_span_id: str = ""
    process: str = "main"

    def to_env(self) -> Dict[str, str]:
        return {
            TRACE_ID_ENV: self.trace_id,
            TRACE_DIR_ENV: self.trace_dir,
            TRACE_PARENT_ENV: self.parent_span_id,
            TRACE_PROCESS_ENV: self.process,
        }

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["TraceContext"]:
        """The context in ``environ`` (default ``os.environ``), or None."""
        if environ is None:
            import os

            environ = os.environ
        trace_id = environ.get(TRACE_ID_ENV, "")
        trace_dir = environ.get(TRACE_DIR_ENV, "")
        if not trace_id or not trace_dir:
            return None
        return cls(
            trace_id=trace_id,
            trace_dir=trace_dir,
            parent_span_id=environ.get(TRACE_PARENT_ENV, ""),
            process=environ.get(TRACE_PROCESS_ENV, "main"),
        )

    def child(
        self, process: str, parent_span_id: Optional[str] = None
    ) -> "TraceContext":
        """The context for a process this one spawns."""
        return TraceContext(
            trace_id=self.trace_id,
            trace_dir=self.trace_dir,
            parent_span_id=(
                self.parent_span_id
                if parent_span_id is None
                else parent_span_id
            ),
            process=process,
        )

    def shard_path(self, name: Optional[str] = None) -> Path:
        """This process's shard file under ``trace_dir``."""
        return Path(self.trace_dir) / f"{name or self.process}.trace.jsonl"

    def metadata(self) -> Dict[str, Any]:
        """The meta-line fields a shard written under this context carries."""
        return {
            "trace_id": self.trace_id,
            "process": self.process,
            "parent_span_id": self.parent_span_id,
        }


def read_trace_shard(path: Union[str, Path]) -> Dict[str, Any]:
    """One JSONL shard as ``{"meta": {...}, "spans": [span-dicts]}``.

    Raises:
        ValueError: for a file that is not a repro JSONL trace, or a
            damaged or torn line (naming the path and the line).
    """
    from repro.io.atomic import parse_jsonl, read_lines  # leaf-package rule

    path = Path(path)
    complete, tail = read_lines(path)
    entries = [
        entry for _, entry in
        parse_jsonl(path, complete, "trace-shard", ValueError, tail=tail)
    ]
    if not entries:
        raise ValueError(f"{path}: empty trace shard")
    meta = entries[0]
    if meta.get("kind") != "meta" or meta.get("format") != "repro-trace":
        raise ValueError(f"{path}: not a repro trace file")
    spans = []
    for entry in entries[1:]:
        if entry.get("kind") != "span":
            raise ValueError(
                f"{path}: unexpected trace line kind {entry.get('kind')!r}"
            )
        spans.append(entry)
    return {"meta": meta, "spans": spans}


def merge_traces(paths: Iterable[Union[str, Path]]) -> Dict[str, Any]:
    """Stitch per-process JSONL shards into one Chrome trace payload.

    Every shard's spans are rebased from its own ``perf_counter`` epoch
    onto the shared wall clock (``epoch_unix``, written on every shard's
    meta line), so spans from different processes line up on one
    timeline: the server's ``supervise`` span visibly contains the
    worker's ``run``/``round`` spans.  Each source process becomes its
    own named thread of a single merged process (``ph: "M"`` metadata
    events carry the names), and the shared trace id lands in
    ``otherData``.

    Raises:
        ValueError: for no shards, a shard without a trace id, or
            shards from different traces (merging unrelated jobs is a
            mistake, not a union).
    """
    shards = []
    for path in sorted(Path(p) for p in paths):
        loaded = read_trace_shard(path)
        loaded["path"] = path
        shards.append(loaded)
    if not shards:
        raise ValueError("no trace shards to merge")
    trace_ids = {s["meta"].get("trace_id") for s in shards}
    if None in trace_ids or "" in trace_ids:
        missing = [
            str(s["path"]) for s in shards if not s["meta"].get("trace_id")
        ]
        raise ValueError(
            f"shard(s) without a trace_id cannot be merged: "
            f"{', '.join(missing)}"
        )
    if len(trace_ids) > 1:
        raise ValueError(
            f"refusing to merge shards from different traces: "
            f"{', '.join(sorted(trace_ids))}"
        )
    trace_id = trace_ids.pop()
    base = min(float(s["meta"].get("epoch_unix", 0.0)) for s in shards)
    processes = sorted(
        {str(s["meta"].get("process", "main")) for s in shards}
    )
    tid_of = {process: tid for tid, process in enumerate(processes, start=1)}

    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": f"repro trace {trace_id}"},
        }
    ]
    for process in processes:
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid_of[process],
            "args": {"name": process},
        })
    lineage = {}
    for shard in shards:
        meta = shard["meta"]
        process = str(meta.get("process", "main"))
        lineage[process] = meta.get("parent_span_id", "")
        offset = float(meta.get("epoch_unix", 0.0)) - base
        tid = tid_of[process]
        for span in shard["spans"]:
            events.append({
                "name": span["name"],
                "cat": span.get("cat") or "repro",
                "ph": "X",
                "ts": round((offset + float(span["start"])) * 1e6, 3),
                "dur": round(float(span["duration"]) * 1e6, 3),
                "pid": 1,
                "tid": tid,
                "args": span.get("args", {}),
            })
    events.sort(key=lambda e: (e["ph"] != "M", e.get("ts", 0.0), e["tid"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": trace_id,
            "processes": processes,
            "parents": lineage,
            "shards": len(shards),
        },
    }


def write_merged_trace(
    out: Union[str, Path], paths: Iterable[Union[str, Path]]
) -> Path:
    """Write :func:`merge_traces` output as one Chrome trace file."""
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(merge_traces(paths), indent=1))
    return out


def summarize(path: Union[str, Path]) -> List[PhaseSummary]:
    """Per-name timing aggregates for a trace file, slowest total first."""
    loaded = load_trace(path)
    totals: Dict[str, List[float]] = {}
    for name, seconds in loaded["spans"]:
        totals.setdefault(name, []).append(seconds)
    rows = []
    for name, durations in totals.items():
        ordered = sorted(durations)
        rows.append(PhaseSummary(
            name=name,
            count=len(durations),
            total_seconds=sum(durations),
            mean_seconds=sum(durations) / len(durations),
            max_seconds=ordered[-1],
            p50_seconds=_exact_percentile(ordered, 50.0),
            p95_seconds=_exact_percentile(ordered, 95.0),
        ))
    return sorted(rows, key=lambda row: row.total_seconds, reverse=True)
