"""A sampling resource profiler: RSS, CPU time, and GC pressure over time.

Span tracing answers *where wall-clock time goes*; this module answers
*what the process was doing to the machine* while it went there.  A
background daemon thread wakes every ``interval`` seconds and records:

- resident set size (``/proc/self/statm`` on Linux; ``getrusage`` peak
  as the portable fallback);
- cumulative process CPU time (:func:`time.process_time`);
- cumulative GC collections (:func:`gc.get_stats`);
- the **active span name** read from the run's tracer
  (:attr:`~repro.obs.trace.SpanTracer.current_span_name`) — which is
  how a memory ramp gets attributed to ``select`` rather than "somewhere
  in the run".

The same zero-cost-when-off contract as tracing: the default
:data:`NULL_PROFILER` starts no thread and records nothing, and a *real*
profiler only ever reads clocks and ``/proc`` — never the simulation's
random streams — so profiled runs are bit-identical to unprofiled ones
(pinned by ``tests/integration/test_observatory.py``).  Overhead of the
sampler itself is one small file read per interval on another thread;
measured on the perf-smoke workload it is < 5 % end to end (see
docs/architecture.md "Observatory").

:meth:`ResourceProfiler.fold_into` lands the samples in a metrics
registry as ``process_*`` series, so profiles ride the same store /
regression / dashboard path as every other metric.
"""

from __future__ import annotations

import gc
import os
import threading
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover - non-POSIX
    _PAGE_SIZE = 4096


def read_rss_bytes() -> int:
    """The process's current resident set size, best effort (0 if unknown).

    Linux reads ``/proc/self/statm`` (field 2 is resident pages); other
    POSIX systems fall back to the ``getrusage`` *peak* RSS, which is
    monotone but still useful for the peak-memory gauge.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:  # pragma: no cover - platform without getrusage
        return 0


def _gc_collections() -> int:
    """Total GC collections across all generations since interpreter start."""
    return sum(stat.get("collections", 0) for stat in gc.get_stats())


@dataclass(frozen=True)
class ResourceSample:
    """One observation of the process, ``elapsed`` seconds into the profile."""

    elapsed: float
    rss_bytes: int
    cpu_seconds: float
    gc_collections: int
    span: str


class _NullProfiler:
    """The do-nothing default: no thread, no samples, no cost."""

    enabled = False
    samples: Tuple[ResourceSample, ...] = ()

    def start(self) -> "_NullProfiler":
        return self

    def stop(self) -> "_NullProfiler":
        return self

    def __enter__(self) -> "_NullProfiler":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def fold_into(self, registry: MetricsRegistry) -> MetricsRegistry:
        return registry

    def summary(self) -> Dict[str, Any]:
        return {"samples": 0}


#: The shared no-op profiler (stateless, safe to share everywhere).
NULL_PROFILER = _NullProfiler()


class ResourceProfiler:
    """Samples process resources on a background thread (see module doc).

    Args:
        interval: seconds between samples (default 20 Hz).
        tracer: the run's span tracer; samples are attributed to its
            ``current_span_name``.  The default no-op tracer attributes
            everything to ``""`` (rendered as ``untraced``).

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    Restarting a stopped profiler continues appending samples.
    """

    enabled = True

    def __init__(self, interval: float = 0.05, tracer=None):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.samples: List[ResourceSample] = []
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._epoch: Optional[float] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ResourceProfiler":
        """Begin sampling (idempotent while already running)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop_event.clear()
        if self._epoch is None:
            self._epoch = perf_counter()
        self._sample()  # a baseline sample, so deltas have an anchor
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "ResourceProfiler":
        """Stop sampling; records one final sample (idempotent)."""
        thread, self._thread = self._thread, None
        if thread is None:
            return self
        self._stop_event.set()
        thread.join(timeout=max(1.0, 10 * self.interval))
        self._sample()
        return self

    def __enter__(self) -> "ResourceProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self._sample()

    def _sample(self) -> None:
        tracer = self.tracer
        # One clock read: two would make an unstarted profiler's
        # ``elapsed`` a random few-ns negative, and durations negative.
        now = perf_counter()
        self.samples.append(ResourceSample(
            elapsed=now - (self._epoch if self._epoch is not None else now),
            rss_bytes=read_rss_bytes(),
            cpu_seconds=process_time(),
            gc_collections=_gc_collections(),
            span=getattr(tracer, "current_span_name", ""),
        ))

    # -- aggregation -----------------------------------------------------

    def fold_into(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Land the profile in ``registry`` as ``process_*`` series.

        Series written (all deltas are profile-relative, so merging two
        runs' registries adds their resource usage the way counters
        should): ``process_rss_peak_bytes`` / ``process_rss_last_bytes``
        gauges, ``process_cpu_seconds_total`` and
        ``process_gc_collections_total`` counters,
        ``process_samples_total`` overall and per attributed span
        (``process_span_samples_total{span=...}``).
        """
        if not self.samples:
            return registry
        first, last = self.samples[0], self.samples[-1]
        registry.gauge("process_rss_peak_bytes").set(
            max(sample.rss_bytes for sample in self.samples)
        )
        registry.gauge("process_rss_last_bytes").set(last.rss_bytes)
        registry.counter("process_cpu_seconds_total").inc(
            max(0.0, last.cpu_seconds - first.cpu_seconds)
        )
        registry.counter("process_gc_collections_total").inc(
            max(0, last.gc_collections - first.gc_collections)
        )
        registry.counter("process_samples_total").inc(len(self.samples))
        for span, count in sorted(self._span_counts().items()):
            registry.counter("process_span_samples_total", span=span).inc(count)
        return registry

    def _span_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for sample in self.samples:
            span = sample.span or "untraced"
            counts[span] = counts.get(span, 0) + 1
        return counts

    def summary(self) -> Dict[str, Any]:
        """A printable digest: sample count, peak RSS, CPU, GC, top spans."""
        if not self.samples:
            return {"samples": 0}
        first, last = self.samples[0], self.samples[-1]
        top_spans = sorted(
            self._span_counts().items(), key=lambda item: (-item[1], item[0])
        )
        return {
            "samples": len(self.samples),
            "duration_seconds": last.elapsed - first.elapsed,
            "rss_peak_bytes": max(s.rss_bytes for s in self.samples),
            "cpu_seconds": max(0.0, last.cpu_seconds - first.cpu_seconds),
            "gc_collections": max(0, last.gc_collections - first.gc_collections),
            "span_samples": dict(top_spans),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResourceProfiler(interval={self.interval}, "
            f"samples={len(self.samples)})"
        )
