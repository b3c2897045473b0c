"""A metrics registry: counters, gauges, and histograms with label sets.

The registry generalises :class:`~repro.simulation.perf.PerfStats` (a
fixed bundle of six counters) into an open instrument set, so new series
— measurements accepted/rejected, payout per round, demand-level
distribution, budget remaining — cost one line at the emit site instead
of a schema change.  :meth:`MetricsRegistry.record_perf` maps the legacy
bundle onto registry series, so both views agree by construction.

Design constraints, in order:

1. **Determinism.**  Instruments hold plain numbers; merging two
   registries is arithmetic, and merging a sequence of them in a fixed
   order is bit-identical regardless of the order the parts *arrived*
   in (how the parallel runner makes worker metrics reproducible).
2. **Serialisable.**  ``as_dict`` / ``from_dict`` round-trip through
   JSON so per-round snapshots ride the events-JSONL files and worker
   processes can ship their registries home by pickle or JSON alike.
3. **Cheap.**  An emit is a dict lookup plus a float add; histograms
   bisect a short bounds tuple.  Nothing locks — the engine is
   single-threaded and cross-process aggregation happens by merge.

Series are identified by name plus a (sorted) label set, rendered
Prometheus-style: ``measurements_total{outcome=accepted}``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard: obs is a leaf
    from repro.simulation.perf import PerfStats

#: Default histogram bounds for sub-second wall times (seconds).
TIME_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: A label set in canonical form: sorted (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _canonical_labels(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def series_key(name: str, labels: Mapping[str, Any]) -> str:
    """The Prometheus-style series name: ``name{k=v,...}`` (sorted keys).

    >>> series_key("hits", {"cache": "problem"})
    'hits{cache=problem}'
    """
    canonical = _canonical_labels(labels)
    if not canonical:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in canonical)
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing sum (events, dollars, rejections)."""

    kind = "counter"

    def __init__(self, value: float = 0.0):
        self.value = value

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got increment {amount}")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> Dict[str, Any]:
        return {"value": self.value}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Counter":
        return cls(value=payload["value"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.value})"


class Gauge:
    """A point-in-time value (budget remaining, active tasks)."""

    kind = "gauge"

    def __init__(self, value: float = 0.0):
        self.value = value

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def merge(self, other: "Gauge") -> None:
        # Last write wins: ``other`` is the later snapshot.  Merge order
        # is the caller's contract (the runner merges in repetition
        # order), which is what keeps aggregation deterministic.
        self.value = other.value

    def as_dict(self) -> Dict[str, Any]:
        return {"value": self.value}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Gauge":
        return cls(value=payload["value"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.value})"


class Histogram:
    """A distribution: bucket counts over fixed bounds, plus sum/min/max.

    Args:
        bounds: ascending upper bounds (inclusive, ``le`` semantics);
            one overflow bucket past the last bound is implicit.
    """

    kind = "histogram"

    def __init__(self, bounds: Iterable[float] = TIME_BUCKETS):
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"bucket bounds must ascend, got {self.bounds}")
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Union[int, float]) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """The q-th percentile estimated by linear bucket interpolation.

        Within the bucket containing the target rank, observations are
        assumed uniform between the bucket's edges (Prometheus
        ``histogram_quantile`` semantics).  The first bucket's lower edge
        is the recorded ``min``; the overflow bucket's upper edge is the
        recorded ``max`` — so estimates are always clamped inside the
        observed range, and an exact-at-the-edges answer for q=0/q=100.

        Returns None for an empty histogram.

        Raises:
            ValueError: for q outside [0, 100].
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return None
        target = (q / 100.0) * self.count
        cumulative = 0.0
        value: Optional[float] = None
        for index, bucket_count in enumerate(self.bucket_counts):
            if bucket_count and cumulative + bucket_count >= target:
                if index == 0:
                    low = self.min if self.min is not None else 0.0
                    high = self.bounds[0]
                elif index == len(self.bounds):
                    low = self.bounds[-1]
                    high = self.max if self.max is not None else low
                else:
                    low = self.bounds[index - 1]
                    high = self.bounds[index]
                fraction = (target - cumulative) / bucket_count
                value = low + (high - low) * fraction
                break
            cumulative += bucket_count
        if value is None:  # q == 100 with floating-point shortfall
            value = self.max if self.max is not None else 0.0
        if self.min is not None:
            value = max(value, self.min)
        if self.max is not None:
            value = min(value, self.max)
        return value

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        self.bucket_counts = [
            a + b for a, b in zip(self.bucket_counts, other.bucket_counts)
        ]
        self.count += other.count
        self.sum += other.sum
        for candidate in (other.min,):
            if candidate is not None and (self.min is None or candidate < self.min):
                self.min = candidate
        for candidate in (other.max,):
            if candidate is not None and (self.max is None or candidate > self.max):
                self.max = candidate

    def as_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Histogram":
        histogram = cls(bounds=payload["bounds"])
        histogram.bucket_counts = [int(c) for c in payload["bucket_counts"]]
        histogram.count = int(payload["count"])
        histogram.sum = float(payload["sum"])
        histogram.min = payload.get("min")
        histogram.max = payload.get("max")
        return histogram

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram(count={self.count}, sum={self.sum:g})"


_INSTRUMENT_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A process- or scope-wide collection of named instruments.

    Instruments are created on first use (``registry.counter("x")``)
    and subsequent calls with the same name + labels return the same
    object; asking for an existing name as a different instrument kind
    raises, because silently forking a series corrupts dashboards.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], Instrument] = {}

    # -- instrument accessors -------------------------------------------

    def _get(self, kind: str, name: str, labels: Mapping[str, Any], factory):
        key = (name, _canonical_labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        elif instrument.kind != kind:
            raise ValueError(
                f"metric {series_key(name, labels)!r} already registered "
                f"as a {instrument.kind}, not a {kind}"
            )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        bounds: Optional[Iterable[float]] = None,
        **labels: Any,
    ) -> Histogram:
        factory = (
            Histogram if bounds is None else (lambda: Histogram(bounds=bounds))
        )
        return self._get("histogram", name, labels, factory)

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._instruments)

    def __bool__(self) -> bool:
        # An empty registry is falsy so serializers can skip it cheaply.
        return bool(self._instruments)

    def series(self) -> Dict[str, Instrument]:
        """All instruments keyed by their rendered series name, sorted."""
        return {
            series_key(name, dict(labels)): instrument
            for (name, labels), instrument in sorted(self._instruments.items())
        }

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """A counter/gauge value (None if the series does not exist)."""
        instrument = self._instruments.get((name, _canonical_labels(labels)))
        return getattr(instrument, "value", None)

    # -- PerfStats bridge ------------------------------------------------

    def record_perf(self, perf: "PerfStats") -> None:
        """Absorb one legacy :class:`PerfStats` bundle into the registry.

        The mapping (also documented in docs/architecture.md): the five
        integer counters become counters of the same name; the wall-time
        total lands in the ``selector_seconds_total`` counter.  Per-call
        latency *distribution* comes from the engine observing
        ``selector_seconds`` directly — PerfStats only carries the sum.

        ``selector_seconds`` holds one value per selector call — the
        greedy's or the exact DP's ``select_chunk`` call on a whole
        assembly chunk, or a ``select_block`` call on one block of
        equal-size instances — while ``selector_calls`` counts the
        instances solved, so it is not the histogram's count.
        """
        self.counter("problem_cache_hits").inc(perf.problem_cache_hits)
        self.counter("problem_cache_misses").inc(perf.problem_cache_misses)
        self.counter("price_cache_hits").inc(perf.price_cache_hits)
        self.counter("dp_states_expanded").inc(perf.dp_states_expanded)
        self.counter("selector_calls").inc(perf.selector_calls)
        self.counter("selector_seconds_total").inc(perf.selector_wall_time)

    # -- merge / serialisation ------------------------------------------

    def merge(self, other: Optional["MetricsRegistry"]) -> "MetricsRegistry":
        """Fold ``other`` into this registry (returns self; None is a no-op).

        Counters and histograms add (commutative); gauges take the
        incoming value, so merge order is the caller's statement of
        which snapshot is "later".  Merging parts in a fixed canonical
        order (e.g. repetition order) therefore yields bit-identical
        totals no matter when each part was produced.
        """
        if other is None:
            return self
        for (name, labels), theirs in other._instruments.items():
            mine = self._instruments.get((name, labels))
            if mine is None:
                # Fresh copy so later merges never alias the source.
                mine = type(theirs).from_dict(theirs.as_dict())
                self._instruments[(name, labels)] = mine
            elif mine.kind != theirs.kind:
                raise ValueError(
                    f"metric {series_key(name, dict(labels))!r} is a "
                    f"{mine.kind} here but a {theirs.kind} in the merged part"
                )
            else:
                mine.merge(theirs)
        return self

    @classmethod
    def merged(
        cls, parts: Iterable[Optional["MetricsRegistry"]]
    ) -> "MetricsRegistry":
        """A new registry folding ``parts`` in iteration order."""
        total = cls()
        for part in parts:
            total.merge(part)
        return total

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot: ``{series: {kind, ...instrument state}}``."""
        return {
            key: {"kind": instrument.kind, **instrument.as_dict()}
            for key, instrument in self.series().items()
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricsRegistry":
        """Inverse of :meth:`as_dict`.

        Raises:
            ValueError: for an unknown instrument kind or a malformed
                series key.
        """
        registry = cls()
        for key, state in payload.items():
            kind = state.get("kind")
            if kind not in _INSTRUMENT_TYPES:
                raise ValueError(f"unknown instrument kind {kind!r} for {key!r}")
            name, labels = _parse_series_key(key)
            body = {k: v for k, v in state.items() if k != "kind"}
            registry._instruments[(name, labels)] = (
                _INSTRUMENT_TYPES[kind].from_dict(body)
            )
        return registry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MetricsRegistry({len(self._instruments)} series)"


def _parse_series_key(key: str) -> Tuple[str, LabelKey]:
    """Inverse of :func:`series_key` (labels come back as strings)."""
    if "{" not in key:
        return key, ()
    if not key.endswith("}"):
        raise ValueError(f"malformed series key {key!r}")
    name, _, rendered = key[:-1].partition("{")
    labels = []
    for part in rendered.split(","):
        label, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed label {part!r} in series key {key!r}")
        labels.append((label, value))
    return name, tuple(sorted(labels))


#: The process-wide default registry, for callers without a scoped one.
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry (the engine uses per-run scopes instead)."""
    return _GLOBAL
