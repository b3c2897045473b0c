"""Bench-side tracing: spans around the public entry points of each layer.

The engine already emits run → round → phase spans (``round``,
``price-publish``, ``select``, ``upload``) into any tracer passed through
its public ``tracer=`` argument.  A :class:`Probe` adds the bench's own
spans by wrapping entry points on the *built instances* — never on
classes and never inside ``src/`` — and keeps every span in memory until
the run ends:

- ``engine.step``, ``mechanism.rewards``, ``timeline.advance``,
  ``session.step`` and ``session.observe`` each get a span per call;
- ``mobility.next_position`` runs once per user per round, so it is
  timed into a per-round total instead, and ``selector.select`` time is
  read from the engine's own ``RoundRecord.perf``.  Both are recorded as
  one aggregate child span of their phase (cat ``aggregate``), which is
  what lets phase self time split into "assemble vs solve" and "accept
  vs move".

Layer values are self times (a span minus its children), summed over the
traced operations and reported per operation.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.obs.trace import SpanRecord, SpanTracer

from stats import self_times

_MISSING = object()

#: The per-layer metrics and their units; values are per operation.
LAYER_METRICS: Dict[str, str] = {
    "simulation.price_publish_ms": "ms",
    "core.mechanisms.rewards_ms": "ms",
    "simulation.assemble_ms": "ms",
    "selection.select_ms": "ms",
    "simulation.accept_ms": "ms",
    "world.mobility.next_position_ms": "ms",
    "simulation.bookkeeping_ms": "ms",
    "dynamics.advance_ms": "ms",
    "api.shell_ms": "ms",
    "selection.calls": "count",
    "selection.call_us_mean": "us",
    "selection.dp_states": "count",
    "simulation.problems": "count",
    "simulation.empty_problem_ratio": "ratio",
    "simulation.accept_ratio": "ratio",
    "world.mobility.movers_ratio": "ratio",
    "core.mechanisms.rewards_calls": "count",
    "dynamics.events": "count",
}

#: Span self times each time metric sums (see README "Per-layer metrics").
_LAYER_SPANS = {
    "simulation.price_publish_ms": ("price-publish",),
    "core.mechanisms.rewards_ms": ("mechanism.rewards",),
    "simulation.assemble_ms": ("select",),
    "selection.select_ms": ("selector.select",),
    "simulation.accept_ms": ("upload",),
    "world.mobility.next_position_ms": ("mobility.next_position",),
    "simulation.bookkeeping_ms": ("engine.step", "round"),
    "dynamics.advance_ms": ("timeline.advance",),
}


class BenchTracer(SpanTracer):
    """A :class:`SpanTracer` that keeps per-user ``select-user`` spans off.

    The engine gates those spans on ``enabled``.  Per-user selector time
    is read from ``RoundRecord.perf`` instead, which the engine measures
    either way, so tracing a 50k-user round records a dozen spans, not
    50k.
    """

    enabled = False


class Probe:
    """Collects spans and counts for the traced operations of one run."""

    def __init__(self) -> None:
        self.tracer = BenchTracer()
        self.ops = 0
        self.op_seconds = 0.0
        self.step_seconds = 0.0
        self.self_seconds: Dict[str, float] = {}
        self.span_counts: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        #: Arithmetic layers that are not spans (server timestamps), in
        #: summed seconds.
        self.extra_seconds: Dict[str, float] = {}
        self._mobility = [0.0, 0, 0]  # seconds, calls, movers this round

    # -- spans -----------------------------------------------------------

    def span(self, name: str, **args):
        return self.tracer.span(name, cat="bench", **args)

    def mark(self) -> int:
        """A position in the span list; :meth:`fold` consumes from it."""
        return len(self.tracer.spans)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def attach(self, engine, session=None) -> Callable[[], None]:
        """Trace ``engine`` (and ``session``); returns the undo callable.

        Wrappers are instance attributes, so undoing restores the class
        methods and the engine's own tracer exactly.
        """
        patched: List = []

        def patch(obj, attr, value) -> None:
            patched.append((obj, attr, obj.__dict__.get(attr, _MISSING)))
            setattr(obj, attr, value)

        patch(engine, "tracer", self.tracer)
        patch(engine, "step", self._traced_step(engine.step))
        patch(engine.mechanism, "rewards",
              self._spanned("mechanism.rewards", engine.mechanism.rewards,
                            counter="core.mechanisms.rewards_calls"))
        patch(engine.mobility, "next_position",
              self._timed_mobility(engine.mobility.next_position))
        if engine.timeline is not None:
            patch(engine.timeline, "advance", self._traced_advance(
                engine.timeline.advance))
        if session is not None:
            patch(session, "step", self._spanned("session.step", session.step))
            patch(session, "observe",
                  self._spanned("session.observe", session.observe))

        def undo() -> None:
            for obj, attr, old in reversed(patched):
                if old is _MISSING:
                    delattr(obj, attr)
                else:
                    setattr(obj, attr, old)
            patched.clear()

        return undo

    def _spanned(self, name: str, fn, counter: Optional[str] = None):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            if counter is not None:
                self.count(counter)
            with tracer.span(name, cat="bench"):
                return fn(*args, **kwargs)

        return wrapper

    def _traced_advance(self, advance):
        tracer = self.tracer

        def wrapper(round_no, engine):
            with tracer.span("timeline.advance", cat="bench", round=round_no):
                events = advance(round_no, engine)
            self.count("dynamics.events", len(events))
            return events

        return wrapper

    def _timed_mobility(self, next_position):
        acc = self._mobility

        def wrapper(user, path, region, rng):
            started = perf_counter()
            new = next_position(user, path, region, rng)
            acc[0] += perf_counter() - started
            acc[1] += 1
            if new is not user.location:
                acc[2] += 1
            return new

        return wrapper

    def _traced_step(self, step):
        tracer = self.tracer

        def wrapper():
            with tracer.span("engine.step", cat="bench"):
                record = step()
            self._annotate(record)
            return record

        return wrapper

    def _annotate(self, record) -> None:
        """Add the round's aggregate selector and mobility spans."""
        phases = {}
        for span in reversed(self.tracer.spans):
            if span.name in ("select", "upload") and span.name not in phases:
                phases[span.name] = span
                if len(phases) == 2:
                    break
        perf = record.perf
        seconds, calls, movers = self._mobility
        self._mobility[:] = [0.0, 0, 0]
        select, upload = phases["select"], phases["upload"]
        self.tracer.spans.append(SpanRecord(
            name="selector.select", cat="aggregate", start=select.start,
            duration=perf.selector_wall_time, depth=select.depth + 1,
            args={"calls": perf.selector_calls,
                  "dp_states": perf.dp_states_expanded},
        ))
        self.tracer.spans.append(SpanRecord(
            name="mobility.next_position", cat="aggregate",
            start=upload.start, duration=seconds, depth=upload.depth + 1,
            args={"calls": calls, "movers": movers},
        ))
        self.count("selection.calls", perf.selector_calls)
        self.count("selection.dp_states", perf.dp_states_expanded)
        self.count("simulation.problems", perf.problem_cache_hits)
        self.count("simulation.accepted", len(record.measurements))
        self.count("simulation.rejected", len(record.rejections))
        self.count("world.mobility.calls", calls)
        self.count("world.mobility.movers", movers)

    # -- accounting ------------------------------------------------------

    def fold(self, mark: int) -> None:
        """Add the self times of every span recorded since ``mark``."""
        spans = [(s.name, s.start, s.duration) for s in self.tracer.spans[mark:]]
        for name, (spent, count) in self_times(spans).items():
            self.self_seconds[name] = self.self_seconds.get(name, 0.0) + spent
            self.span_counts[name] = self.span_counts.get(name, 0) + count
        self.step_seconds += sum(d for n, _, d in spans if n == "engine.step")

    def add_op(self, seconds: float) -> None:
        """Count one traced operation of ``seconds`` end-to-end latency."""
        self.ops += 1
        self.op_seconds += seconds

    def add_extra(self, name: str, seconds: float) -> None:
        self.extra_seconds[name] = self.extra_seconds.get(name, 0.0) + seconds

    def summary(self) -> Dict:
        """Per-operation layer table plus the derived per-layer metrics."""
        ops = max(self.ops, 1)
        op_ms = self.op_seconds / ops * 1e3
        layers = {
            name: {
                "self_ms": spent / ops * 1e3,
                "spans_per_op": self.span_counts[name] / ops,
                "share": spent / self.op_seconds if self.op_seconds else 0.0,
            }
            for name, spent in sorted(
                self.self_seconds.items(), key=lambda item: -item[1]
            )
        }
        counts = self.counts
        metrics = {
            name: sum(self.self_seconds.get(s, 0.0) for s in spans) / ops * 1e3
            for name, spans in _LAYER_SPANS.items()
        }
        metrics["api.shell_ms"] = (self.op_seconds - self.step_seconds) / ops * 1e3
        calls = counts.get("selection.calls", 0)
        problems = counts.get("simulation.problems", 0)
        accepted = counts.get("simulation.accepted", 0)
        uploads = accepted + counts.get("simulation.rejected", 0)
        moves = counts.get("world.mobility.calls", 0)
        metrics.update({
            "selection.calls": calls / ops,
            "selection.call_us_mean": (
                self.self_seconds.get("selector.select", 0.0) / calls * 1e6
                if calls else 0.0
            ),
            "selection.dp_states": counts.get("selection.dp_states", 0) / ops,
            "simulation.problems": problems / ops,
            "simulation.empty_problem_ratio": (
                (problems - calls) / problems if problems else 0.0
            ),
            "simulation.accept_ratio": accepted / uploads if uploads else 0.0,
            "world.mobility.movers_ratio": (
                counts.get("world.mobility.movers", 0) / moves if moves else 0.0
            ),
            "core.mechanisms.rewards_calls": (
                counts.get("core.mechanisms.rewards_calls", 0) / ops
            ),
            "dynamics.events": counts.get("dynamics.events", 0) / ops,
        })
        return {
            "ops": self.ops,
            "op_ms": op_ms,
            "layers": layers,
            "extra": {
                name: {
                    "ms": spent / ops * 1e3,
                    "share": spent / self.op_seconds if self.op_seconds else 0.0,
                }
                for name, spent in sorted(self.extra_seconds.items())
            },
            "metrics": metrics,
            "units": LAYER_METRICS,
        }
