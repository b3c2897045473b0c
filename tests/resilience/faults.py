"""Deterministic fault injection for resilience testing.

Every injector consumes a :class:`FaultPlan` — a seeded (or explicitly
scripted) schedule of fail/pass decisions — so a fault scenario is
exactly reproducible: the same plan makes the same call fail on every
run.  The injectors mirror the real failure modes the resilience layer
recovers from:

- :class:`FaultySelector` — a selector that raises or stalls mid-round
  (exercises the :class:`~repro.selection.watchdog.TimeBoundedSelector`
  degradation path);
- :class:`FaultyMechanism` — a mechanism that omits task ids from its
  price map (exercises the engine's boundary validation);
- :class:`FlakyIO` — a filesystem operation that fails transiently
  (exercises :func:`~repro.resilience.retry.with_retries`);
- :class:`CrashingMetric` — a metric that kills the process-equivalent
  mid-campaign (exercises journal resume).

No library module runs these; they live beside the tests that drive
them.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional, Sequence, Set

import numpy as np

from repro.resilience.errors import ReproError, TransientIOError


class InjectedFault(ReproError):
    """The deliberate failure raised by fault injectors.

    A dedicated type so tests (and retry policies) can distinguish a
    drill from a real defect.
    """


class FaultPlan:
    """A deterministic schedule of fail/pass decisions.

    Two modes, mutually exclusive:

    - ``fail_calls``: an explicit set of 0-based call indices that fail
      (scripted faults — "the 8th write dies");
    - ``rate`` + ``seed``: each call fails with probability ``rate``,
      drawn from a dedicated seeded stream (randomised drills).

    Args:
        fail_calls: 0-based indices of calls that should fail.
        rate: per-call failure probability in [0, 1].
        seed: root seed for the rate mode (required when rate > 0).
        max_failures: stop injecting after this many failures (None =
            unlimited) — lets a drill guarantee eventual success.
    """

    def __init__(
        self,
        fail_calls: Iterable[int] = (),
        rate: float = 0.0,
        seed: Optional[int] = None,
        max_failures: Optional[int] = None,
    ):
        self.fail_calls: Set[int] = set(fail_calls)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        if self.fail_calls and rate > 0.0:
            raise ValueError("use either fail_calls or rate, not both")
        if rate > 0.0 and seed is None:
            raise ValueError("rate mode needs a seed for determinism")
        self.rate = rate
        self.max_failures = max_failures
        self.calls = 0
        self.failures = 0
        self._rng = (
            np.random.Generator(np.random.PCG64(seed)) if seed is not None else None
        )

    def next(self) -> bool:
        """Advance one call; True if this call should fail."""
        index = self.calls
        self.calls += 1
        if self.max_failures is not None and self.failures >= self.max_failures:
            return False
        if self.rate > 0.0:
            fail = bool(self._rng.random() < self.rate)
        else:
            fail = index in self.fail_calls
        if fail:
            self.failures += 1
        return fail


class FaultySelector:
    """A selector wrapper that raises or stalls on scheduled calls.

    Args:
        inner: the real selector answering non-faulted calls.
        plan: the fault schedule (one decision per ``select`` call).
        mode: ``"raise"`` (raise :class:`InjectedFault`) or ``"stall"``
            (sleep ``stall_seconds`` before answering — the pathological
            Eq. 11–12 instance, in miniature).
        stall_seconds: how long a stalled call sleeps.
    """

    name = "faulty"

    def __init__(self, inner, plan: FaultPlan, mode: str = "raise",
                 stall_seconds: float = 1.0):
        if mode not in ("raise", "stall"):
            raise ValueError(f"mode must be 'raise' or 'stall', got {mode!r}")
        self.inner = inner
        self.plan = plan
        self.mode = mode
        self.stall_seconds = stall_seconds

    def select(self, problem):
        if self.plan.next():
            if self.mode == "raise":
                raise InjectedFault(
                    f"injected selector failure on call {self.plan.calls - 1}"
                )
            time.sleep(self.stall_seconds)
        return self.inner.select(problem)


class FaultyMechanism:
    """A mechanism wrapper that omits task ids from scheduled price maps.

    Wraps any :class:`~repro.core.mechanisms.base.IncentiveMechanism`;
    on a faulted round it drops the ``drop_count`` highest task ids from
    the inner mechanism's (valid) price map, producing exactly the
    malformed output the engine's boundary validation must catch.
    """

    name = "faulty"

    def __init__(self, inner, plan: FaultPlan, drop_count: int = 1):
        if drop_count < 1:
            raise ValueError(f"drop_count must be >= 1, got {drop_count}")
        self.inner = inner
        self.plan = plan
        self.drop_count = drop_count

    def initialize(self, world, rng) -> None:
        self.inner.initialize(world, rng)

    def rewards(self, view):
        prices = self.inner.rewards(view)
        if self.plan.next() and prices:
            for task_id in sorted(prices, reverse=True)[: self.drop_count]:
                prices = {k: v for k, v in prices.items() if k != task_id}
        return prices


class FlakyIO:
    """A callable wrapper that fails scheduled calls with a transient error.

    Wrap any filesystem function (``os.replace``, ``Path.write_text``
    via monkeypatching) to drill the retry path::

        flaky = FlakyIO(os.replace, FaultPlan(fail_calls={0}))
        monkeypatch.setattr("repro.io.atomic.os.replace", flaky)
    """

    def __init__(
        self,
        real: Callable,
        plan: FaultPlan,
        exc_factory: Callable[[int], BaseException] = None,
    ):
        self.real = real
        self.plan = plan
        self.exc_factory = exc_factory or (
            lambda call: TransientIOError(f"injected IO failure on call {call}")
        )

    def __call__(self, *args, **kwargs):
        if self.plan.next():
            raise self.exc_factory(self.plan.calls - 1)
        return self.real(*args, **kwargs)


class CrashingMetric:
    """A metric wrapper that raises :class:`InjectedFault` on its Nth call.

    Interrupts a journaled campaign mid-run — the repetition being
    measured dies *before* it is checkpointed, exactly like a process
    crash between ``simulate`` and the journal append.

    Args:
        metric: the real metric function.
        crash_on_call: 1-based invocation index that crashes.
        crash_once: after the scheduled crash, later calls succeed
            (models the resumed process).
    """

    def __init__(self, metric: Callable, crash_on_call: int,
                 crash_once: bool = True):
        if crash_on_call < 1:
            raise ValueError(f"crash_on_call must be >= 1, got {crash_on_call}")
        self.metric = metric
        self.crash_on_call = crash_on_call
        self.crash_once = crash_once
        self.calls = 0
        self.crashed = 0

    def __call__(self, result):
        self.calls += 1
        if self.crash_once:
            due = self.crashed == 0 and self.calls == self.crash_on_call
        else:
            due = self.calls >= self.crash_on_call
        if due:
            self.crashed += 1
            raise InjectedFault(
                f"injected metric crash on call {self.calls}"
            )
        return self.metric(result)


def scripted_failures(*indices: int) -> FaultPlan:
    """Shorthand: a plan failing exactly the given 0-based call indices."""
    return FaultPlan(fail_calls=indices)


#: Sequence exported for docs/tests enumerating the drill arsenal.
INJECTORS: Sequence[type] = (
    FaultySelector,
    FaultyMechanism,
    FlakyIO,
    CrashingMetric,
)
