"""A wall-clock watchdog around any selector, with graceful degradation.

The exact DP of Eq. 11–12 is :math:`O(m^2 2^m)` in the worst case; the
label-setting pruning makes the *paper's* instances fast, but a
pathological geometry (dense, high-reward, huge travel budget) can still
blow up — and one such user instance would hang an entire 100-repetition
campaign.  :class:`TimeBoundedSelector` bounds every ``select`` call by
a wall-clock deadline and degrades to the paper's own greedy solver on
breach, so a campaign slows down instead of hanging, and the degradation
is *recorded* (per round, in
:attr:`~repro.simulation.events.RoundRecord.selector_fallbacks`) so
experiments can report how often exactness was sacrificed.

The inner call runs on a daemon worker thread; on timeout the worker is
abandoned (Python cannot preempt it) and its eventual result discarded.
That costs one stranded thread per breach — acceptable for the rare
pathological instance this guards against, and the only portable way to
bound arbitrary selector code.

Deadlines stay per instance by design — one slow user degrades alone —
so the watchdog answers a problem block row by row (the default
:meth:`~repro.selection.base.Selector.select_block`; it has no
``select_chunk`` of its own, so the engine hands it one block per call),
never through the inner selector's block or chunk kernel.
"""

from __future__ import annotations

import threading
from typing import Optional, Union

from repro.obs.log import get_logger
from repro.resilience.errors import ConfigError, SelectorTimeout
from repro.selection.base import Selection, Selector
from repro.selection.greedy import GreedySelector
from repro.selection.problem import TaskSelectionProblem

log = get_logger("selection.watchdog")

#: Sentinel distinguishing "use the default greedy fallback" from
#: "no fallback — raise" (which callers request with ``fallback=None``).
_DEFAULT_FALLBACK = object()


class TimeBoundedSelector(Selector):
    """Enforce a wall-clock deadline on an inner selector's ``select``.

    On breach (or, optionally, on an inner crash) the fallback solver
    answers instead and the degradation is counted; with
    ``fallback=None`` the breach raises
    :class:`~repro.resilience.errors.SelectorTimeout` and an inner crash
    propagates.

    Args:
        inner: the guarded selector — an instance, or a registry name
            resolved via :data:`~repro.selection.registry.SELECTORS`.
        timeout: wall-clock deadline per ``select`` call, in seconds.
        fallback: the degradation solver (default: the paper's greedy);
            ``None`` disables degradation and turns breaches into errors.
        catch_errors: also degrade when the inner selector *raises*
            (ignored when ``fallback`` is None).

    Determinism note: the wrapped pipeline stays deterministic as long
    as no deadline is breached; a breach makes the outcome depend on
    machine speed, which is precisely why it is surfaced in the round
    records rather than hidden.
    """

    name = "time-bounded"

    def __init__(
        self,
        inner: Union[Selector, str] = "dp",
        timeout: float = 1.0,
        fallback=_DEFAULT_FALLBACK,
        catch_errors: bool = True,
    ):
        if isinstance(inner, str):
            from repro.selection.registry import SELECTORS

            inner = SELECTORS.create(inner)
        if timeout <= 0:
            raise ConfigError(
                f"selector timeout must be positive seconds, got {timeout}"
            )
        self.inner = inner
        self.timeout = float(timeout)
        self.fallback: Optional[Selector] = (
            GreedySelector() if fallback is _DEFAULT_FALLBACK else fallback
        )
        self.catch_errors = catch_errors
        #: degradations since construction (timeouts + caught crashes)
        self.total_fallbacks = 0
        #: timeouts specifically (subset of total_fallbacks)
        self.total_timeouts = 0
        self._round_fallbacks = 0

    # -- Selector interface ---------------------------------------------

    def select(self, problem: TaskSelectionProblem) -> Selection:
        outcome: dict = {}

        def work() -> None:
            try:
                outcome["result"] = self.inner.select(problem)
            except BaseException as exc:  # noqa: BLE001 - relayed below
                outcome["error"] = exc

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        worker.join(self.timeout)

        if worker.is_alive():
            self.total_timeouts += 1
            if self.fallback is None:
                raise SelectorTimeout(
                    f"{type(self.inner).__name__} exceeded its "
                    f"{self.timeout:g}s deadline on a {problem.size}-task "
                    f"instance and no fallback is configured"
                )
            log.warning(
                "selector deadline breached; degrading to fallback solver",
                extra={
                    "selector": type(self.inner).__name__,
                    "fallback": type(self.fallback).__name__,
                    "timeout_s": self.timeout,
                    "problem_size": problem.size,
                    "total_timeouts": self.total_timeouts,
                },
            )
            return self._degrade(problem)
        if "error" in outcome:
            if self.fallback is None or not self.catch_errors:
                raise outcome["error"]
            log.warning(
                "selector crashed; degrading to fallback solver",
                extra={
                    "selector": type(self.inner).__name__,
                    "fallback": type(self.fallback).__name__,
                    "problem_size": problem.size,
                    "error": repr(outcome["error"]),
                },
            )
            return self._degrade(problem)
        return outcome["result"]

    def _degrade(self, problem: TaskSelectionProblem) -> Selection:
        self.total_fallbacks += 1
        self._round_fallbacks += 1
        return self.fallback.select(problem)

    # -- engine hook -----------------------------------------------------

    def consume_round_fallbacks(self) -> int:
        """Degradations since the last call (the engine drains this once
        per round into the :class:`RoundRecord`)."""
        count = self._round_fallbacks
        self._round_fallbacks = 0
        return count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TimeBoundedSelector(inner={self.inner!r}, "
            f"timeout={self.timeout}, fallback={self.fallback!r})"
        )
