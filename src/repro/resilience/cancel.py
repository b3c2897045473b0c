"""Cooperative cancellation: tokens an operation polls at safe points.

The service layer needs three ways to stop a running simulation — a
client cancel, a wall-clock deadline, and a cross-process kill switch —
and the engine needs exactly one thing to poll.  A
:class:`CancellationToken` is that one thing: ``cancelled`` says whether
to stop, ``reason`` says why, and :meth:`~CancellationToken.
raise_if_cancelled` turns the answer into a structured
:class:`~repro.resilience.errors.OperationCancelled` at the caller's own
check point.  Cancellation is *cooperative* by design: the operation
stops at a clean boundary (the engine checks between rounds and before
every selector call), so completed work — journal lines, streamed
round events — is never torn.

Flavours:

- :class:`FlagToken` — in-memory, flipped by :meth:`~FlagToken.cancel`
  (same-process cancellation, tests);
- :class:`DeadlineToken` — trips when a monotonic clock passes the
  deadline (per-job wall-clock timeouts; reason ``"timeout"``);
- :class:`FileToken` — trips when a flag file exists (how the server
  process reaches into a worker process: the supervisor touches the
  file, the worker's next poll sees it);
- :class:`CompositeToken` — first tripped member wins (a worker runs
  under file + deadline at once).

Polling a token is cheap (an attribute read, a clock read, or one
``stat``), and tokens never touch the simulation's random streams, so a
run that is *not* cancelled is bit-identical to one executed without a
token at all.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from repro.resilience.errors import OperationCancelled

#: The reason DeadlineToken reports; the job service maps it to TIMED_OUT.
TIMEOUT_REASON = "timeout"


class CancellationToken:
    """The polling interface (never cancelled; subclasses override).

    The base class doubles as the zero-cost default: an operation can
    hold one unconditionally and poll it without ``if token is not
    None`` guards.
    """

    @property
    def cancelled(self) -> bool:
        return False

    @property
    def reason(self) -> str:
        return "cancelled"

    def raise_if_cancelled(self) -> None:
        """Raise :class:`OperationCancelled` when the token has tripped."""
        if self.cancelled:
            raise OperationCancelled(
                f"operation cancelled ({self.reason})", reason=self.reason
            )


#: A shared never-cancelled token (stateless, safe to share everywhere).
NEVER_CANCELLED = CancellationToken()


class FlagToken(CancellationToken):
    """In-memory cancellation, flipped once by :meth:`cancel`.

    >>> token = FlagToken()
    >>> token.cancelled
    False
    >>> token.cancel("shutting down")
    >>> token.cancelled, token.reason
    (True, 'shutting down')
    """

    def __init__(self) -> None:
        self._cancelled = False
        self._reason = "cancelled"

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def reason(self) -> str:
        return self._reason

    def cancel(self, reason: str = "cancelled") -> None:
        """Trip the token (idempotent; the first reason sticks)."""
        if not self._cancelled:
            self._cancelled = True
            self._reason = reason


class DeadlineToken(CancellationToken):
    """Trips once ``seconds`` of monotonic time have elapsed.

    Args:
        seconds: the wall-clock budget (must be positive).
        clock: injectable monotonic clock for tests.
    """

    def __init__(
        self, seconds: float, clock: Callable[[], float] = time.monotonic
    ):
        if seconds <= 0:
            raise ValueError(f"deadline must be positive seconds, got {seconds}")
        self._clock = clock
        self._deadline = clock() + seconds
        self._budget = seconds

    @property
    def cancelled(self) -> bool:
        return self._clock() >= self._deadline

    @property
    def reason(self) -> str:
        return TIMEOUT_REASON

    @property
    def remaining(self) -> float:
        """Seconds left before the token trips (never negative)."""
        return max(0.0, self._deadline - self._clock())

    def raise_if_cancelled(self) -> None:
        if self.cancelled:
            raise OperationCancelled(
                f"deadline of {self._budget:g}s exceeded", reason=self.reason
            )


class FileToken(CancellationToken):
    """Trips when a flag file exists (cross-process cancellation).

    The file's first line, when readable, becomes the reason — the
    supervisor writes ``"timeout"`` or ``"cancelled by client"`` so the
    worker exits with the right terminal state.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    @property
    def cancelled(self) -> bool:
        return self.path.exists()

    @property
    def reason(self) -> str:
        try:
            first_line = self.path.read_text().splitlines()
            return first_line[0].strip() if first_line else "cancelled"
        except OSError:
            return "cancelled"

    def trip(self, reason: str = "cancelled") -> None:
        """Create the flag file (the *other* process's cancel switch)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(reason + "\n")


class CompositeToken(CancellationToken):
    """Cancelled as soon as any member token is; first tripped wins."""

    def __init__(self, tokens: Sequence[CancellationToken]):
        self.tokens = tuple(tokens)

    @property
    def cancelled(self) -> bool:
        return any(token.cancelled for token in self.tokens)

    @property
    def reason(self) -> str:
        for token in self.tokens:
            if token.cancelled:
                return token.reason
        return "cancelled"

    def raise_if_cancelled(self) -> None:
        for token in self.tokens:
            token.raise_if_cancelled()


def maybe_deadline(seconds: Optional[float]) -> CancellationToken:
    """A :class:`DeadlineToken`, or the free never-cancelled token."""
    if seconds is None:
        return NEVER_CANCELLED
    return DeadlineToken(seconds)
