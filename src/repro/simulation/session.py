"""Stepwise simulation sessions: drive the round kernel interactively.

:func:`repro.api.simulate` plays a run to completion; a
:class:`SimulationSession` opens the *same* engine and hands control of
the round loop to the caller::

    with open_session(scenario="paper-2018") as session:
        while not session.finished:
            obs = session.observe()          # read-only round snapshot
            session.step()                   # play exactly one round
        result = session.result()

Stepping with no actions replays :meth:`SimulationEngine.run_rounds`
verbatim — the histories are bit-identical to ``simulate()`` (the
session tests pin this at :class:`RoundRecord` level on every preset
through ``city-2k``).  Passing an *incentive action* to
:meth:`SimulationSession.step` mutates the mechanism's knobs (AHP
weights, the Eq. 7 ladder step :math:`\\lambda`, the level partition)
before the round is priced, which is the substrate the
:mod:`repro.envs` Gymnasium-style environment trains policies on.

The session is a thin orchestration shell: all simulation state lives in
the engine; the session adds the action boundary, read-only
observations, and lifecycle (``close()`` is idempotent and safe to call
mid-run; stepping a closed session raises).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.mechanisms.policy import IncentiveAction, apply_incentive_action
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import RoundObserver, make_engine
from repro.simulation.events import RoundRecord, SimulationResult


@dataclass(frozen=True)
class TaskSnapshot:
    """One task's public state at an observation boundary."""

    task_id: int
    deadline: int
    received: int
    required: int

    @property
    def progress(self) -> float:
        return min(1.0, self.received / self.required)


@dataclass(frozen=True)
class SessionObservation:
    """Read-only snapshot of the world between rounds.

    Everything a pricing policy may legitimately condition on — the
    platform's own view (Fig. 1): budget state, task progress, the
    prices and demand factors the mechanism *would* publish next round.
    Building one never advances the simulation and never consumes
    randomness; observing twice returns equal snapshots.
    """

    round_no: int
    rounds_total: int
    finished: bool
    n_users: int
    n_active_tasks: int
    n_published_tasks: int
    budget: float
    total_paid: float
    completeness: float
    published_rewards: Dict[int, float]
    demands: Dict[int, float]
    tasks: Tuple[TaskSnapshot, ...]

    @property
    def budget_remaining(self) -> float:
        return self.budget - self.total_paid


class SimulationSession:
    """An open, steppable simulation over the repro engine.

    Args:
        config: the full parameterisation.
        observers: round observers, exactly as :class:`SimulationEngine`
            takes them (e.g. the events-JSONL
            :class:`~repro.io.events.RoundStreamWriter`).
        tracer: optional span tracer, forwarded to the engine.
        cancel: optional cancellation token, forwarded to the engine.

    The session owns its engine: :meth:`close` ends it (stepping
    afterwards raises) and is idempotent; the class is also a context
    manager.
    """

    def __init__(
        self,
        config: SimulationConfig,
        *,
        observers: Sequence[RoundObserver] = (),
        tracer=None,
        cancel=None,
    ):
        kwargs = {"observers": observers}
        if tracer is not None:
            kwargs["tracer"] = tracer
        if cancel is not None:
            kwargs["cancel"] = cancel
        self.engine = make_engine(config, **kwargs)
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def config(self) -> SimulationConfig:
        return self.engine.config

    @property
    def finished(self) -> bool:
        """Whether the underlying simulation has no rounds left."""
        return self.engine.finished

    @property
    def current_round(self) -> int:
        """The 1-based round :meth:`step` would play next."""
        return self.engine.current_round

    def close(self) -> None:
        """End the session (idempotent, safe mid-run); stepping
        afterwards raises."""
        self._closed = True

    def __enter__(self) -> "SimulationSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    # -- observe / step / result ----------------------------------------

    def observe(self) -> SessionObservation:
        """Snapshot the world as the next round's pricing would see it.

        Pure read: repeated calls return equal snapshots (the price map
        comes from the engine's per-round cache, so observing is not a
        second mechanism evaluation).  On a finished session the price
        and demand maps are empty — there is no next round to price.
        """
        self._require_open()
        engine = self.engine
        world = engine.world
        if engine.finished:
            prices: Dict[int, float] = {}
            demands: Dict[int, float] = {}
        else:
            prices = engine.published_rewards()
            raw = getattr(engine.mechanism, "last_demands", None)
            demands = dict(raw) if raw else {}
        tasks = world.tasks
        snapshots = tuple(map(
            TaskSnapshot, tasks.ids.tolist(), tasks.deadline.tolist(),
            tasks.received.tolist(), tasks.required.tolist(),
        ))
        return SessionObservation(
            round_no=engine.current_round,
            rounds_total=engine.config.rounds,
            finished=engine.finished,
            n_users=len(world.users),
            n_active_tasks=int(tasks.active.sum()),
            n_published_tasks=int(tasks.published(engine.current_round).sum()),
            budget=engine.config.budget,
            total_paid=engine.result.total_paid,
            completeness=(
                sum(t.progress for t in snapshots) / len(snapshots)
                if snapshots else 1.0
            ),
            published_rewards=prices,
            demands=demands,
            tasks=snapshots,
        )

    def step(self, action: IncentiveAction = None) -> RoundRecord:
        """Play exactly one round, optionally retuning the mechanism first.

        Args:
            action: an incentive action mapping (see
                :func:`~repro.core.mechanisms.policy.apply_incentive_action`)
                applied to the engine's mechanism *before* the round is
                priced, or None for a plain kernel step.  ``step(None)``
                in a loop is bit-identical to ``simulate()``.

        Returns:
            the finished round's :class:`RoundRecord`.

        Raises:
            RuntimeError: if the session is closed or already finished.
            ValueError: for a malformed action (nothing is stepped).
        """
        self._require_open()
        engine = self.engine
        if action:
            engine._ensure_mechanism()
            applied = apply_incentive_action(engine.mechanism, action)
            if applied:
                # observe() may already have priced the upcoming round;
                # the retuned mechanism must reprice it.
                engine._price_cache = None
                engine._problems_cache = None
        return engine.step()

    def run(
        self, actions: Optional[Iterable[IncentiveAction]] = None
    ) -> SimulationResult:
        """Play every remaining round.

        With ``actions=None`` this delegates straight to the engine's
        run-to-completion shell (tracer span and all) — exactly what
        ``simulate()`` does.  With an action iterable, each remaining
        round consumes one action (``None`` entries step plainly); the
        iterable may end early, after which rounds step unactioned.
        """
        self._require_open()
        if actions is None:
            return self.engine.run()
        iterator = iter(actions)
        while not self.finished:
            self.engine.cancel.raise_if_cancelled()
            self.step(next(iterator, None))
        return self.engine.result

    def result(self) -> SimulationResult:
        """The accumulated result (valid mid-run: rounds played so far)."""
        return self.engine.result


def open_session(
    config: SimulationConfig,
    *,
    observers: Sequence[RoundObserver] = (),
    tracer=None,
    cancel=None,
) -> SimulationSession:
    """Open a stepwise session over ``config``'s engine.

    The session-level counterpart of
    :func:`~repro.simulation.engine.simulate`: same engine, same
    observers, but the caller drives the round loop.  See
    :class:`SimulationSession`.
    """
    return SimulationSession(
        config,
        observers=observers,
        tracer=tracer,
        cancel=cancel,
    )
