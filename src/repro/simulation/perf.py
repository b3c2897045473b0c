"""Lightweight performance counters for the round loop.

One :class:`PerfStats` is attached to every
:class:`~repro.simulation.events.RoundRecord` (field ``perf``) so a run
carries its own execution profile: how much shared per-round work the
problem cache saved, how many DP states the selector expanded, and how
much wall time selection cost.  The counters are observability, not
physics — they never influence the simulation, and serializers may drop
them (old event logs load with ``perf=None``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional


@dataclass
class PerfStats:
    """Execution counters for one round (or, merged, for a whole run).

    Args:
        problem_cache_hits: per-user Eq. 1 instances served by slicing
            the shared per-round matrices (reward vector, task-to-task
            distance block) instead of rebuilding them from geometry.
        problem_cache_misses: shared per-round constructions performed
            (one per round in the WST mode; 0 when a coordinator runs).
        price_cache_hits: repeated price-map requests for the same round
            answered from the engine's cache instead of re-running the
            mechanism (and its grid-index neighbour counting).
        dp_states_expanded: ``(mask, last)`` DP states scored by the
            exact selector this round (0 for non-DP selectors).
        selector_calls: Eq. 1 instances solved this round — one per
            user with a candidate (the rows of the chunks and blocks
            solved, not the ``select_chunk`` / ``select_block`` calls).
        selector_wall_time: wall-clock seconds spent inside the
            selector (``select`` / ``select_block`` /
            ``select_chunk``) this round.
    """

    problem_cache_hits: int = 0
    problem_cache_misses: int = 0
    price_cache_hits: int = 0
    dp_states_expanded: int = 0
    selector_calls: int = 0
    selector_wall_time: float = 0.0

    def add(self, other: "PerfStats") -> "PerfStats":
        """Accumulate ``other`` into this instance (returns self)."""
        self.problem_cache_hits += other.problem_cache_hits
        self.problem_cache_misses += other.problem_cache_misses
        self.price_cache_hits += other.price_cache_hits
        self.dp_states_expanded += other.dp_states_expanded
        self.selector_calls += other.selector_calls
        self.selector_wall_time += other.selector_wall_time
        return self

    @classmethod
    def merged(cls, parts: Iterable[Optional["PerfStats"]]) -> "PerfStats":
        """Sum of all non-None stats (e.g. over a run's rounds)."""
        total = cls()
        for part in parts:
            if part is not None:
                total.add(part)
        return total

    @property
    def cache_hit_rate(self) -> float:
        """Problem-cache hits / (hits + misses), 0.0 when idle."""
        attempts = self.problem_cache_hits + self.problem_cache_misses
        return self.problem_cache_hits / attempts if attempts else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready mapping (used by the event-log serializer)."""
        return {
            "problem_cache_hits": self.problem_cache_hits,
            "problem_cache_misses": self.problem_cache_misses,
            "price_cache_hits": self.price_cache_hits,
            "dp_states_expanded": self.dp_states_expanded,
            "selector_calls": self.selector_calls,
            "selector_wall_time": self.selector_wall_time,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PerfStats":
        """Inverse of :meth:`as_dict`; unknown keys are ignored."""
        return cls(
            problem_cache_hits=int(payload.get("problem_cache_hits", 0)),
            problem_cache_misses=int(payload.get("problem_cache_misses", 0)),
            price_cache_hits=int(payload.get("price_cache_hits", 0)),
            dp_states_expanded=int(payload.get("dp_states_expanded", 0)),
            selector_calls=int(payload.get("selector_calls", 0)),
            selector_wall_time=float(payload.get("selector_wall_time", 0.0)),
        )
