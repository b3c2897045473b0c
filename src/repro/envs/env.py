"""The Gymnasium-style incentive-policy environment.

One episode = one seeded simulation.  Each ``step`` retunes the
incentive mechanism's knobs (the action), plays exactly one sensing
round through a :class:`~repro.simulation.session.SimulationSession`,
and scores the transition.  The env is Gymnasium-*compatible*: with
``gymnasium`` installed it subclasses ``gymnasium.Env`` and passes
``check_env``; without it, it is a plain class with the identical
``reset()``/``step()``/``close()`` protocol and shim spaces
(:mod:`repro.envs.spaces`), so training and evaluation code runs on the
baked toolchain with no extra dependency.

Determinism: a reset with an explicit seed pins the episode's world,
mobility, and arrival randomness exactly as
:func:`~repro.api.simulate` would — the same seed and action sequence
replay the same rewards and the same
:func:`~repro.simulation.events.result_fingerprint`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.simulation.config import SimulationConfig
from repro.simulation.events import SimulationResult, result_fingerprint
from repro.simulation.session import SessionObservation, SimulationSession
from repro.envs.actions import ACTION_ADAPTERS, ActionAdapter
from repro.envs.obs import OBS_BUILDERS, ObsBuilder
from repro.envs.rewards import REWARD_FUNCTIONS, RewardFunction
from repro.envs.spaces import GYMNASIUM, HAVE_GYMNASIUM

if HAVE_GYMNASIUM:  # pragma: no cover - the baked image has no gymnasium
    _EnvBase = GYMNASIUM.Env
else:
    _EnvBase = object


def _resolve(registry, spec, interface):
    """str / {"name": ...} / instance → an instance from ``registry``."""
    if isinstance(spec, str):
        return registry.create(spec)
    if isinstance(spec, Mapping):
        kwargs = dict(spec)
        try:
            name = kwargs.pop("name")
        except KeyError:
            raise ValueError(
                f"a {registry.kind} mapping needs a 'name' key, got {spec!r}"
            ) from None
        return registry.create(name, **kwargs)
    if isinstance(spec, interface):
        return spec
    raise TypeError(
        f"expected a {registry.kind} name, mapping, or instance; "
        f"got {type(spec).__name__}"
    )


class IncentiveEnv(_EnvBase):
    """Train incentive policies against the paper's simulation.

    Args:
        config: the episode parameterisation (default: the paper's
            Section VI constants).  ``reset(seed=...)`` overrides only
            the seed.
        obs: observation builder — a :data:`~repro.envs.obs.OBS_BUILDERS`
            name, a ``{"name": ...}`` mapping, or an instance.
        actions: action adapter, same spellings over
            :data:`~repro.envs.actions.ACTION_ADAPTERS`.
        reward: reward function, same spellings over
            :data:`~repro.envs.rewards.REWARD_FUNCTIONS`.

    The declared ``observation_space`` / ``action_space`` are real
    Gymnasium ``Box`` spaces when Gymnasium imports, shim boxes
    otherwise; either way actions are float vectors in ``[0, 1]`` and
    observations are float32 vectors in ``[0, 1]``.
    """

    metadata: Dict[str, Any] = {"render_modes": []}
    render_mode = None

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        *,
        obs: Union[str, Mapping, ObsBuilder] = "demand-levels",
        actions: Union[str, Mapping, ActionAdapter] = "incentive",
        reward: Union[str, Mapping, RewardFunction] = "completeness-delta",
    ):
        self.config = config if config is not None else SimulationConfig()
        self.obs_builder = _resolve(OBS_BUILDERS, obs, ObsBuilder)
        self.action_adapter = _resolve(ACTION_ADAPTERS, actions, ActionAdapter)
        self.reward_function = _resolve(REWARD_FUNCTIONS, reward, RewardFunction)
        self.observation_space = self.obs_builder.space(self.config)
        self.action_space = self.action_adapter.space(self.config)
        self._session: Optional[SimulationSession] = None
        self._last_snapshot: Optional[SessionObservation] = None

    # -- protocol --------------------------------------------------------

    def reset(
        self, *, seed: Optional[int] = None, options: Optional[dict] = None
    ) -> Tuple[np.ndarray, dict]:
        """Open a fresh episode; returns ``(observation, info)``.

        Args:
            seed: overrides the config's seed for this and subsequent
                episodes (Gymnasium semantics: seeding persists until
                the next explicit seed).
            options: unused (accepted for protocol compatibility).
        """
        if HAVE_GYMNASIUM:  # seeds self.np_random for wrappers that use it
            super().reset(seed=seed, options=options)
        if seed is not None:
            self.config = self.config.with_overrides(seed=int(seed))
        if self._session is not None:
            self._session.close()
        self._session = SimulationSession(self.config)
        snapshot = self._session.observe()
        self._last_snapshot = snapshot
        observation = self.obs_builder.build(snapshot, self.config)
        return observation, self._info(snapshot)

    def step(self, action) -> Tuple[np.ndarray, float, bool, bool, dict]:
        """Apply one action, play one round; the Gymnasium 5-tuple.

        Returns:
            ``(observation, reward, terminated, truncated, info)`` —
            ``terminated`` when the simulation's horizon is exhausted or
            every task resolved; ``truncated`` is always False (the
            horizon *is* the episode).

        Raises:
            RuntimeError: before the first :meth:`reset`, or after the
                episode terminated.
            ValueError: for a malformed action vector (nothing steps).
        """
        session = self._session
        if session is None:
            raise RuntimeError("call reset() before step()")
        if session.finished:
            raise RuntimeError("episode finished; call reset()")
        incentive_action = self.action_adapter.to_action(action, self.config)
        record = session.step(incentive_action)
        snapshot = session.observe()
        reward = float(
            self.reward_function.score(self._last_snapshot, record, snapshot)
        )
        self._last_snapshot = snapshot
        observation = self.obs_builder.build(snapshot, self.config)
        info = self._info(snapshot)
        info["paid"] = record.total_paid
        info["measurements"] = record.measurement_count
        info["applied_action"] = incentive_action
        return observation, reward, session.finished, False, info

    def close(self) -> None:
        """Release the episode's engine (idempotent)."""
        if self._session is not None:
            self._session.close()
            self._session = None

    # -- conveniences ----------------------------------------------------

    def result(self) -> SimulationResult:
        """The current episode's accumulated simulation result."""
        if self._session is None:
            raise RuntimeError("no episode open; call reset() first")
        return self._session.result()

    def fingerprint(self) -> str:
        """The deterministic digest of the current episode's history."""
        return result_fingerprint(self.result())

    def _info(self, snapshot: SessionObservation) -> dict:
        return {
            "round_no": snapshot.round_no,
            "rounds_total": snapshot.rounds_total,
            "budget_remaining": snapshot.budget_remaining,
            "completeness": snapshot.completeness,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncentiveEnv(obs={self.obs_builder.name!r}, "
            f"actions={self.action_adapter.name!r}, "
            f"reward={self.reward_function.name!r}, "
            f"seed={self.config.seed})"
        )
