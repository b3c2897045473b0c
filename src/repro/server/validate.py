"""Eager validation at the HTTP boundary: bad payloads never reach a worker.

A malformed submission costs a worker launch, a crash, N poison retries,
and an opaque failure the client learns about minutes later.  Validating
at admission turns all of that into one structured 400 answered in
microseconds: ``{"error": "invalid submission", "field": ..., "reason":
...}`` — the field names the offending knob, the reason is the same
message :class:`~repro.simulation.config.SimulationConfig`'s named
validation would have raised deep inside the worker.

The validated artifact, :class:`ParsedSubmission`, carries the built
config *and* the canonical payload; the worker rebuilds its config from
the same payload through the same function, so service and worker can
never disagree about what was admitted.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro.resilience.errors import ReproError
from repro.resilience.journal import config_fingerprint
from repro.scenarios import ScenarioSpec, get_preset
from repro.simulation.config import SimulationConfig

#: Top-level keys a submission may carry.
SUBMISSION_KEYS = ("scenario", "spec", "overrides", "priority", "timeout")

#: SimulationConfig field names, for attributing a ConfigError message
#: to the knob it names (the messages lead with the field).
_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(SimulationConfig))


class InvalidSubmission(ReproError, ValueError):
    """A submission rejected at the boundary, with structured blame.

    Args:
        field: the submission field (or config knob) at fault.
        reason: the human-readable diagnosis.
    """

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason

    def as_dict(self) -> Dict[str, str]:
        """The HTTP 400 body."""
        return {
            "error": "invalid submission",
            "field": self.field,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class ParsedSubmission:
    """One admitted submission: canonical payload + the config it means.

    Args:
        payload: the canonicalised submission (what the job journals
            and the worker re-parses).
        config: the fully validated :class:`SimulationConfig`.
        fingerprint: :func:`~repro.resilience.journal.config_fingerprint`
            of ``config`` — the dedup key.
        priority: admission priority (higher first; shed lowest).
        timeout: per-job wall-clock budget in seconds, or None.
    """

    payload: Dict[str, Any]
    config: SimulationConfig
    fingerprint: str
    priority: int
    timeout: Optional[float]


def _blame_config_error(message: str) -> str:
    """The config field a ConfigError message names (or ``"config"``)."""
    first_word = message.split()[0] if message.split() else ""
    token = first_word.strip("'\"`:,")
    return token if token in _CONFIG_FIELDS else "config"


def parse_submission(body: Any) -> ParsedSubmission:
    """Validate one POST /jobs body into a :class:`ParsedSubmission`.

    Accepted shape (all keys optional, ``scenario`` and ``spec``
    mutually exclusive)::

        {
          "scenario": "city-2k",          # preset name or spec file deps
          "spec": {"name": ..., "config": {...}},   # inline ScenarioSpec
          "overrides": {"seed": 7},       # SimulationConfig fields on top
          "priority": 3,                  # int, default 0
          "timeout": 120.0                # positive seconds, default none
        }

    Raises:
        InvalidSubmission: naming the offending field and the reason.
    """
    if not isinstance(body, Mapping):
        raise InvalidSubmission(
            "body", f"submission must be a JSON object, got {type(body).__name__}"
        )
    unknown = sorted(set(body) - set(SUBMISSION_KEYS))
    if unknown:
        raise InvalidSubmission(
            unknown[0],
            f"unknown submission key(s) {', '.join(map(repr, unknown))}; "
            f"valid keys: {', '.join(SUBMISSION_KEYS)}",
        )
    scenario = body.get("scenario")
    spec_mapping = body.get("spec")
    if scenario is not None and spec_mapping is not None:
        raise InvalidSubmission(
            "scenario", "pass either 'scenario' or 'spec', not both"
        )

    priority = body.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise InvalidSubmission(
            "priority",
            f"priority must be an integer, got {priority!r}",
        )

    timeout = body.get("timeout")
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise InvalidSubmission(
                "timeout", f"timeout must be a number of seconds, got {timeout!r}"
            )
        if not 0 < timeout < math.inf:  # also false for NaN
            raise InvalidSubmission(
                "timeout",
                f"timeout must be positive, finite seconds, got {timeout}",
            )
        timeout = float(timeout)

    overrides = body.get("overrides", {})
    if not isinstance(overrides, Mapping):
        raise InvalidSubmission(
            "overrides",
            f"overrides must be an object of SimulationConfig fields, "
            f"got {type(overrides).__name__}",
        )

    spec: Optional[ScenarioSpec] = None
    if scenario is not None:
        if not isinstance(scenario, str):
            raise InvalidSubmission(
                "scenario",
                f"scenario must be a preset name string, got {scenario!r}",
            )
        try:
            spec = get_preset(scenario)
        except (KeyError, ValueError) as exc:
            raise InvalidSubmission("scenario", str(exc)) from exc
    elif spec_mapping is not None:
        if not isinstance(spec_mapping, Mapping):
            raise InvalidSubmission(
                "spec",
                f"spec must be an object with name/description/config, "
                f"got {type(spec_mapping).__name__}",
            )
        try:
            spec = ScenarioSpec.from_mapping(spec_mapping)
        except ReproError as exc:
            raise InvalidSubmission(_blame_config_error(str(exc)), str(exc)) from exc
        except ValueError as exc:
            raise InvalidSubmission("spec", str(exc)) from exc

    try:
        if spec is not None:
            config = spec.to_config(**dict(overrides))
        else:
            config = SimulationConfig().with_overrides(**dict(overrides))
    except ReproError as exc:
        # ConfigError messages lead with the offending field name.
        raise InvalidSubmission(_blame_config_error(str(exc)), str(exc)) from exc
    except (TypeError, ValueError) as exc:
        # with_overrides names unknown fields; TypeError catches
        # non-string keys and similar shape mistakes.
        raise InvalidSubmission("overrides", str(exc)) from exc

    try:
        # Closed worlds fail Eq. 9 exactly when this does; an open
        # world's streamed tasks can still make incentme's r0
        # infeasible, which only the pre-drawn stream shows.
        config.base_reward()
    except ReproError as exc:
        raise InvalidSubmission("budget", str(exc)) from exc
    except (AttributeError, TypeError, ValueError) as exc:
        # mechanism_kwargs override the budget, step or levels with
        # values the mechanism could not use either.
        raise InvalidSubmission("mechanism_kwargs", str(exc)) from exc

    payload = {
        "scenario": scenario,
        "spec": dict(spec_mapping) if spec_mapping is not None else None,
        "overrides": {str(k): v for k, v in overrides.items()},
        "priority": priority,
        "timeout": timeout,
    }
    return ParsedSubmission(
        payload=payload,
        config=config,
        fingerprint=config_fingerprint(config),
        priority=priority,
        timeout=timeout,
    )
