"""Declarative scenario specs: named worlds as data, not code.

A :class:`ScenarioSpec` is a (name, description, config-overrides)
triple.  The overrides are :class:`~repro.simulation.config.
SimulationConfig` fields — arrival streams, population groups, the
distance dtype and all — so a scenario file can describe anything the
simulator can run, and the spec validates eagerly by building the
config once at construction time.

Specs are data all the way down (strings, numbers, lists, string-keyed
mappings), which is what makes them losslessly round-trippable through
TOML/JSON (:mod:`repro.scenarios.io`) and safely shareable between the
CLI, the experiment runner, and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

from repro.simulation.config import SimulationConfig

#: Config keys whose values are 2-tuples in :class:`SimulationConfig`
#: but arrive as lists from TOML/JSON.
_TUPLE_KEYS = ("deadline_range", "release_range")

_SPEC_KEYS = ("name", "description", "config")


def _coerce_overrides(config: Mapping[str, Any]) -> Dict[str, Any]:
    """TOML/JSON-shaped values -> the types SimulationConfig expects."""
    coerced: Dict[str, Any] = dict(config)
    for key in _TUPLE_KEYS:
        if key in coerced and isinstance(coerced[key], (list, tuple)):
            coerced[key] = tuple(coerced[key])
    if "population" in coerced:
        coerced["population"] = tuple(
            dict(group) for group in coerced["population"]
        )
    return coerced


def _canonical(value: Any) -> Any:
    """Tuples -> lists, recursively: the TOML/JSON-native shape."""
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, validated world description.

    Args:
        name: the scenario's identifier (shown by ``repro scenarios``).
        description: one human sentence on what the scenario models.
        config: :class:`SimulationConfig` field overrides (data-shaped:
            lists where the config holds tuples is fine).

    Raises:
        ValueError: for an empty name or overrides the config rejects
            (unknown fields are named, courtesy of ``with_overrides``).
    """

    name: str
    description: str = ""
    config: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise ValueError("scenario name must be a non-empty string")
        self.to_config()  # validate eagerly: bad specs fail at load time

    def to_config(self, **overrides: Any) -> SimulationConfig:
        """The runnable config: spec overrides, then caller overrides.

        >>> ScenarioSpec("tiny", config={"n_users": 5}).to_config(seed=3).n_users
        5
        """
        merged = {**self.config, **overrides}
        return SimulationConfig().with_overrides(**_coerce_overrides(merged))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ScenarioSpec":
        """Build from a parsed TOML/JSON document.

        Raises:
            ValueError: for missing ``name`` or unknown top-level keys.
        """
        unknown = sorted(set(mapping) - set(_SPEC_KEYS))
        if unknown:
            raise ValueError(
                f"unknown scenario key(s) {', '.join(map(repr, unknown))}; "
                f"valid keys: {', '.join(_SPEC_KEYS)}"
            )
        if "name" not in mapping:
            raise ValueError("scenario is missing the required 'name' key")
        return cls(
            name=str(mapping["name"]),
            description=str(mapping.get("description", "")),
            config=dict(mapping.get("config", {})),
        )

    def to_mapping(self) -> Dict[str, Any]:
        """The lossless inverse of :meth:`from_mapping` (tuples as lists)."""
        return {
            "name": self.name,
            "description": self.description,
            "config": _canonical(self.config),
        }
