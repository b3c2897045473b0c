"""Heterogeneous user populations: named groups with their own dynamics.

The paper's crowd is homogeneous (2 m/s walkers, one time budget);
IncentMe-style work models the real mix — commuters pinned to a spot,
cyclists covering ground, tourists wandering.  A population is a tuple
of group specs, each claiming a ``fraction`` of the users and optionally
overriding their mobility policy and movement parameters:

```toml
[[population]]
name = "commuters"
fraction = 0.4
mobility = "stationary"
speed = 1.2

[[population]]
name = "cyclists"
fraction = 0.2
mobility = "random-waypoint"
speed = [4.0, 7.0]        # per-user uniform draw
time_budget = [600, 1200]
```

Users are assigned to groups in declaration order by cumulative
fraction; any remainder keeps the base (config-level) parameters and the
default mobility policy.  Parameter values are either a scalar (shared
by the whole group) or a ``[low, high]`` pair drawn uniformly per user.

An empty population draws nothing, so legacy seeds reproduce
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

#: A group parameter: inherit (None), shared scalar, or uniform [low, high].
ParamSpec = Union[None, float, Tuple[float, float]]

_PARAM_FIELDS = ("speed", "time_budget", "cost_per_meter")
#: Each parameter's rule, as :func:`repro.world.user.check_users` applies
#: it to every user: (rule text, test).  NaN fails every test.
_PARAM_RULES = {
    "speed": ("must be positive", lambda v: v > 0),
    "time_budget": ("must be non-negative", lambda v: v >= 0),
    "cost_per_meter": ("must be non-negative", lambda v: v >= 0),
}
_KNOWN_KEYS = ("name", "fraction", "mobility") + _PARAM_FIELDS


def _coerce_param(name: str, value: Any) -> ParamSpec:
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        low, high = float(value[0]), float(value[1])
        if low > high:
            raise ValueError(
                f"population group parameter {name!r} range is inverted: "
                f"[{low}, {high}]"
            )
        return (low, high)
    raise ValueError(
        f"population group parameter {name!r} must be a number or a "
        f"[low, high] pair, got {value!r}"
    )


@dataclass(frozen=True)
class PopulationGroup:
    """One named slice of the user population."""

    name: str
    fraction: float
    mobility: Optional[str] = None
    speed: ParamSpec = None
    time_budget: ParamSpec = None
    cost_per_meter: ParamSpec = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("population group needs a non-empty name")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"population group {self.name!r} fraction must be in (0, 1], "
                f"got {self.fraction}"
            )
        for key, (rule, ok) in _PARAM_RULES.items():
            value = getattr(self, key)
            ends = value if isinstance(value, tuple) else (value,)
            if value is not None and not all(ok(end) for end in ends):
                raise ValueError(
                    f"population group {self.name!r} {key} {rule}, got "
                    f"{list(value) if isinstance(value, tuple) else value}"
                )

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any]) -> "PopulationGroup":
        """Parse one group spec (a TOML/JSON table) into a group.

        Raises:
            ValueError: on unknown keys or malformed values, naming them.
        """
        unknown = sorted(set(data) - set(_KNOWN_KEYS))
        if unknown:
            raise ValueError(
                f"unknown population group key(s) {', '.join(map(repr, unknown))}; "
                f"valid keys: {', '.join(_KNOWN_KEYS)}"
            )
        if "name" not in data:
            raise ValueError(f"population group is missing 'name': {dict(data)!r}")
        if "fraction" not in data:
            raise ValueError(
                f"population group {data['name']!r} is missing 'fraction'"
            )
        return cls(
            name=str(data["name"]),
            fraction=float(data["fraction"]),
            mobility=data.get("mobility"),
            speed=_coerce_param("speed", data.get("speed")),
            time_budget=_coerce_param("time_budget", data.get("time_budget")),
            cost_per_meter=_coerce_param("cost_per_meter", data.get("cost_per_meter")),
        )

    def to_mapping(self) -> Dict[str, Any]:
        """The inverse of :meth:`from_mapping` (lossless round-trip)."""
        out: Dict[str, Any] = {"name": self.name, "fraction": self.fraction}
        if self.mobility is not None:
            out["mobility"] = self.mobility
        for key in _PARAM_FIELDS:
            value = getattr(self, key)
            if value is None:
                continue
            out[key] = list(value) if isinstance(value, tuple) else value
        return out


def parse_population(
    groups: Sequence[Mapping[str, Any]],
) -> Tuple[PopulationGroup, ...]:
    """Parse and cross-validate a whole population spec.

    Raises:
        ValueError: on duplicate names or fractions summing past 1.
    """
    parsed = tuple(PopulationGroup.from_mapping(g) for g in groups)
    names = [g.name for g in parsed]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate population group names in {names}")
    total = sum(g.fraction for g in parsed)
    if total > 1.0 + 1e-9:
        raise ValueError(
            f"population group fractions sum to {total:.3f} > 1 "
            f"(leave headroom for the base population or trim a group)"
        )
    return parsed


def group_counts(n_users: int, groups: Sequence[PopulationGroup]) -> List[int]:
    """How many users each group claims, by cumulative-fraction rounding.

    Boundaries are rounded so every count is within one user of
    ``fraction * n_users`` and the slices never overlap; leftover users
    stay in the base population.
    """
    counts: List[int] = []
    cumulative = 0.0
    previous = 0
    for group in groups:
        cumulative += group.fraction
        boundary = min(int(round(cumulative * n_users)), n_users)
        counts.append(max(0, boundary - previous))
        previous = boundary
    return counts


def apply_population(
    params: Dict[str, np.ndarray],
    groups: Sequence[PopulationGroup],
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw per-group parameters into ``params`` in place; return the
    group column.

    ``params`` maps ``speed``, ``time_budget`` and ``cost_per_meter`` to
    float64 columns in id order: the first ``count_0`` rows belong to
    the first group, and so on; the tail keeps base parameters and no
    group (None).  Ranged parameters draw one uniform array per (group,
    parameter) in declaration order, so a fixed seed yields a fixed
    population.
    """
    n = len(params["speed"])
    group = np.full(n, None, dtype=object)
    start = 0
    for spec, count in zip(groups, group_counts(n, groups)):
        members = slice(start, start + count)
        start += count
        group[members] = spec.name
        for key in _PARAM_FIELDS:
            value = getattr(spec, key)
            if isinstance(value, tuple):
                params[key][members] = rng.uniform(value[0], value[1], size=count)
            elif value is not None:
                params[key][members] = value
    return group
