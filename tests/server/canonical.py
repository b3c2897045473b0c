"""Round payloads compared without their wall-clock timing telemetry."""

#: Round-payload keys that carry wall-clock timings — the only fields a
#: deterministic replay cannot reproduce.
_TIMING_PERF_KEYS = frozenset(("selector_wall_time",))
_TIMING_METRIC_PREFIXES = ("selector_seconds",)


def canonical_round(payload: dict) -> dict:
    """A round record with its wall-clock timing telemetry removed.

    The simulation content of a round (selections, rewards, coverage,
    budget) is bit-reproducible across replays; the timings are not.
    Recovery tests compare canonical rounds, so "no duplicate or lost
    round events" is checked on exactly the fields that must match.
    """
    clean = dict(payload)
    if isinstance(clean.get("perf"), dict):
        clean["perf"] = {
            k: v
            for k, v in clean["perf"].items()
            if k not in _TIMING_PERF_KEYS
        }
    if isinstance(clean.get("metrics"), dict):
        clean["metrics"] = {
            k: v
            for k, v in clean["metrics"].items()
            if not k.startswith(_TIMING_METRIC_PREFIXES)
        }
    return clean
