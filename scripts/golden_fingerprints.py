"""Regenerate the golden history corpus: ``tests/golden/fingerprints.json``.

Each case is a scenario plus config overrides.  Its entry records the
run's :func:`~repro.simulation.events.result_fingerprint` and one chained
digest over every round's :func:`~repro.simulation.events.round_fingerprint`
(observed live, so streamed presets are pinned round by round too).
Two kinds of case pin paths a plain run does not take:

- ``"coordinator": "greedy-server"`` runs the Server-Assigned-Tasks mode
  under :class:`~repro.allocation.greedy_server.GreedyServerCoordinator`;
- ``"snapshot": "fig5"`` plays round 1, then records one ``profits``
  digest of the DP and greedy profit of every user's round-2 instance
  from ``engine.build_problems()`` (the Fig. 5 paired comparison);
- ``"snapshot": "user-profits"`` runs the case keeping its rounds and
  records one ``profits`` digest of ``repr()`` of every whole-run
  ``user_profits()`` entry (departed users are not in the roster);
- ``"snapshot": "final-positions"`` runs the case and records one
  ``positions`` digest of ``repr()`` of every final-roster user's
  ``(user_id, x, y)``, which pins where mobility left each user;
- ``"snapshot": "task-outcomes"`` runs the case and records one
  ``tasks`` digest of ``repr()`` of every task's final ``(task_id,
  deadline, status, received, completed round, sorted contributors,
  sorted measurements by round)`` plus ``completeness_by_round`` over
  the horizon, which pins renewals, expiry and completion rounds.
``tests/integration/test_golden_history.py`` replays every case and
compares, which pins the engine's history to itself rather than to a
second implementation that could share a bug.

Regenerate only when a change is *meant* to alter simulation histories,
and say so in the change log:

    PYTHONPATH=src python scripts/golden_fingerprints.py

``--check`` compares against the committed file instead of writing it
(exit 1 on any mismatch).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

from repro import api
from repro.allocation.greedy_server import GreedyServerCoordinator
from repro.metrics.completeness import completeness_by_round
from repro.selection import SELECTORS

CORPUS = Path(__file__).resolve().parents[1] / "tests" / "golden" / "fingerprints.json"

#: Every preset up to city-2k, three seeds each.
PRESET_SCENARIOS = (
    "paper-2018",
    "poisson-stream",
    "poisson-churn",
    "task-stream-2k",
    "rush-hour",
    "city-2k",
)
SEEDS = (0, 1, 2)

#: The open-world mechanisms on the open-world benchmark preset.
MECHANISM_CASES = (
    {"mechanism": "policy",
     "mechanism_kwargs": {"policy": {"name": "step-decay", "decay": 0.8}}},
    {"mechanism": "omg-online"},
    {"mechanism": "incentme"},
)

#: Churn combined with a mobility that draws randomness, partial
#: participation and stationary users: every mover/sit-out distinction
#: the round makes shows in the mobility stream.
WANDERING_CHURN = {
    "participation_rate": 0.7,
    "population": [
        {"name": "wanderers", "fraction": 0.4, "mobility": "random-waypoint"},
        {"name": "commuters", "fraction": 0.3, "mobility": "stationary"},
    ],
}

#: Two random-waypoint groups with different strides: their waypoint
#: draws must interleave in global arrival order, not group by group.
TWO_WANDERING_GROUPS = {
    "participation_rate": 0.7,
    "population": [
        {"name": "walkers", "fraction": 0.3, "mobility": "random-waypoint"},
        {"name": "cyclists", "fraction": 0.3, "mobility": "random-waypoint",
         "speed": [4.0, 7.0]},
    ],
}


def cases() -> List[Dict]:
    """The corpus cases: ``{"id", "scenario", "overrides"}`` dicts."""
    out = []
    for scenario in PRESET_SCENARIOS:
        for seed in SEEDS:
            out.append({"scenario": scenario, "overrides": {"seed": seed}})
    for overrides in MECHANISM_CASES:
        out.append({"scenario": "task-stream-2k",
                    "overrides": dict(overrides, seed=0)})
    for seed in SEEDS:
        out.append({"scenario": "poisson-churn",
                    "overrides": dict(WANDERING_CHURN, seed=seed)})
    out.append({"scenario": "poisson-churn",
                "overrides": dict(WANDERING_CHURN, seed=0, engine="scalar",
                                  distance_dtype="float64")})
    for seed in SEEDS:
        out.append({"scenario": "paper-2018", "overrides": {"seed": seed},
                    "coordinator": "greedy-server"})
    for seed in SEEDS:
        out.append({"scenario": "paper-2018", "overrides": {"seed": seed},
                    "snapshot": "fig5"})
    for seed in SEEDS:
        out.append({"scenario": "paper-2018", "overrides": {"seed": seed},
                    "snapshot": "user-profits"})
    out.append({"scenario": "poisson-churn",
                "overrides": dict(WANDERING_CHURN, seed=0),
                "snapshot": "user-profits"})
    out.append({"scenario": "task-stream-2k",
                "overrides": {"mechanism": "incentme", "seed": 0,
                              "stream_rounds": False},
                "snapshot": "user-profits"})
    # Proportional's Eq. 5 counts under churn, recounted each round over
    # the population the arrivals and departures left.
    out.append({"scenario": "poisson-churn",
                "overrides": dict(WANDERING_CHURN, seed=0,
                                  mechanism="proportional")})
    for mobility in ("random-waypoint", "stationary"):
        out.append({"scenario": "paper-2018",
                    "overrides": {"mobility": mobility, "seed": 0}})
    out.append({"scenario": "poisson-churn",
                "overrides": dict(TWO_WANDERING_GROUPS, seed=0)})
    out.append({"scenario": "city-2k", "overrides": {"seed": 0},
                "snapshot": "final-positions"})
    out.append({"scenario": "poisson-churn",
                "overrides": dict(WANDERING_CHURN, seed=0),
                "snapshot": "final-positions"})
    # The generator's heterogeneous-user and clustered-layout branches,
    # which no preset takes, and heterogeneous arrivals under churn.
    out.append({"scenario": "paper-2018",
                "overrides": {"heterogeneity": 0.3, "seed": 0}})
    out.append({"scenario": "paper-2018",
                "overrides": {"layout": "clustered", "seed": 0}})
    out.append({"scenario": "poisson-churn",
                "overrides": {"heterogeneity": 0.3, "seed": 0}})
    for scenario in ("paper-2018", "poisson-churn", "task-stream-2k"):
        out.append({"scenario": scenario, "overrides": {"seed": 0},
                    "snapshot": "task-outcomes"})
    out.append({"scenario": "paper-2018", "overrides": {"seed": 0},
                "coordinator": "greedy-server", "snapshot": "task-outcomes"})
    for case in out:
        case["id"] = case_id(case["scenario"], case["overrides"])
        for kind in CASE_KINDS:
            if kind in case:
                case["id"] += f",{kind}={case[kind]}"
    return out


#: Optional case keys that select a non-default way of running a case.
CASE_KINDS = ("coordinator", "snapshot")

#: The round the Fig. 5 snapshot freezes (the paper's "sensing round 2").
SNAPSHOT_ROUND = 2


def case_id(scenario: str, overrides: Dict) -> str:
    """A readable, unique test id for one case."""
    parts = [scenario]
    for key in sorted(overrides):
        value = overrides[key]
        if key == "population":
            value = "+".join(str(group["mobility"]) for group in value)
        elif isinstance(value, dict):
            value = hashlib.sha256(
                json.dumps(value, sort_keys=True).encode()
            ).hexdigest()[:8]
        parts.append(f"{key}={value}")
    return ",".join(parts)


def fingerprints(case: Dict) -> Dict[str, str]:
    """Run one case; return its digests (the entry's recorded fields)."""
    config = api.build_config(case["scenario"], **case["overrides"])
    if case.get("snapshot") == "fig5":
        return {"profits": fig5_profits(config)}
    if case.get("snapshot") == "user-profits":
        return {"profits": user_profits_digest(config)}
    if case.get("snapshot") == "final-positions":
        return {"positions": final_positions_digest(config)}
    coordinator = (
        GreedyServerCoordinator()
        if case.get("coordinator") == "greedy-server" else None
    )
    if case.get("snapshot") == "task-outcomes":
        return {"tasks": task_outcomes_digest(config, coordinator)}
    rounds: List[str] = []
    engine = api.make_engine(
        config,
        observers=[lambda record: rounds.append(api.round_fingerprint(record))],
        coordinator=coordinator,
    )
    result = engine.run()
    chained = hashlib.sha256("".join(rounds).encode("ascii")).hexdigest()
    return {"result": api.result_fingerprint(result), "rounds": chained}


def fig5_profits(config) -> str:
    """Digest of ``[user_id, dp profit, greedy profit]`` per user at the
    snapshot round, over the instances ``build_problems`` hands out."""
    engine = api.make_engine(config)
    for _ in range(SNAPSHOT_ROUND - 1):
        engine.step()
    dp, greedy = SELECTORS.create("dp"), SELECTORS.create("greedy")
    rows = [
        [user.user_id, dp.select(problem).profit, greedy.select(problem).profit]
        for user, problem in engine.build_problems()
    ]
    return hashlib.sha256(json.dumps(rows).encode("ascii")).hexdigest()


def user_profits_digest(config) -> str:
    """Digest of ``repr()`` of every whole-run per-user profit of a run
    that keeps its rounds (``repr`` pins each float to the last bit)."""
    result = api.make_engine(config).run()
    if result.streamed:
        raise ValueError("user-profits snapshots need a run that keeps its rounds")
    profits = [repr(profit) for profit in result.user_profits()]
    return hashlib.sha256(json.dumps(profits).encode("ascii")).hexdigest()


def final_positions_digest(config) -> str:
    """Digest of ``repr()`` of every final-roster user's ``(user_id, x,
    y)`` after a whole run."""
    engine = api.make_engine(config)
    engine.run()
    world = engine.world
    positions = [
        repr((user.user_id, x, y))
        for user, (x, y) in zip(world.users, world.positions.tolist())
    ]
    return hashlib.sha256(json.dumps(positions).encode("ascii")).hexdigest()


def task_outcomes_digest(config, coordinator=None) -> str:
    """Digest of ``repr()`` of every task's final state after a whole
    run, plus the run's completeness after each round of the horizon."""
    result = api.make_engine(config, coordinator=coordinator).run()
    outcomes = [
        repr((
            task.task_id, task.deadline, task.status.value, task.received,
            task.completed_round, sorted(task.contributors),
            sorted(task.measurements_by_round.items()),
        ))
        for task in result.world.tasks
    ]
    outcomes.append(repr(completeness_by_round(result, config.rounds)))
    return hashlib.sha256(json.dumps(outcomes).encode("ascii")).hexdigest()


def recorded(case: Dict) -> Dict[str, str]:
    """The digest fields of a committed entry."""
    return {
        key: value for key, value in case.items()
        if key not in ("id", "scenario", "overrides") + CASE_KINDS
    }


def build_corpus() -> Dict:
    return {"cases": [dict(case, **fingerprints(case)) for case in cases()]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed corpus instead of writing")
    args = parser.parse_args(argv)
    corpus = build_corpus()
    if args.check:
        committed = json.loads(CORPUS.read_text())
        if committed != corpus:
            old = {case["id"]: case for case in committed["cases"]}
            for case in corpus["cases"]:
                if old.get(case["id"]) != case:
                    print(f"MISMATCH {case['id']}")
            return 1
        print(f"{len(corpus['cases'])} cases match {CORPUS}")
        return 0
    CORPUS.parent.mkdir(parents=True, exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(corpus['cases'])} cases to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
