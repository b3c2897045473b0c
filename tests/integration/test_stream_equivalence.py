"""A streamed run reports the same run aggregates as a retained one.

``stream_rounds=True`` only drops the per-round records; every run
aggregate comes from the one ledger both modes fold rounds into, so the
two modes agree to the last bit on every preset up to city-2k.
"""

from __future__ import annotations

import pytest

from repro import api

SCENARIOS = (
    "paper-2018",
    "poisson-stream",
    "poisson-churn",
    "task-stream-2k",
    "rush-hour",
    "city-2k",
)
SEEDS = (0, 1, 2)


def aggregates(scenario: str, seed: int, stream_rounds: bool):
    result = api.simulate(
        api.build_config(scenario, seed=seed, stream_rounds=stream_rounds)
    )
    assert result.streamed == (stream_rounds and result.rounds_played > 0)
    perf = result.perf_totals().as_dict()
    del perf["selector_wall_time"]  # wall clock, not deterministic
    # repr() pins every float to the last bit (== would also accept
    # 0.0 against -0.0).
    return {
        "user_profits": [repr(p) for p in result.user_profits()],
        "summary": {k: repr(v) for k, v in api.summarize(result).as_dict().items()},
        "total_paid": repr(result.total_paid),
        "measurements_by_task": result.measurements_by_task(),
        "perf": perf,
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_streamed_run_equals_retained_run(scenario, seed):
    retained = aggregates(scenario, seed, stream_rounds=False)
    streamed = aggregates(scenario, seed, stream_rounds=True)
    for key in retained:
        assert streamed[key] == retained[key], key
