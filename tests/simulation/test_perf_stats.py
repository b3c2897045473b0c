"""PerfStats: the engine's execution counters and their plumbing.

The counters are pure observability — they must describe the run
(selector calls, cache hits, DP states) without ever influencing it,
survive the JSONL event-log round trip, and merge cleanly across rounds
and campaigns.
"""

import pytest

from repro import api
from repro.simulation import PerfStats, SimulationConfig, simulate
from repro.io.events import read_events_jsonl, write_events_jsonl


#: ``selector_calls`` of the pinned paper-2018 runs below: instances
#: solved, however the engine groups them into selector calls.
PAPER_2018_SELECTOR_CALLS = {0: 655, 1: 407, 2: 813, 3: 1199}


@pytest.fixture
def result(fast_config):
    return simulate(fast_config)


class TestPerfStatsObject:
    def test_add_merges_counts(self):
        a = PerfStats(problem_cache_hits=2, selector_calls=3, selector_wall_time=0.5)
        b = PerfStats(problem_cache_hits=1, dp_states_expanded=7)
        a.add(b)
        assert a.problem_cache_hits == 3
        assert a.selector_calls == 3
        assert a.dp_states_expanded == 7
        assert a.selector_wall_time == pytest.approx(0.5)

    def test_merged_skips_none(self):
        parts = [PerfStats(selector_calls=2), None, PerfStats(selector_calls=5)]
        assert PerfStats.merged(parts).selector_calls == 7

    def test_round_trip_dict(self):
        stats = PerfStats(
            problem_cache_hits=4,
            problem_cache_misses=1,
            price_cache_hits=2,
            dp_states_expanded=99,
            selector_calls=8,
            selector_wall_time=0.25,
        )
        assert PerfStats.from_dict(stats.as_dict()) == stats

    def test_cache_hit_rate(self):
        assert PerfStats().cache_hit_rate == 0.0
        assert PerfStats(
            problem_cache_hits=3, problem_cache_misses=1
        ).cache_hit_rate == pytest.approx(0.75)


class TestEngineCounters:
    def test_every_round_carries_perf(self, result):
        assert result.rounds
        for record in result.rounds:
            assert record.perf is not None

    def test_selector_call_accounting(self, result):
        totals = result.perf_totals()
        # One cache touch per (round, available user); one selector call
        # per instance solved, i.e. per user with a candidate.
        assert totals.problem_cache_hits == sum(
            len(record.user_records) for record in result.rounds
        ), "each available user should hit the shared per-round problem cache"
        assert 0 < totals.selector_calls <= totals.problem_cache_hits
        assert totals.problem_cache_misses == result.rounds_played
        assert totals.selector_wall_time > 0.0

    def test_dp_states_counted_for_dp_selector(self, result):
        assert result.perf_totals().dp_states_expanded > 0

    @pytest.mark.parametrize(
        "seed, states", [(0, 14611), (1, 17762), (2, 19807), (3, 16636)]
    )
    def test_paper_2018_dp_states_are_pinned(self, seed, states):
        """The DP's work counter is deterministic, but round fingerprints
        leave ``perf`` out: pinning it here catches a selector that
        answers the same while expanding more (or fewer) states, and an
        engine that counts calls instead of the instances solved."""
        result = api.simulate(scenario="paper-2018", seed=seed)
        assert result.perf_totals().dp_states_expanded == states
        assert result.perf_totals().selector_calls == (
            PAPER_2018_SELECTOR_CALLS[seed]
        )

    def test_counters_do_not_change_the_simulation(self, fast_config):
        """Perf instrumentation is observability only: same history."""
        a = simulate(fast_config)
        b = simulate(fast_config)
        assert [r.measurements for r in a.rounds] == [
            r.measurements for r in b.rounds
        ]
        assert a.total_paid == b.total_paid

    def test_greedy_selector_reports_no_dp_states(self, fast_config):
        config = fast_config.with_overrides(selector="greedy")
        totals = simulate(config).perf_totals()
        assert totals.dp_states_expanded == 0
        assert totals.selector_calls > 0


class TestEventLogRoundTrip:
    def test_perf_survives_jsonl(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "events.jsonl")
        replay = read_events_jsonl(path)
        for original, loaded in zip(result.rounds, replay.rounds):
            assert loaded.perf == original.perf

    def test_old_logs_without_perf_still_load(self, result, tmp_path):
        import json

        path = write_events_jsonl(result, tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        stripped = [lines[0]]
        for line in lines[1:]:
            payload = json.loads(line)
            payload.pop("perf", None)
            stripped.append(json.dumps(payload))
        path.write_text("\n".join(stripped) + "\n")
        replay = read_events_jsonl(path)
        assert all(record.perf is None for record in replay.rounds)
