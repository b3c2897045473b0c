"""Unit tests for repro.metrics.coverage."""

import pytest

from repro.metrics.coverage import coverage, coverage_by_round, covered_task_ids
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate


@pytest.fixture(scope="module")
def result():
    return simulate(SimulationConfig(
        n_users=20, n_tasks=8, rounds=8, required_measurements=4,
        area_side=2000.0, budget=300.0, seed=13,
    ))


class TestCoverage:
    def test_matches_task_contributor_state(self, result):
        expected = sum(1 for t in result.world.tasks if t.contributors) / len(
            result.world.tasks
        )
        assert coverage(result) == pytest.approx(expected)

    def test_bounded(self, result):
        assert 0.0 <= coverage(result) <= 1.0

    def test_cutoff_is_monotone(self, result):
        values = [coverage(result, up_to_round=r) for r in range(1, 9)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_cutoff_at_horizon_equals_total(self, result):
        assert coverage(result, up_to_round=8) == coverage(result)

    def test_covered_ids_subset_of_tasks(self, result):
        ids = covered_task_ids(result)
        assert ids <= {t.task_id for t in result.world.tasks}


class TestCoverageByRound:
    def test_length_matches_horizon(self, result):
        series = coverage_by_round(result, horizon=12)
        assert len(series) == 12

    def test_cumulative_monotone(self, result):
        series = coverage_by_round(result, horizon=12)
        assert all(a <= b for a, b in zip(series, series[1:]))

    def test_padding_after_early_stop(self, result):
        series = coverage_by_round(result, horizon=12)
        final = coverage(result)
        for value in series[result.rounds_played:]:
            assert value == pytest.approx(final)

    def test_matches_cutoff_metric(self, result):
        series = coverage_by_round(result, horizon=result.rounds_played)
        for round_no, value in enumerate(series, start=1):
            assert value == pytest.approx(coverage(result, up_to_round=round_no))

    def test_matches_the_round_records(self, result):
        covered, expected = set(), []
        for record in result.rounds:
            covered.update(record.measurements.task_ids.tolist())
            expected.append(len(covered) / len(result.world.tasks))
        assert coverage_by_round(result, result.rounds_played) == expected

    def test_streamed_run_reads_the_task_log(self):
        config = SimulationConfig(
            n_users=20, n_tasks=8, rounds=8, required_measurements=4,
            area_side=2000.0, budget=300.0, seed=13,
        )
        kept = simulate(config)
        streamed = simulate(config.with_overrides(stream_rounds=True))
        assert streamed.rounds == []
        assert coverage_by_round(streamed, 10) == coverage_by_round(kept, 10)

    def test_bad_horizon(self, result):
        with pytest.raises(ValueError, match="horizon"):
            coverage_by_round(result, horizon=0)
