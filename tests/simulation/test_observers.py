"""Unit tests for the ready-made round observers."""

import io

import pytest

from repro.metrics import coverage_by_round
from repro.simulation.engine import SimulationEngine
from repro.simulation.observers import CoverageTracker, ProgressPrinter


@pytest.fixture
def config(fast_config):
    return fast_config


class TestProgressPrinter:
    def test_one_line_per_round(self, config):
        stream = io.StringIO()
        engine = SimulationEngine(config, observers=[ProgressPrinter(stream)])
        result = engine.run()
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == result.rounds_played
        assert lines[0].startswith("round  1:")
        assert "measurements" in lines[0]

    def test_prefix(self, config):
        stream = io.StringIO()
        engine = SimulationEngine(
            config, observers=[ProgressPrinter(stream, prefix="on-demand")]
        )
        engine.step()
        assert stream.getvalue().startswith("on-demand round")

    def test_line_reports_the_round_totals(self, config):
        stream = io.StringIO()
        engine = SimulationEngine(config, observers=[ProgressPrinter(stream)])
        result = engine.run()
        first_line = stream.getvalue().splitlines()[0]
        record = result.rounds[0]
        assert f"{record.measurement_count:>4} measurements" in first_line
        assert f"${record.total_paid:.2f} paid" in first_line


class TestCoverageTracker:
    def test_matches_metric(self, config):
        tracker = CoverageTracker(n_tasks=config.n_tasks)
        result = SimulationEngine(config, observers=[tracker]).run()
        expected = coverage_by_round(result, result.rounds_played)
        assert tracker.by_round == pytest.approx(expected)

    def test_monotone(self, config):
        tracker = CoverageTracker(n_tasks=config.n_tasks)
        SimulationEngine(config, observers=[tracker]).run()
        assert all(a <= b for a, b in zip(tracker.by_round, tracker.by_round[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="n_tasks"):
            CoverageTracker(n_tasks=0)
