"""Tests for the live operations layer: exposition, progress, dashboard."""

import json

import numpy as np
import pytest

from repro.obs import live
from repro.obs.live import (
    EWMA_KEEP,
    JobProgress,
    PROGRESS_FILENAME,
    ProgressWriter,
    format_number,
    metric_value,
    parse_prometheus,
    progress_gauges,
    render_prometheus,
    render_top_frame,
    sparkline,
)
from repro.obs.metrics import MetricsRegistry
from repro.scenarios import get_preset
from repro.simulation import SimulationConfig, make_engine


class TestFormatNumber:
    def test_integers_stay_integers(self):
        assert format_number(3) == "3"
        assert format_number(3.0) == "3"
        assert format_number(-7.0) == "-7"

    def test_fractions_round_trip_via_repr(self):
        assert format_number(0.1) == "0.1"
        assert float(format_number(1 / 3)) == 1 / 3

    def test_infinities_use_prometheus_spelling(self):
        assert format_number(float("inf")) == "+Inf"
        assert format_number(float("-inf")) == "-Inf"

    def test_huge_integral_floats_keep_float_form(self):
        # Beyond 2**53-ish, int(value) would fabricate digits.
        assert format_number(1e306) == "1e+306"


class TestRenderPrometheus:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_submissions_total", outcome="accepted").inc(3)
        registry.counter("repro_submissions_total", outcome="invalid").inc()
        registry.gauge("repro_queue_depth").set(2)
        histogram = registry.histogram(
            "repro_attempt_seconds", bounds=(1.0, 10.0)
        )
        histogram.observe(0.5)
        histogram.observe(5.0)
        histogram.observe(100.0)
        return registry

    def test_type_and_help_lines(self):
        text = render_prometheus(self._registry())
        assert "# HELP repro_queue_depth" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "# TYPE repro_submissions_total counter" in text
        assert "# TYPE repro_attempt_seconds histogram" in text

    def test_histogram_buckets_are_cumulative(self):
        text = render_prometheus(self._registry())
        assert 'repro_attempt_seconds_bucket{le="1"} 1' in text
        assert 'repro_attempt_seconds_bucket{le="10"} 2' in text
        assert 'repro_attempt_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_attempt_seconds_sum 105.5" in text
        assert "repro_attempt_seconds_count 3" in text

    def test_scrapes_are_byte_identical(self):
        registry = self._registry()
        assert render_prometheus(registry) == render_prometheus(registry)

    def test_unknown_names_render_without_help(self):
        registry = MetricsRegistry()
        registry.gauge("bespoke_thing").set(1)
        text = render_prometheus(registry)
        assert "# HELP bespoke_thing" not in text
        assert "# TYPE bespoke_thing gauge" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("m", path='a"b\\c').inc()
        text = render_prometheus(registry)
        assert 'm{path="a\\"b\\\\c"} 1' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_ends_with_exactly_one_newline(self):
        text = render_prometheus(self._registry())
        assert text.endswith("\n") and not text.endswith("\n\n")


class TestParsePrometheus:
    def test_round_trips_the_rendering(self):
        registry = MetricsRegistry()
        registry.counter("hits", where="edge").inc(4)
        registry.gauge("depth").set(2.5)
        parsed = parse_prometheus(render_prometheus(registry))
        assert parsed['hits{where="edge"}'] == 4.0
        assert parsed["depth"] == 2.5

    def test_comments_and_blanks_skipped(self):
        parsed = parse_prometheus("# HELP x y\n\nx 1\n")
        assert parsed == {"x": 1.0}

    def test_malformed_line_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus("justoneword\n")

    def test_metric_value_ignores_label_order(self):
        parsed = {'m{a="1",b="2"}': 7.0}
        assert metric_value(parsed, "m", b="2", a="1") == 7.0
        assert metric_value(parsed, "m", a="1") is None
        assert metric_value(parsed, "absent") is None


class TestJobProgress:
    def _progress(self, **overrides):
        base = dict(
            job_id="job-1", round_no=3, rounds_total=10, spend=12.5,
            budget=100.0, completeness=0.25, eta_seconds=14.0,
            round_seconds_ewma=2.0, attempt=1, updated_at=1000.0,
        )
        base.update(overrides)
        return JobProgress(**base)

    def test_write_read_round_trip(self, tmp_path):
        progress = self._progress()
        path = progress.write(tmp_path)
        assert path.name == PROGRESS_FILENAME
        assert JobProgress.read(tmp_path) == progress

    def test_missing_file_reads_none(self, tmp_path):
        assert JobProgress.read(tmp_path) is None

    def test_torn_file_reads_none(self, tmp_path):
        (tmp_path / PROGRESS_FILENAME).write_text('{"job_id": "x", "rou')
        assert JobProgress.read(tmp_path) is None

    def test_wrong_shape_reads_none(self, tmp_path):
        (tmp_path / PROGRESS_FILENAME).write_text('{"job_id": "x"}')
        assert JobProgress.read(tmp_path) is None

    def test_file_is_sorted_json(self, tmp_path):
        self._progress().write(tmp_path)
        raw = (tmp_path / PROGRESS_FILENAME).read_text()
        keys = list(json.loads(raw))
        assert keys == sorted(keys)


def small_engine(**overrides):
    """A unit-scale closed-world engine."""
    config = dict(n_users=25, n_tasks=6, rounds=4, budget=500.0, seed=11)
    config.update(overrides)
    return make_engine(SimulationConfig(**config))


class TestProgressWriter:
    def test_reads_spend_and_completeness_from_the_ledger(self, tmp_path):
        engine = small_engine()
        writer = ProgressWriter(tmp_path, "job-7", engine, clock=lambda: 42.0)
        engine.observers.append(writer)
        result = engine.run()
        progress = JobProgress.read(tmp_path)
        tasks = engine.world.tasks
        assert progress == writer.last
        assert progress.spend == result.total_paid > 0
        assert progress.completeness == tasks.completed.sum() / len(tasks)
        assert progress.round_no == progress.rounds_total == 4
        assert progress.budget == 500.0
        assert progress.updated_at == 42.0
        assert progress.job_id == "job-7"

    def test_open_world_arrivals_grow_the_denominator(self, tmp_path):
        config = get_preset("poisson-churn").to_config(
            n_users=40, rounds=6, budget=600.0, seed=11,
            dynamics={"task_arrival_rate": 2.0, "task_deadline_range": [2, 4]},
        )
        engine = make_engine(config)
        initial = len(engine.world.tasks)
        writer = ProgressWriter(tmp_path, "j", engine)
        seen = []
        engine.observers += [writer, lambda record: seen.append((
            writer.last.completeness,
            engine.world.tasks.completed.sum() / len(engine.world.tasks),
        ))]
        engine.run()
        assert len(engine.world.tasks) > initial
        assert [got for got, _ in seen] == [want for _, want in seen]

    def test_ewma_smooths_round_times(self, tmp_path, monkeypatch):
        engine = small_engine(rounds=10)
        writer = ProgressWriter(tmp_path, "j", engine)
        engine.observers.append(writer)
        # Drive the perf_counter marks by hand for determinism.
        writer._last_mark = 0.0
        counter = [2.0]
        monkeypatch.setattr(live, "perf_counter", lambda: counter[0])
        engine.step()
        assert writer._ewma == pytest.approx(2.0)
        counter[0] = 6.0  # a 4 s round
        engine.step()
        expected = EWMA_KEEP * 2.0 + (1.0 - EWMA_KEEP) * 4.0
        assert writer._ewma == pytest.approx(expected)
        assert writer.last.eta_seconds == pytest.approx(expected * 8)

    def test_zero_task_world_never_divides_by_zero(self, tmp_path):
        engine = small_engine()
        record = engine.step()
        tasks = engine.world.tasks
        engine.world.tasks = tasks[np.zeros(len(tasks), dtype=bool)]
        ProgressWriter(tmp_path, "j", engine)(record)
        assert JobProgress.read(tmp_path).completeness == 0.0


class TestSparkline:
    def test_empty_is_blank(self):
        assert sparkline([], width=4) == "    "

    def test_rises_left_to_right(self):
        assert sparkline([0.0, 0.5, 1.0], width=3) == "▁▄█"

    def test_short_history_right_aligns(self):
        assert sparkline([0.0, 1.0], width=4) == "  ▁█"

    def test_flat_positive_history_renders_full(self):
        assert sparkline([0.5, 0.5], width=2) == "██"

    def test_window_keeps_the_latest(self):
        assert sparkline([1.0, 0.0, 1.0], width=2) == "▁█"


class TestRenderTopFrame:
    def test_running_job_row_shows_gauges(self):
        registry = MetricsRegistry()
        registry.gauge("repro_queue_depth").set(1)
        registry.gauge("repro_running_jobs").set(1)
        progress_gauges(registry, JobProgress(
            job_id="job-1", round_no=3, rounds_total=10, spend=40.0,
            budget=100.0, completeness=0.3, eta_seconds=70.0,
            round_seconds_ewma=10.0, attempt=1, updated_at=0.0,
        ))
        parsed = parse_prometheus(render_prometheus(registry))
        frame = render_top_frame(
            parsed,
            [{"job_id": "job-1", "state": "running"}],
            {"job-1": [0.1, 0.3]},
        )
        assert "queue=1 running=1" in frame
        assert "3/10" in frame
        assert "40/100" in frame
        assert "30.0" in frame
        assert "1m10s" in frame

    def test_job_without_progress_shows_dashes(self):
        frame = render_top_frame(
            {}, [{"job_id": "job-2", "state": "queued"}], {},
        )
        line = frame.splitlines()[-1]
        assert "job-2" in line and "-" in line


class TestProgressGauges:
    def test_sets_all_six_series_for_the_job(self):
        registry = MetricsRegistry()
        progress_gauges(registry, JobProgress(
            job_id="job-9", round_no=1, rounds_total=2, spend=3.0,
            budget=4.0, completeness=0.5, eta_seconds=6.0,
            round_seconds_ewma=6.0, attempt=1, updated_at=0.0,
        ))
        parsed = parse_prometheus(render_prometheus(registry))
        assert metric_value(parsed, "repro_job_round", job="job-9") == 1.0
        assert metric_value(
            parsed, "repro_job_rounds_total", job="job-9"
        ) == 2.0
        assert metric_value(parsed, "repro_job_spend", job="job-9") == 3.0
        assert metric_value(parsed, "repro_job_budget", job="job-9") == 4.0
        assert metric_value(
            parsed, "repro_job_completeness", job="job-9"
        ) == 0.5
        assert metric_value(
            parsed, "repro_job_eta_seconds", job="job-9"
        ) == 6.0
