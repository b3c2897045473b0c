"""Tests for baseline-window regression detection."""

import pytest

from repro.obs.regress import (
    BENCH_SPECS,
    MetricSpec,
    RegressionReport,
    Thresholds,
    default_spec,
    detect,
    regress_series,
    regress_store,
)
from repro.obs.store import RunStore

LATENCY = MetricSpec("selector_ms", "higher-is-worse")
SPEEDUP = MetricSpec("speedup", "lower-is-worse")
DRIFT = MetricSpec("mean_profit", "two-sided")

#: A realistic baseline: ~1 ms latency with a little jitter.
BASELINE = [1.00, 1.02, 0.98, 1.01, 0.99]


class TestSpecsAndThresholds:
    def test_direction_validated(self):
        with pytest.raises(ValueError, match="unknown direction"):
            MetricSpec("x", "sideways")

    def test_thresholds_validated(self):
        with pytest.raises(ValueError, match="z_warn"):
            Thresholds(z_warn=7.0, z_fail=6.0)
        with pytest.raises(ValueError, match="rel_warn"):
            Thresholds(rel_warn=0.9, rel_fail=0.5)
        with pytest.raises(ValueError, match="min_window"):
            Thresholds(min_window=0)

    def test_default_spec_heuristics(self):
        assert default_spec("speedup").direction == "lower-is-worse"
        assert default_spec("summary/coverage").direction == "lower-is-worse"
        assert default_spec("vectorized_ms_per_call").direction == "higher-is-worse"
        assert default_spec("selector_seconds/p95").direction == "higher-is-worse"
        assert default_spec("process_rss_peak_bytes").direction == "higher-is-worse"
        assert default_spec("budget_remaining").direction == "two-sided"

    def test_bench_specs_cover_the_trajectory_fields(self):
        from repro.obs.store import BENCH_VALUE_FIELDS

        assert set(BENCH_SPECS) == set(BENCH_VALUE_FIELDS)

    def test_throughput_drop_is_a_regression(self):
        assert BENCH_SPECS["rounds_per_second"].direction == (
            "lower-is-worse"
        )
        assert default_spec("rounds_per_second").direction == "lower-is-worse"


class TestDetect:
    def test_doubled_latency_regresses(self):
        verdict = detect(BASELINE, 2.0, LATENCY)
        assert verdict.status == "regressed"
        assert verdict.method == "mad-z"
        assert verdict.deviation > 6.0
        assert "candidate 2" in verdict.evidence

    def test_unchanged_latency_is_ok(self):
        verdict = detect(BASELINE, 1.0, LATENCY)
        assert verdict.status == "ok"
        assert abs(verdict.deviation) < 1.0

    def test_latency_improvement_never_flags(self):
        verdict = detect(BASELINE, 0.5, LATENCY)
        assert verdict.status == "ok"
        assert verdict.deviation < 0

    def test_halved_speedup_regresses(self):
        verdict = detect([5.0, 5.1, 4.9, 5.05, 4.95], 2.5, SPEEDUP)
        assert verdict.status == "regressed"

    def test_two_sided_flags_drift_either_way(self):
        baseline = [10.0, 10.1, 9.9, 10.05, 9.95]
        assert detect(baseline, 20.0, DRIFT).status == "regressed"
        assert detect(baseline, 5.0, DRIFT).status == "regressed"
        assert detect(baseline, 10.0, DRIFT).status == "ok"

    def test_zero_spread_baseline_falls_back_to_relative(self):
        verdict = detect([1.0] * 5, 2.0, LATENCY)
        assert verdict.method == "relative"
        assert verdict.status == "regressed"
        assert verdict.deviation == pytest.approx(1.0)

    def test_short_window_falls_back_to_relative(self):
        verdict = detect([1.0, 1.1], 1.05, LATENCY)
        assert verdict.method == "relative"
        assert verdict.status == "ok"

    def test_warn_band_between_thresholds(self):
        verdict = detect([1.0] * 5, 1.3, LATENCY)
        assert verdict.method == "relative"
        assert verdict.status == "warn"

    def test_empty_baseline_raises(self):
        with pytest.raises(ValueError, match="empty baseline"):
            detect([], 1.0, LATENCY)


class TestRegressSeries:
    def test_uses_only_the_window_before_the_candidate(self):
        # An old regression in the history must not poison the window.
        values = [9.0] + BASELINE + [1.0]
        verdict = regress_series(values, LATENCY, window=5)
        assert verdict.status == "ok"
        assert verdict.baseline == tuple(BASELINE)

    def test_too_short_series_is_skipped(self):
        for values in ([], [1.0], [1.0, 2.0]):
            verdict = regress_series(values, LATENCY)
            assert verdict.status == "skipped"
            assert verdict.candidate is None

    def test_window_validated(self):
        with pytest.raises(ValueError, match="window"):
            regress_series(BASELINE + [1.0], LATENCY, window=0)


class TestRegressStore:
    def _store(self, tmp_path, latencies):
        store = RunStore(tmp_path / "store")
        for value in latencies:
            store.ingest("bench", {"vectorized_ms_per_call": value})
        return store

    def test_flags_only_the_regressed_kind_metric(self, tmp_path):
        store = self._store(tmp_path, BASELINE + [2.0])
        for value in (1.0, 1.0, 1.0, 1.0):
            store.ingest("simulate", {"summary/coverage": value})
        report = regress_store(store)
        by_metric = {(v.kind, v.metric): v for v in report.verdicts}
        assert by_metric[("bench", "vectorized_ms_per_call")].status == "regressed"
        assert by_metric[("simulate", "summary/coverage")].status == "ok"
        assert report.status == "regressed"
        assert report.exit_code() == 1
        assert report.exit_code(warn_only=True) == 0

    def test_ok_store_exits_zero(self, tmp_path):
        store = self._store(tmp_path, BASELINE + [1.0])
        report = regress_store(store)
        assert report.status == "ok"
        assert report.exit_code() == 0

    def test_explicit_specs_override_the_curated_defaults(self, tmp_path):
        store = self._store(tmp_path, BASELINE + [0.1])
        flipped = {
            "vectorized_ms_per_call":
                MetricSpec("vectorized_ms_per_call", "lower-is-worse")
        }
        report = regress_store(store, specs=flipped)
        assert report.verdicts[0].status == "regressed"

    def test_skipped_series_hidden_unless_requested(self, tmp_path):
        store = self._store(tmp_path, [1.0])
        assert regress_store(store).verdicts == ()
        report = regress_store(store, include_skipped=True)
        assert [v.status for v in report.verdicts] == ["skipped"]

    def test_verdicts_sorted_worst_first_within_kind(self, tmp_path):
        store = RunStore(tmp_path / "store")
        for value in BASELINE:
            store.ingest("bench", {"a_ok_seconds": value, "b_bad_seconds": value})
        store.ingest("bench", {"a_ok_seconds": 1.0, "b_bad_seconds": 5.0})
        report = regress_store(store)
        assert [v.metric for v in report.verdicts] == [
            "b_bad_seconds", "a_ok_seconds",
        ]

    def test_as_dict_is_json_shaped(self, tmp_path):
        import json

        store = self._store(tmp_path, BASELINE + [2.0])
        payload = json.loads(json.dumps(regress_store(store).as_dict()))
        assert payload["status"] == "regressed"
        assert payload["verdicts"][0]["metric"] == "vectorized_ms_per_call"


class TestRegressionReport:
    def test_empty_report_is_skipped_and_green(self):
        report = RegressionReport()
        assert report.status == "skipped"
        assert report.exit_code() == 0
