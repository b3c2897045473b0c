"""Tests for the run store: ingestion, queries, durability, bench shim."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.store import (
    DEDUPE_LABEL,
    RunStore,
    StoreError,
    ingest_bench_trajectory,
    registry_values,
)


def bench_entry(speedup=5.0, timestamp="2026-01-01T00:00:00Z"):
    return {
        "timestamp": timestamp,
        "python": "3.12.0",
        "numpy": "1.26.0",
        "n_tasks": 20,
        "scale": "full",
        "reference_ms_per_call": 10.0,
        "vectorized_ms_per_call": 10.0 / speedup,
        "speedup": speedup,
        "mean_profit": 12.5,
    }


class TestIngest:
    def test_assigns_sequential_run_ids(self, tmp_path):
        store = RunStore(tmp_path / "store")
        first, created = store.ingest("bench", {"speedup": 5.0})
        second, _ = store.ingest("bench", {"speedup": 4.0})
        assert created
        assert first.run_id == "bench-000001"
        assert second.run_id == "bench-000002"
        assert len(store) == 2

    def test_payload_round_trips(self, tmp_path):
        store = RunStore(tmp_path / "store")
        record, _ = store.ingest(
            "simulate",
            {"coverage": 1.0},
            labels={"seed": 3},
            manifest={"base_seed": 3},
            metrics={"payout_total": {"kind": "counter", "value": 2.0}},
            trace_summary=[{"name": "select", "count": 5}],
        )
        loaded = store.load(record.run_id)
        assert loaded == record
        assert loaded.labels == {"seed": "3"}
        assert loaded.manifest == {"base_seed": 3}
        assert loaded.trace_summary == [{"name": "select", "count": 5}]

    def test_dedupe_key_makes_ingestion_idempotent(self, tmp_path):
        store = RunStore(tmp_path / "store")
        first, created_a = store.ingest("bench", {"x": 1.0}, dedupe_key="abc")
        again, created_b = store.ingest("bench", {"x": 1.0}, dedupe_key="abc")
        assert created_a and not created_b
        assert again.run_id == first.run_id
        assert len(store) == 1
        assert first.labels[DEDUPE_LABEL] == "abc"

    def test_rejects_bad_kind(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with pytest.raises(StoreError, match="invalid run kind"):
            store.ingest("", {"x": 1.0})
        with pytest.raises(StoreError, match="invalid run kind"):
            store.ingest("a/b", {"x": 1.0})

    def test_rejects_non_numeric_and_non_finite_values(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with pytest.raises(StoreError, match="must be numbers"):
            store.ingest("bench", {"x": "fast"})
        with pytest.raises(StoreError, match="must be numbers"):
            store.ingest("bench", {"x": True})
        with pytest.raises(StoreError, match="not finite"):
            store.ingest("bench", {"x": float("nan")})


class TestQueries:
    def _seed(self, tmp_path):
        store = RunStore(tmp_path / "store")
        for speedup in (5.0, 5.5, 6.0):
            store.ingest("bench", {"speedup": speedup}, labels={"scale": "full"})
        store.ingest("simulate", {"coverage": 1.0}, labels={"seed": "0"})
        return store

    def test_entries_filter_by_kind_and_labels(self, tmp_path):
        store = self._seed(tmp_path)
        assert len(store.entries()) == 4
        assert len(store.entries(kind="bench")) == 3
        assert len(store.entries(kind="bench", scale="full")) == 3
        assert store.entries(kind="bench", scale="tiny") == []

    def test_series_in_ingestion_order(self, tmp_path):
        store = self._seed(tmp_path)
        history = store.series("speedup", kind="bench")
        assert [value for _run, value in history] == [5.0, 5.5, 6.0]
        assert history[0][0] == "bench-000001"

    def test_series_skips_runs_without_the_value(self, tmp_path):
        store = self._seed(tmp_path)
        store.ingest("bench", {"other": 1.0})
        assert len(store.series("speedup", kind="bench")) == 3

    def test_kinds_and_value_names(self, tmp_path):
        store = self._seed(tmp_path)
        assert store.kinds() == ["bench", "simulate"]
        assert store.value_names(kind="simulate") == ["coverage"]

    def test_latest(self, tmp_path):
        store = self._seed(tmp_path)
        assert store.latest(kind="bench")["values"]["speedup"] == 6.0
        assert RunStore(tmp_path / "empty").latest() is None

    def test_load_unknown_run_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError, match="nope"):
            RunStore(tmp_path / "store").load("nope")


class TestDurability:
    def test_partial_trailing_index_line_is_skipped(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.ingest("bench", {"x": 1.0})
        with store.index_path.open("a") as handle:
            handle.write('{"format_version": 1, "run_id": "bench-0000')
        assert len(store) == 1
        # The next ingest removes the torn line and appends cleanly.
        record, _ = store.ingest("bench", {"x": 2.0})
        assert record.run_id == "bench-000002"
        assert [e["run_id"] for e in store.entries()] == [
            "bench-000001", "bench-000002"
        ]
        record, _ = store.ingest("bench", {"x": 3.0})
        assert record.run_id == "bench-000003"
        assert [e["values"]["x"] for e in store.entries()] == [1.0, 2.0, 3.0]

    def test_mid_stream_corruption_is_loud(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.ingest("bench", {"x": 1.0})
        lines = store.index_path.read_text().splitlines()
        store.index_path.write_text("\n".join(["garbage"] + lines) + "\n")
        with pytest.raises(StoreError, match="corrupt index line 1"):
            store.entries()

    def test_future_format_version_is_rejected(self, tmp_path):
        store = RunStore(tmp_path / "store")
        record, _ = store.ingest("bench", {"x": 1.0})
        entry = json.loads(store.index_path.read_text())
        entry["format_version"] = 99
        store.index_path.write_text(json.dumps(entry) + "\n")
        with pytest.raises(StoreError, match="format_version 99"):
            store.entries()
        payload_path = store.root / "runs" / record.run_id / "record.json"
        payload = json.loads(payload_path.read_text())
        payload["format_version"] = 99
        payload_path.write_text(json.dumps(payload))
        with pytest.raises(StoreError, match="format_version 99"):
            store.load(record.run_id)

    def test_blank_lines_are_tolerated(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.ingest("bench", {"x": 1.0})
        with store.index_path.open("a") as handle:
            handle.write("\n\n")
        assert len(store) == 1


class TestRegistryValues:
    def test_flattens_every_instrument_kind(self):
        registry = MetricsRegistry()
        registry.counter("payout_total").inc(7.0)
        registry.gauge("budget_remaining").set(93.0)
        histogram = registry.histogram("selector_seconds", bounds=(0.1, 1.0))
        for value in (0.05, 0.2, 0.9):
            histogram.observe(value)
        values = registry_values(registry.as_dict())
        assert values["payout_total"] == 7.0
        assert values["budget_remaining"] == 93.0
        assert values["selector_seconds/count"] == 3.0
        assert values["selector_seconds/mean"] == pytest.approx(1.15 / 3)
        assert 0.05 <= values["selector_seconds/p50"] <= 0.9
        assert values["selector_seconds/p95"] <= 0.9

    def test_empty_histogram_contributes_only_count(self):
        registry = MetricsRegistry()
        registry.histogram("selector_seconds")
        values = registry_values(registry.as_dict())
        assert values == {"selector_seconds/count": 0.0}


class TestBenchShim:
    def test_ingests_each_entry_once(self, tmp_path):
        trajectory = tmp_path / "BENCH_selectors.json"
        trajectory.write_text(json.dumps(
            [bench_entry(5.0), bench_entry(6.0, "2026-01-02T00:00:00Z")]
        ))
        store = RunStore(tmp_path / "store")
        created = ingest_bench_trajectory(store, trajectory)
        assert len(created) == 2
        assert created[0].created_at == "2026-01-01T00:00:00Z"
        assert created[0].labels["scale"] == "full"
        assert created[0].values["speedup"] == 5.0
        # Re-ingesting the same file is a no-op.
        assert ingest_bench_trajectory(store, trajectory) == []
        assert len(store) == 2

    def test_appended_entries_extend_the_same_series(self, tmp_path):
        trajectory = tmp_path / "BENCH_selectors.json"
        trajectory.write_text(json.dumps([bench_entry(5.0)]))
        store = RunStore(tmp_path / "store")
        ingest_bench_trajectory(store, trajectory)
        trajectory.write_text(json.dumps(
            [bench_entry(5.0), bench_entry(7.0, "2026-01-03T00:00:00Z")]
        ))
        created = ingest_bench_trajectory(store, trajectory)
        assert [r.values["speedup"] for r in created] == [7.0]
        history = store.series("speedup", kind="bench")
        assert [value for _run, value in history] == [5.0, 7.0]

    def test_entries_with_bench_field_get_their_own_kind(self, tmp_path):
        # Engine-bench entries share the trajectory file with selector
        # entries but must keep a separate regression baseline.
        trajectory = tmp_path / "BENCH_selectors.json"
        engine_entry = {
            "timestamp": "2026-01-02T00:00:00Z",
            "bench": "engine",
            "scale": "full",
            "rounds_per_second": 1.5,
            "peak_rss_mb": 120.0,
        }
        trajectory.write_text(json.dumps([bench_entry(5.0), engine_entry]))
        store = RunStore(tmp_path / "store")
        created = ingest_bench_trajectory(store, trajectory)
        assert sorted(r.kind for r in created) == ["bench", "bench:engine"]
        engine_run = next(r for r in created if r.kind == "bench:engine")
        assert engine_run.values["rounds_per_second"] == 1.5
        assert engine_run.labels["bench"] == "engine"
        history = store.series("rounds_per_second", kind="bench:engine")
        assert [value for _run, value in history] == [1.5]

    def test_rejects_non_trajectory_files(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text("{not json")
        store = RunStore(tmp_path / "store")
        with pytest.raises(StoreError, match="not a JSON bench trajectory"):
            ingest_bench_trajectory(store, bogus)
        bogus.write_text(json.dumps({"speedup": 5.0}))
        with pytest.raises(StoreError, match="list of objects"):
            ingest_bench_trajectory(store, bogus)
