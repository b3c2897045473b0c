"""Tests for the span tracer: null tracer, exports, stitching, summarize."""

import json

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    SpanTracer,
    TRACE_DIR_ENV,
    TRACE_ID_ENV,
    TRACE_PARENT_ENV,
    TRACE_PROCESS_ENV,
    TraceContext,
    load_trace,
    merge_traces,
    read_trace_shard,
    summarize,
    trace_id_for_job,
    write_merged_trace,
)


class TestNullTracer:
    def test_span_is_a_reusable_noop(self):
        first = NULL_TRACER.span("anything", cat="x", round=1)
        second = NULL_TRACER.span("else")
        assert first is second  # preallocated: no per-span allocation
        with first:
            pass

    def test_disabled_flag_for_hot_loops(self):
        assert NULL_TRACER.enabled is False
        assert SpanTracer().enabled is True

    def test_no_span_is_ever_current(self):
        assert NULL_TRACER.current_span_name == ""
        with NULL_TRACER.span("anything"):
            assert NULL_TRACER.current_span_name == ""


class TestSpanTracer:
    def _traced(self):
        tracer = SpanTracer(metadata={"selector": "dp"})
        with tracer.span("run", cat="run"):
            with tracer.span("round", cat="round", round=1):
                with tracer.span("select", cat="phase"):
                    pass
            with tracer.span("round", cat="round", round=2):
                pass
        return tracer

    def test_records_nesting_depth_and_args(self):
        tracer = self._traced()
        by_name = {}
        for record in tracer.spans:
            by_name.setdefault(record.name, []).append(record)
        assert by_name["run"][0].depth == 0
        assert by_name["round"][0].depth == 1
        assert by_name["select"][0].depth == 2
        assert by_name["round"][0].args == {"round": 1}
        assert all(record.duration >= 0 for record in tracer.spans)

    def test_current_span_name_tracks_the_innermost_open_span(self):
        tracer = SpanTracer()
        assert tracer.current_span_name == ""
        with tracer.span("run"):
            assert tracer.current_span_name == "run"
            with tracer.span("select"):
                assert tracer.current_span_name == "select"
            assert tracer.current_span_name == "run"
        assert tracer.current_span_name == ""

    def test_chrome_export_is_perfetto_shaped(self, tmp_path):
        tracer = self._traced()
        path = tracer.write_chrome(tmp_path / "trace.json", counters={"c": 1})
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert payload["otherData"]["selector"] == "dp"
        assert payload["otherData"]["counters"] == {"c": 1}
        events = payload["traceEvents"]
        assert {event["ph"] for event in events} == {"X"}
        assert all({"name", "ts", "dur", "pid", "tid"} <= set(e) for e in events)
        # Chronological: a sorted ts column.
        stamps = [event["ts"] for event in events]
        assert stamps == sorted(stamps)

    def test_jsonl_export_round_trips(self, tmp_path):
        tracer = self._traced()
        path = tracer.write_jsonl(tmp_path / "trace.jsonl")
        loaded = load_trace(path)
        assert loaded["metadata"] == {"selector": "dp"}
        assert sorted(name for name, _ in loaded["spans"]) == sorted(
            record.name for record in tracer.spans
        )

    def test_load_trace_reads_both_formats_identically(self, tmp_path):
        tracer = self._traced()
        chrome = load_trace(tracer.write_chrome(tmp_path / "t.json"))
        jsonl = load_trace(tracer.write_jsonl(tmp_path / "t.jsonl"))
        names = lambda loaded: sorted(name for name, _ in loaded["spans"])  # noqa: E731
        assert names(chrome) == names(jsonl)


class TestTraceContext:
    def test_trace_id_is_deterministic_per_job(self):
        assert trace_id_for_job("job-000001") == trace_id_for_job("job-000001")
        assert trace_id_for_job("job-000001") != trace_id_for_job("job-000002")
        assert len(trace_id_for_job("job-1")) == 16

    def test_env_round_trip(self):
        ctx = TraceContext(
            trace_id="abc123", trace_dir="/tmp/t",
            parent_span_id="supervise", process="server",
        )
        env = ctx.to_env()
        assert env[TRACE_ID_ENV] == "abc123"
        assert env[TRACE_DIR_ENV] == "/tmp/t"
        assert env[TRACE_PARENT_ENV] == "supervise"
        assert env[TRACE_PROCESS_ENV] == "server"
        assert TraceContext.from_env(env) == ctx

    def test_from_env_needs_id_and_dir(self):
        assert TraceContext.from_env({}) is None
        assert TraceContext.from_env({TRACE_ID_ENV: "abc"}) is None
        assert TraceContext.from_env({TRACE_DIR_ENV: "/tmp"}) is None

    def test_child_keeps_the_trace_and_renames_the_process(self):
        ctx = TraceContext("t1", "/dir", parent_span_id="supervise")
        child = ctx.child("worker-a1")
        assert child.trace_id == "t1"
        assert child.process == "worker-a1"
        assert child.parent_span_id == "supervise"
        grandchild = child.child("shard-9", parent_span_id="select")
        assert grandchild.parent_span_id == "select"

    def test_shard_path_is_named_after_the_process(self, tmp_path):
        ctx = TraceContext("t1", str(tmp_path), process="worker-a1")
        assert ctx.shard_path().name == "worker-a1.trace.jsonl"
        assert ctx.shard_path("custom").name == "custom.trace.jsonl"


class TestReadTraceShard:
    def test_empty_shard_rejected_by_reader(self, tmp_path):
        path = tmp_path / "x.trace.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_trace_shard(path)

    def _shard(self, tmp_path):
        tracer = SpanTracer(metadata={"selector": "dp"})
        with tracer.span("run", cat="run"):
            with tracer.span("round", cat="round", round=1):
                pass
        return tracer.write_jsonl(tmp_path / "x.trace.jsonl")

    def test_torn_span_line_names_the_path_and_line(self, tmp_path):
        path = self._shard(tmp_path)
        with path.open("a") as handle:
            handle.write('{"kind": "span", "na')
        lines = len(path.read_text().splitlines())
        with pytest.raises(ValueError) as caught:
            read_trace_shard(path)
        assert not isinstance(caught.value, json.JSONDecodeError)
        assert str(caught.value).startswith(
            f"{path}: corrupt trace-shard line {lines};"
        )

    def test_damaged_span_line_names_the_path_and_line(self, tmp_path):
        path = self._shard(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as caught:
            read_trace_shard(path)
        assert not isinstance(caught.value, json.JSONDecodeError)
        assert str(caught.value).startswith(f"{path}: corrupt trace-shard line 2;")


class TestMergeTraces:
    def _write_shard(self, tmp_path, process, epoch_unix, spans,
                     trace_id="t1", parent=""):
        """A hand-built shard: (name, start, duration) triples."""
        path = tmp_path / f"{process}.trace.jsonl"
        lines = [json.dumps({
            "kind": "meta", "format": "repro-trace",
            "epoch_unix": epoch_unix, "trace_id": trace_id,
            "process": process, "parent_span_id": parent,
        })]
        for name, start, duration in spans:
            lines.append(json.dumps({
                "kind": "span", "name": name, "cat": "test",
                "start": start, "duration": duration, "depth": 0,
                "args": {},
            }))
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_rebases_shards_onto_one_wall_clock(self, tmp_path):
        server = self._write_shard(
            tmp_path, "server", 1000.0, [("supervise", 0.0, 10.0)],
        )
        worker = self._write_shard(
            tmp_path, "worker-a1", 1002.0, [("run", 0.0, 6.0)],
            parent="supervise",
        )
        payload = merge_traces([server, worker])
        x_events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in x_events}
        supervise, run = by_name["supervise"], by_name["run"]
        # worker epoch is 2 s after the server's: its span shifts right
        # and lands inside the supervise span.
        assert run["ts"] == supervise["ts"] + 2e6
        assert supervise["ts"] <= run["ts"]
        assert run["ts"] + run["dur"] <= supervise["ts"] + supervise["dur"]

    def test_each_process_is_a_named_thread(self, tmp_path):
        paths = [
            self._write_shard(tmp_path, "server", 0.0, [("a", 0, 1)]),
            self._write_shard(tmp_path, "worker-a1", 0.0, [("b", 0, 1)]),
        ]
        payload = merge_traces(paths)
        names = {
            e["tid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert set(names.values()) == {"server", "worker-a1"}
        assert payload["otherData"]["processes"] == ["server", "worker-a1"]

    def test_lineage_lands_in_other_data(self, tmp_path):
        paths = [
            self._write_shard(tmp_path, "server", 0.0, [("a", 0, 1)]),
            self._write_shard(
                tmp_path, "worker-a1", 0.0, [("b", 0, 1)],
                parent="supervise",
            ),
        ]
        payload = merge_traces(paths)
        assert payload["otherData"]["trace_id"] == "t1"
        assert payload["otherData"]["parents"]["worker-a1"] == "supervise"

    def test_mixed_trace_ids_refused(self, tmp_path):
        paths = [
            self._write_shard(tmp_path, "a", 0.0, [("x", 0, 1)], trace_id="t1"),
            self._write_shard(tmp_path, "b", 0.0, [("y", 0, 1)], trace_id="t2"),
        ]
        with pytest.raises(ValueError, match="different traces"):
            merge_traces(paths)

    def test_shard_without_trace_id_refused(self, tmp_path):
        path = self._write_shard(tmp_path, "a", 0.0, [("x", 0, 1)], trace_id="")
        with pytest.raises(ValueError, match="without a trace_id"):
            merge_traces([path])

    def test_no_shards_refused(self):
        with pytest.raises(ValueError, match="no trace shards"):
            merge_traces([])

    def test_write_merged_trace_is_a_chrome_file(self, tmp_path):
        shard = self._write_shard(tmp_path, "server", 0.0, [("a", 0, 1)])
        out = write_merged_trace(tmp_path / "merged.json", [shard])
        payload = json.loads(out.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert {"traceEvents", "otherData"} <= set(payload)


class TestSummarize:
    def test_aggregates_per_name(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("run"):
            for _ in range(3):
                with tracer.span("round"):
                    pass
        path = tracer.write_chrome(tmp_path / "trace.json")
        rows = {row.name: row for row in summarize(path)}
        assert rows["round"].count == 3
        assert rows["run"].count == 1
        assert rows["round"].total_seconds == pytest.approx(
            3 * rows["round"].mean_seconds
        )
        assert rows["run"].total_seconds >= rows["round"].total_seconds

    def test_percentiles_bracket_the_distribution(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("run"):
            for _ in range(20):
                with tracer.span("round"):
                    pass
        rows = {row.name: row for row in summarize(
            tracer.write_chrome(tmp_path / "trace.json")
        )}
        round_row = rows["round"]
        assert 0 <= round_row.p50_seconds <= round_row.p95_seconds
        assert round_row.p95_seconds <= round_row.max_seconds
        assert round_row.p50_seconds <= round_row.max_seconds
        # A single-span phase has degenerate percentiles == its duration.
        run_row = rows["run"]
        assert run_row.p50_seconds == pytest.approx(run_row.mean_seconds)
        assert run_row.p95_seconds == pytest.approx(run_row.max_seconds)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not_a_trace.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="not a repro trace"):
            load_trace(path)
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_trace(empty)
