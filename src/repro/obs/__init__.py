"""Observability: structured logging, metrics, span tracing, manifests.

The subsystem every serving stack grows eventually, grown deliberately:

- :mod:`repro.obs.log` — structured logging on stdlib ``logging`` with
  contextvars-propagated run/round/mechanism context;
- :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  histograms with label sets (the generalisation of
  :class:`~repro.simulation.perf.PerfStats`);
- :mod:`repro.obs.trace` — run → round → phase span tracing, exported
  as JSONL or Chrome trace events (Perfetto-loadable), with a zero-cost
  no-op tracer as the default;
- :mod:`repro.obs.manifest` — atomic run manifests recording config
  fingerprint, seed, git revision, interpreter, and host;
- :mod:`repro.obs.store` — the run observatory: an append-only,
  file-locked, queryable store of manifests + metric summaries + trace
  summaries across runs;
- :mod:`repro.obs.profiler` — a sampling resource profiler (RSS, CPU,
  GC) attributing samples to the active trace span, no-op by default;
- :mod:`repro.obs.regress` — baseline-window perf-regression detection
  (robust MAD z-scores with a relative-threshold fallback) with typed
  verdicts;
- :mod:`repro.obs.report` — terminal and self-contained single-file
  HTML dashboards over the store.

Everything here observes; nothing decides.  The invariant the tests pin:
a run with full observability enabled produces bit-identical simulated
numbers to a run with none.
"""

from repro.obs.live import (
    JobProgress,
    ProgressWriter,
    format_number,
    metric_value,
    parse_prometheus,
    progress_gauges,
    render_prometheus,
    render_top_frame,
    sparkline,
)
from repro.obs.log import (
    JsonFormatter,
    KeyValueFormatter,
    LOG_JSON_ENV,
    LOG_LEVEL_ENV,
    bind,
    configure_logging,
    configure_logging_from_env,
    current_context,
    get_logger,
    logging_environment,
    verbosity_to_level,
)
from repro.obs.manifest import (
    RunManifest,
    build_manifest,
    load_manifest,
    manifest_path_for,
    write_manifest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    series_key,
)
from repro.obs.profiler import (
    NULL_PROFILER,
    ResourceProfiler,
    ResourceSample,
    read_rss_bytes,
)
from repro.obs.regress import (
    DEFAULT_THRESHOLDS,
    MetricSpec,
    RegressionReport,
    Thresholds,
    Verdict,
    default_spec,
    detect,
    regress_series,
    regress_store,
)
from repro.obs.report import (
    render_html_dashboard,
    render_terminal_dashboard,
    write_html_dashboard,
)
from repro.obs.store import (
    RunRecord,
    RunStore,
    StoreError,
    ingest_bench_trajectory,
    registry_values,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    PhaseSummary,
    SpanRecord,
    SpanTracer,
    TraceContext,
    load_trace,
    merge_traces,
    read_trace_shard,
    summarize,
    trace_id_for_job,
    write_merged_trace,
)

__all__ = [
    "JobProgress",
    "ProgressWriter",
    "format_number",
    "metric_value",
    "parse_prometheus",
    "progress_gauges",
    "render_prometheus",
    "render_top_frame",
    "sparkline",
    "JsonFormatter",
    "KeyValueFormatter",
    "LOG_JSON_ENV",
    "LOG_LEVEL_ENV",
    "bind",
    "configure_logging",
    "configure_logging_from_env",
    "current_context",
    "get_logger",
    "logging_environment",
    "verbosity_to_level",
    "RunManifest",
    "build_manifest",
    "load_manifest",
    "manifest_path_for",
    "write_manifest",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "series_key",
    "NULL_PROFILER",
    "ResourceProfiler",
    "ResourceSample",
    "read_rss_bytes",
    "DEFAULT_THRESHOLDS",
    "MetricSpec",
    "RegressionReport",
    "Thresholds",
    "Verdict",
    "default_spec",
    "detect",
    "regress_series",
    "regress_store",
    "render_html_dashboard",
    "render_terminal_dashboard",
    "write_html_dashboard",
    "RunRecord",
    "RunStore",
    "StoreError",
    "ingest_bench_trajectory",
    "registry_values",
    "NULL_TRACER",
    "NullTracer",
    "PhaseSummary",
    "SpanRecord",
    "SpanTracer",
    "TraceContext",
    "load_trace",
    "merge_traces",
    "read_trace_shard",
    "summarize",
    "trace_id_for_job",
    "write_merged_trace",
]
