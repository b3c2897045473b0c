"""The live operations layer end to end: /metrics, progress, trace merge.

Boots real services (same harness as test_service.py) and checks the
tentpole contracts: deterministic Prometheus exposition, per-job
progress gauges fed by the worker's progress file, restart-safe
counters, cross-process trace stitching, and worker log-mode
propagation.
"""

import asyncio
import functools
import json

from repro.obs.live import metric_value, parse_prometheus
from repro.obs.log import configure_logging
from repro.obs.trace import merge_traces, trace_id_for_job
from repro.server import JobService, WorkerSupervisor
from repro.server.client import ServerClient

FAST = {"overrides": {"n_users": 25, "n_tasks": 6, "rounds": 4,
                      "budget": 500.0, "seed": 11}}

#: A job long enough to still be running when we scrape (a few seconds).
SLOW = {"overrides": {"n_users": 2000, "n_tasks": 200, "rounds": 80,
                      "budget": 1e7, "arrival": "poisson", "seed": 2}}


def service_test(**svc_kwargs):
    """Decorator: run the test coroutine against a live service."""

    def decorate(coro_fn):
        def wrapper(tmp_path):
            async def main():
                kwargs = dict(svc_kwargs)
                supervisor_kwargs = kwargs.pop("supervisor_kwargs", None)
                if supervisor_kwargs is not None:
                    kwargs["supervisor"] = WorkerSupervisor(**supervisor_kwargs)
                service = JobService(tmp_path / "root", **kwargs)
                await service.start()
                client = ServerClient("127.0.0.1", service.port, timeout=60)
                loop = asyncio.get_running_loop()

                def call(fn, *args, **kw):
                    return loop.run_in_executor(
                        None, functools.partial(fn, *args, **kw)
                    )

                try:
                    await coro_fn(service, client, call)
                finally:
                    await service.stop()

            asyncio.run(main())

        wrapper.__name__ = coro_fn.__name__
        wrapper.__doc__ = coro_fn.__doc__
        return wrapper

    return decorate


@service_test(queue_limit=4, concurrency=1)
async def test_idle_scrapes_are_byte_identical(service, client, call):
    status, first = await call(client.metrics)
    assert status == 200
    status, second = await call(client.metrics)
    assert first == second
    parsed = parse_prometheus(first)
    assert metric_value(parsed, "repro_queue_depth") == 0.0
    assert metric_value(parsed, "repro_running_jobs") == 0.0
    # Every lifecycle state is present (all zero on an idle server).
    for state in ("queued", "running", "done", "failed", "cancelled",
                  "timed_out"):
        assert metric_value(parsed, "repro_jobs", state=state) == 0.0


@service_test(queue_limit=4, concurrency=1)
async def test_metrics_content_type_is_prometheus_text(service, client, call):
    import http.client

    def raw():
        conn = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=30
        )
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            response.read()
            return dict(response.getheaders())
        finally:
            conn.close()

    headers = await call(raw)
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")


@service_test(queue_limit=4, concurrency=1)
async def test_submission_outcomes_are_counted(service, client, call):
    await call(client.submit, FAST)           # accepted
    await call(client.submit, FAST)           # deduplicated
    await call(client.submit, {"overrides": {"n_users": -1}})  # invalid
    status, text = await call(client.metrics)
    parsed = parse_prometheus(text)
    assert metric_value(
        parsed, "repro_submissions_total", outcome="accepted"
    ) == 1.0
    assert metric_value(
        parsed, "repro_submissions_total", outcome="deduplicated"
    ) == 1.0
    assert metric_value(
        parsed, "repro_submissions_total", outcome="invalid"
    ) == 1.0


@service_test(queue_limit=4, concurrency=1)
async def test_running_job_exports_progress_gauges(service, client, call):
    status, body, _ = await call(client.submit, SLOW)
    assert status == 201
    job_id = body["job"]["job_id"]

    # Wait until the worker has completed at least one round: the
    # round gauge for this job id appears on /metrics.
    round_no = None
    for _ in range(300):
        status, text = await call(client.metrics)
        parsed = parse_prometheus(text)
        round_no = metric_value(parsed, "repro_job_round", job=job_id)
        if round_no is not None:
            break
        await asyncio.sleep(0.1)
    assert round_no is not None, "progress gauges never appeared"
    assert 1 <= round_no <= 80
    assert metric_value(parsed, "repro_job_rounds_total", job=job_id) == 80.0
    assert metric_value(parsed, "repro_job_budget", job=job_id) == 1e7
    spend = metric_value(parsed, "repro_job_spend", job=job_id)
    assert 0.0 <= spend <= 1e7
    completeness = metric_value(parsed, "repro_job_completeness", job=job_id)
    assert 0.0 <= completeness <= 1.0
    assert metric_value(parsed, "repro_job_eta_seconds", job=job_id) >= 0.0
    assert metric_value(parsed, "repro_running_jobs") == 1.0

    # The progress endpoint serves the same snapshot as JSON.
    status, doc = await call(client.progress, job_id)
    assert status == 200
    assert doc["state"] == "running"
    assert doc["progress"]["job_id"] == job_id
    assert doc["progress"]["rounds_total"] == 80

    await call(client.cancel, job_id)
    await call(client.wait, job_id, 60)


@service_test(queue_limit=4, concurrency=1)
async def test_progress_endpoint_edges(service, client, call):
    status, doc = await call(client.progress, "job-999999")
    assert status == 404
    status, body, _ = await call(client.submit, FAST)
    job_id = body["job"]["job_id"]
    await call(client.wait, job_id, 120)
    status, doc = await call(client.progress, job_id)
    assert status == 200
    assert doc["state"] == "done"
    # Terminal jobs keep their last snapshot but export no gauges.
    assert doc["progress"]["round_no"] == 4
    status, text = await call(client.metrics)
    parsed = parse_prometheus(text)
    assert metric_value(parsed, "repro_job_round", job=job_id) is None


@service_test(queue_limit=4, concurrency=1)
async def test_job_trace_shards_merge_into_one_trace(service, client, call):
    status, body, _ = await call(client.submit, FAST)
    job_id = body["job"]["job_id"]
    await call(client.wait, job_id, 120)

    trace_dir = service.job_dir(job_id) / "trace"
    shards = sorted(trace_dir.glob("*.trace.jsonl"))
    names = [p.name for p in shards]
    assert "server.trace.jsonl" in names
    assert "worker-a1.trace.jsonl" in names

    payload = merge_traces(shards)
    assert payload["otherData"]["trace_id"] == trace_id_for_job(job_id)
    assert payload["otherData"]["parents"]["worker-a1"] == "supervise"

    x_events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    by_name = {}
    for event in x_events:
        by_name.setdefault(event["name"], []).append(event)
    supervise = by_name["supervise"][0]
    supervise_end = supervise["ts"] + supervise["dur"]
    # Every worker span (run, rounds, phases) nests inside supervise on
    # the merged timeline — the stitching contract.
    worker_tid = next(
        e["tid"] for e in payload["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
        and e["args"]["name"] == "worker-a1"
    )
    worker_spans = [e for e in x_events if e["tid"] == worker_tid]
    assert worker_spans, "the worker recorded no spans"
    assert any(e["name"] == "round" for e in worker_spans)
    for event in worker_spans:
        assert event["ts"] >= supervise["ts"] - 1.0
        assert event["ts"] + event["dur"] <= supervise_end + 1.0


@service_test(
    queue_limit=4,
    concurrency=1,
    supervisor_kwargs=dict(max_attempts=2, backoff_base=0.01,
                           backoff_cap=0.05),
)
async def test_crash_retries_counted_and_attempts_timed(service, client, call):
    poison = {"overrides": {"n_users": 20, "rounds": 2, "seed": 1,
                            "selector_kwargs": {"bogus_kwarg": 1}}}
    status, body, _ = await call(client.submit, poison)
    await call(client.wait, body["job"]["job_id"], 120)
    status, text = await call(client.metrics)
    parsed = parse_prometheus(text)
    # Two attempts, one retry between them, both attempt durations land
    # in the histogram.
    assert metric_value(parsed, "repro_crash_retries_total") == 1.0
    assert metric_value(parsed, "repro_attempt_seconds_count") == 2.0
    assert metric_value(parsed, "repro_jobs", state="failed") == 1.0


@service_test(queue_limit=4, concurrency=1)
async def test_worker_inherits_server_log_mode(service, client, call):
    # The test process *is* the server process here: configure JSON
    # logging at INFO and the supervisor must hand that mode to the
    # worker subprocess via the environment.
    configure_logging(verbosity=1, json_output=True)
    status, body, _ = await call(client.submit, FAST)
    job_id = body["job"]["job_id"]
    await call(client.wait, job_id, 120)
    log_path = service.job_dir(job_id) / "worker.log"
    payloads = []
    for line in log_path.read_text().splitlines():
        try:
            payloads.append(json.loads(line))
        except ValueError:
            continue  # interpreter noise (warnings), not log lines
    starting = [p for p in payloads if p.get("message") == "worker starting"]
    assert starting, "worker emitted no JSON 'worker starting' line"
    assert starting[0]["level"] == "INFO"
    assert starting[0]["logger"] == "repro.server.worker"
    assert starting[0]["attempt"] == 1


def test_restart_does_not_double_count_terminal_jobs(tmp_path):
    """SIGKILL-style restart: gauges rebuild from the journal, once."""

    async def first_life():
        service = JobService(tmp_path / "root", queue_limit=4, concurrency=1)
        await service.start()
        client = ServerClient("127.0.0.1", service.port, timeout=60)
        loop = asyncio.get_running_loop()
        try:
            _, body, _ = await loop.run_in_executor(
                None, functools.partial(client.submit, FAST)
            )
            await loop.run_in_executor(
                None, functools.partial(
                    client.wait, body["job"]["job_id"], 120
                )
            )
            _, text = await loop.run_in_executor(None, client.metrics)
            return parse_prometheus(text)
        finally:
            await service.stop()

    async def second_life():
        service = JobService(tmp_path / "root", queue_limit=4, concurrency=1)
        await service.start()
        client = ServerClient("127.0.0.1", service.port, timeout=60)
        loop = asyncio.get_running_loop()
        try:
            _, first = await loop.run_in_executor(None, client.metrics)
            _, second = await loop.run_in_executor(None, client.metrics)
            return first, second
        finally:
            await service.stop()

    before = asyncio.run(first_life())
    assert metric_value(before, "repro_jobs", state="done") == 1.0

    first, second = asyncio.run(second_life())
    # Determinism survives the restart...
    assert first == second
    after = parse_prometheus(first)
    # ...and the recovered journal yields the same single done job, not
    # a re-count, while process-lifetime counters start over.
    assert metric_value(after, "repro_jobs", state="done") == 1.0
    assert metric_value(
        after, "repro_submissions_total", outcome="accepted"
    ) is None
