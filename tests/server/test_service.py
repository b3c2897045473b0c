"""End-to-end tests for the job service over real HTTP.

Each test boots a :class:`~repro.server.app.JobService` on an ephemeral
port inside ``asyncio.run`` and talks to it through the blocking
:class:`~repro.server.client.ServerClient` on executor threads — the
same wire path production clients use (chunked NDJSON included).
"""

import asyncio
import functools

from repro.server import JobService, WorkerSupervisor
from repro.server.client import ServerClient

FAST = {"overrides": {"n_users": 25, "n_tasks": 6, "rounds": 4,
                      "budget": 500.0, "seed": 11}}

#: A job long enough to still be running when we poke at it (a few seconds).
SLOW = {"overrides": {"n_users": 2000, "n_tasks": 200, "rounds": 80,
                      "budget": 1e7, "arrival": "poisson", "seed": 2}}


def fast(seed):
    doc = {"overrides": dict(FAST["overrides"])}
    doc["overrides"]["seed"] = seed
    return doc


def service_test(**svc_kwargs):
    """Decorator: run the test coroutine against a live service.

    The coroutine receives ``(service, client, call)`` where ``call``
    hops a blocking client method onto an executor thread.
    """

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

        # pytest must see wrapper's own (tmp_path) signature, so no
        # functools.wraps here — just carry the name and docstring over.
        wrapper.__name__ = coro_fn.__name__
        wrapper.__doc__ = coro_fn.__doc__
        return wrapper

    return decorate


@service_test(queue_limit=4, concurrency=1)
async def test_submit_runs_to_done(service, client, call):
    status, body, _ = await call(client.submit, FAST)
    assert status == 201
    assert body["deduplicated"] is False
    job_id = body["job"]["job_id"]
    final = await call(client.wait, job_id, 120)
    assert final["state"] == "done"
    assert final["result"]["summary"]["coverage"] >= 0
    status, doc = await call(client.status, job_id)
    assert status == 200 and doc["job"]["terminal"]


@service_test(queue_limit=4, concurrency=1)
async def test_dedup_by_fingerprint(service, client, call):
    status1, body1, _ = await call(client.submit, FAST)
    status2, body2, _ = await call(client.submit, FAST)
    assert status1 == 201
    assert status2 == 200
    assert body2["deduplicated"] is True
    assert body2["job"]["job_id"] == body1["job"]["job_id"]


@service_test(queue_limit=4, concurrency=1)
async def test_invalid_submission_is_structured_400(service, client, call):
    status, body, _ = await call(
        client.submit, {"overrides": {"n_users": -5}}
    )
    assert status == 400
    assert body["error"] == "invalid submission"
    assert body["field"] == "n_users"
    assert body["reason"]


@service_test(queue_limit=4, concurrency=1)
async def test_fixed_mechanism_on_a_task_stream_is_a_400(service, client, call):
    status, body, _ = await call(client.submit, {
        "scenario": "poisson-stream", "overrides": {"mechanism": "fixed"},
    })
    assert status == 400
    assert body["field"] == "mechanism"
    assert "task_arrival_rate" in body["reason"]


@service_test(queue_limit=2, concurrency=1)
async def test_backpressure_429_with_retry_after(service, client, call):
    # One slow job occupies the worker; two fill the queue; the next
    # submissions must be refused with 429 + Retry-After.
    accepted = 0
    refused = []
    for seed in range(100, 108):
        status, body, headers = await call(
            client.submit, fast(seed)
        )
        if status == 201:
            accepted += 1
        elif status == 429:
            refused.append((body, headers))
    assert refused, "queue never saturated"
    for body, headers in refused:
        assert body["error"] == "queue full"
        assert int(headers["Retry-After"]) >= 1


@service_test(queue_limit=8, concurrency=1)
async def test_cancel_queued_and_running(service, client, call):
    status, body, _ = await call(client.submit, SLOW)
    running_id = body["job"]["job_id"]
    status, body, _ = await call(client.submit, fast(200))
    queued_id = body["job"]["job_id"]

    # Give the dispatcher a beat to start the slow job.
    for _ in range(100):
        status, doc = await call(client.status, running_id)
        if doc["job"]["state"] == "running":
            break
        await asyncio.sleep(0.05)

    status, doc = await call(client.cancel, queued_id)
    assert status == 200
    assert doc["job"]["state"] == "cancelled"

    status, doc = await call(client.cancel, running_id)
    assert status == 202
    final = await call(client.wait, running_id, 60)
    assert final["state"] == "cancelled"
    assert final["error"] == "cancelled by client"

    # Terminal jobs refuse further cancels.
    status, doc = await call(client.cancel, running_id)
    assert status == 409


@service_test(queue_limit=4, concurrency=1)
async def test_cancel_unknown_job_404(service, client, call):
    status, doc = await call(client.cancel, "job-999999")
    assert status == 404


@service_test(queue_limit=4, concurrency=1)
async def test_events_tail_streams_to_terminal_line(service, client, call):
    status, body, _ = await call(client.submit, FAST)
    job_id = body["job"]["job_id"]
    lines = await call(lambda: list(client.tail(job_id)))
    kinds = [line["kind"] for line in lines]
    assert kinds[0] == "meta"
    assert kinds[-1] == "job_state"
    assert lines[-1]["state"] == "done"
    rounds = [line["round_no"] for line in lines if line["kind"] == "round"]
    assert rounds == list(range(1, len(rounds) + 1))


@service_test(queue_limit=4, concurrency=1)
async def test_health_and_readiness(service, client, call):
    status, doc = await call(client.healthz)
    assert (status, doc["status"]) == (200, "ok")
    status, doc = await call(client.readyz)
    assert status == 200
    assert doc["status"] == "ready"
    # Shutdown flips readiness but never liveness.
    service.request_stop()
    status, doc = await call(client.readyz)
    assert status == 503
    status, doc = await call(client.healthz)
    assert status == 200


@service_test(queue_limit=4, concurrency=1)
async def test_http_refusals(service, client, call):
    import http.client
    import json as _json

    def raw(method, path, body=b"", headers=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=30
        )
        try:
            conn.request(method, path, body=body, headers=headers or {})
            response = conn.getresponse()
            return response.status, _json.loads(response.read() or b"{}")
        finally:
            conn.close()

    status, _doc = await call(raw, "GET", "/no/such/route")
    assert status == 404
    status, _doc = await call(raw, "DELETE", "/jobs")
    assert status == 405
    status, doc = await call(raw, "POST", "/jobs", b"{not json")
    assert status == 400 and doc["field"] == "body"
    status, doc = await call(
        raw, "POST", "/jobs", b"x",
        {"Content-Length": str(10_000_000)},
    )
    assert status == 413


@service_test(
    queue_limit=4,
    concurrency=1,
    supervisor_kwargs=dict(max_attempts=2, backoff_base=0.01, backoff_cap=0.05),
)
async def test_poisoned_job_fails_after_capped_retries(service, client, call):
    # Passes boundary validation (selector_kwargs contents are
    # selector-specific) but crashes every worker at engine build.
    poison = {"overrides": {"n_users": 20, "rounds": 2, "seed": 1,
                            "selector_kwargs": {"bogus_kwarg": 1}}}
    status, body, _ = await call(client.submit, poison)
    assert status == 201
    final = await call(client.wait, body["job"]["job_id"], 120)
    assert final["state"] == "failed"
    assert final["attempts"] == 2
    assert "poisoned" in final["error"]


@service_test(queue_limit=4, concurrency=1, default_timeout=1.0)
async def test_timeout_marks_timed_out(service, client, call):
    status, body, _ = await call(client.submit, SLOW)
    assert status == 201
    final = await call(client.wait, body["job"]["job_id"], 60)
    assert final["state"] == "timed_out"
    assert "budget" in final["error"]


@service_test(queue_limit=8, concurrency=1)
async def test_memory_pressure_sheds_lowest_priority(service, client, call):
    # The slow job occupies the single worker; the queued jobs are the
    # shedding pool.
    status, body, _ = await call(client.submit, SLOW)
    slow_id = body["job"]["job_id"]
    for _ in range(200):
        status, doc = await call(client.status, slow_id)
        if doc["job"]["state"] == "running":
            break
        await asyncio.sleep(0.05)
    assert doc["job"]["state"] == "running"

    victim_ids = {}
    for seed, priority in ((300, 5), (301, 0)):
        doc = fast(seed)
        doc["priority"] = priority
        status, body, _ = await call(client.submit, doc)
        assert status == 201
        victim_ids[priority] = body["job"]["job_id"]

    # Trip the watermark: limit 1 byte, reader says 2 bytes — over.
    readings = iter([2, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    service.watermark.limit_bytes = 1
    service.watermark._read = lambda: next(readings, 0)

    for _ in range(100):
        status, doc = await call(client.status, victim_ids[0])
        if doc["job"]["state"] == "cancelled":
            break
        await asyncio.sleep(0.05)
    assert doc["job"]["state"] == "cancelled"
    assert "memory pressure" in doc["job"]["error"]
    # The higher-priority job survived the shed.
    status, doc = await call(client.status, victim_ids[5])
    assert doc["job"]["state"] in ("queued", "running", "done")
