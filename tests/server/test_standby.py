"""The standby worker: started before its job, handed the job on stdin.

The supervisor keeps one ``python -m repro.server.worker`` waiting with
its imports done; each attempt writes it one handoff line and starts the
next standby.  These tests pin the lifecycle around that: nothing
outlives the service, a dead standby is replaced, a dead handoff pipe is
an ordinary crash, and each attempt still logs and traces into its own
job directory.
"""

import asyncio
import json
import os
import signal

from repro.obs.log import configure_logging
from repro.server import JobService, WorkerSupervisor
from repro.server.client import ServerClient
from repro.server.jobs import Job, JobState
from repro.server.supervisor import TRACE_DIR_NAME

from tests.server.test_service import FAST, SLOW, fast, service_test

POISON = {"overrides": {"n_users": 20, "rounds": 2, "seed": 1,
                        "selector_kwargs": {"bogus_kwarg": 1}}}


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _starting_attempts(log_path):
    attempts = []
    for line in log_path.read_text().splitlines():
        try:
            payload = json.loads(line)
        except ValueError:
            continue
        if payload.get("message") == "worker starting":
            attempts.append(payload["attempt"])
    return attempts


def test_stop_leaves_no_worker_alive(tmp_path):
    """Neither the standby nor a worker still running a job outlives
    ``JobService.stop()``."""

    async def main():
        service = JobService(tmp_path / "root", queue_limit=4, concurrency=1)
        await service.start()
        client = ServerClient("127.0.0.1", service.port, timeout=60)
        loop = asyncio.get_running_loop()
        supervisor = service.supervisor
        try:
            _, body, _ = await loop.run_in_executor(None, client.submit, FAST)
            final = await loop.run_in_executor(
                None, client.wait, body["job"]["job_id"], 120
            )
            assert final["state"] == "done"
            _, body, _ = await loop.run_in_executor(None, client.submit, SLOW)
            while not supervisor.processes or supervisor._standby is None:
                await asyncio.sleep(0.05)
            workers = [*supervisor.processes.values(), supervisor._standby.proc]
            assert all(proc.returncode is None for proc in workers)
        finally:
            await service.stop()
        assert supervisor._standby is None and not supervisor.processes
        for proc in workers:
            assert proc.returncode is not None
            assert _gone(proc.pid)

    asyncio.run(main())


@service_test(queue_limit=4, concurrency=1)
async def test_standby_killed_while_idle_is_replaced(service, client, call):
    _, body, _ = await call(client.submit, fast(1))
    assert (await call(client.wait, body["job"]["job_id"], 120))["state"] == "done"
    standby = service.supervisor._standby
    standby.proc.send_signal(signal.SIGKILL)
    await standby.proc.wait()

    _, body, _ = await call(client.submit, fast(2))
    final = await call(client.wait, body["job"]["job_id"], 120)
    assert final["state"] == "done"
    assert final["attempts"] == 1
    replacement = service.supervisor._standby
    assert replacement is not None and replacement.proc.pid != standby.proc.pid


def test_handoff_to_dead_pipe_is_a_crash_retry(tmp_path):
    """A standby that died after the liveness check leaves a broken
    pipe; the attempt is a crash (retried), not a supervisor failure."""
    job_dir = tmp_path / "job-1"
    job_dir.mkdir()
    (job_dir / "job.json").write_text(json.dumps({
        "job_id": "job-1", "payload": FAST, "obs_store": None,
    }))
    job = Job(job_id="job-1", fingerprint="f", payload=FAST)
    states = []

    async def main():
        supervisor = WorkerSupervisor(
            max_attempts=2, backoff_base=0.01, backoff_cap=0.02
        )
        dead = await supervisor._spawn_standby()
        dead.proc.kill()
        await dead.proc.wait()
        take = supervisor._take_standby

        async def take_dead_once(job):
            supervisor._take_standby = take
            return dead

        supervisor._take_standby = take_dead_once
        try:
            await supervisor.run_to_terminal(
                job, job_dir, lambda j: states.append(j.state)
            )
        finally:
            await supervisor.shutdown()

    asyncio.run(main())
    assert job.state is JobState.DONE, job.error
    assert job.attempts == 2
    assert states == [JobState.RUNNING, JobState.QUEUED, JobState.RUNNING,
                      JobState.DONE]


@service_test(
    queue_limit=4,
    concurrency=1,
    supervisor_kwargs=dict(max_attempts=2, backoff_base=0.01,
                           backoff_cap=0.05),
)
async def test_each_attempt_logs_and_traces_in_its_own_job_dir(
    service, client, call
):
    configure_logging(verbosity=1, json_output=True)
    _, body, _ = await call(client.submit, FAST)
    done_id = body["job"]["job_id"]
    assert (await call(client.wait, done_id, 120))["state"] == "done"
    _, body, _ = await call(client.submit, POISON)
    poison_id = body["job"]["job_id"]
    final = await call(client.wait, poison_id, 120)
    assert final["state"] == "failed" and final["attempts"] == 2

    done_dir = service.job_dir(done_id)
    assert _starting_attempts(done_dir / "worker.log") == [1]
    assert _starting_attempts(service.job_dir(poison_id) / "worker.log") == [1, 2]
    shards = sorted(p.name for p in (done_dir / TRACE_DIR_NAME).iterdir())
    assert "worker-a1.trace.jsonl" in shards, shards
