"""The forkserver standing by to fork every worker attempt.

The supervisor forks each attempt from one long-lived forkserver that
has already imported the worker; the child runs
:func:`repro.server.worker.attempt`.  These tests pin the lifecycle
around that: nothing outlives the service, a dead forkserver is
replaced, a failed fork request is an ordinary crash, exit codes keep
their meaning, and each attempt logs, traces and takes its env in its
own job directory without writing to the service's output.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from multiprocessing import forkserver
from pathlib import Path

from repro.obs.log import LOG_JSON_ENV, LOG_LEVEL_ENV, configure_logging
from repro.obs.trace import TraceContext
from repro.server import JobService, WorkerSupervisor, worker
from repro.server.client import ServerClient
from repro.server.jobs import EXIT_DONE, Job, JobState
from repro.server.supervisor import _FORKS, TRACE_DIR_NAME
from repro.server.worker import CRASH_P_ENV, CRASH_SEED_ENV

from tests.server.test_service import FAST, SLOW, fast, service_test
from tests.server.test_worker import _worker_env, write_job

POISON = {"overrides": {"n_users": 20, "rounds": 2, "seed": 1,
                        "selector_kwargs": {"bogus_kwarg": 1}}}


def _gone(pid):
    """True once ``pid`` has exited (a zombie awaiting its reaper too)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _dies_soon(pid, seconds=2.0):
    """True once a SIGKILLed ``pid`` is gone, polling up to ``seconds``
    (the signal is delivered asynchronously)."""
    deadline = time.monotonic() + seconds
    while not _gone(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


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


def _supervise(job_dir, **supervisor_kwargs):
    """Drive the job in ``job_dir`` to a terminal state; the job and
    every state the supervisor recorded."""
    job = Job(job_id=job_dir.name, fingerprint="f", payload=FAST)
    states = []

    async def main():
        supervisor = WorkerSupervisor(
            backoff_base=0.01, backoff_cap=0.02, **supervisor_kwargs
        )
        try:
            await supervisor.run_to_terminal(
                job, job_dir, lambda j: states.append(j.state)
            )
        finally:
            await supervisor.shutdown()

    asyncio.run(main())
    return job, states


def test_stop_leaves_no_worker_alive(tmp_path):
    """A worker still running a job does not outlive
    ``JobService.stop()``."""

    async def main():
        service = JobService(tmp_path / "root", queue_limit=4, concurrency=1)
        await service.start()
        client = ServerClient("127.0.0.1", service.port, timeout=60)
        loop = asyncio.get_running_loop()
        supervisor = service.supervisor
        try:
            await loop.run_in_executor(None, client.submit, SLOW)
            while not supervisor.processes:
                await asyncio.sleep(0.05)
            pids = [proc.pid for proc, _ in supervisor.processes.values()]
        finally:
            await service.stop()
        assert not supervisor.processes
        assert pids and all(_gone(pid) for pid in pids)

    asyncio.run(main())


@service_test(queue_limit=4, concurrency=1)
async def test_forkserver_killed_while_idle_is_replaced(service, client, call):
    _, body, _ = await call(client.submit, fast(1))
    assert (await call(client.wait, body["job"]["job_id"], 120))["state"] == "done"
    dead = forkserver._forkserver._forkserver_pid
    os.kill(dead, signal.SIGKILL)
    # Wait for the exit without reaping: the forkserver's owner does that.
    os.waitid(os.P_PID, dead, os.WEXITED | os.WNOWAIT)

    _, body, _ = await call(client.submit, fast(2))
    final = await call(client.wait, body["job"]["job_id"], 120)
    assert final["state"] == "done"
    assert final["attempts"] == 1
    assert forkserver._forkserver._forkserver_pid not in (None, dead)


def test_forkserver_killed_mid_job_takes_its_worker_along(tmp_path):
    """A forkserver dying under a running attempt orphans its worker:
    the supervisor kills it and reports a crash, so no retry runs next
    to it."""
    job_dir = write_job(tmp_path / "job-1", SLOW)
    job = Job(job_id="job-1", fingerprint="f", payload=SLOW)

    async def main():
        supervisor = WorkerSupervisor(max_attempts=1)
        run = asyncio.get_running_loop().create_task(
            supervisor.run_to_terminal(job, job_dir, lambda j: None)
        )
        while not supervisor.processes:
            await asyncio.sleep(0.02)
        [(proc, _)] = supervisor.processes.values()
        pid = proc.pid
        os.kill(forkserver._forkserver._forkserver_pid, signal.SIGKILL)
        await run
        return pid

    pid = asyncio.run(main())
    assert job.state is JobState.FAILED
    assert "last exit code 255" in job.error
    assert _dies_soon(pid)


def test_failed_fork_request_is_a_crash_retry(tmp_path, monkeypatch):
    """A fork request the forkserver cannot take is a crash (retried),
    not a supervisor failure."""
    connect = forkserver.connect_to_new_process
    refused = []

    def refuse_once(fds):
        if not refused:
            refused.append(fds)
            raise ConnectionRefusedError("forkserver went away")
        return connect(fds)

    monkeypatch.setattr(forkserver, "connect_to_new_process", refuse_once)
    job, states = _supervise(write_job(tmp_path / "job-1", FAST), max_attempts=2)
    assert refused
    assert job.state is JobState.DONE, job.error
    assert job.attempts == 2
    assert states == [JobState.RUNNING, JobState.QUEUED, JobState.RUNNING,
                      JobState.DONE]


def test_bad_job_fails_on_the_first_attempt(tmp_path):
    """A forked attempt exiting 2 (bad job dir) ends FAILED, no retry."""
    job_dir = tmp_path / "job-1"
    job_dir.mkdir()
    (job_dir / "job.json").write_text(json.dumps({"job_id": "job-1"}))
    job, states = _supervise(job_dir, max_attempts=3)
    assert job.state is JobState.FAILED
    assert job.attempts == 1
    assert "worker rejected the job" in job.error
    assert states == [JobState.RUNNING, JobState.FAILED]
    assert "bad job dir" in (job_dir / "worker.log").read_text()


def test_supervisor_env_reaches_every_attempt(tmp_path):
    """The supervisor's extra env (here: crash on every round) is
    applied in each forked attempt."""
    job, states = _supervise(
        write_job(tmp_path / "job-1", FAST),
        max_attempts=2,
        env={CRASH_P_ENV: "1.0", CRASH_SEED_ENV: "7"},
    )
    assert job.state is JobState.FAILED
    assert job.attempts == 2
    assert "last exit code 13" in job.error
    assert states == [JobState.RUNNING, JobState.QUEUED, JobState.RUNNING,
                      JobState.FAILED]


def test_attempt_appends_to_its_log_and_applies_its_env(tmp_path):
    job_dir = write_job(tmp_path / "job")
    (job_dir / "worker.log").write_text("earlier attempt\n")
    trace = TraceContext(
        trace_id="0" * 32,
        trace_dir=str(job_dir / TRACE_DIR_NAME),
        parent_span_id="supervise",
        process="worker-a2",
    )
    env = {LOG_JSON_ENV: "1", LOG_LEVEL_ENV: "20", **trace.to_env()}
    proc = _FORKS.Process(target=worker.attempt, args=(job_dir, 2, 60.0, env))
    proc.start()
    proc.join(120)
    assert proc.exitcode == EXIT_DONE
    log_text = (job_dir / "worker.log").read_text()
    assert log_text.startswith("earlier attempt\n")
    assert _starting_attempts(job_dir / "worker.log") == [2]
    assert (job_dir / TRACE_DIR_NAME / "worker-a2.trace.jsonl").exists()
    assert json.loads((job_dir / "result.json").read_text())["status"] == "done"


SERVICE_SCRIPT = """
import asyncio, sys
from pathlib import Path
from repro.obs.log import configure_logging
from repro.server import WorkerSupervisor
from repro.server.jobs import Job

job_dir = Path(sys.argv[1])
configure_logging(verbosity=1, stream=open(job_dir.parent / "service.log", "w"))
job = Job(job_id=job_dir.name, fingerprint="f", payload={})
supervisor = WorkerSupervisor(max_attempts=1)
asyncio.run(supervisor.run_to_terminal(job, job_dir, lambda j: None))
sys.exit(0 if job.state.value == "done" else 1)
"""


def test_attempts_write_nothing_to_the_service_output(tmp_path):
    """The forkserver and its children inherit the service's stdout and
    stderr; a worker's output still goes to its own log only."""
    job_dir = write_job(tmp_path / "job")
    proc = subprocess.run(
        [sys.executable, "-c", SERVICE_SCRIPT, str(job_dir)],
        env=_worker_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "" and proc.stderr == ""
    assert "worker starting" in (job_dir / "worker.log").read_text()


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


#: A ``sitecustomize`` that records, in every forkserver child, what
#: ``__mp_main__`` is once multiprocessing's spawn preparation is done:
#: the name and file of the parent's main module run again, or
#: ``__main__ None``, multiprocessing's alias of the forkserver's own
#: ``-c`` main.
MAIN_PROBE = """\
import os
import sys
from multiprocessing import spawn

if "MAIN_PROBE_OUT" in os.environ:
    _prepare = spawn.prepare

    def prepare(data):
        _prepare(data)
        with open(os.environ["MAIN_PROBE_OUT"], "a") as out:
            main = sys.modules["__mp_main__"]
            out.write(f"{main.__name__} {getattr(main, '__file__', None)}\\n")

    spawn.prepare = prepare
"""


def test_cli_service_workers_do_not_rerun_the_cli(tmp_path):
    """``python -m repro.cli serve`` runs ``repro.cli.__main__``, which
    multiprocessing does not re-execute in a forked attempt, so no
    worker pays to import the command line a second time."""
    probe_dir = tmp_path / "probe"
    probe_dir.mkdir()
    (probe_dir / "sitecustomize.py").write_text(MAIN_PROBE)
    out = tmp_path / "main-probe.txt"
    env = _worker_env()
    env["PYTHONPATH"] = os.pathsep.join([str(probe_dir), env["PYTHONPATH"]])
    env["MAIN_PROBE_OUT"] = str(out)
    root = tmp_path / "root"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--root", str(root),
         "--port", "0", "--concurrency", "1"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while True:
            try:
                client = ServerClient.from_root(root, timeout=30)
                if client.healthz()[0] == 200:
                    break
            except Exception:
                pass
            assert server.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        status, body, _ = client.submit(FAST)
        assert status == 201
        assert client.wait(body["job"]["job_id"], timeout=120)["state"] == "done"
    finally:
        server.send_signal(signal.SIGTERM)
        server.wait(timeout=30)
    assert out.read_text().splitlines() == ["__main__ None"]
