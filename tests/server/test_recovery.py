"""Crash-recovery drill: SIGKILL a live server mid-job, restart, resume.

This is the whole point of the journal + append-only worker events: a
server killed without warning must come back, re-queue the in-flight
job, and finish it with **no duplicated and no lost round records** —
the rounds durable at kill time are a byte-stable prefix of the final
event history (timing telemetry aside).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.server.client import ServerClient
from tests.server.canonical import canonical_round

#: Long enough (~10s) that the kill lands mid-run.
SLOW = {"overrides": {"n_users": 2000, "n_tasks": 50, "rounds": 80,
                      "budget": 1e7, "arrival": "poisson", "seed": 2}}


def _serve(root):
    """Launch ``repro serve`` in its own process group (so one killpg
    takes out the server *and* its worker children, like a machine
    reboot would)."""
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--root", str(root),
         "--port", "0", "--concurrency", "1"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


def _client_when_up(root, deadline_seconds=30):
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        try:
            client = ServerClient.from_root(root, timeout=30)
            status, _ = client.healthz()
            if status == 200:
                return client
        except Exception:
            pass
        time.sleep(0.1)
    raise AssertionError("server never became healthy")


def _round_lines(events_path):
    rounds = []
    for line in events_path.read_bytes().split(b"\n"):
        if not line:
            continue
        try:
            payload = json.loads(line)
        except ValueError:
            continue  # torn tail from the kill
        if payload.get("kind") == "round":
            rounds.append(payload)
    return rounds


@pytest.mark.slow
def test_sigkill_server_midjob_resumes_without_loss(tmp_path):
    root = tmp_path / "root"
    server = _serve(root)
    try:
        client = _client_when_up(root)
        status, body, _ = client.submit(SLOW)
        assert status == 201
        job_id = body["job"]["job_id"]
        events = root / "jobs" / job_id / "events.jsonl"

        # Let some rounds become durable, then kill the whole group.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if events.exists() and events.stat().st_size > 2000:
                break
            time.sleep(0.05)
        assert events.exists() and events.stat().st_size > 2000, (
            "job never produced durable rounds before the kill window"
        )
        os.killpg(os.getpgid(server.pid), signal.SIGKILL)
        server.wait(timeout=30)
        durable = [canonical_round(r) for r in _round_lines(events)]
        assert durable, "no complete round survived the kill"
    finally:
        if server.poll() is None:  # pragma: no cover - cleanup on failure
            os.killpg(os.getpgid(server.pid), signal.SIGKILL)

    # Restart over the same root: the journal re-queues the job and the
    # worker resumes append-only.
    server = _serve(root)
    try:
        client = _client_when_up(root)
        final = client.wait(job_id, timeout=120)
        assert final["state"] == "done"
        assert final["attempts"] >= 2  # the crash consumed an attempt

        rounds = [canonical_round(r) for r in _round_lines(events)]
        numbers = [r["round_no"] for r in rounds]
        assert numbers == list(range(1, len(numbers) + 1)), (
            "rounds duplicated or lost across the restart"
        )
        # Zero completed-round records lost: everything durable at kill
        # time is still there, unchanged.
        assert rounds[: len(durable)] == durable
        assert len(rounds) >= len(durable)

        # The journal agrees with the HTTP view after recovery.
        status, doc = client.list_jobs(state="done")
        assert any(j["job_id"] == job_id for j in doc["jobs"])
    finally:
        if server.poll() is None:
            os.killpg(os.getpgid(server.pid), signal.SIGKILL)
        server.wait(timeout=30)
