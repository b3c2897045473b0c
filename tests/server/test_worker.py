"""Tests for the worker process: resumable events, exit codes, fault drills.

Most tests drive :func:`repro.server.worker.run_job` in-process (same
code the subprocess entry point runs); the SIGKILL-shaped cases chop the
events file the way a kill would and assert the append-only resume
contract: one record per round, byte-for-byte stable simulation content.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.io.events import RoundStreamWriter
from repro.obs.live import JobProgress
from repro.resilience.errors import ConfigError, ResultCorruption
from repro.server import worker
from repro.server.worker import (
    EXIT_BAD_JOB,
    EXIT_CANCELLED,
    EXIT_DONE,
    EXIT_INJECTED_CRASH,
    EXIT_TIMED_OUT,
    CRASH_P_ENV,
    CRASH_SEED_ENV,
    run_job,
)
from tests.server.canonical import canonical_round

FAST_PAYLOAD = {"overrides": {"n_users": 25, "n_tasks": 6, "rounds": 4,
                              "budget": 500.0, "seed": 11}}


def write_job(job_dir, payload=None, job_id="job-t", obs_store=None):
    job_dir.mkdir(parents=True, exist_ok=True)
    (job_dir / "job.json").write_text(json.dumps({
        "job_id": job_id,
        "payload": payload or FAST_PAYLOAD,
        "obs_store": str(obs_store) if obs_store else None,
    }))
    return job_dir


def round_records(job_dir):
    lines = (job_dir / "events.jsonl").read_text().splitlines()
    payloads = [json.loads(line) for line in lines]
    assert payloads[0]["kind"] == "meta"
    return [p for p in payloads[1:] if p["kind"] == "round"]


class TestRunJob:
    def test_done_writes_result_and_events(self, tmp_path):
        job_dir = write_job(tmp_path / "job")
        assert run_job(job_dir, attempt=1, deadline=None) == EXIT_DONE
        result = json.loads((job_dir / "result.json").read_text())
        assert result["status"] == "done"
        rounds = round_records(job_dir)
        assert [r["round_no"] for r in rounds] == list(
            range(1, result["rounds_played"] + 1)
        )

    def test_bad_job_dir_is_poison(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_job(empty, attempt=1, deadline=None) == EXIT_BAD_JOB

    def test_invalid_payload_is_poison(self, tmp_path):
        job_dir = write_job(
            tmp_path / "job", payload={"overrides": {"bogus": 1}}
        )
        assert run_job(job_dir, attempt=1, deadline=None) == EXIT_BAD_JOB

    def test_infeasible_engine_build_is_poison(self, tmp_path, monkeypatch, capsys):
        """A ConfigError the submission check did not catch, raised
        building the engine, fails the job without a retry."""
        def infeasible(config, **kwargs):
            raise ConfigError("base reward r0 must be positive")

        monkeypatch.setattr(worker, "make_engine", infeasible)
        job_dir = write_job(tmp_path / "job")
        assert run_job(job_dir, attempt=1, deadline=None) == EXIT_BAD_JOB
        assert "r0 must be positive" in capsys.readouterr().err
        assert not (job_dir / "result.json").exists()

    def test_pre_tripped_cancel_file(self, tmp_path):
        job_dir = write_job(tmp_path / "job")
        (job_dir / "cancel").write_text("cancelled by client\n")
        assert run_job(job_dir, attempt=1, deadline=None) == EXIT_CANCELLED

    def test_timeout_reason_maps_to_timed_out(self, tmp_path):
        job_dir = write_job(tmp_path / "job")
        (job_dir / "cancel").write_text("timeout\n")
        assert run_job(job_dir, attempt=1, deadline=None) == EXIT_TIMED_OUT

    def test_expired_deadline_times_out(self, tmp_path):
        job_dir = write_job(tmp_path / "job")
        assert run_job(job_dir, attempt=1, deadline=0.000001) == EXIT_TIMED_OUT

    def test_spent_deadline_times_out_without_running(self, tmp_path):
        job_dir = write_job(tmp_path / "job")
        assert run_job(job_dir, attempt=1, deadline=0.0) == EXIT_TIMED_OUT
        assert run_job(job_dir, attempt=2, deadline=-1.5) == EXIT_TIMED_OUT
        assert not (job_dir / "events.jsonl").exists()

    def test_obs_store_ingest_is_idempotent(self, tmp_path):
        from repro.obs.store import RunStore

        store_root = tmp_path / "obs"
        job_dir = write_job(tmp_path / "job", obs_store=store_root)
        assert run_job(job_dir, attempt=1, deadline=None) == EXIT_DONE
        assert run_job(job_dir, attempt=2, deadline=None) == EXIT_DONE
        entries = RunStore(store_root).entries(kind="server-job")
        assert len(entries) == 1
        assert entries[0]["labels"]["job_id"] == "job-t"


class TestResume:
    def test_replay_appends_nothing(self, tmp_path):
        job_dir = write_job(tmp_path / "job")
        run_job(job_dir, attempt=1, deadline=None)
        before = (job_dir / "events.jsonl").read_bytes()
        run_job(job_dir, attempt=2, deadline=None)
        assert (job_dir / "events.jsonl").read_bytes() == before

    def test_torn_tail_resumes_without_dup_or_loss(self, tmp_path):
        """The SIGKILL signature: a partial trailing line.

        After resume the file must hold exactly one record per round,
        with simulation content identical to an uninterrupted run.
        """
        job_dir = write_job(tmp_path / "job")
        run_job(job_dir, attempt=1, deadline=None)
        reference = [canonical_round(r) for r in round_records(job_dir)]

        events = job_dir / "events.jsonl"
        raw = events.read_bytes()
        events.write_bytes(raw[: len(raw) - 40])  # tear the last line
        assert run_job(job_dir, attempt=2, deadline=None) == EXIT_DONE

        resumed = [canonical_round(r) for r in round_records(job_dir)]
        assert resumed == reference

    def test_resume_from_half_finished_run(self, tmp_path):
        """Keep only rounds 1..2 of 4, resume, expect the full set."""
        job_dir = write_job(tmp_path / "job")
        run_job(job_dir, attempt=1, deadline=None)
        reference = [canonical_round(r) for r in round_records(job_dir)]

        events = job_dir / "events.jsonl"
        lines = events.read_text().splitlines()
        events.write_text("\n".join(lines[:3]) + "\n")  # meta + 2 rounds
        assert run_job(job_dir, attempt=2, deadline=None) == EXIT_DONE
        assert [canonical_round(r) for r in round_records(job_dir)] == reference

    def test_midstream_corruption_is_fatal(self, tmp_path):
        job_dir = write_job(tmp_path / "job")
        run_job(job_dir, attempt=1, deadline=None)
        events = job_dir / "events.jsonl"
        lines = events.read_text().splitlines()
        lines[1] = '{"kind": "round", "round_no": 99}'  # out of sequence
        events.write_text("\n".join(lines) + "\n")
        world = object()
        with pytest.raises(ResultCorruption, match="sequence broken"):
            RoundStreamWriter(events, world, resume=True)


class LedgerCheck(worker.ProgressWriter):
    """The worker's progress observer, checking each snapshot it writes.

    After every round it reads ``progress.json`` back and records it with
    the engine's ledger, an independent running sum of the round records
    (spend, completed ids, streamed arrivals) and the number of round
    lines already in ``events.jsonl``.
    """

    snapshots: list = []

    def __init__(self, job_dir, job_id, engine, attempt=1):
        super().__init__(job_dir, job_id, engine, attempt=attempt)
        self.spend = 0.0
        self.completed = set()
        self.known = len(engine.world.tasks)

    def __call__(self, record):
        super().__call__(record)
        self.spend += record.total_paid
        self.completed.update(record.completed_task_ids)
        self.known += sum(e.kind == "task_published" for e in record.dynamics)
        tasks = self.engine.world.tasks
        lines = (self.job_dir / "events.jsonl").read_bytes().splitlines()
        self.snapshots.append({
            "progress": JobProgress.read(self.job_dir),
            "ledger": (
                self.engine.result.total_paid,
                tasks.completed.sum() / max(1, len(tasks)),
            ),
            "summed": (self.spend, len(self.completed) / max(1, self.known)),
            "event_rounds": len(lines) - 1,
        })


def checked_attempt(monkeypatch, job_dir, attempt):
    """One run_job attempt under :class:`LedgerCheck`; its snapshots."""
    monkeypatch.setattr(worker, "ProgressWriter", LedgerCheck)
    monkeypatch.setattr(LedgerCheck, "snapshots", [])
    assert run_job(job_dir, attempt=attempt, deadline=None) == EXIT_DONE
    snapshots = LedgerCheck.snapshots
    for snapshot in snapshots:
        progress = snapshot["progress"]
        # Exact: the snapshot is the ledger, and the ledger is what the
        # round records add up to.
        assert (progress.spend, progress.completeness) == snapshot["ledger"]
        assert snapshot["ledger"] == snapshot["summed"]
        # A snapshot never gets ahead of the durable round history.
        assert progress.round_no <= snapshot["event_rounds"]
    assert [s["progress"].round_no for s in snapshots] == list(
        range(1, len(snapshots) + 1)
    )
    return [
        (s["progress"].round_no, s["progress"].spend, s["progress"].completeness)
        for s in snapshots
    ]


@pytest.mark.parametrize("scenario", ["paper-2018", "task-stream-2k"])
class TestProgressReadsTheLedger:
    def payload(self, scenario):
        return {"scenario": scenario, "overrides": {"seed": 0}}

    def test_every_round_matches_the_ledger(self, tmp_path, monkeypatch, scenario):
        job_dir = write_job(tmp_path / "job", self.payload(scenario))
        trajectory = checked_attempt(monkeypatch, job_dir, attempt=1)
        result = json.loads((job_dir / "result.json").read_text())
        assert len(trajectory) == result["rounds_played"]
        assert trajectory[-1][1] > 0
        assert JobProgress.read(job_dir).spend == trajectory[-1][1]

    def test_a_resumed_attempt_rebuilds_the_same_progress(
        self, tmp_path, monkeypatch, scenario
    ):
        job_dir = write_job(tmp_path / "job", self.payload(scenario))
        first = checked_attempt(monkeypatch, job_dir, attempt=1)
        reference = [canonical_round(r) for r in round_records(job_dir)]
        # A crash after round 3: rounds 1..3 durable, round 4 torn.
        events = job_dir / "events.jsonl"
        lines = events.read_text().splitlines(keepends=True)
        events.write_text("".join(lines[:4]) + lines[4][:25])
        (job_dir / "progress.json").unlink()
        assert checked_attempt(monkeypatch, job_dir, attempt=2) == first
        assert [canonical_round(r) for r in round_records(job_dir)] == reference


def test_the_events_line_is_the_only_per_round_fsync(tmp_path, monkeypatch):
    """A job attempt fsyncs the meta line, each round's events line and
    result.json; progress snapshots are replaced without one."""
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd)))
    job_dir = write_job(tmp_path / "job")
    assert run_job(job_dir, attempt=1, deadline=None) == EXIT_DONE
    rounds = json.loads((job_dir / "result.json").read_text())["rounds_played"]
    assert (job_dir / "progress.json").exists()
    assert len(calls) == 1 + rounds + 1


class TestCrashInjection:
    def test_injected_crash_exits_13(self, tmp_path):
        """p=1.0 must kill the worker on the first round — in a real
        subprocess, because the injector calls os._exit."""
        job_dir = write_job(tmp_path / "job")
        env = dict(os.environ)
        env[CRASH_P_ENV] = "1.0"
        env[CRASH_SEED_ENV] = "7"
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"),) if p]
            + [str(_repro_src_root())]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.server.worker", str(job_dir)],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == EXIT_INJECTED_CRASH
        # The crash fired *after* the round was persisted.
        assert round_records(job_dir)

    def test_crash_then_clean_retry_completes(self, tmp_path):
        """Attempt 2 with p=0 resumes past the crash point."""
        job_dir = write_job(tmp_path / "job")
        env = dict(os.environ)
        env[CRASH_P_ENV] = "1.0"
        env[CRASH_SEED_ENV] = "7"
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"),) if p]
            + [str(_repro_src_root())]
        )
        subprocess.run(
            [sys.executable, "-m", "repro.server.worker", str(job_dir)],
            env=env, capture_output=True, timeout=120,
        )
        durable = len(round_records(job_dir))
        assert run_job(job_dir, attempt=2, deadline=None) == EXIT_DONE
        rounds = round_records(job_dir)
        assert len(rounds) >= durable
        assert [r["round_no"] for r in rounds] == list(range(1, len(rounds) + 1))


class TestSigkillSubprocess:
    def test_sigkill_mid_run_then_resume(self, tmp_path):
        """Kill a real worker process mid-run; the resumed events file
        must equal an uninterrupted run's (timing telemetry aside)."""
        slow = {"overrides": {"n_users": 400, "n_tasks": 30, "rounds": 30,
                              "budget": 1e6, "arrival": "poisson", "seed": 2}}
        reference_dir = write_job(tmp_path / "ref", payload=slow, job_id="ref")
        assert run_job(reference_dir, attempt=1, deadline=None) == EXIT_DONE
        reference = [canonical_round(r) for r in round_records(reference_dir)]

        job_dir = write_job(tmp_path / "job", payload=slow, job_id="victim")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"),) if p]
            + [str(_repro_src_root())]
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server.worker", str(job_dir)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Wait until some rounds are durable, then SIGKILL.
        deadline = time.monotonic() + 60
        events = job_dir / "events.jsonl"
        while time.monotonic() < deadline:
            if events.exists() and events.stat().st_size > 2000:
                break
            time.sleep(0.02)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        assert run_job(job_dir, attempt=2, deadline=None) == EXIT_DONE
        resumed = [canonical_round(r) for r in round_records(job_dir)]
        assert resumed == reference


def _worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in (env.get("PYTHONPATH"),) if p] + [str(_repro_src_root())]
    )
    return env


class TestEntryPoints:
    """``python -m repro.server.worker <job_dir>``: direct runs."""

    def test_direct_run_imports_the_worker_once(self, tmp_path):
        job_dir = write_job(tmp_path / "job")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.server.worker", str(job_dir)],
            env=_worker_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_DONE, proc.stderr
        assert "found in sys.modules" not in proc.stderr

    def test_infeasible_budget_is_poison_not_a_crash(self, tmp_path):
        # poisson-stream's streamed tasks leave IncentMe's Eq. 9 ladder
        # no positive r0: exit 2 (FAILED, no retry), not a crash.
        job_dir = write_job(tmp_path / "job", payload={
            "scenario": "poisson-stream",
            "overrides": {"mechanism": "incentme", "seed": 0},
        })
        proc = subprocess.run(
            [sys.executable, "-m", "repro.server.worker", str(job_dir)],
            env=_worker_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_BAD_JOB, proc.stderr
        assert "r0 must be positive" in proc.stderr
        assert not (job_dir / "result.json").exists()

    def test_deadline_rounded_to_zero_times_out(self, tmp_path):
        job_dir = write_job(tmp_path / "job")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.server.worker", str(job_dir),
             "--deadline", "0.000"],
            env=_worker_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_TIMED_OUT, proc.stderr


def _repro_src_root():
    import repro

    from pathlib import Path

    return Path(repro.__file__).resolve().parent.parent
