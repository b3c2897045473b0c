#!/usr/bin/env python
"""CI smoke test for the job service (`repro serve`).

Boots a real server process, then drives the happy path and the two
control paths CI most needs to guard:

1. scrape ``/metrics`` on the idle server (twice — the scrapes must be
   byte-identical) and require the queue/job series to exist;
2. submit the ``city-2k`` scenario and tail its NDJSON events to the
   terminal ``job_state`` line;
3. submit a second, deliberately long job, require its live progress
   gauges to appear on ``/metrics`` and then cancel it mid-run;
4. re-scrape ``/metrics`` and hard-fail unless the job-state gauges and
   submission counters reflect the work that just happened;
5. submit a job running the ``policy`` mechanism (a JSON-named policy
   from the incentive-policy registry wrapped as a regular mechanism)
   and tail it to ``done`` — the learned-policy path must flow through
   the job service unchanged;
6. merge the first job's cross-process trace shards into one Chrome
   trace (uploaded as a CI artifact) and render one ``repro jobs top``
   frame;
7. SIGTERM the server and require a clean exit within a deadline,
   with none of its descendant processes (the forkserver, the
   resource tracker, forked workers) left alive after it;
8. restart after a crash that lost only the job journal's final
   newline: boot over the same root, submit one more job, and require
   every earlier job to list with its terminal state — then boot once
   more and require the same job table, so the journal the restarted
   server appended to also loads.

Every phase runs under a wall-clock budget — a hang anywhere exits
non-zero, so the CI job fails instead of idling until the runner
timeout.  Exit code 0 means the whole loop worked.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.obs.live import metric_value, parse_prometheus  # noqa: E402
from repro.server.client import ServerClient, ServerUnavailable  # noqa: E402

#: Long enough (a few seconds) that the cancel provably lands mid-run.
SLOW_JOB = {
    "overrides": {
        "n_users": 2000, "n_tasks": 200, "rounds": 80,
        "budget": 1e7, "arrival": "poisson", "seed": 2,
    }
}

#: The job submitted after the restart (distinct from every earlier
#: one, so it is not deduplicated onto a finished job).
RESTART_JOB = {
    "overrides": {"n_users": 100, "n_tasks": 10, "rounds": 5, "seed": 4}
}

#: A wrapped incentive policy as a plain JSON job: the ``policy``
#: mechanism resolves the named policy from the registry server-side,
#: so trained/tuned policies ship through the job API unchanged.
POLICY_JOB = {
    "overrides": {
        "mechanism": "policy",
        "mechanism_kwargs": {
            "policy": {"name": "step-decay", "decay": 0.9, "floor": 0.1},
        },
        "n_users": 200, "n_tasks": 10, "rounds": 5, "seed": 3,
    }
}


class Phase:
    """A named wall-clock budget; overruns abort the smoke test."""

    def __init__(self, name, budget_seconds):
        self.name = name
        self.deadline = time.monotonic() + budget_seconds
        print(f"--- {name} (budget {budget_seconds:.0f}s)")

    def check(self):
        if time.monotonic() > self.deadline:
            fail(f"phase {self.name!r} exceeded its budget")

    def sleep(self, seconds=0.1):
        self.check()
        time.sleep(seconds)


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def expect(condition, message):
    if not condition:
        fail(message)


def start_server(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--root", str(root), "--port", "0", "--concurrency", "1"],
        env=env,
        start_new_session=True,
    )


def session_pids(sid):
    """The live processes in session ``sid``.  The server starts its own
    session, so these are the server and every descendant, including
    workers (the forkserver's children) and any process re-parented
    after the server exited."""
    out = subprocess.run(["pgrep", "-s", str(sid)],
                         capture_output=True, text=True).stdout
    return [pid for pid in map(int, out.split()) if alive(pid)]


def cmdline(pid):
    try:
        raw = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return "?"
    return raw.replace(b"\0", b" ").decode(errors="replace").strip()


def alive(pid):
    """True while ``pid`` runs; a zombie awaiting its reaper is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_healthy(root, phase, server):
    while True:
        expect(server.poll() is None,
               f"server exited {server.returncode} before becoming healthy")
        try:
            client = ServerClient.from_root(root, timeout=30)
            status, _ = client.healthz()
            if status == 200:
                return client
        except (ServerUnavailable, OSError):
            pass
        phase.sleep()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="server state dir (default: a temp dir)")
    args = parser.parse_args()

    workdir = args.root or tempfile.mkdtemp(prefix="server-smoke-")
    root = Path(workdir) / "root"
    server = start_server(root)
    try:
        states = run_smoke(root, server)
    finally:
        shut_down(server)
    run_restart(root, states)
    print("OK: server smoke test passed")


def shut_down(server):
    """SIGTERM ``server``; require a clean exit and, within the same
    deadline, no surviving descendant."""
    if server.poll() is not None:
        fail(f"server died early (exit {server.returncode})")
    phase = Phase("shutdown", 30)
    descendants = [pid for pid in session_pids(server.pid) if pid != server.pid]
    os.kill(server.pid, signal.SIGTERM)
    while server.poll() is None:
        phase.sleep()
    expect(server.returncode == 0,
           f"server exited {server.returncode}, wanted 0")
    print(f"server exited cleanly ({server.returncode})")
    while True:
        left = session_pids(server.pid)
        if not left:
            break
        expect(time.monotonic() < phase.deadline,
               "server descendants outlived it: "
               + "; ".join(f"{pid} {cmdline(pid)}" for pid in left))
        time.sleep(0.1)
    print(f"none of its {len(descendants)} descendant processes outlived it")


def job_states(client):
    status, doc = client.list_jobs()
    expect(status == 200, f"job list returned {status}: {doc}")
    return {view["job_id"]: view["state"] for view in doc["jobs"]}


def run_restart(root, states):
    """Phase 8 (see the module docstring): ``states`` is the job table
    the first server left, every job in it terminal."""
    journal = root / "journal.jsonl"
    raw = journal.read_bytes()
    expect(raw.endswith(b"\n"), "job journal does not end in a newline")
    journal.write_bytes(raw[:-1])
    print(f"dropped the final newline of {journal}")

    server = start_server(root)
    try:
        phase = Phase("restart over a torn journal + submit", 120)
        client = wait_healthy(root, phase, server)
        status, body, _ = client.submit(RESTART_JOB)
        expect(status == 201, f"restart submit returned {status}: {body}")
        new_id = body["job"]["job_id"]
        expect(new_id not in states, f"restart reused job id {new_id}")
        while True:
            now = job_states(client)
            if all(now.get(job_id) == state for job_id, state in
                   {**states, new_id: "done"}.items()):
                break
            phase.sleep()
        print(f"after restart: {len(states)} earlier jobs terminal as "
              f"before, {new_id} done")
    finally:
        shut_down(server)

    server = start_server(root)
    try:
        phase = Phase("second restart: the appended journal loads", 60)
        now = job_states(wait_healthy(root, phase, server))
        expect(now == {**states, new_id: "done"},
               f"job table after the second restart: {now}")
        print(f"second restart lists the same {len(now)} jobs")
    finally:
        shut_down(server)


def scrape(client):
    status, text = client.metrics()
    expect(status == 200, f"/metrics returned {status}")
    return text


def run_smoke(root, server):
    phase = Phase("boot", 30)
    client = wait_healthy(root, phase, server)
    status, doc = client.readyz()
    expect(status == 200, f"readyz {status}: {doc}")

    phase = Phase("idle /metrics scrape", 30)
    first_text = scrape(client)
    expect(first_text == scrape(client),
           "two idle /metrics scrapes differ — exposition is not "
           "deterministic")
    idle = parse_prometheus(first_text)
    expect(metric_value(idle, "repro_queue_depth") == 0.0,
           "idle scrape missing repro_queue_depth == 0")
    expect(metric_value(idle, "repro_running_jobs") == 0.0,
           "idle scrape missing repro_running_jobs == 0")
    for state in ("queued", "running", "done", "failed", "cancelled",
                  "timed_out"):
        expect(metric_value(idle, "repro_jobs", state=state) == 0.0,
               f"idle scrape missing repro_jobs{{state={state}}} == 0")
    print("idle scrapes byte-identical; queue/job series present")

    phase = Phase("submit + tail city-2k", 120)
    status, body, _ = client.submit({"scenario": "city-2k"})
    expect(status == 201, f"submit returned {status}: {body}")
    job_id = body["job"]["job_id"]
    print(f"submitted {job_id}")

    rounds = 0
    terminal = None
    for line in client.tail(job_id, timeout=120):
        phase.check()
        if line["kind"] == "round":
            rounds += 1
        elif line["kind"] == "job_state":
            terminal = line
    expect(terminal is not None, "tail ended without a job_state line")
    expect(terminal["state"] == "done",
           f"city-2k finished {terminal['state']}: {terminal['error']}")
    expect(rounds >= 1, "no round events streamed")
    print(f"tailed {rounds} rounds to state={terminal['state']}")

    phase = Phase("live progress gauges + cancel second job mid-run", 120)
    status, body, _ = client.submit(SLOW_JOB)
    expect(status == 201, f"second submit returned {status}: {body}")
    second_id = body["job"]["job_id"]
    while True:
        status, doc = client.status(second_id)
        if doc["job"]["state"] == "running":
            break
        expect(not doc["job"]["terminal"],
               f"second job terminal before cancel: {doc['job']}")
        phase.sleep()
    # The worker writes progress.json after every round; its gauges
    # must surface for this job id while it is still running.
    while True:
        live = parse_prometheus(scrape(client))
        round_no = metric_value(live, "repro_job_round", job=second_id)
        if round_no is not None:
            break
        phase.sleep()
    expect(round_no >= 1, f"repro_job_round is {round_no}, wanted >= 1")
    expect(metric_value(live, "repro_job_rounds_total", job=second_id) == 80.0,
           "repro_job_rounds_total missing or wrong for the running job")
    expect(metric_value(live, "repro_job_budget", job=second_id) == 1e7,
           "repro_job_budget missing or wrong for the running job")
    spend = metric_value(live, "repro_job_spend", job=second_id)
    expect(spend is not None and spend >= 0.0,
           f"repro_job_spend is {spend}, wanted a gauge")
    expect(metric_value(live, "repro_job_completeness",
                        job=second_id) is not None,
           "repro_job_completeness missing for the running job")
    expect(metric_value(live, "repro_running_jobs") == 1.0,
           "repro_running_jobs should be 1 during the slow job")
    status, doc = client.progress(second_id)
    expect(status == 200 and doc["progress"] is not None,
           f"progress endpoint returned {status}: {doc}")
    print(f"live gauges present at round {round_no:.0f} "
          f"(spend {spend:.0f})")
    status, doc = client.cancel(second_id)
    expect(status == 202, f"cancel returned {status}: {doc}")
    while True:
        status, doc = client.status(second_id)
        if doc["job"]["terminal"]:
            break
        phase.sleep()
    expect(doc["job"]["state"] == "cancelled",
           f"second job ended {doc['job']['state']}, wanted cancelled")
    print(f"cancelled {second_id} mid-run "
          f"(error={doc['job']['error']!r})")

    phase = Phase("post-work /metrics scrape", 30)
    done = parse_prometheus(scrape(client))
    expect(metric_value(done, "repro_jobs", state="done") == 1.0,
           "repro_jobs{state=done} should be 1 after city-2k")
    expect(metric_value(done, "repro_jobs", state="cancelled") == 1.0,
           "repro_jobs{state=cancelled} should be 1 after the cancel")
    expect(metric_value(done, "repro_running_jobs") == 0.0,
           "repro_running_jobs should be back to 0")
    accepted = metric_value(done, "repro_submissions_total",
                            outcome="accepted")
    expect(accepted == 2.0,
           f"repro_submissions_total{{outcome=accepted}} is {accepted}, "
           f"wanted 2")
    attempts = metric_value(done, "repro_attempt_seconds_count")
    expect(attempts is not None and attempts >= 2.0,
           f"repro_attempt_seconds_count is {attempts}, wanted >= 2")
    print("post-work scrape consistent with the job table")

    phase = Phase("submit + tail a policy-mechanism job", 120)
    status, body, _ = client.submit(POLICY_JOB)
    expect(status == 201, f"policy submit returned {status}: {body}")
    policy_id = body["job"]["job_id"]
    policy_rounds = 0
    policy_terminal = None
    for line in client.tail(policy_id, timeout=120):
        phase.check()
        if line["kind"] == "round":
            policy_rounds += 1
        elif line["kind"] == "job_state":
            policy_terminal = line
    expect(policy_terminal is not None,
           "policy tail ended without a job_state line")
    expect(policy_terminal["state"] == "done",
           f"policy job finished {policy_terminal['state']}: "
           f"{policy_terminal['error']}")
    expect(policy_rounds >= 1, "policy job streamed no round events")
    print(f"policy job {policy_id}: {policy_rounds} rounds to "
          f"state={policy_terminal['state']}")

    phase = Phase("trace merge + jobs top frame", 60)
    trace_dir = root / "jobs" / job_id / "trace"
    merged_path = root.parent / "merged_trace.json"
    code = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", "merge",
         str(trace_dir), "--out", str(merged_path)],
        env=_cli_env(),
    ).returncode
    expect(code == 0, f"repro trace merge exited {code}")
    merged = json.loads(merged_path.read_text())
    processes = merged["otherData"]["processes"]
    expect("server" in processes and "worker-a1" in processes,
           f"merged trace misses a process: {processes}")
    expect(any(e.get("name") == "supervise"
               for e in merged["traceEvents"]),
           "merged trace has no supervise span")
    print(f"merged {merged['otherData']['shards']} shards "
          f"({len(merged['traceEvents'])} events) -> {merged_path}")

    top = subprocess.run(
        [sys.executable, "-m", "repro.cli", "jobs", "top",
         "--root", str(root), "--iterations", "1", "--no-clear"],
        env=_cli_env(), capture_output=True, text=True,
    )
    expect(top.returncode == 0,
           f"repro jobs top exited {top.returncode}: {top.stderr}")
    expect("queue=" in top.stdout and job_id in top.stdout,
           f"jobs top frame incomplete:\n{top.stdout}")
    print("jobs top rendered one frame")

    status, doc = client.list_jobs()
    print("final job table:")
    for view in doc["jobs"]:
        print(f"  {json.dumps(view, sort_keys=True)}")
    expect(all(view["terminal"] for view in doc["jobs"]),
           "a job is still live at the end of the smoke run")
    return {view["job_id"]: view["state"] for view in doc["jobs"]}


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


if __name__ == "__main__":
    main()
