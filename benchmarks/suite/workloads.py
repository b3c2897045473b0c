"""The four benchmark workloads.

Each is a closed loop with one client: the next operation starts only
after the previous one finished.  A workload builds its inputs from the
run seed ``S`` alone — operation ``i`` uses simulation seed
``S * 1000 + i`` — so two runs with one seed do the same work and runs
with different seeds share no inputs.  Warmups use fixed seeds, which
makes them golden checks that every run repeats whatever its seed.

Lifecycle, driven by ``child.py``: :meth:`Workload.setup` (timed from
outside as ``setup_s``), :meth:`Workload.warmup` (untimed),
:meth:`Workload.run_op` in a loop (each call one timed operation),
:meth:`Workload.finish` (untimed output checks), :meth:`Workload.close`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Tuple

#: Fixed seeds of the warmup operations (outside every ``S * 1000 + i``
#: range a run reaches).
WARMUP_SEED = 990_000_000

#: How many leading operations the per-seed golden digest covers.
GOLDEN_OPS = 5


class OpFailed(RuntimeError):
    """An operation that returned but did not do its job."""


def chain(digests: Iterable[str]) -> str:
    """One sha256 over a sequence of hex digests."""
    digest = hashlib.sha256()
    for item in digests:
        digest.update(item.encode("ascii"))
    return digest.hexdigest()


def _no_span(name: str, **args):
    return nullcontext()


def traced_simulate(api, probe, scenario: str, **overrides):
    """``api.simulate(scenario=..., **overrides)`` with the engine traced.

    The same calls ``api.simulate`` makes (build the config, build the
    engine, run it), split so the tracer and the probe's wrappers reach
    the engine.  Returns (result, seconds).
    """
    started = perf_counter()
    with probe.span("simulate", **overrides):
        config = api.build_config(scenario, **overrides)
        with probe.span("make_engine"):
            engine = api.make_engine(config, tracer=probe.tracer)
        undo = probe.attach(engine)
        try:
            result = engine.run()
        finally:
            undo()
    return result, perf_counter() - started


class Workload:
    """One workload: what a timed operation is and how it is checked."""

    name = ""
    #: What one timed operation is.
    op = ""
    #: The percentile reported as ``latency_ms_tail``: the highest
    #: multiple of 5 with at least 10 samples beyond it in a 20-second
    #: run on the baseline host at its usual 0.6-0.9x reference speed
    #: (see README).
    tail = 50
    #: Operations a run makes even when its time is up, so that every
    #: output check has something to check.
    min_ops = 2
    #: Untimed warmup operations before the loop.
    warmup_ops = 0
    #: Whether the warmup's digest is pinned in expected.json.
    golden_warmup = True
    #: The calibration kernel (``calibrate.KERNELS``) that tracks how
    #: host contention slows this workload's operations.
    calibration = "data"

    def __init__(self, seed: int, workdir: Path, expected: Dict):
        self.seed = seed
        self.workdir = workdir
        self.expected = expected
        self.checks: List[Dict] = []
        self.failed = 0
        #: Untimed work outside the operations, in seconds per occurrence.
        self.side: Dict[str, List[float]] = {}

    def op_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def golden(self):
        """The committed digest for this run's seed, if there is one."""
        return self.expected.get(self.name, {}).get(str(self.seed))

    def check(self, name: str, ok: Optional[bool], ops: int, detail: str = "") -> None:
        """Record an output check over ``ops`` operations (None = skipped)."""
        self.checks.append({"check": name, "ok": ok, "ops": ops, "detail": detail})
        if ok is False:
            self.failed += ops

    def check_digest(self, name: str, want: Optional[str], got: str, ops: int) -> None:
        if want is None:
            self.check(name, None, ops, "no committed digest for this seed")
        else:
            self.check(name, want == got, ops, f"want {want[:12]}, got {got[:12]}")

    def check_warmup(self) -> None:
        got = self.warmup()
        if self.golden_warmup:
            want = self.expected.get(self.name, {}).get("warmup")
            self.check_digest("warmup digest", want, got, self.warmup_ops)

    # -- lifecycle (overridden) --------------------------------------------

    def setup(self) -> None:
        """Imports plus whatever the first timed operation needs."""

    def warmup(self) -> Optional[str]:
        """Untimed warmup operations; returns their digest, if checked."""
        return None

    def run_op(self, index: int, probe) -> Tuple[float, bool]:
        """One timed operation; returns (seconds, whether it was traced)."""
        raise NotImplementedError

    def recover(self) -> None:
        """Get ready for the next operation after one raised."""

    def finish(self, probe) -> None:
        """Output checks after the timed loop."""

    def close(self) -> None:
        """Release what :meth:`setup` started."""

    def reference(self):
        """This seed's golden digest, computed directly (``--write-expected``)."""
        return None


class PaperCampaign(Workload):
    """The paper's repetition loop: paper-2018 runs, one seed each."""

    name = "paper-campaign"
    op = "one api.simulate run of paper-2018 (scalar engine, DP selector)"
    tail = 90
    min_ops = GOLDEN_OPS
    warmup_ops = 3
    calibration = "code"
    scenario = "paper-2018"

    def setup(self) -> None:
        from repro import api

        self.api = api
        self.fingerprints: Dict[int, str] = {}

    def warmup(self) -> str:
        api = self.api
        return chain(
            api.result_fingerprint(api.simulate(scenario=self.scenario, seed=WARMUP_SEED + j))
            for j in range(self.warmup_ops)
        )

    def run_op(self, index: int, probe) -> Tuple[float, bool]:
        seed = self.op_seed(index)
        traced = probe is not None and index % 2 == 0
        if traced:
            mark = probe.mark()
            result, latency = traced_simulate(self.api, probe, self.scenario, seed=seed)
            probe.fold(mark)
            probe.add_op(latency)
        else:
            started = perf_counter()
            result = self.api.simulate(scenario=self.scenario, seed=seed)
            latency = perf_counter() - started
        self.fingerprints[index] = self.api.result_fingerprint(result)
        return latency, traced

    def finish(self, probe) -> None:
        api = self.api
        leading = [self.fingerprints.get(i) for i in range(GOLDEN_OPS)]
        if None in leading:
            self.check("golden digest", None, GOLDEN_OPS, "a leading run failed")
        else:
            self.check_digest("golden digest", self.golden(), chain(leading), GOLDEN_OPS)
        # The batched engine must replay the scalar history bit for bit.
        if 0 in self.fingerprints:
            batched = api.result_fingerprint(
                api.simulate(scenario=self.scenario, seed=self.op_seed(0), engine="batched")
            )
            self.check("scalar == batched", batched == self.fingerprints[0], 1)

    def reference(self) -> str:
        self.setup()
        api = self.api
        return chain(
            api.result_fingerprint(api.simulate(scenario=self.scenario, seed=self.op_seed(i)))
            for i in range(GOLDEN_OPS)
        )


class City50k(Workload):
    """City scale: one ``engine.step()`` of city-50k per operation."""

    name = "city-50k"
    op = "one engine.step() round of city-50k (batched engine, greedy selector)"
    tail = 50
    min_ops = 10
    warmup_ops = 1
    scenario = "city-50k"

    def setup(self) -> None:
        from repro import api

        self.api = api
        self.engines = 0
        self.steps = 0
        self.engine = self._build(self.op_seed(0))
        self.round_digests: Optional[List[str]] = None

    def _build(self, seed: int):
        return self.api.make_engine(self.api.build_config(self.scenario, seed=seed))

    def _next_engine(self) -> None:
        # Free the old engine (cycles included) before building, so that
        # peak_rss_mb is one engine's footprint, not two.
        self.engine = None
        gc.collect()
        started = perf_counter()
        self.engine = self._build(self.op_seed(self.engines))
        self.side.setdefault("simulation.engine_build", []).append(
            perf_counter() - started
        )

    def warmup(self) -> str:
        api = self.api
        return api.result_fingerprint(api.simulate(scenario="city-2k", seed=WARMUP_SEED))

    def run_op(self, index: int, probe) -> Tuple[float, bool]:
        if self.engine.finished:
            self._retire()
            self._next_engine()
        engine = self.engine
        if probe is not None and index == 0:
            # Traced runs also pin every round of the first engine.
            self.round_digests = []
        # Alternate traced rounds, flipping the parity per engine so the
        # traced half is not always the same round numbers.
        traced = probe is not None and (engine.current_round + self.engines) % 2 == 0
        if traced:
            undo = probe.attach(engine)
            mark = probe.mark()
            started = perf_counter()
            try:
                record = engine.step()
            finally:
                undo()
            latency = perf_counter() - started
            probe.fold(mark)
            probe.add_op(latency)
        else:
            started = perf_counter()
            record = engine.step()
            latency = perf_counter() - started
        self.steps += 1
        if self.engines == 0 and self.round_digests is not None:
            self.round_digests.append(self.api.round_fingerprint(record))
        return latency, traced

    def recover(self) -> None:
        self._retire()
        self._next_engine()

    def _retire(self) -> None:
        """Check the current engine's outputs and count it done."""
        engine, api = self.engine, self.api
        result = engine.result
        counts = result.measurements_by_task()
        over = [t.task_id for t in engine.world.tasks
                if counts[t.task_id] > t.required_measurements]
        self.check(
            f"engine {self.engines} accounting",
            not over and sum(counts.values()) == result.total_measurements
            and result.rounds_played == self.steps,
            self.steps,
            f"over-filled tasks {over[:5]}" if over else "",
        )
        if self.engines == 0 and engine.finished:
            want = self.golden() or {}
            self.check_digest("golden digest", want.get("result"),
                              api.result_fingerprint(result), self.steps)
            if self.round_digests is not None:
                self.check_digest("golden round digests", want.get("rounds"),
                                  chain(self.round_digests), self.steps)
        self.engines += 1
        self.steps = 0

    def finish(self, probe) -> None:
        self._retire()

    def reference(self) -> Dict[str, str]:
        self.setup()
        engine, api = self.engine, self.api
        rounds = []
        while not engine.finished:
            rounds.append(api.round_fingerprint(engine.step()))
        return {"result": api.result_fingerprint(engine.result), "rounds": chain(rounds)}


class EnvTaskStream(Workload):
    """The RL environment on an open world: one ``env.step`` per operation."""

    name = "env-task-stream"
    op = "one IncentiveEnv.step of task-stream-2k with a random action"
    tail = 95
    min_ops = 20
    warmup_ops = 2
    scenario = "task-stream-2k"

    def setup(self) -> None:
        import numpy as np
        from repro import api

        self.api = api
        self.np = np
        self.env = api.make_env(scenario=self.scenario)
        self.env.reset(seed=self.op_seed(0))
        self.rng = np.random.default_rng(self.seed)
        self.shape = self.env.action_space.shape
        self.episode = 0
        self.done = False
        self.undo = None
        self.digests: List[str] = []
        self.episode_steps = [0]
        self.first_actions: List = []

    def _episodes(self, env, seeds: Iterable[int], rng) -> str:
        """Play whole episodes with actions from ``rng``; their digest."""
        digests = []
        for seed in seeds:
            env.reset(seed=seed)
            done = False
            while not done:
                done = env.step(rng.random(self.shape))[2]
            digests.append(env.fingerprint())
        return chain(digests)

    def warmup(self) -> str:
        env = self.api.make_env(scenario=self.scenario)
        try:
            return self._episodes(
                env, [WARMUP_SEED + j for j in range(self.warmup_ops)],
                self.np.random.default_rng(WARMUP_SEED),
            )
        finally:
            env.close()

    def _detach(self) -> None:
        if self.undo is not None:
            self.undo()
            self.undo = None

    def _begin_episode(self, probe) -> None:
        """Trace every other episode (through its session and engine)."""
        if probe is not None and self.episode % 2 == 0:
            session = self.env._session  # the episode's SimulationSession
            self.undo = probe.attach(session.engine, session)

    def _end_episode(self) -> None:
        self._detach()
        self.digests.append(self.env.fingerprint())
        self.episode += 1
        self.episode_steps.append(0)

    def run_op(self, index: int, probe) -> Tuple[float, bool]:
        if index == 0:
            self._begin_episode(probe)
        elif self.done:
            self._end_episode()
            started = perf_counter()
            self.env.reset(seed=self.op_seed(self.episode))
            self.side.setdefault("envs.reset", []).append(perf_counter() - started)
            self._begin_episode(probe)
        action = self.rng.random(self.shape)
        traced = self.undo is not None
        if traced:
            mark = probe.mark()
            started = perf_counter()
            with probe.span("env.step"):
                _, _, self.done, _, info = self.env.step(action)
            latency = perf_counter() - started
            probe.fold(mark)
            probe.add_op(latency)
        else:
            started = perf_counter()
            _, _, self.done, _, info = self.env.step(action)
            latency = perf_counter() - started
        self.episode_steps[-1] += 1
        if self.episode == 0:
            self.first_actions.append(info["applied_action"])
        return latency, traced

    def recover(self) -> None:
        self._detach()
        self.done = True

    def finish(self, probe) -> None:
        api = self.api
        if self.done:
            self._end_episode()
        self._detach()
        self.env.close()
        steps = self.episode_steps
        if len(self.digests) >= 2:
            self.check_digest("golden digest", self.golden(), chain(self.digests[:2]),
                              steps[0] + steps[1])
        else:
            self.check("golden digest", None, 0, "fewer than two whole episodes")
        # The env shell must replay as a plain session fed the same actions.
        if self.digests:
            with api.open_session(scenario=self.scenario, seed=self.op_seed(0)) as session:
                for action in self.first_actions:
                    session.step(action)
                replay = api.result_fingerprint(session.result())
            self.check("env == session replay", replay == self.digests[0], steps[0])

    def reference(self) -> str:
        self.setup()
        return self._episodes(
            self.env, [self.op_seed(e) for e in range(2)],
            self.np.random.default_rng(self.seed),
        )


class JobsPaper(Workload):
    """The job service: paper-2018 jobs submitted one at a time."""

    name = "jobs-paper"
    op = "one paper-2018 job, from POST /jobs until the service records it DONE"
    tail = 65
    min_ops = GOLDEN_OPS
    warmup_ops = 2
    golden_warmup = False  # every job's output is checked in finish()
    scenario = "paper-2018"
    server = None

    def setup(self) -> None:
        from repro.server.client import ServerClient, ServerUnavailable

        self.jobs: List[Dict] = []
        root = self.workdir / "server"
        self.log = open(self.workdir / "server.log", "wb")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--root", str(root),
             "--port", "0", "--concurrency", "1"],
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        deadline = time.monotonic() + 120
        while True:
            if self.server.poll() is not None:
                raise RuntimeError(
                    f"job service exited {self.server.returncode} while booting "
                    f"(log: {self.workdir / 'server.log'})"
                )
            try:
                client = ServerClient.from_root(root, timeout=30)
                if client.healthz()[0] == 200:
                    break
            except (ServerUnavailable, OSError):
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("job service did not answer /healthz in 120 s")
            time.sleep(0.005)
        self.client = client

    def _job(self, seed: int, probe=None) -> Dict:
        """Submit one job and follow it to its end; its timings.

        Latency runs from the POST to the ``finished_at`` the service
        records, both on this host's wall clock, so it splits exactly
        into admission, queue wait and the worker's attempt.  The client
        learns of the end from the events tail, which polls every
        0.15 s; that notification lag is reported on its own instead of
        being folded into a latency that would move in 0.15 s steps.
        """
        span = probe.span if probe is not None else _no_span
        wall = time.time()
        with span("job", seed=seed):
            with span("submit"):
                status, doc, _ = self.client.submit(
                    {"scenario": self.scenario, "overrides": {"seed": seed}}
                )
            if status != 201:
                raise OpFailed(f"POST /jobs answered HTTP {status}: {doc}")
            job_id = doc["job"]["job_id"]
            with span("wait"):
                for _ in self.client.tail(job_id):
                    pass
            seen = time.time()
        _, view = self.client.status(job_id)
        job = view["job"]
        if job["state"] != "done":
            raise OpFailed(f"job {job_id} ended {job['state']}: {job.get('error')}")
        return {
            "seed": seed,
            "latency": job["finished_at"] - wall,
            "admission": job["created_at"] - wall,
            "queue_wait": job["started_at"] - job["created_at"],
            "attempt": job["finished_at"] - job["started_at"],
            "notify_lag": seen - job["finished_at"],
            "summary": job["result"]["summary"],
        }

    def _config(self, seed: int) -> Dict:
        """The in-process twin of a job: workers always stream rounds,
        which sums profits in another order, so only the streamed run
        matches a job's summary to the last bit."""
        return {"scenario": self.scenario, "seed": seed, "stream_rounds": True}

    def warmup(self) -> None:
        for j in range(self.warmup_ops):
            self._job(WARMUP_SEED + j)

    def run_op(self, index: int, probe) -> Tuple[float, bool]:
        traced = probe is not None and index % 2 == 0
        job = self._job(self.op_seed(index), probe if traced else None)
        job["index"] = index
        job["traced"] = traced
        self.jobs.append(job)
        self.side.setdefault("server.notify_lag", []).append(job["notify_lag"])
        if traced:
            # The client's own spans stay in the trace but out of the
            # layer table: a job's time is the service's admission,
            # queue wait and attempt, the attempt split by finish().
            probe.add_op(job["latency"])
            probe.add_extra("server.admission", job["admission"])
            probe.add_extra("server.queue_wait", job["queue_wait"])
        return job["latency"], traced

    def finish(self, probe) -> None:
        """Re-run every job in-process and compare the summaries."""
        self.close()
        from repro import api

        fingerprints = {}
        mismatched = []
        for job in self.jobs:
            seed = job["seed"]
            if job["traced"]:
                mark = probe.mark()
                result, seconds = traced_simulate(api, probe, **self._config(seed))
                probe.fold(mark)
                probe.add_extra("server.worker_overhead", job["attempt"] - seconds)
            else:
                result = api.simulate(**self._config(seed))
            fingerprints[job["index"]] = api.result_fingerprint(result)
            local = json.loads(json.dumps(api.summarize(result).as_dict()))
            if local != job["summary"]:
                mismatched.append(seed)
        self.check("jobs == in-process runs", not mismatched,
                   len(mismatched) or len(self.jobs),
                   f"{len(mismatched)} of {len(self.jobs)} summaries differ "
                   f"{mismatched[:5]}")
        leading = [fingerprints.get(i) for i in range(GOLDEN_OPS)]
        if None in leading:
            self.check("golden digest", None, GOLDEN_OPS, "a leading job failed")
        else:
            self.check_digest("golden digest", self.golden(), chain(leading), GOLDEN_OPS)

    def reference(self) -> str:
        from repro import api

        return chain(
            api.result_fingerprint(api.simulate(**self._config(self.op_seed(i))))
            for i in range(GOLDEN_OPS)
        )

    def close(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        if server.poll() is None:
            server.send_signal(signal.SIGTERM)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        self.log.close()


WORKLOADS = {w.name: w for w in (PaperCampaign, City50k, EnvTaskStream, JobsPaper)}
