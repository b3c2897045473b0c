"""The open-world reproducibility contract.

Two invariants from docs/architecture.md are pinned here:

1. An *empty* dynamics block is inert: a run configured with all-zero
   churn rates is bit-identical (canonical round payloads — everything
   but wall-clock timings) to the same run with no dynamics block at
   all, in either distance precision.
2. A *churning* run is an execution-independent function of (config,
   seed): interrupted-then-resumed vs uninterrupted replay the same
   history (and the golden corpus pins the poisson-churn histories).
"""

import pytest

from repro.io.events import RoundStreamWriter, _round_payload
from repro.scenarios import get_preset
from repro.simulation import SimulationConfig, make_engine
from tests.server.canonical import canonical_round

ZERO_DYNAMICS = {
    "user_arrival_rate": 0.0,
    "user_departure_rate": 0.0,
    "task_arrival_rate": 0.0,
    "deadline_renewal_prob": 0.0,
}


def closed_config(**overrides):
    base = dict(
        n_users=30,
        n_tasks=8,
        area_side=2000.0,
        required_measurements=4,
        deadline_range=(3, 8),
        rounds=6,
        budget=400.0,
        seed=17,
    )
    base.update(overrides)
    return SimulationConfig().with_overrides(**base)


def churn_config(**overrides):
    """The poisson-churn preset, downsized to unit-test scale."""
    defaults = dict(
        n_users=40, rounds=6, budget=600.0, seed=11, stream_rounds=False
    )
    defaults.update(overrides)
    return get_preset("poisson-churn").to_config(**defaults)


def canonical_rounds(result):
    """Wall-clock-free round payloads: the bit-identity currency."""
    return [canonical_round(_round_payload(r)) for r in result.rounds]


def semantic_rounds(result):
    """Behavioural round fields (perf counters carry wall-clock
    timings)."""
    return [
        (
            r.round_no,
            tuple(sorted(r.published_rewards.items())),
            tuple(
                (u.user_id, u.selected_task_ids, u.distance, u.reward, u.cost)
                for u in r.user_records
            ),
            tuple((m.task_id, m.user_id, m.reward) for m in r.measurements),
            tuple((j.task_id, j.user_id, j.reason) for j in r.rejections),
            r.completed_task_ids,
            r.expired_task_ids,
            r.selector_fallbacks,
            r.dynamics,
        )
        for r in result.rounds
    ]


class TestEmptyDynamicsIsInert:
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_zero_rates_match_no_block(self, engine):
        # Loaded through a legacy value of the retired engine key: a
        # "scalar" spec ran float64, a "batched" one may run float32.
        dtype = "float64" if engine == "scalar" else "float32"
        closed = make_engine(closed_config(distance_dtype=dtype)).run()
        zeroed = make_engine(closed_config(
            engine=engine, distance_dtype=dtype, dynamics=dict(ZERO_DYNAMICS)
        )).run()
        assert canonical_rounds(zeroed) == canonical_rounds(closed)

    def test_closed_world_payloads_have_no_dynamics_key(self):
        result = make_engine(closed_config()).run()
        for record in result.rounds:
            assert "dynamics" not in _round_payload(record)


class TestChurnIsExecutionIndependent:
    def test_different_seeds_differ(self):
        a = make_engine(churn_config(seed=1)).run()
        b = make_engine(churn_config(seed=2)).run()
        assert semantic_rounds(a) != semantic_rounds(b)


class TestResumeIdentity:
    def run_with_writer(self, config, path, stop_after=None):
        """Run (or partially run) ``config``, streaming rounds to ``path``."""
        engine = make_engine(config)
        writer = RoundStreamWriter(path, engine.world, resume=True)
        engine.observers.append(writer)
        try:
            if stop_after is None:
                engine.run()
            else:
                for _ in range(stop_after):
                    engine.step()
        finally:
            writer.close()
        return writer

    def read_rounds(self, path):
        import json

        lines = path.read_text().splitlines()
        payloads = [json.loads(line) for line in lines]
        assert payloads and payloads[0]["kind"] == "meta"
        return [canonical_round(p) for p in payloads[1:] if p["kind"] == "round"]

    def test_interrupted_churn_run_resumes_bit_identically(self, tmp_path):
        # A task stream keeps the run alive well past round 3, so the
        # "crash" below lands mid-history rather than at the end.
        config = churn_config(
            dynamics={
                "user_arrival_rate": 3.0,
                "user_departure_rate": 0.05,
                "task_arrival_rate": 2.0,
                "task_deadline_range": [2, 4],
            }
        )
        reference = tmp_path / "reference.jsonl"
        resumed = tmp_path / "resumed.jsonl"

        self.run_with_writer(config, reference)

        # Simulate a crash after three rounds, then a fresh worker
        # replaying the same deterministic run onto the same file.
        partial = self.run_with_writer(config, resumed, stop_after=3)
        assert partial.rounds_written == 3
        second = self.run_with_writer(config, resumed)
        assert second.completed_rounds == 3, "resume must see prior rounds"

        reference_rounds = self.read_rounds(reference)
        assert self.read_rounds(resumed) == reference_rounds
        assert any(
            payload.get("dynamics") for payload in reference_rounds
        ), "the fixture must actually churn"
