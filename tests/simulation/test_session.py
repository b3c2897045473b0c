"""Stepwise sessions: the bit-identity contract and session semantics.

The tentpole guarantee: a session stepped with no actions replays
``simulate()`` bit-identically — RoundRecord by RoundRecord — on every
preset through ``city-2k``, loaded through either legacy value of the
retired ``engine`` key (a ``scalar`` spec also pins float64).  Plus
the session-only semantics: observe is pure, actions invalidate the
price cache, close is idempotent and blocks further stepping.
"""

import pytest

from repro import api
from repro.simulation import (
    SimulationConfig,
    make_engine,
    open_session,
    round_fingerprint,
    result_fingerprint,
)
from repro.simulation.session import SessionObservation

#: Downsized overrides per preset: small enough that 2 spec modes x
#: (reference + session) stay test-suite fast, unchanged in structure
#: (dynamics blocks, populations, arrival policies all intact).
PRESET_OVERRIDES = {
    "paper-2018": dict(n_users=30, n_tasks=6, rounds=5),
    "poisson-stream": dict(n_users=30, n_tasks=4, rounds=5),
    "poisson-churn": dict(n_users=20, n_tasks=5, rounds=5),
    "task-stream-2k": dict(n_users=80, n_tasks=6, rounds=4),
    "rush-hour": dict(n_users=40, n_tasks=8, rounds=5),
    "city-2k": dict(n_users=80, n_tasks=12, rounds=4),
}

#: The retired ``engine`` key's legacy values, which saved specs still
#: carry.  A "scalar" spec could only run the float64 distance pipeline,
#: so that mode also pins float64 (city-2k and task-stream-2k otherwise
#: run float32): the two modes cover both precisions.
ENGINE_MODES = ("scalar", "batched")


def _config(preset: str, mode: str) -> SimulationConfig:
    overrides = dict(PRESET_OVERRIDES[preset], engine=mode)
    if mode == "scalar":
        overrides.update(distance_dtype="float64")
    return api.build_config(scenario=preset, **overrides)


def _reference_records(config):
    """The engine's own history, captured via the observer hook (works
    for streaming presets, whose results drop per-round records)."""
    captured = []
    result = make_engine(config, observers=[captured.append]).run()
    return captured, result


class TestBitIdentity:
    @pytest.mark.parametrize("preset", sorted(PRESET_OVERRIDES))
    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_session_replays_simulate(self, preset, mode):
        config = _config(preset, mode)
        reference, ref_result = _reference_records(config)
        stepped = []
        with open_session(config) as session:
            while not session.finished:
                session.observe()  # must never perturb the replay
                stepped.append(session.step())
            result = session.result()
        assert [round_fingerprint(r) for r in stepped] == [
            round_fingerprint(r) for r in reference
        ]
        assert result_fingerprint(result) == result_fingerprint(ref_result)

    def test_run_without_actions_equals_engine_run(self):
        config = _config("paper-2018", "scalar")
        _, ref_result = _reference_records(config)
        with open_session(config) as session:
            result = session.run()
        assert result_fingerprint(result) == result_fingerprint(ref_result)


class TestObserve:
    def test_observe_is_pure_and_repeatable(self):
        config = _config("paper-2018", "scalar")
        with open_session(config) as session:
            first = session.observe()
            second = session.observe()
            assert isinstance(first, SessionObservation)
            assert first == second
            assert first.round_no == 1
            assert first.published_rewards  # round 1 is priced
            assert first.budget == config.budget
            assert first.total_paid == 0.0

    def test_observe_matches_round_prices(self):
        config = _config("paper-2018", "scalar")
        with open_session(config) as session:
            snapshot = session.observe()
            record = session.step()
            assert snapshot.published_rewards == record.published_rewards

    def test_observe_after_finish_has_no_prices(self):
        config = _config("paper-2018", "scalar")
        with open_session(config) as session:
            session.run()
            final = session.observe()
        assert final.finished
        assert final.published_rewards == {}
        assert final.demands == {}

    def test_task_snapshots_track_progress(self):
        config = _config("paper-2018", "scalar")
        with open_session(config) as session:
            before = session.observe()
            session.step()
            after = session.observe()
        received = lambda obs: sum(t.received for t in obs.tasks)  # noqa: E731
        assert received(before) == 0
        assert received(after) > 0


class TestActions:
    def test_action_invalidates_observe_price_cache(self):
        """observe() pre-prices the round; an action must reprice it."""
        config = _config("paper-2018", "scalar")
        with open_session(config) as session:
            before = session.observe()
            record = session.step({"reward_step": 2.0})
            assert record.published_rewards != before.published_rewards

    def test_noop_action_keeps_identity(self):
        config = _config("paper-2018", "scalar")
        _, ref_result = _reference_records(config)
        with open_session(config) as session:
            while not session.finished:
                session.step({})  # empty mapping: nothing applied
            result = session.result()
        assert result_fingerprint(result) == result_fingerprint(ref_result)

    def test_run_with_action_script(self):
        config = _config("paper-2018", "scalar")
        actions = [None, {"reward_step": 1.0}]  # shorter than the run
        with open_session(config) as session:
            result = session.run(actions)
        assert result.rounds_played >= 2
        ladder_gap = lambda r: (  # noqa: E731 - distinct published prices
            max(r.published_rewards.values()) - min(r.published_rewards.values())
        )
        # Round 2 was priced with step=1.0; its reward ladder is wider
        # than round 1's (step=0.5) whenever both rounds span >1 level.
        assert result.round(2).published_rewards != result.round(1).published_rewards \
            or ladder_gap(result.round(2)) != ladder_gap(result.round(1))

    def test_malformed_action_steps_nothing(self):
        config = _config("paper-2018", "scalar")
        with open_session(config) as session:
            with pytest.raises(ValueError):
                session.step({"weights": [1.0, 2.0]})  # wrong arity
            assert session.current_round == 1  # the round did not play

    def test_partially_invalid_action_leaves_pricing_untouched(self):
        """A mixed action with one bad key must not half-apply: after
        the ValueError the round reprices exactly as observed."""
        config = _config("paper-2018", "scalar")
        with open_session(config) as session:
            before = session.observe()
            with pytest.raises(ValueError):
                session.step({"weights": [2, 1, 1], "reward_step": -1.0})
            assert session.current_round == 1
            assert session.observe().published_rewards == (
                before.published_rewards
            )

    def test_observe_does_not_perturb_stateful_policy_mechanism(self):
        """With mechanism='policy' an observe() prices the round (the
        wrapped policy acts once); a subsequent step(action) reprices
        but must not re-run the policy — the trajectory cannot depend
        on whether observe() was called."""
        overrides = dict(
            PRESET_OVERRIDES["paper-2018"],
            mechanism="policy",
            mechanism_kwargs={
                "policy": {"name": "step-decay", "decay": 0.7},
            },
        )
        config = api.build_config(scenario="paper-2018", **overrides)
        action = {"weights": [0.5, 0.3, 0.2]}
        with open_session(config) as plain:
            while not plain.finished:
                plain.step(dict(action))
            plain_result = plain.result()
        with open_session(config) as observed:
            while not observed.finished:
                observed.observe()  # prices: the policy acts here
                observed.step(dict(action))  # reprices: no second act
            observed_result = observed.result()
        assert result_fingerprint(observed_result) == result_fingerprint(
            plain_result
        )


class TestLifecycle:
    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_close_is_idempotent_and_blocks_stepping(self, mode):
        config = _config("paper-2018", mode)
        session = open_session(config)
        session.step()
        session.close()
        session.close()  # idempotent
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.step()
        with pytest.raises(RuntimeError, match="closed"):
            session.observe()

    def test_step_after_finish_raises(self):
        config = _config("paper-2018", "scalar")
        with open_session(config) as session:
            session.run()
            with pytest.raises(RuntimeError, match="finished"):
                session.step()

    def test_result_valid_mid_run(self):
        config = _config("paper-2018", "scalar")
        with open_session(config) as session:
            session.step()
            partial = session.result()
            assert partial.rounds_played == 1


class TestEventStreaming:
    def test_session_writes_identical_events_jsonl(self, tmp_path):
        """The events-JSONL writer sees the same records either way."""
        from repro.io.events import RoundStreamWriter, read_events_jsonl

        config = _config("task-stream-2k", "batched")  # stream_rounds on
        direct_path = tmp_path / "direct.jsonl"
        engine = make_engine(config)
        with RoundStreamWriter(direct_path, engine.world) as writer:
            engine.observers.append(writer)
            engine.run()
        session_path = tmp_path / "session.jsonl"
        with open_session(config) as session:
            with RoundStreamWriter(session_path, session.engine.world) as writer:
                session.engine.observers.append(writer)
                while not session.finished:
                    session.step()
        direct = read_events_jsonl(direct_path)
        stepped = read_events_jsonl(session_path)
        assert [round_fingerprint(r) for r in direct.rounds] == [
            round_fingerprint(r) for r in stepped.rounds
        ]


class TestFingerprints:
    def test_round_fingerprint_ignores_perf_and_metrics(self):
        import dataclasses

        config = _config("paper-2018", "scalar")
        with open_session(config) as session:
            record = session.step()
        stripped = dataclasses.replace(record, perf=None, metrics=None)
        assert round_fingerprint(record) == round_fingerprint(stripped)

    def test_round_fingerprint_sees_every_deterministic_field(self):
        import dataclasses

        config = _config("paper-2018", "scalar")
        with open_session(config) as session:
            record = session.step()
        mutated = dataclasses.replace(record, selector_fallbacks=99)
        assert round_fingerprint(record) != round_fingerprint(mutated)
