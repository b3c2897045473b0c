"""Tests for the JSONL event-log export/import."""

import json

import pytest

from repro.io.events import RoundStreamWriter, read_events_jsonl, write_events_jsonl
from repro.resilience.cancel import FlagToken
from repro.resilience.errors import OperationCancelled, ResultCorruption
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import make_engine, simulate
from repro.simulation.events import SimulationResult, UserRoundRecords


@pytest.fixture(scope="module")
def result():
    return simulate(SimulationConfig(
        n_users=12, n_tasks=5, rounds=6, required_measurements=3,
        area_side=1500.0, budget=150.0, seed=41,
    ))


class TestRoundTrip:
    def test_totals_survive(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        replay = read_events_jsonl(path)
        assert replay.total_measurements == result.total_measurements
        assert replay.total_paid == result.total_paid
        assert replay.total_selector_fallbacks == result.total_selector_fallbacks
        assert replay.totals.user_profits.tolist() == result.totals.user_profits.tolist()
        assert replay.n_tasks == 5
        assert replay.n_users == 12

    def test_round_records_survive(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        replay = read_events_jsonl(path)
        assert len(replay.rounds) == result.rounds_played
        for original, loaded in zip(result.rounds, replay.rounds):
            assert loaded.round_no == original.round_no
            assert loaded.published_rewards == original.published_rewards
            assert loaded.measurements == original.measurements
            assert loaded.rejections == original.rejections

    def test_user_records_survive_byte_for_byte(self, result, tmp_path):
        """The engine's and the replay's columnar records compare equal
        and serialise to the same bytes."""
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        replay = read_events_jsonl(path)
        for original, loaded in zip(result.rounds, replay.rounds):
            assert isinstance(loaded.user_records, UserRoundRecords)
            assert original.user_records == loaded.user_records
            assert loaded.user_records == original.user_records
        again = SimulationResult(
            config=result.config, world=result.world, rounds=replay.rounds
        )
        rewritten = write_events_jsonl(again, tmp_path / "again.jsonl")
        assert rewritten.read_bytes() == path.read_bytes()

    def test_per_task_counts_survive(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        replay = read_events_jsonl(path)
        assert replay.measurements_by_task() == result.measurements_by_task()

    def test_file_is_one_json_per_line(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "meta"
        assert all(json.loads(line)["kind"] == "round" for line in lines[1:])
        assert len(lines) == 1 + result.rounds_played


class TestMetricsPayloads:
    def test_per_round_metrics_survive(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        replay = read_events_jsonl(path)
        for original, loaded in zip(result.rounds, replay.rounds):
            assert loaded.metrics is not None
            assert loaded.metrics.as_dict() == original.metrics.as_dict()

    def test_histogram_state_round_trips_exactly(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        replay = read_events_jsonl(path)
        for original, loaded in zip(result.rounds, replay.rounds):
            before = original.metrics.series()["selector_seconds"]
            after = loaded.metrics.series()["selector_seconds"]
            assert after.bounds == before.bounds
            assert after.bucket_counts == before.bucket_counts
            assert (after.count, after.sum) == (before.count, before.sum)
            assert (after.min, after.max) == (before.min, before.max)

    def test_totals_reconstruct_from_the_log(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        replay = read_events_jsonl(path)
        assert (
            replay.metrics_totals().as_dict()
            == result.metrics_totals().as_dict()
        )

    def test_logs_without_metrics_still_load(self, result, tmp_path):
        """Pre-observability logs (no 'metrics' key) stay readable."""
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        lines = []
        for line in path.read_text().splitlines():
            payload = json.loads(line)
            payload.pop("metrics", None)
            lines.append(json.dumps(payload))
        path.write_text("\n".join(lines) + "\n")
        replay = read_events_jsonl(path)
        assert all(record.metrics is None for record in replay.rounds)
        assert not replay.metrics_totals()  # empty registry, not a crash


class TestValidation:
    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_events_jsonl(path)

    def test_foreign_format_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "meta", "format_version": 99}) + "\n")
        with pytest.raises(ValueError, match="version"):
            read_events_jsonl(path)

    def test_bad_line_kind_rejected(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        content = path.read_text() + json.dumps({"kind": "banana"}) + "\n"
        path.write_text(content)
        with pytest.raises(ValueError, match="unexpected line kind"):
            read_events_jsonl(path)

    def test_blank_lines_are_skipped(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "", *lines[1:]]) + "\n\n")
        replay = read_events_jsonl(path)
        assert replay.rounds_played == result.rounds_played


@pytest.fixture(scope="module")
def four_rounds():
    """A 4-round run at the paper's default parameters."""
    result = simulate(SimulationConfig(rounds=4, seed=2))
    assert result.rounds_played == 4
    return result


class TestRoundNumbering:
    """Round lines must be numbered 1..n: a replay of a log with a
    repeated or missing round would report rounds and spend the run
    never had."""

    @staticmethod
    def _rewrite(result, tmp_path, edit):
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        return path

    def test_repeated_round_is_refused(self, four_rounds, tmp_path):
        path = self._rewrite(
            four_rounds, tmp_path, lambda lines: [*lines[:3], lines[2], *lines[3:]]
        )
        with pytest.raises(
            ResultCorruption,
            match=r"round sequence broken at line 4 \(expected round 3, got 2\)",
        ):
            read_events_jsonl(path)

    def test_missing_round_is_refused(self, four_rounds, tmp_path):
        path = self._rewrite(
            four_rounds, tmp_path, lambda lines: [*lines[:3], *lines[4:]]
        )
        with pytest.raises(
            ResultCorruption, match=r"line 4 \(expected round 3, got 4\)"
        ):
            read_events_jsonl(path)

    def test_meta_must_come_first(self, four_rounds, tmp_path):
        path = self._rewrite(
            four_rounds, tmp_path, lambda lines: [lines[1], lines[0], *lines[2:]]
        )
        with pytest.raises(ResultCorruption, match="not a version-1 event log"):
            read_events_jsonl(path)

    def test_intact_log_replays_the_live_totals(self, four_rounds, tmp_path):
        replay = read_events_jsonl(self._rewrite(four_rounds, tmp_path, list))
        assert replay.rounds_played == 4
        assert replay.total_paid == four_rounds.total_paid


class TestTornFiles:
    """A damaged events file names itself, the line and the damage."""

    def test_torn_last_line(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        text = path.read_text()
        path.write_text(text[: len(text) - 40])  # killed mid-append
        n_lines = len(text.splitlines())
        with pytest.raises(ResultCorruption) as caught:
            read_events_jsonl(path)
        message = str(caught.value)
        assert str(path) in message
        assert f"line {n_lines}" in message
        assert "torn last line" in message

    def test_damage_mid_file(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:50]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ResultCorruption, match="line 2;.*damaged mid-stream"):
            read_events_jsonl(path)

    def test_last_line_without_its_newline_still_reads(self, result, tmp_path):
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        path.write_text(path.read_text()[:-1])
        assert read_events_jsonl(path).rounds_played == result.rounds_played

    def test_corruption_is_a_value_error(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"kind": "me')
        with pytest.raises(
            ValueError, match=r"torn\.jsonl: corrupt events line 1; torn last line"
        ):
            read_events_jsonl(path)


class TestDamagedRoundLines:
    """A round line that parses but does not hold a round names the
    path, its 1-based line and the field."""

    @staticmethod
    def _damage(result, tmp_path, edit):
        """Write ``result``, apply ``edit`` to round 2 (line 3, after a
        blank line 2) and return the path."""
        path = write_events_jsonl(result, tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        payload = json.loads(lines[2])
        edit(payload)
        lines[2] = json.dumps(payload)
        path.write_text("\n".join([lines[0], "", *lines[1:]]) + "\n")
        return path

    def _assert_names(self, path, field):
        with pytest.raises(ResultCorruption) as caught:
            read_events_jsonl(path)
        message = str(caught.value)
        assert str(path) in message
        assert "line 4" in message
        assert repr(field) in message
        return message

    def test_short_measurement_row(self, result, tmp_path):
        assert result.rounds[1].measurements, "round 2 must have measurements"
        path = self._damage(
            result, tmp_path, lambda p: p["measurements"][0].pop()
        )
        self._assert_names(path, "measurements")

    def test_missing_measurements(self, result, tmp_path):
        path = self._damage(result, tmp_path, lambda p: p.pop("measurements"))
        self._assert_names(path, "measurements")

    def test_unknown_rejection_reason(self, result, tmp_path):
        path = self._damage(
            result, tmp_path,
            lambda p: p["rejections"].append([2, 0, 0, "bogus"]),
        )
        assert "bogus" in self._assert_names(path, "rejections")


class TestStreamWriter:
    def test_cancelled_run_leaves_a_readable_prefix(self, tmp_path):
        """The CLI's ``--events`` writer: every round is on disk when its
        observer returns, so a run stopped mid-way (here before its
        writer is even closed, as a killed process leaves it) reads back
        as the rounds it finished."""
        token = FlagToken()
        engine = make_engine(SimulationConfig(
            n_users=25, n_tasks=6, rounds=6, budget=500.0, seed=11,
            stream_rounds=True,
        ), cancel=token)
        path = tmp_path / "events.jsonl"
        writer = RoundStreamWriter(path, engine.world)
        engine.observers += [
            writer,
            lambda record: token.cancel() if record.round_no == 3 else None,
        ]
        with pytest.raises(OperationCancelled):
            engine.run()
        replay = read_events_jsonl(path)
        assert [r.round_no for r in replay.rounds] == [1, 2, 3]
        assert path.read_text().endswith("\n")
        writer.close()

    def test_an_existing_file_is_truncated_unless_resumed(self, tmp_path, result):
        path = write_events_jsonl(result, tmp_path / "events.jsonl")
        with RoundStreamWriter(path, result.world, resume=True) as writer:
            assert writer.completed_rounds == len(result.rounds)
        assert len(read_events_jsonl(path).rounds) == len(result.rounds)
        with RoundStreamWriter(path, result.world) as writer:
            assert writer.completed_rounds == 0
        assert read_events_jsonl(path).rounds == []
