"""The crash rule shared by every append-only JSONL log.

A line counts once its newline is on disk.  :mod:`repro.io.atomic`
holds the one durable append, the one writer-side reopen (a torn tail
is removed, a damaged complete line raises) and the one reader; the
run journal, the job journal, a worker's events file and the run
store's index all go through them.  The crash drills below tear each of
those four logs the two ways a crash can — mid-line, and with only the
final newline lost — then reopen, append twice and reopen again: every
record whose newline reached disk must be there exactly once.
"""

import json

import pytest

from repro.io.atomic import append_line, parse_jsonl, read_lines, reopen_jsonl
from repro.io.events import read_events_jsonl
from repro.obs.store import RunStore, StoreError
from repro.resilience.errors import ResultCorruption
from repro.resilience.journal import RunJournal
from repro.server.jobs import Job, JobJournal
from repro.server.worker import ResumingRoundWriter
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import make_engine


def tear_mid_line(path):
    """A crash part-way through the last append."""
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 12])


def drop_final_newline(path):
    """A crash after the last line's text but before its newline."""
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    path.write_bytes(raw[:-1])


CRASHES = [tear_mid_line, drop_final_newline]


class TestPrimitives:
    def test_append_line_terminates_each_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with path.open("a") as handle:
            append_line(handle, '{"a": 1}')
            append_line(handle, '{"b": 2}')
        assert path.read_text() == '{"a": 1}\n{"b": 2}\n'

    def test_read_lines_splits_off_the_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n{"c"')
        assert read_lines(path) == (['{"a": 1}', "", '{"b": 2}'], '{"c"')
        path.write_text('{"a": 1}\n')
        assert read_lines(path) == (['{"a": 1}'], "")
        path.write_text('{"a": 1}')
        assert read_lines(path) == ([], '{"a": 1}')

    def test_parse_skips_blank_lines_and_numbers_the_rest(self, tmp_path):
        parsed = parse_jsonl(tmp_path, ['{"a": 1}', " ", "[2]"], "log", StoreError)
        assert parsed == [(1, {"a": 1}), (3, [2])]

    @pytest.mark.parametrize("crash", CRASHES)
    def test_reopen_removes_the_tail_from_disk(self, tmp_path, crash):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n\n{"b": "a line longer than the tear"}\n')
        crash(path)
        assert reopen_jsonl(path, "log", ResultCorruption) == [(1, {"a": 1})]
        assert path.read_text() == '{"a": 1}\n\n'

    def test_reopen_without_a_tail_leaves_the_file_alone(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n')
        before = path.stat().st_mtime_ns, path.stat().st_ino
        assert reopen_jsonl(path, "log", ResultCorruption) == [(1, {"a": 1})]
        assert (path.stat().st_mtime_ns, path.stat().st_ino) == before

    def test_damaged_complete_line_raises_and_keeps_the_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        text = '{"a": 1}\n{"b": \n{"c": 3}\n{"d"'
        path.write_text(text)
        with pytest.raises(StoreError) as caught:
            reopen_jsonl(path, "index", StoreError)
        assert str(caught.value).startswith(f"{path}: corrupt index line 2;")
        assert path.read_text() == text


# -- the four logs, driven the same way ----------------------------------


class RunJournalLog:
    """Records are repetitions."""

    def __init__(self, path):
        self.path = path / "journal.jsonl"

    def open(self):
        return RunJournal(self.path, "fp")

    def append(self, journal, n):
        journal.record(n, {"n": n})

    def close(self, journal):
        pass

    def reopened_ids(self):
        journal = self.open()
        return [n for n in range(1, 10) if journal.get(n) == {"n": n}]

    def ids_on_disk(self):
        lines = self.path.read_text().splitlines()
        return [json.loads(line)["rep"] for line in lines[1:]]


class JobJournalLog:
    """Records are submissions; a lost submission's id is reused."""

    def __init__(self, path):
        self.path = path / "journal.jsonl"

    def open(self):
        return JobJournal(self.path)

    def append(self, journal, n):
        job_id = journal.next_job_id()
        assert job_id == f"job-{n:06d}"
        journal.record_submitted(
            Job(job_id=job_id, fingerprint=f"fp-{n}", payload={}, created_at=0.0)
        )

    def close(self, journal):
        pass

    def reopened_ids(self):
        return [int(job_id[4:]) for job_id in sorted(self.open().jobs)]

    def ids_on_disk(self):
        lines = self.path.read_text().splitlines()
        return [int(json.loads(line)["job"]["job_id"][4:]) for line in lines[1:]]


class RunStoreLog:
    """Records are ingested runs; run ids are minted from the index."""

    def __init__(self, path):
        self.store = RunStore(path / "store")
        self.path = self.store.index_path

    def open(self):
        return self.store

    def append(self, store, n):
        record, created = store.ingest("bench", {"n": float(n)})
        assert created and record.run_id == f"bench-{n:06d}"

    def close(self, store):
        pass

    def reopened_ids(self):
        entries = RunStore(self.store.root).entries()
        assert [e["values"]["n"] for e in entries] == [
            float(int(e["run_id"][6:])) for e in entries
        ]
        return [int(e["run_id"][6:]) for e in entries]

    def ids_on_disk(self):
        lines = self.path.read_text().splitlines()
        return [int(json.loads(line)["run_id"][6:]) for line in lines]


@pytest.fixture(scope="module")
def engine_rounds():
    """A small run's world and round records (round n is records[n-1])."""
    engine = make_engine(SimulationConfig(
        n_users=25, n_tasks=6, rounds=5, budget=500.0, seed=11,
    ))
    records = []
    engine.observers.append(records.append)
    engine.run()
    assert len(records) == 5
    return engine.world, records


class EventsLog:
    """Records are rounds; a resumed writer sees the full replay."""

    def __init__(self, path, engine_rounds):
        self.path = path / "events.jsonl"
        self.world, self.records = engine_rounds

    def open(self):
        writer = ResumingRoundWriter(self.path, self.world)
        for record in self.records[: writer.completed_rounds]:
            writer(record)  # the deterministic replay appends nothing
        assert writer.rounds_written == 0
        return writer

    def append(self, writer, n):
        writer(self.records[n - 1])

    def close(self, writer):
        writer.close()

    def reopened_ids(self):
        writer = self.open()
        writer.close()
        rounds = [r.round_no for r in read_events_jsonl(self.path).rounds]
        assert writer.completed_rounds == len(rounds)
        return rounds

    def ids_on_disk(self):
        lines = self.path.read_text().splitlines()
        return [json.loads(line)["round_no"] for line in lines[1:]]


@pytest.fixture(params=["run-journal", "job-journal", "store-index", "worker-events"])
def log(request, tmp_path):
    if request.param == "worker-events":
        return EventsLog(tmp_path, request.getfixturevalue("engine_rounds"))
    return {
        "run-journal": RunJournalLog,
        "job-journal": JobJournalLog,
        "store-index": RunStoreLog,
    }[request.param](tmp_path)


@pytest.mark.parametrize("crash", CRASHES)
def test_every_durable_record_survives_exactly_once(log, crash):
    writer = log.open()
    for n in (1, 2, 3):
        log.append(writer, n)
    log.close(writer)
    crash(log.path)  # record 3 never got its newline onto disk

    writer = log.open()
    log.append(writer, 3)
    log.append(writer, 4)
    log.close(writer)

    assert log.reopened_ids() == [1, 2, 3, 4]
    assert log.ids_on_disk() == [1, 2, 3, 4]
    assert log.path.read_text().endswith("\n")
    # A further reopen changes nothing.
    before = log.path.read_bytes()
    assert log.reopened_ids() == [1, 2, 3, 4]
    assert log.path.read_bytes() == before


class TestRunJournalFinalNewlineLost:
    def test_reopen_record_reopen_keeps_every_rep(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = RunJournal(path, "fp")
        for rep in range(3):
            journal.record(rep, {"rep": rep})
        drop_final_newline(path)
        assert RunJournal(path, "fp").completed_reps == 2  # rep 2 not durable
        RunJournal(path, "fp").record(2, {"rep": 2})
        assert RunJournal(path, "fp").completed_reps == 3


class TestJobJournalFinalNewlineLost:
    def test_server_restarts_after_more_submissions(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(path)
        for n in (1, 2):
            journal.record_submitted(
                Job(job_id=journal.next_job_id(), fingerprint=f"fp-{n}", payload={})
            )
        drop_final_newline(path)
        journal = JobJournal(path)
        assert sorted(journal.jobs) == ["job-000001"]
        for n in (2, 3):
            journal.record_submitted(
                Job(job_id=journal.next_job_id(), fingerprint=f"fp-{n}", payload={})
            )
        assert sorted(JobJournal(path).jobs) == [
            "job-000001", "job-000002", "job-000003"
        ]


class TestEventsWriterReopen:
    def test_torn_meta_line_is_rewritten(self, tmp_path, engine_rounds):
        world, records = engine_rounds
        path = tmp_path / "events.jsonl"
        ResumingRoundWriter(path, world).close()
        tear_mid_line(path)
        with ResumingRoundWriter(path, world) as writer:
            assert writer.completed_rounds == 0
            for record in records:
                writer(record)
        assert len(read_events_jsonl(path).rounds) == len(records)

    def test_foreign_format_version_is_refused(self, tmp_path, engine_rounds):
        world, records = engine_rounds
        path = tmp_path / "events.jsonl"
        with ResumingRoundWriter(path, world) as writer:
            writer(records[0])
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["format_version"] = 99
        path.write_text("\n".join([json.dumps(meta), *lines[1:]]) + "\n")
        with pytest.raises(ResultCorruption, match="not a version-1 event log"):
            ResumingRoundWriter(path, world)

    def test_damaged_round_line_names_the_line(self, tmp_path, engine_rounds):
        world, records = engine_rounds
        path = tmp_path / "events.jsonl"
        with ResumingRoundWriter(path, world) as writer:
            for record in records[:3]:
                writer(record)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:30]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ResultCorruption, match="corrupt events line 3"):
            ResumingRoundWriter(path, world)
