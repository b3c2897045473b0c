"""Tests for the TimeBoundedSelector watchdog."""

import logging
import time

import pytest

from repro.geometry.point import Point
from repro.resilience.errors import ConfigError, SelectorTimeout
from repro.selection import (
    SELECTORS,
    CandidateTask,
    DynamicProgrammingSelector,
    GreedySelector,
    TaskSelectionProblem,
    TimeBoundedSelector,
)


@pytest.fixture
def problem():
    candidates = [
        CandidateTask(0, Point(50.0, 0.0), 4.0),
        CandidateTask(1, Point(0.0, 80.0), 6.0),
        CandidateTask(2, Point(120.0, 90.0), 9.0),
    ]
    return TaskSelectionProblem.build(
        origin=Point(0.0, 0.0),
        candidates=candidates,
        max_distance=500.0,
        cost_per_meter=0.01,
    )


class _Sleeper:
    """A selector that sleeps, then answers like greedy."""

    name = "sleeper"

    def __init__(self, seconds):
        self.seconds = seconds

    def select(self, problem):
        time.sleep(self.seconds)
        return GreedySelector().select(problem)


class _Exploder:
    name = "exploder"

    def select(self, problem):
        raise RuntimeError("kaboom")


class TestPassThrough:
    def test_inner_result_returned_within_deadline(self, problem):
        guarded = TimeBoundedSelector(DynamicProgrammingSelector(), timeout=30.0)
        direct = DynamicProgrammingSelector().select(problem)
        assert guarded.select(problem) == direct
        assert guarded.total_fallbacks == 0
        assert guarded.total_timeouts == 0

    def test_string_inner_resolved_via_factory(self, problem):
        guarded = TimeBoundedSelector("greedy", timeout=30.0)
        assert isinstance(guarded.inner, GreedySelector)
        assert guarded.select(problem) == GreedySelector().select(problem)


class TestTimeout:
    def test_breach_degrades_to_greedy(self, problem):
        guarded = TimeBoundedSelector(_Sleeper(0.5), timeout=0.02)
        assert guarded.select(problem) == GreedySelector().select(problem)
        assert guarded.total_timeouts == 1
        assert guarded.total_fallbacks == 1

    def test_breach_without_fallback_raises(self, problem):
        guarded = TimeBoundedSelector(_Sleeper(0.5), timeout=0.02, fallback=None)
        with pytest.raises(SelectorTimeout, match="_Sleeper"):
            guarded.select(problem)
        assert guarded.total_timeouts == 1
        assert guarded.total_fallbacks == 0


class TestInnerErrors:
    def test_inner_crash_degrades_when_caught(self, problem):
        guarded = TimeBoundedSelector(_Exploder(), timeout=5.0)
        assert guarded.select(problem) == GreedySelector().select(problem)
        assert guarded.total_fallbacks == 1
        assert guarded.total_timeouts == 0

    def test_inner_crash_propagates_without_fallback(self, problem):
        guarded = TimeBoundedSelector(_Exploder(), timeout=5.0, fallback=None)
        with pytest.raises(RuntimeError, match="kaboom"):
            guarded.select(problem)

    def test_inner_crash_propagates_when_not_catching(self, problem):
        guarded = TimeBoundedSelector(
            _Exploder(), timeout=5.0, catch_errors=False
        )
        with pytest.raises(RuntimeError, match="kaboom"):
            guarded.select(problem)


class TestDegradationLogging:
    def test_breach_logs_a_structured_warning(self, problem, caplog):
        guarded = TimeBoundedSelector(_Sleeper(0.5), timeout=0.02)
        with caplog.at_level(logging.WARNING, logger="repro"):
            guarded.select(problem)
        [record] = [
            r for r in caplog.records if "deadline breached" in r.message
        ]
        assert record.levelno == logging.WARNING
        assert record.name == "repro.selection.watchdog"
        assert record.selector == "_Sleeper"
        assert record.fallback == "GreedySelector"
        assert record.timeout_s == 0.02
        assert record.problem_size == problem.size
        assert record.total_timeouts == 1

    def test_caught_crash_logs_the_error(self, problem, caplog):
        guarded = TimeBoundedSelector(_Exploder(), timeout=5.0)
        with caplog.at_level(logging.WARNING, logger="repro"):
            guarded.select(problem)
        [record] = [r for r in caplog.records if "crashed" in r.message]
        assert "kaboom" in record.error

    def test_clean_select_logs_nothing(self, problem, caplog):
        guarded = TimeBoundedSelector(GreedySelector(), timeout=30.0)
        with caplog.at_level(logging.WARNING, logger="repro"):
            guarded.select(problem)
        assert not caplog.records


class TestRoundDrain:
    def test_consume_round_fallbacks_drains_and_resets(self, problem):
        guarded = TimeBoundedSelector(_Sleeper(0.5), timeout=0.02)
        guarded.select(problem)
        guarded.select(problem)
        assert guarded.consume_round_fallbacks() == 2
        assert guarded.consume_round_fallbacks() == 0
        assert guarded.total_fallbacks == 2  # lifetime counter survives


class TestConstruction:
    def test_non_positive_timeout_rejected(self):
        with pytest.raises(ConfigError, match="timeout"):
            TimeBoundedSelector(GreedySelector(), timeout=0.0)
        with pytest.raises(ConfigError, match="timeout"):
            TimeBoundedSelector(GreedySelector(), timeout=-1.0)

    def test_factory_builds_it(self, problem):
        guarded = SELECTORS.create("time-bounded", inner="greedy", timeout=2.0)
        assert isinstance(guarded, TimeBoundedSelector)
        assert guarded.select(problem) == GreedySelector().select(problem)
