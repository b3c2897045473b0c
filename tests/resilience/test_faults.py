"""Tests for the deterministic fault injectors (and the recovery paths
they exercise at the engine / IO boundaries)."""

import os

import pytest

from repro.core.mechanisms import MECHANISMS
from repro.io.results import load_result, save_result
from repro.resilience.errors import MechanismPriceError, TransientIOError
from repro.resilience.faults import (
    CrashingMetric,
    FaultPlan,
    FaultyMechanism,
    FaultySelector,
    FlakyIO,
    InjectedFault,
    scripted_failures,
)
from repro.selection import GreedySelector
from repro.simulation.engine import SimulationEngine


class TestFaultPlan:
    def test_scripted_indices_fail(self):
        plan = scripted_failures(0, 2)
        assert [plan.next() for _ in range(4)] == [True, False, True, False]
        assert plan.failures == 2

    def test_seeded_rate_is_deterministic(self):
        a = FaultPlan(rate=0.5, seed=9)
        b = FaultPlan(rate=0.5, seed=9)
        assert [a.next() for _ in range(20)] == [b.next() for _ in range(20)]

    def test_rate_one_always_fails(self):
        plan = FaultPlan(rate=1.0, seed=1)
        assert all(plan.next() for _ in range(5))

    def test_max_failures_caps_injection(self):
        plan = FaultPlan(rate=1.0, seed=1, max_failures=2)
        assert [plan.next() for _ in range(4)] == [True, True, False, False]

    def test_mode_exclusivity(self):
        with pytest.raises(ValueError, match="either"):
            FaultPlan(fail_calls={1}, rate=0.5, seed=1)

    def test_rate_needs_seed(self):
        with pytest.raises(ValueError, match="seed"):
            FaultPlan(rate=0.5)


class TestFaultySelector:
    def test_raises_on_schedule(self):
        from repro.selection import CandidateTask, TaskSelectionProblem
        from repro.geometry.point import Point

        problem = TaskSelectionProblem.build(
            origin=Point(0, 0),
            candidates=[CandidateTask(0, Point(10, 0), 5.0)],
            max_distance=100.0,
            cost_per_meter=0.01,
        )
        faulty = FaultySelector(GreedySelector(), scripted_failures(1))
        assert not faulty.select(problem).is_empty  # call 0 passes through
        with pytest.raises(InjectedFault):
            faulty.select(problem)


class TestFaultyMechanism:
    @pytest.fixture
    def config(self, fast_config):
        return fast_config.with_overrides(mechanism="fixed")

    def _engine(self, config, plan):
        inner = MECHANISMS.create("fixed", **config.mechanism_arguments())
        return SimulationEngine(
            config, mechanism=FaultyMechanism(inner, plan)
        )

    def test_dropped_price_dies_at_the_boundary(self, config):
        engine = self._engine(config, scripted_failures(0))
        with pytest.raises(MechanismPriceError, match="omitted task ids"):
            engine.step()

    def test_error_names_the_mechanism(self, config):
        engine = self._engine(config, scripted_failures(0))
        with pytest.raises(MechanismPriceError, match="FaultyMechanism"):
            engine.step()

    def test_unfaulted_rounds_run_normally(self, config):
        engine = self._engine(config, FaultPlan())  # no faults scheduled
        assert engine.step().round_no == 1


class TestFlakyIO:
    @pytest.fixture
    def result(self):
        from repro.analysis.series import ExperimentResult, Series, SeriesPoint

        return ExperimentResult(
            experiment_id="drill",
            title="t", x_label="x", y_label="y",
            series=[Series("a", (SeriesPoint(1, 2.0),))],
        )

    def test_save_retries_through_transient_failure(
        self, result, tmp_path, monkeypatch
    ):
        flaky = FlakyIO(os.replace, scripted_failures(0))
        monkeypatch.setattr("repro.io.atomic.os.replace", flaky)
        path = save_result(result, tmp_path / "out.json")
        assert flaky.plan.calls == 2  # one failure, one success
        assert load_result(path).experiment_id == "drill"

    def test_persistent_failure_surfaces_and_preserves_old_file(
        self, result, tmp_path, monkeypatch
    ):
        path = tmp_path / "out.json"
        save_result(result, path)
        before = path.read_text()
        monkeypatch.setattr(
            "repro.io.atomic.os.replace",
            FlakyIO(os.replace, FaultPlan(rate=1.0, seed=1)),
        )
        with pytest.raises(TransientIOError):
            save_result(result, path, attempts=2)
        assert path.read_text() == before  # old artifact untouched
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []  # temp files cleaned up


class TestCrashingMetric:
    def test_crashes_exactly_once_on_schedule(self):
        metric = CrashingMetric(lambda _result: 7.0, crash_on_call=2)
        assert metric("run") == 7.0
        with pytest.raises(InjectedFault):
            metric("run")
        assert metric("run") == 7.0  # the "resumed process" succeeds

    def test_persistent_mode(self):
        metric = CrashingMetric(
            lambda _result: 7.0, crash_on_call=1, crash_once=False
        )
        with pytest.raises(InjectedFault):
            metric("run")
        with pytest.raises(InjectedFault):
            metric("run")


class TestEnginePriceValidation:
    """Engine-boundary checks beyond the id-dropping injector."""

    class _NaNMechanism:
        name = "nan"

        def initialize(self, world, rng):
            self.world = world

        def rewards(self, view):
            return {t.task_id: float("nan") for t in view.active_tasks}

    def test_non_finite_prices_rejected(self, fast_config):
        engine = SimulationEngine(fast_config, mechanism=self._NaNMechanism())
        with pytest.raises(MechanismPriceError, match="non-finite"):
            engine.step()
