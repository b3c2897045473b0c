"""ISSUE acceptance tests: crash-and-resume campaigns and watchdog
degradation.

Two end-to-end scenarios the resilience layer exists for:

1. a 20-repetition campaign is killed mid-run by an injected crash,
   resumed from its journal, and the aggregated metrics are
   *bit-identical* to an uninterrupted run with the same base seed;
2. a stalling selector breaches its wall-clock deadline, the greedy
   fallback answers instead, and the degradation is recorded in the
   round record.
"""

import pytest

from repro.experiments.runner import repeat_metrics
from repro.resilience.journal import RunJournal
from repro.selection import GreedySelector, TimeBoundedSelector
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import SimulationEngine, simulate
from tests.resilience.faults import CrashingMetric, FaultPlan, FaultySelector, InjectedFault


@pytest.fixture
def campaign_config():
    return SimulationConfig(
        n_users=8,
        n_tasks=4,
        area_side=1000.0,
        required_measurements=2,
        deadline_range=(2, 4),
        rounds=4,
        budget=100.0,
    )


def total_measurements(result):
    return float(sum(len(record.measurements) for record in result.rounds))


class CountingMetric:
    """Wraps a metric and counts how many simulations it actually saw."""

    def __init__(self, metric):
        self.metric = metric
        self.calls = 0

    def __call__(self, result):
        self.calls += 1
        return self.metric(result)


class TestCrashResumeCampaign:
    """Acceptance: interrupt at repetition 8 of 20, resume, compare."""

    REPS = 20
    CRASH_AT = 9  # 1-based metric call => dies measuring repetition 8

    def test_resumed_campaign_is_bit_identical(self, campaign_config, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"

        # The uninterrupted reference: no journal, clean metric.
        baseline = repeat_metrics(
            campaign_config,
            {"measurements": total_measurements},
            self.REPS,
            base_seed=3,
        )

        # Phase 1: the campaign dies mid-repetition-8.
        crashing = CrashingMetric(total_measurements, crash_on_call=self.CRASH_AT)
        with pytest.raises(InjectedFault):
            repeat_metrics(
                campaign_config,
                {"measurements": crashing},
                self.REPS,
                base_seed=3,
                journal=journal_path,
            )

        # Only the repetitions completed *before* the crash were journaled;
        # the dying repetition was not (it never finished its metrics).
        interrupted = RunJournal(
            journal_path,
            fingerprint=_campaign_fingerprint(campaign_config),
        )
        assert interrupted.completed_reps == self.CRASH_AT - 1
        assert interrupted.first_missing(self.REPS) == self.CRASH_AT - 1

        # Phase 2: "restart the process" — fresh call, same journal.
        counting = CountingMetric(total_measurements)
        resumed = repeat_metrics(
            campaign_config,
            {"measurements": counting},
            self.REPS,
            base_seed=3,
            journal=journal_path,
        )

        # Only the missing repetitions were re-simulated...
        assert counting.calls == self.REPS - (self.CRASH_AT - 1)
        # ...and the aggregate is bit-identical to the uninterrupted run.
        assert resumed == baseline

    def test_second_resume_runs_nothing(self, campaign_config, tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        first = repeat_metrics(
            campaign_config,
            {"measurements": total_measurements},
            self.REPS,
            base_seed=3,
            journal=journal_path,
        )
        counting = CountingMetric(total_measurements)
        second = repeat_metrics(
            campaign_config,
            {"measurements": counting},
            self.REPS,
            base_seed=3,
            journal=journal_path,
        )
        assert counting.calls == 0
        assert second == first


def _campaign_fingerprint(config):
    from repro.resilience.journal import config_fingerprint

    return config_fingerprint(
        config, base_seed=3, kind="metrics", metrics=["measurements"]
    )


class TestSelectorTimeoutDegradation:
    """Acceptance: a forced timeout fires the greedy fallback and the
    degradation lands in the round record."""

    @pytest.fixture
    def config(self):
        return SimulationConfig(
            n_users=5,
            n_tasks=4,
            area_side=800.0,
            required_measurements=3,
            deadline_range=(3, 5),
            rounds=2,
        )

    def _stalling_selector(self, timeout=0.05):
        stalling = FaultySelector(
            GreedySelector(),
            FaultPlan(rate=1.0, seed=1),
            mode="stall",
            stall_seconds=0.5,
        )
        return TimeBoundedSelector(stalling, timeout=timeout)

    def test_fallback_fires_and_is_recorded(self, config):
        engine = SimulationEngine(config, selector=self._stalling_selector())
        record = engine.step()
        assert record.selector_fallbacks > 0
        assert engine.selector.total_timeouts == record.selector_fallbacks
        assert engine.result.total_selector_fallbacks == record.selector_fallbacks

    def test_degraded_round_equals_pure_greedy(self, config):
        """Every call degrading to greedy must reproduce the all-greedy
        round exactly — the fallback answers with the paper's own solver."""
        degraded = SimulationEngine(config, selector=self._stalling_selector())
        pure = SimulationEngine(config, selector=GreedySelector())
        record_degraded = degraded.step()
        record_pure = pure.step()
        assert record_degraded.measurements == record_pure.measurements
        assert record_degraded.user_records == record_pure.user_records
        assert record_pure.selector_fallbacks == 0
        assert record_degraded.selector_fallbacks > 0

    def test_config_level_watchdog_with_roomy_deadline(self, config):
        """selector_timeout in the config arms the watchdog; a roomy
        deadline records zero degradations."""
        result = simulate(config.with_overrides(selector_timeout=10.0))
        assert result.total_selector_fallbacks == 0
        # The baseline without the watchdog is bit-identical at the same
        # seed when no deadline is breached.
        baseline = simulate(config)
        assert [r.measurements for r in result.rounds] == [
            r.measurements for r in baseline.rounds
        ]
