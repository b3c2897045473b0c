"""Tracing and per-round metrics must observe the run, never perturb it."""

import dataclasses

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanTracer
from repro.simulation.engine import simulate


def _comparable(result):
    """Everything numeric about a run, for bit-identity assertions."""
    return {
        "total_paid": result.total_paid,
        "total_measurements": result.total_measurements,
        "rounds": [
            (
                record.round_no,
                record.published_rewards,
                record.measurements,
                record.rejections,
                record.completed_task_ids,
            )
            for record in result.rounds
        ],
    }


class TestBitIdentity:
    def test_traced_run_matches_untraced(self, fast_config):
        plain = simulate(fast_config)
        traced = simulate(fast_config, tracer=SpanTracer())
        assert _comparable(traced) == _comparable(plain)

    def test_traced_run_matches_across_repeats(self, fast_config):
        first = simulate(fast_config, tracer=SpanTracer())
        second = simulate(fast_config, tracer=SpanTracer())
        assert _comparable(first) == _comparable(second)


class TestSpanStructure:
    def test_run_round_phase_spans_present(self, fast_config):
        tracer = SpanTracer()
        result = simulate(fast_config, tracer=tracer)
        names = [record.name for record in tracer.spans]
        assert names.count("run") == 1
        assert names.count("round") == result.rounds_played
        for phase in ("price-publish", "select", "upload"):
            assert names.count(phase) == result.rounds_played
        assert "select-block" in names

    def test_phase_spans_nest_inside_rounds(self, fast_config):
        tracer = SpanTracer()
        simulate(fast_config, tracer=tracer)
        depth = {record.name: record.depth for record in tracer.spans}
        assert depth["run"] == 0
        assert depth["round"] == 1
        assert depth["select"] == 2
        assert depth["select-block"] == 3


class TestPerRoundMetrics:
    def test_every_round_carries_a_registry(self, fast_config):
        result = simulate(fast_config)
        assert all(
            isinstance(record.metrics, MetricsRegistry) for record in result.rounds
        )

    def test_totals_reconcile_with_the_result(self, fast_config):
        result = simulate(fast_config)
        totals = result.metrics_totals()
        assert totals.value("payout_total") == pytest.approx(result.total_paid)
        accepted = totals.value("measurements_total", outcome="accepted")
        assert accepted == result.total_measurements
        perf = result.perf_totals()
        assert totals.value("selector_calls") == perf.selector_calls
        assert totals.value("selector_seconds_total") == pytest.approx(
            perf.selector_wall_time
        )
        # One latency value per selector call: a whole assembly chunk
        # for the greedy and the exact DP, a problem block otherwise.
        histogram = totals.series().get("selector_seconds")
        assert histogram is not None
        assert 0 < histogram.count <= perf.selector_calls

    def test_budget_remaining_gauge_is_the_final_balance(self, fast_config):
        result = simulate(fast_config)
        totals = result.metrics_totals()
        assert totals.value("budget_remaining") == pytest.approx(
            fast_config.budget - result.total_paid
        )

    def test_demand_level_distribution_counts_tasks(self, fast_config):
        config = dataclasses.replace(fast_config, mechanism="on-demand")
        result = simulate(config)
        totals = result.metrics_totals()
        level_total = sum(
            instrument.value
            for key, instrument in totals.series().items()
            if key.startswith("demand_level_total{")
        )
        # One demand level per active task per round.
        assert level_total > 0


class TestBatchedSpans:
    """One ``select-block`` span per selector call, here on the greedy's
    one ragged pass per assembly chunk."""

    @pytest.fixture
    def batched_config(self, fast_config):
        return dataclasses.replace(fast_config, selector="greedy")

    def test_traced_run_matches_untraced(self, batched_config):
        plain = simulate(batched_config)
        traced = simulate(batched_config, tracer=SpanTracer())
        assert _comparable(traced) == _comparable(plain)

    def test_select_block_spans_sit_under_select(self, batched_config):
        tracer = SpanTracer()
        result = simulate(batched_config, tracer=tracer)
        blocks = [r for r in tracer.spans if r.name == "select-block"]
        selects = [r for r in tracer.spans if r.name == "select"]
        assert blocks
        for block in blocks:
            assert block.depth == 3
            assert block.cat == "selector"
            assert block.args["tasks"] >= 1
            assert any(
                select.depth == 2
                and select.start <= block.start
                and block.start + block.duration
                <= select.start + select.duration
                for select in selects
            )
        # Every instance solved is a row of exactly one traced call.
        solved = sum(block.args["users"] for block in blocks)
        assert solved == result.perf_totals().selector_calls
