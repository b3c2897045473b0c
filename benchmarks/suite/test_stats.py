"""Unit tests for the harness statistics: ``pytest benchmarks/suite``."""

import statistics

import pytest

from stats import (
    failed_ratio, iqr_share, median, normalize, percentile, quartiles, self_times,
    tail_percentile,
)


class TestPercentiles:
    def test_median_odd_and_even(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_percentile_interpolates_between_ranks(self):
        values = [10.0, 20.0, 30.0, 40.0, 50.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 50.0
        assert percentile(values, 90) == pytest.approx(46.0)

    def test_percentile_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
        assert quartiles(values) == tuple(statistics.quantiles(values, n=4))

    def test_iqr_share(self):
        values = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        assert iqr_share(values) == pytest.approx((q3 - q1) / q2)
        assert iqr_share([4.0, 4.0, 4.0]) == 0.0

    def test_single_sample_has_no_spread(self):
        assert quartiles([2.0]) == (2.0, 2.0, 2.0)
        assert iqr_share([2.0]) == 0.0


class TestTailPercentile:
    @pytest.mark.parametrize(
        "samples, level",
        [(210, 95), (200, 95), (199, 90), (100, 90), (42, 75), (30, 65), (21, 50), (5, 50)],
    )
    def test_highest_multiple_of_five_with_ten_beyond(self, samples, level):
        assert tail_percentile(samples) == level

    def test_at_least_ten_samples_lie_beyond(self):
        for samples in range(20, 400):
            level = tail_percentile(samples)
            assert samples * (100 - level) / 100 >= 10
            if level < 95:
                assert samples * (100 - level - 5) / 100 < 10

    def test_needs_a_sample(self):
        with pytest.raises(ValueError):
            tail_percentile(0)


class TestSelfTimes:
    def test_nested_children_are_subtracted(self):
        spans = [
            ("step", 0.0, 10.0),
            ("select", 1.0, 4.0),
            ("solve", 1.0, 3.0),
            ("upload", 6.0, 3.0),
        ]
        result = self_times(spans)
        assert result["step"] == pytest.approx((3.0, 1))
        assert result["select"] == pytest.approx((1.0, 1))
        assert result["solve"] == pytest.approx((3.0, 1))
        assert result["upload"] == pytest.approx((3.0, 1))
        assert sum(spent for spent, _ in result.values()) == pytest.approx(10.0)

    def test_order_of_input_does_not_matter(self):
        spans = [("b", 2.0, 1.0), ("root", 0.0, 5.0), ("a", 0.5, 1.0)]
        assert self_times(spans) == self_times(sorted(spans))

    def test_siblings_and_repeats_accumulate_per_name(self):
        spans = [("round", 0.0, 2.0), ("phase", 0.5, 1.0),
                 ("round", 3.0, 2.0), ("phase", 3.5, 0.5)]
        result = self_times(spans)
        assert result["round"] == pytest.approx((2.5, 2))
        assert result["phase"] == pytest.approx((1.5, 2))

    def test_grandchildren_count_against_their_parent_only(self):
        spans = [("a", 0.0, 10.0), ("b", 1.0, 6.0), ("c", 2.0, 2.0)]
        result = self_times(spans)
        assert result["a"][0] == pytest.approx(4.0)
        assert result["b"][0] == pytest.approx(4.0)
        assert result["c"][0] == pytest.approx(2.0)


class TestNormalize:
    def test_scales_by_the_median_of_the_samples_around_each_op(self):
        samples = [(0.0, 2.0), (1.0, 4.0), (2.0, 3.0), (3.0, 3.0)]
        # Op at 1.5: samples 0.0, 1.0 before and 2.0, 3.0 after -> median 3.0.
        assert normalize([(1.5, 6.0)], samples, reference=1.5) == pytest.approx([3.0])

    def test_a_slow_stretch_only_scales_the_ops_inside_it(self):
        samples = [(float(t), 1.0) for t in range(6)] + [
            (float(t), 2.0) for t in range(6, 12)
        ]
        fast, slow = normalize([(2.5, 1.0), (8.5, 2.0)], samples, reference=1.0)
        assert fast == pytest.approx(1.0)
        assert slow == pytest.approx(1.0)

    def test_ops_past_either_end_use_the_nearest_samples(self):
        samples = [(1.0, 1.0), (2.0, 2.0), (3.0, 4.0)]
        assert normalize([(0.0, 1.0), (9.0, 3.0)], samples, reference=1.0) == pytest.approx(
            [1.0 / 1.5, 3.0 / 3.0]
        )

    def test_at_reference_speed_times_are_unchanged(self):
        samples = [(0.0, 1.0), (2.0, 1.0)]
        assert normalize([(1.0, 3.0), (1.5, 7.0)], samples, reference=1.0) == [3.0, 7.0]

    def test_needs_a_sample(self):
        with pytest.raises(ValueError):
            normalize([(0.0, 1.0)], [], reference=1.0)


class TestFailedRatio:
    def test_ratio(self):
        assert failed_ratio(0, 40) == 0.0
        assert failed_ratio(3, 12) == 0.25

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            failed_ratio(0, 0)
        with pytest.raises(ValueError):
            failed_ratio(5, 4)
        with pytest.raises(ValueError):
            failed_ratio(-1, 4)
