"""Tests for the metrics registry: counters and histograms."""

import pytest

from repro.errors import ParameterError
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_defaults_to_one(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_reset(self):
        counter = Counter("c")
        counter.inc(3)
        counter.reset()
        assert counter.value == 0


class TestHistogramBuckets:
    def test_value_equal_to_bound_lands_in_that_bucket(self):
        histogram = Histogram("h", buckets=(1, 5, 10))
        histogram.observe(5)  # == bound: belongs to the <=5 bucket
        assert histogram.counts == [0, 1, 0, 0]

    def test_value_between_bounds_lands_in_upper_bucket(self):
        histogram = Histogram("h", buckets=(1, 5, 10))
        histogram.observe(2)
        assert histogram.counts == [0, 1, 0, 0]

    def test_value_below_first_bound(self):
        histogram = Histogram("h", buckets=(1, 5, 10))
        histogram.observe(0.5)
        assert histogram.counts == [1, 0, 0, 0]

    def test_overflow_slot(self):
        histogram = Histogram("h", buckets=(1, 5, 10))
        histogram.observe(11)
        histogram.observe(1e9)
        assert histogram.counts == [0, 0, 0, 2]

    def test_count_and_sum(self):
        histogram = Histogram("h", buckets=(1, 5, 10))
        for value in (0.5, 5, 11):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(16.5)

    def test_rejects_empty_buckets(self):
        with pytest.raises(ParameterError):
            Histogram("h", buckets=())

    def test_rejects_non_increasing_buckets(self):
        with pytest.raises(ParameterError):
            Histogram("h", buckets=(1, 5, 5))

    def test_render_shows_every_bucket_and_overflow(self):
        histogram = Histogram("h", buckets=(1, 2))
        histogram.observe(1)
        histogram.observe(3)
        assert histogram.render() == "[<=1] 1 [<=2] 0 [>2] 1"

    def test_reset_keeps_bounds(self):
        histogram = Histogram("h", buckets=(1, 2))
        histogram.observe(1.5)
        histogram.reset()
        assert histogram.buckets == (1.0, 2.0)
        assert histogram.counts == [0, 0, 0]
        assert histogram.count == 0 and histogram.sum == 0.0

    def test_negative_values_land_in_first_bucket(self):
        histogram = Histogram("h", buckets=(1, 5, 10))
        histogram.observe(-3)
        assert histogram.counts == [1, 0, 0, 0]
        assert histogram.sum == pytest.approx(-3.0)

    def test_value_just_above_bound_lands_in_next_bucket(self):
        # The `le` edge is exact: 5 belongs to <=5, 5 + epsilon does not.
        histogram = Histogram("h", buckets=(1, 5, 10))
        histogram.observe(5)
        histogram.observe(5.0000001)
        assert histogram.counts == [0, 1, 1, 0]

    def test_integer_and_float_bounds_compare_equal(self):
        # Bounds are normalized to float at construction, so observing
        # the integer form of a bound still hits the exact-edge bucket.
        histogram = Histogram("h", buckets=(4, 8.0, 16))
        histogram.observe(8)
        histogram.observe(4.0)
        assert histogram.counts == [1, 1, 0, 0]

    def test_last_bound_edge_vs_overflow(self):
        histogram = Histogram("h", buckets=(1, 5, 10))
        histogram.observe(10)      # == last bound: still in-range
        histogram.observe(10.001)  # past it: overflow slot
        assert histogram.counts == [0, 0, 1, 1]


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ParameterError):
            registry.histogram("x", buckets=(1,))

    def test_snapshot_is_json_plain(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.histogram("h", buckets=(1, 2)).observe(1)
        snapshot = registry.snapshot()
        assert snapshot["c"] == {"type": "counter", "value": 2}
        assert snapshot["h"]["counts"] == [1, 0, 0]
        assert snapshot["h"]["buckets"] == [1.0, 2.0]

    def test_merge_counters_adds(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(1)
        registry.merge_counters({"a": 4, "b": 2})
        assert registry.counter("a").value == 5
        assert registry.counter("b").value == 2

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(9)
        registry.reset()
        assert registry.names() == ["c"]
        assert registry.counter("c").value == 0


class TestHistogramMerge:
    """Cross-process histogram transport: snapshot + merge."""

    def test_snapshot_histograms_excludes_other_metric_types(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(1)
        registry.histogram("h", buckets=(1, 2)).observe(1)
        payload = registry.snapshot_histograms()
        assert set(payload) == {"h"}
        assert payload["h"]["type"] == "histogram"

    def test_merge_adds_bucket_for_bucket(self):
        worker = MetricsRegistry()
        worker.histogram("h", buckets=(1, 5, 10)).observe(2)
        worker.histogram("h").observe(7)
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(1, 5, 10)).observe(0.5)
        parent.merge_histograms(worker.snapshot_histograms())
        merged = parent.get("h")
        assert merged.counts == [1, 1, 1, 0]
        assert merged.count == 3
        assert merged.sum == pytest.approx(9.5)

    def test_merge_registers_unknown_names_with_payload_bounds(self):
        worker = MetricsRegistry()
        worker.histogram("new", buckets=(3, 6)).observe(4)
        parent = MetricsRegistry()
        parent.merge_histograms(worker.snapshot_histograms())
        merged = parent.get("new")
        assert merged is not None
        assert merged.buckets == (3.0, 6.0)
        assert merged.counts == [0, 1, 0]

    def test_merge_preserves_edge_placement(self):
        # An exact-bound observation made in a worker must land in the
        # same bucket after the merge as it would have locally.
        local = MetricsRegistry()
        local.histogram("h", buckets=(4, 8)).observe(8)
        worker = MetricsRegistry()
        worker.histogram("h", buckets=(4, 8)).observe(8)
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(4, 8))
        parent.merge_histograms(worker.snapshot_histograms())
        assert parent.get("h").counts == local.get("h").counts

    def test_merge_rejects_mismatched_bounds(self):
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(1, 2))
        with pytest.raises(ParameterError, match="bounds mismatch"):
            parent.merge_histograms(
                {
                    "h": {
                        "type": "histogram",
                        "buckets": [1, 3],
                        "counts": [0, 0, 0],
                        "count": 0,
                        "sum": 0.0,
                    }
                }
            )

    def test_merge_rejects_wrong_counts_length(self):
        parent = MetricsRegistry()
        parent.histogram("h", buckets=(1, 2))
        with pytest.raises(ParameterError, match="counts"):
            parent.merge_histograms(
                {
                    "h": {
                        "type": "histogram",
                        "buckets": [1, 2],
                        "counts": [0, 0],  # missing the overflow slot
                        "count": 0,
                        "sum": 0.0,
                    }
                }
            )

    def test_merge_is_order_independent(self):
        payloads = []
        for values in ((1, 9), (3,), (12, 0.5)):
            registry = MetricsRegistry()
            histogram = registry.histogram("h", buckets=(2, 4, 8))
            for value in values:
                histogram.observe(value)
            payloads.append(registry.snapshot_histograms())
        forward = MetricsRegistry()
        backward = MetricsRegistry()
        for payload in payloads:
            forward.merge_histograms(payload)
        for payload in reversed(payloads):
            backward.merge_histograms(payload)
        assert forward.get("h").as_dict() == backward.get("h").as_dict()
