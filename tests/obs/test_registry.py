"""Unit tests for `repro.obs.registry`: instruments, percentile math,
provider flattening, snapshots, and cross-worker merging."""

import json
import math
import threading

import pytest

from repro.obs import (
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricsRegistry,
    flatten_stats,
    merge_snapshots,
)
from repro.obs.registry import Histogram, _percentile_from_counts


class TestCounterGauge:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_t_total", "t", labels=("op",))
        c.inc(op="decide")
        c.inc(2.0, op="decide")
        c.inc(op="plan")
        assert c.value(op="decide") == 3.0
        assert c.value(op="plan") == 1.0
        assert c.value(op="missing") == 0.0

    def test_counter_rejects_negative_and_wrong_labels(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_t_total", "t", labels=("op",))
        with pytest.raises(ValueError):
            c.inc(-1.0, op="decide")
        with pytest.raises(ValueError):
            c.inc(other="decide")
        with pytest.raises(ValueError):
            c.inc()

    def test_gauge_set_and_inc(self):
        registry = MetricsRegistry()
        g = registry.gauge("repro_depth", "d")
        g.set(5)
        assert g.value() == 5.0
        g.inc(-2)
        assert g.value() == 3.0

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", "x", labels=("op",))
        b = registry.counter("repro_x_total", "x", labels=("op",))
        assert a is b

    def test_kind_conflict_is_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", "x")
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total", "x")
        with pytest.raises(ValueError):
            registry.counter("repro_x_total", "x", labels=("op",))

    def test_invalid_metric_name_is_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("repro bad name", "x")

    def test_thread_safety_under_contention(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_n_total", "n")

        def spin():
            for __ in range(1000):
                c.inc()

        threads = [threading.Thread(target=spin) for __ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 8000.0


class TestLabelKeys:
    def test_key_updates_snapshot_like_labelled_calls(self):
        by_labels, by_keys = MetricsRegistry(), MetricsRegistry()
        updates = [
            ("decide", "ok", 0.3),
            ("decide", "ok", 7.0),
            ("plan", "error", 12.5),
            ("invalid", "error", 0.01),
            ("decide", "error", 20000.0),
        ]
        for registry, keyed in ((by_labels, False), (by_keys, True)):
            requests = registry.counter(
                "repro_t_total", "t", labels=("op", "outcome")
            )
            latency = registry.histogram("repro_t_ms", "t", labels=("op",))
            plain = registry.counter("repro_t_plain_total", "t")
            for op, outcome, ms in updates:
                if keyed:
                    requests.inc_key(requests.key(op=op, outcome=outcome))
                    latency.observe_key(ms, latency.key(op=op))
                    plain.inc_key(plain.key(), 2.0)
                else:
                    requests.inc(op=op, outcome=outcome)
                    latency.observe(ms, op=op)
                    plain.inc(2.0)
        assert by_keys.snapshot() == by_labels.snapshot()
        assert by_keys.render() == by_labels.render()

    def test_a_key_lists_label_values_in_declared_order(self):
        registry = MetricsRegistry()
        c = registry.counter("repro_t_total", "t", labels=("op", "outcome"))
        assert c.key(outcome="ok", op="decide") == ("decide", "ok")
        c.inc_key(("decide", "ok"))
        assert c.value(op="decide", outcome="ok") == 1.0
        with pytest.raises(ValueError):
            c.key(op="decide")
        with pytest.raises(ValueError):
            c.inc_key(("decide", "ok"), -1.0)


class TestHistogramPercentiles:
    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError):
            Histogram("repro_h", "h", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("repro_h", "h", buckets=())

    def test_empty_series_has_no_percentile(self):
        h = Histogram("repro_h", "h", buckets=(1.0, 2.0))
        assert h.percentile(50) is None
        assert h.count() == 0 and h.sum() == 0.0

    def test_percentile_bounds_are_validated(self):
        h = Histogram("repro_h", "h", buckets=(1.0, 2.0))
        h.observe(0.5)
        with pytest.raises(ValueError):
            h.percentile(0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_single_bucket_linear_interpolation(self):
        # 10 observations all in (0, 10]: pK is at K% of the bucket
        # width under the uniform-within-bucket assumption.
        h = Histogram("repro_h", "h", buckets=(10.0, 20.0))
        for __ in range(10):
            h.observe(4.2)
        assert h.percentile(50) == pytest.approx(5.0)
        assert h.percentile(90) == pytest.approx(9.0)
        assert h.percentile(100) == pytest.approx(10.0)

    def test_interpolation_across_two_buckets(self):
        # 5 observations <= 10, 5 in (10, 20]: the median falls exactly
        # at the first bound, p75 at the midpoint of the second bucket.
        h = Histogram("repro_h", "h", buckets=(10.0, 20.0))
        for value in (1, 2, 3, 4, 5):
            h.observe(value)
        for value in (11, 12, 13, 14, 15):
            h.observe(value)
        assert h.percentile(50) == pytest.approx(10.0)
        assert h.percentile(75) == pytest.approx(15.0)

    def test_known_distribution_p50_p99(self):
        # 100 observations spread uniformly 1..100 over bounds every 10:
        # the estimate must land within one bucket of the true value.
        bounds = tuple(float(b) for b in range(10, 101, 10))
        h = Histogram("repro_h", "h", buckets=bounds)
        for value in range(1, 101):
            h.observe(float(value))
        assert h.percentile(50) == pytest.approx(50.0, abs=10.0)
        assert h.percentile(99) == pytest.approx(99.0, abs=10.0)
        assert h.count() == 100
        assert h.sum() == pytest.approx(5050.0)

    def test_overflow_reports_last_finite_bound_as_floor(self):
        h = Histogram("repro_h", "h", buckets=(1.0, 2.0))
        for __ in range(10):
            h.observe(100.0)
        assert h.percentile(50) == 2.0
        assert h.percentile(99) == 2.0

    def test_labelled_series_are_independent(self):
        h = Histogram(
            "repro_h", "h", buckets=(10.0, 20.0), label_names=("op",)
        )
        h.observe(5.0, op="decide")
        h.observe(15.0, op="plan")
        assert h.count(op="decide") == 1
        assert h.count(op="plan") == 1
        assert h.percentile(50, op="decide") == pytest.approx(5.0)
        assert h.percentile(50, op="plan") == pytest.approx(15.0)

    def test_default_buckets_cover_sub_ms_to_seconds(self):
        assert DEFAULT_LATENCY_BUCKETS_MS[0] <= 1.0
        assert DEFAULT_LATENCY_BUCKETS_MS[-1] >= 5000.0
        assert list(DEFAULT_LATENCY_BUCKETS_MS) == sorted(
            DEFAULT_LATENCY_BUCKETS_MS
        )

    def test_percentile_from_counts_matches_instrument(self):
        bounds = (10.0, 20.0, 30.0)
        h = Histogram("repro_h", "h", buckets=bounds)
        for value in (1, 5, 12, 18, 25, 29, 99):
            h.observe(float(value))
        ((__, state),) = h.series()
        for p in (50, 95, 99):
            assert _percentile_from_counts(
                bounds, state["counts"], state["inf"], p
            ) == pytest.approx(h.percentile(p))


class TestFlattenStats:
    def test_numbers_bools_recurse_with_joined_names(self):
        stats = {"a": {"b": 2, "ok": True}, "c": 1.5}
        samples = flatten_stats(stats, "repro_x")
        assert ("repro_x_a_b", {}, 2.0) in samples
        assert ("repro_x_a_ok", {}, 1.0) in samples
        assert ("repro_x_c", {}, 1.5) in samples

    def test_strings_none_and_bare_lists_are_skipped(self):
        samples = flatten_stats(
            {"s": "text", "n": None, "l": [1, 2, 3]}, "repro_x"
        )
        assert samples == []

    def test_hexish_keys_become_key_label(self):
        digest = "ab" * 16
        samples = flatten_stats({digest: {"hits": 3}}, "repro_x")
        assert samples == [
            ("repro_x_hits", {"key": digest[:12]}, 3.0)
        ]

    def test_fingerprint_lists_become_fingerprint_label(self):
        stats = {
            "sessions": [
                {"fingerprint": "cd" * 16, "requests": 7},
                {"fingerprint": "ef" * 16, "requests": 9},
            ]
        }
        samples = flatten_stats(stats, "repro_pool")
        assert (
            "repro_pool_sessions_requests",
            {"fingerprint": "cd" * 6},
            7.0,
        ) in samples
        assert (
            "repro_pool_sessions_requests",
            {"fingerprint": "ef" * 6},
            9.0,
        ) in samples

    def test_non_finite_floats_are_skipped(self):
        samples = flatten_stats(
            {"nan": math.nan, "inf": math.inf, "ok": 1}, "repro_x"
        )
        assert samples == [("repro_x_ok", {}, 1.0)]

    def test_awkward_keys_are_sanitized(self):
        samples = flatten_stats({"per-shard %": 1, "0weird": 2}, "repro_x")
        names = {name for name, __, __ in samples}
        assert names == {"repro_x_per_shard__", "repro_x__0weird"}


class TestProvidersAndSnapshot:
    def test_provider_equivalence_with_legacy_stats(self):
        # The ISSUE's equivalence criterion: every numeric leaf of the
        # legacy stats() dict appears, with the same value, among the
        # registry's flattened provider samples.
        legacy = {"requests": 41, "hits": {"memory": 7, "durable": 2}}
        registry = MetricsRegistry()
        registry.register_provider("pool", lambda: legacy)
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in registry.provider_samples()
        }
        assert samples[("repro_pool_requests", ())] == 41.0
        assert samples[("repro_pool_hits_memory", ())] == 7.0
        assert samples[("repro_pool_hits_durable", ())] == 2.0

    def test_failing_provider_yields_error_stub(self):
        registry = MetricsRegistry()

        def explode():
            raise RuntimeError("boom")

        registry.register_provider("bad", explode)
        collected = registry.collect_providers()
        assert "RuntimeError: boom" in collected["bad"]["error"]
        assert registry.provider_samples() == []  # no numeric leaves

    def test_reregistration_replaces(self):
        registry = MetricsRegistry()
        registry.register_provider("pool", lambda: {"v": 1})
        registry.register_provider("pool", lambda: {"v": 2})
        assert registry.collect_providers()["pool"] == {"v": 2}
        assert registry.provider_names() == ["pool"]

    def test_snapshot_is_json_safe_and_carries_percentiles(self):
        registry = MetricsRegistry()
        registry.counter("repro_r_total", "r", labels=("op",)).inc(
            op="decide"
        )
        registry.gauge("repro_g", "g").set(4)
        h = registry.histogram("repro_h_ms", "h", buckets=(10.0, 20.0))
        for value in (1, 5, 12):
            h.observe(float(value))
        registry.register_provider("pool", lambda: {"requests": 3})
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # must not raise
        assert snapshot["namespace"] == "repro"
        assert snapshot["counters"]["repro_r_total"] == [
            {"labels": {"op": "decide"}, "value": 1.0}
        ]
        (series,) = snapshot["histograms"]["repro_h_ms"]["series"]
        assert series["count"] == 3
        assert series["p50"] == pytest.approx(7.5)
        assert "p95" in series and "p99" in series
        assert snapshot["providers"]["pool"] == {"requests": 3}


class TestMergeSnapshots:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("repro_r_total", "r", labels=("op",)).inc(
            3, op="decide"
        )
        h = registry.histogram("repro_h_ms", "h", buckets=(10.0, 20.0))
        for value in (1, 5, 12):
            h.observe(float(value))
        return registry.snapshot()

    def test_counters_sum_and_histograms_merge_bucketwise(self):
        merged = merge_snapshots([self._snapshot(), self._snapshot()])
        assert merged["workers_merged"] == 2
        (sample,) = merged["counters"]["repro_r_total"]
        assert sample == {"labels": {"op": "decide"}, "value": 6.0}
        (series,) = merged["histograms"]["repro_h_ms"]["series"]
        assert series["count"] == 6
        assert series["counts"] == [4, 2]
        # Percentiles are re-estimated from merged counts, not averaged.
        assert series["p50"] == pytest.approx(7.5)

    def test_merge_tolerates_garbage_entries(self):
        merged = merge_snapshots(
            [self._snapshot(), None, "nope", {}]  # type: ignore[list-item]
        )
        assert merged["workers_merged"] == 4
        (sample,) = merged["counters"]["repro_r_total"]
        assert sample["value"] == 3.0

    def test_merged_snapshot_is_json_safe(self):
        json.dumps(merge_snapshots([self._snapshot(), self._snapshot()]))
