"""Unit tests for the metrics registry and its exports."""

import json

import pytest

from repro.obs.metrics import (
    CATALOG,
    DAYS_BUCKETS,
    Histogram,
    MetricsRegistry,
)

pytestmark = pytest.mark.smoke


class TestInstruments:
    def test_counter_increments(self):
        registry = MetricsRegistry(declare_catalog=False)
        registry.counter("hits_total").inc()
        registry.counter("hits_total").inc(2.5)
        assert registry.counter("hits_total").value == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry(declare_catalog=False)
        with pytest.raises(ValueError, match="only go up"):
            registry.counter("hits_total").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry(declare_catalog=False)
        registry.gauge("depth").set(3)
        registry.gauge("depth").set(1.5)
        assert registry.gauge("depth").value == 1.5

    def test_histogram_buckets_sum_count(self):
        h = Histogram(bounds=(1.0, 5.0))
        for value in (0.5, 1.0, 3.0, 100.0):
            h.observe(value)
        # inclusive upper bounds: 0.5 and 1.0 in <=1, 3.0 in <=5, 100 overflow
        assert h.bucket_counts == [2, 1, 1]
        assert h.count == 4
        assert h.sum == pytest.approx(104.5)
        assert h.mean == pytest.approx(104.5 / 4)

    def test_labels_separate_samples(self):
        registry = MetricsRegistry(declare_catalog=False)
        registry.counter("alarms_total", kind="tp").inc()
        registry.counter("alarms_total", kind="fp").inc(2)
        assert registry.counter("alarms_total", kind="tp").value == 1
        assert registry.counter("alarms_total", kind="fp").value == 2

    def test_label_less_and_labelled_samples_stay_distinct(self):
        registry = MetricsRegistry(declare_catalog=False)
        registry.counter("readings_total").inc(3)
        registry.counter("readings_total", rule="stale").inc()
        registry.gauge("depth").set(2)
        registry.gauge("depth", queue="b").set(5)
        dumped = {
            family["name"]: [(s["labels"], s["value"]) for s in family["samples"]]
            for family in registry.dump()
        }
        assert dumped == {
            "depth": [({}, 2.0), ({"queue": "b"}, 5.0)],
            "readings_total": [({}, 3.0), ({"rule": "stale"}, 1.0)],
        }

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry(declare_catalog=False)
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")


class TestCatalog:
    def test_catalog_pre_declared_at_zero(self):
        registry = MetricsRegistry()
        dump = {entry["name"]: entry for entry in registry.dump()}
        assert dump["mfpa_grid_search_fits_total"]["samples"][0]["value"] == 0
        assert dump["monitor_windows_empty_total"]["samples"][0]["value"] == 0
        assert dump["window_score_seconds"]["samples"][0]["count"] == 0

    def test_catalog_survives_reset(self):
        registry = MetricsRegistry()
        registry.counter("mfpa_grid_search_fits_total").inc(9)
        registry.reset()
        assert registry.counter("mfpa_grid_search_fits_total").value == 0
        names = {entry["name"] for entry in registry.dump()}
        assert names.issuperset({name for name, *_ in CATALOG})

    def test_lead_time_histogram_uses_day_buckets(self):
        registry = MetricsRegistry()
        h = registry.histogram("monitor_lead_time_days")
        assert h.bounds == tuple(float(b) for b in DAYS_BUCKETS)


class TestMerge:
    def test_counters_add(self):
        parent = MetricsRegistry(declare_catalog=False)
        parent.counter("n_total").inc(1)
        worker = MetricsRegistry(declare_catalog=False)
        worker.counter("n_total").inc(2)
        parent.merge(worker.dump())
        assert parent.counter("n_total").value == 3

    def test_histograms_add_bucketwise(self):
        parent = MetricsRegistry(declare_catalog=False)
        parent.histogram("t_seconds", buckets=(1.0, 2.0)).observe(0.5)
        worker = MetricsRegistry(declare_catalog=False)
        worker.histogram("t_seconds", buckets=(1.0, 2.0)).observe(1.5)
        parent.merge(worker.dump())
        merged = parent.histogram("t_seconds", buckets=(1.0, 2.0))
        assert merged.count == 2
        assert merged.bucket_counts == [1, 1, 0]

    def test_histogram_bounds_mismatch_rejected(self):
        parent = MetricsRegistry(declare_catalog=False)
        parent.histogram("t_seconds", buckets=(1.0, 2.0)).observe(0.5)
        worker = MetricsRegistry(declare_catalog=False)
        worker.histogram("t_seconds", buckets=(9.0,)).observe(0.5)
        with pytest.raises(ValueError, match="bucket mismatch"):
            parent.merge(worker.dump())

    def test_gauge_takes_worker_value(self):
        parent = MetricsRegistry(declare_catalog=False)
        parent.gauge("depth").set(1)
        worker = MetricsRegistry(declare_catalog=False)
        worker.gauge("depth").set(7)
        parent.merge(worker.dump())
        assert parent.gauge("depth").value == 7


class TestExport:
    def test_jsonl_one_valid_record_per_sample(self):
        registry = MetricsRegistry(declare_catalog=False)
        registry.counter("a_total", kind="tp").inc(3)
        registry.histogram("b_seconds", buckets=(1.0,)).observe(0.5)
        lines = registry.to_jsonl().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 2
        by_name = {r["name"]: r for r in records}
        assert by_name["a_total"]["value"] == 3
        assert by_name["a_total"]["labels"] == {"kind": "tp"}
        assert by_name["b_seconds"]["count"] == 1

    def test_prometheus_counter_line(self):
        registry = MetricsRegistry(declare_catalog=False)
        registry.counter("alarms_total", help="graded alarms", kind="tp").inc(4)
        text = registry.to_prometheus()
        assert "# HELP alarms_total graded alarms" in text
        assert "# TYPE alarms_total counter" in text
        assert 'alarms_total{kind="tp"} 4' in text

    def test_prometheus_histogram_cumulative_with_inf(self):
        registry = MetricsRegistry(declare_catalog=False)
        h = registry.histogram("t_seconds", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            h.observe(value)
        text = registry.to_prometheus()
        assert 't_seconds_bucket{le="1"} 1' in text
        assert 't_seconds_bucket{le="2"} 2' in text
        assert 't_seconds_bucket{le="+Inf"} 3' in text
        assert "t_seconds_sum 101" in text
        assert "t_seconds_count 3" in text

    def test_prometheus_label_values_escaped(self):
        """Backslash, quote and newline in label values must be escaped
        per the exposition spec (regression: raw interpolation)."""
        registry = MetricsRegistry(declare_catalog=False)
        hostile = 'fw "v2"\\beta\nline2'
        registry.counter("faults_total", rule=hostile).inc(2)
        text = registry.to_prometheus()
        assert 'faults_total{rule="fw \\"v2\\"\\\\beta\\nline2"} 2' in text
        # No raw newline may survive inside a sample line.
        sample_lines = [
            line for line in text.splitlines() if line.startswith("faults_total{")
        ]
        assert len(sample_lines) == 1

    def test_prometheus_escaping_round_trips_through_parser(self):
        from tests.obs.promparse import validate_exposition

        registry = MetricsRegistry(declare_catalog=False)
        hostile = 'path="C:\\drives"\nnext'
        registry.counter("events_total", source=hostile).inc()
        families = validate_exposition(registry.to_prometheus())
        (sample,) = families["events_total"].samples
        assert sample.labels["source"] == hostile
