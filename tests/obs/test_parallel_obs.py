"""Cross-process observability: spans and metrics recorded inside fork
workers must aggregate to the same totals-per-name as a serial run, and
observability must never perturb model outputs."""

import time

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.obs import (
    disable_observability,
    enable_observability,
    get_registry,
    get_tracer,
    set_gauge,
    trace_span,
)
from repro.parallel import ParallelExecutor, fork_available, shutdown_pool
from repro.parallel import pool as pool_manager
from repro.parallel.calibration import set_serial_fallback_mode

pytestmark = pytest.mark.smoke

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(autouse=True)
def force_pool_paths(monkeypatch):
    """Exercise real fork workers even on single-core CI boxes: disable
    the cpu_count clamp and the calibrated serial fallback, and tear the
    persistent pool down so per-test fork counters start from zero."""
    monkeypatch.setenv("REPRO_PARALLEL_OVERSUBSCRIBE", "1")
    set_serial_fallback_mode("never")
    yield
    set_serial_fallback_mode("auto")
    shutdown_pool()


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 1, (150, 6)), rng.normal(1.2, 1, (150, 6))])
    y = np.array([0] * 150 + [1] * 150)
    return X, y


def _traced_task(x):
    with trace_span("worker.task"):
        time.sleep(0.001)
        from repro.obs import inc_counter

        inc_counter("parallel_tasks_total", 0)  # touch the registry
        inc_counter("worker_items_total")
    return x * x


def _span_counts(tracer):
    """{path: count} with timings dropped — counts must match exactly
    across n_jobs; wall-clock obviously differs."""
    return {path: stats.count for path, stats in tracer.totals.items()}


def _run_traced(n_jobs):
    enable_observability()
    with trace_span("root"):
        results = ParallelExecutor(n_jobs).starmap(
            _traced_task, [(i,) for i in range(8)]
        )
    spans = _span_counts(get_tracer())
    worker_counter = get_registry().counter("worker_items_total").value
    disable_observability()
    return results, spans, worker_counter


class TestWorkerAggregation:
    @needs_fork
    def test_span_counts_identical_serial_vs_forked(self):
        serial_results, serial_spans, serial_counter = _run_traced(1)
        forked_results, forked_spans, forked_counter = _run_traced(4)
        assert forked_results == serial_results == [i * i for i in range(8)]
        assert serial_spans[("root", "parallel.starmap", "worker.task")] == 8
        assert forked_spans == serial_spans
        assert serial_counter == forked_counter == 8

    @needs_fork
    def test_worker_spans_nest_under_open_parent_span(self):
        enable_observability()
        with trace_span("outer"):
            ParallelExecutor(2).starmap(_traced_task, [(1,), (2,)])
        paths = set(get_tracer().totals)
        assert ("outer", "parallel.starmap", "worker.task") in paths

    @needs_fork
    def test_pool_fork_counter_only_in_parallel_runs(self):
        _, _, _ = _run_traced(1)
        enable_observability()
        ParallelExecutor(1).starmap(_traced_task, [(1,), (2,)])
        assert get_registry().counter("parallel_pool_forks_total").value == 0
        get_registry().reset()
        shutdown_pool()  # the persistent pool may be live from _run_traced
        ParallelExecutor(3).starmap(_traced_task, [(1,), (2,)])
        assert get_registry().counter("parallel_pool_forks_total").value == 1
        # A second dispatch reuses the live pool instead of re-forking.
        ParallelExecutor(3).starmap(_traced_task, [(3,), (4,)])
        assert get_registry().counter("parallel_pool_forks_total").value == 1
        assert get_registry().counter("parallel_pool_reuses_total").value == 1

    @needs_fork
    def test_worker_deltas_leave_parent_gauges_alone(self, training_data):
        """Workers ship counters and histograms, not gauges: after a
        pooled fit the parent still reads its own pool size and the
        serve mode it set before the fit."""
        X, y = training_data
        enable_observability()
        try:
            set_gauge("serve_degraded_mode", 1)
            RandomForestClassifier(n_estimators=8, seed=0, n_jobs=2).fit(X, y)
            stats = pool_manager.pool_stats()
            assert stats["live"] and stats["workers"] == 2
            registry = get_registry()
            assert registry.gauge("parallel_pool_workers").value == 2
            assert registry.gauge("serve_degraded_mode").value == 1
            assert registry.counter("forest_trees_fitted_total").value == 8
        finally:
            disable_observability()

    def test_no_capture_no_span_shipping(self):
        # With observability off, results flow through the plain task
        # protocol and nothing is recorded.
        results = ParallelExecutor(1).starmap(_traced_task, [(3,)])
        assert results == [9]
        assert get_tracer().totals == {}


class TestNonPerturbation:
    def _fit_predict(self, training_data, n_jobs):
        X, y = training_data
        model = RandomForestClassifier(n_estimators=8, seed=0, n_jobs=n_jobs)
        model.fit(X, y)
        return model.predict_proba(X)

    def test_predictions_bit_identical_obs_on_vs_off(self, training_data):
        baseline = self._fit_predict(training_data, n_jobs=1)
        enable_observability()
        traced = self._fit_predict(training_data, n_jobs=1)
        disable_observability()
        np.testing.assert_array_equal(baseline, traced)

    @needs_fork
    def test_predictions_bit_identical_obs_on_forked(self, training_data):
        baseline = self._fit_predict(training_data, n_jobs=1)
        enable_observability()
        forked = self._fit_predict(training_data, n_jobs=4)
        disable_observability()
        np.testing.assert_array_equal(baseline, forked)

    @needs_fork
    def test_forest_tree_counter_matches_across_n_jobs(self, training_data):
        counts = []
        for n_jobs in (1, 4):
            enable_observability()
            self._fit_predict(training_data, n_jobs=n_jobs)
            counts.append(
                get_registry().counter("forest_trees_fitted_total").value
            )
            disable_observability()
        assert counts == [8, 8]
