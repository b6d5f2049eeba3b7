"""Persistent-pool lifecycle: reuse, re-fork, calibration, clamping.

The pool outliving a single ``starmap`` is only correct if nothing
observable changes when it does: forest and sharded-monitor outputs
must stay bit-identical across pool reuse, across an induced worker
death and re-fork, and with the calibrated serial fallback forced both
on and off. The conftest fixture pins fallback mode ``"never"`` (and
disables the cpu_count clamp); tests that exercise other modes set
their own.
"""

import gc
import os
import time
import weakref

import numpy as np
import pytest

from repro.core.deployment import RetrainPolicy
from repro.core.pipeline import MFPA
from repro.ml.forest import RandomForestClassifier
from repro.obs import get_registry, set_current_run
from repro.obs.manifest import start_run
from repro.parallel import (
    ParallelExecutor,
    SharedPayload,
    StalePayloadError,
    fork_available,
    share,
    shutdown_pool,
)
from repro.parallel import pool as pool_manager
from repro.parallel.calibration import (
    get_cost_model,
    set_serial_fallback_mode,
)
from repro.scale import ShardedFleetMonitor, write_dataset_sharded

from tests.scale.conftest import cheap_config

pytestmark = [
    pytest.mark.smoke,
    pytest.mark.skipif(not fork_available(), reason="requires fork"),
]


@pytest.fixture(scope="module")
def four_shard_store(small_fleet, tmp_path_factory):
    root = tmp_path_factory.mktemp("pool-store") / "store"
    return write_dataset_sharded(small_fleet, root, n_shards=4)


@pytest.fixture(scope="module")
def fitted_model(small_fleet):
    return MFPA(cheap_config()).fit(small_fleet, train_end_day=240)


def _square(x):
    return x * x


def _slow_square(x):
    time.sleep(0.001)
    return x * x


def _counter(name: str) -> float:
    return get_registry().counter(name).value


def _kill_pool_workers() -> None:
    """Induce worker death in the live persistent pool."""
    workers = list(pool_manager._pool._pool)
    for process in workers:
        process.terminate()
    deadline = time.monotonic() + 10
    while any(p.is_alive() for p in workers):
        assert time.monotonic() < deadline, "workers did not die"
        time.sleep(0.01)


class TestPoolReuse:
    def test_second_starmap_reuses_the_pool(self):
        # Start cold: a pool left live by an earlier module would serve
        # the first starmap too, and the fork delta would be 0.
        shutdown_pool()
        executor = ParallelExecutor(2)
        forks = _counter("parallel_pool_forks_total")
        reuses = _counter("parallel_pool_reuses_total")
        first = executor.starmap(_square, [(i,) for i in range(8)])
        second = executor.starmap(_square, [(i,) for i in range(8)])
        assert first == second == [i * i for i in range(8)]
        assert _counter("parallel_pool_forks_total") - forks == 1
        assert _counter("parallel_pool_reuses_total") - reuses == 1
        stats = pool_manager.pool_stats()
        assert stats["live"] and stats["workers"] == 2

    def test_forest_bit_identical_across_pool_reuse(self, binary_blobs):
        X, y = binary_blobs

        def fit(n_jobs):
            model = RandomForestClassifier(
                n_estimators=8, max_depth=5, seed=3, n_jobs=n_jobs
            )
            return model.fit(X, y).predict_proba(X)

        serial = fit(1)
        # Two consecutive parallel fits both match the serial fit, and
        # the pool is live between them. Each fit shares a fresh
        # payload, so the second re-forks the pool instead of reusing
        # the first fork's workers.
        np.testing.assert_array_equal(serial, fit(2))
        assert pool_manager.pool_stats()["live"]
        np.testing.assert_array_equal(serial, fit(2))

    def test_monitor_bit_identical_across_pool_reuse(
        self, four_shard_store, fitted_model, tmp_path
    ):
        def run(n_jobs, checkpoint_dir=None):
            monitor = ShardedFleetMonitor(
                four_shard_store,
                policy=RetrainPolicy(interval_days=10_000),
                n_jobs=n_jobs,
            )
            monitor.use_model(fitted_model, train_end_day=240)
            summary = monitor.run(
                240, 320, window_days=40, checkpoint_dir=checkpoint_dir
            )
            return summary.alarm_records(), summary.lead_times

        serial = run(1)
        forks = _counter("parallel_pool_forks_total")
        reuses = _counter("parallel_pool_reuses_total")
        # Checkpointing scores the four shards in groups of two: the
        # second group rides the pool the first one forked.
        assert run(2, checkpoint_dir=tmp_path / "ckpt") == serial
        assert _counter("parallel_pool_forks_total") - forks == 1
        assert _counter("parallel_pool_reuses_total") - reuses == 1


class TestWorkerDeathRecovery:
    def test_refork_after_induced_worker_death(self):
        executor = ParallelExecutor(2)
        assert executor.starmap(_square, [(i,) for i in range(6)]) == [
            i * i for i in range(6)
        ]
        restarts = _counter("parallel_pool_restarts_total")
        _kill_pool_workers()
        assert executor.starmap(_square, [(i,) for i in range(6)]) == [
            i * i for i in range(6)
        ]
        assert _counter("parallel_pool_restarts_total") - restarts == 1

    def test_forest_bit_identical_after_worker_death(self, binary_blobs):
        X, y = binary_blobs

        def fit(n_jobs):
            model = RandomForestClassifier(
                n_estimators=8, max_depth=5, seed=7, n_jobs=n_jobs
            )
            return model.fit(X, y).predict_proba(X)

        serial = fit(1)
        np.testing.assert_array_equal(serial, fit(2))
        _kill_pool_workers()
        np.testing.assert_array_equal(serial, fit(2))


class TestGenerationSafety:
    def test_new_payload_after_fork_restarts_pool(self):
        executor = ParallelExecutor(2)
        executor.starmap(_square, [(i,) for i in range(4)])
        restarts = _counter("parallel_pool_restarts_total")
        with share(np.arange(10.0), name="late") as handle:
            results = executor.starmap(
                _payload_total, [(handle,), (handle,)]
            )
        assert results == [45.0, 45.0]
        assert _counter("parallel_pool_restarts_total") - restarts == 1

    def test_exit_releases_the_payload(self):
        payload = np.arange(20.0)
        alive = weakref.ref(payload)
        with share(payload) as handle:
            assert handle.get() is payload
        del payload
        gc.collect()
        assert alive() is None


class TestCalibratedFallback:
    def test_forced_on_runs_serial_with_identical_results(self):
        set_serial_fallback_mode("always")
        executor = ParallelExecutor(4)
        fallbacks = _counter("parallel_serial_fallbacks_total")
        results = executor.starmap(_square, [(i,) for i in range(12)])
        assert results == [i * i for i in range(12)]
        assert _counter("parallel_serial_fallbacks_total") - fallbacks == 1
        assert not pool_manager.pool_stats()["live"]

    def test_auto_keeps_tiny_tasks_serial(self):
        set_serial_fallback_mode("auto")
        model = get_cost_model()
        model.reset()
        model.observe_spinup(0.05)
        model.observe_dispatch(0.001)
        model.observe_task(model.task_key(_square), 1e-6)
        fallbacks = _counter("parallel_serial_fallbacks_total")
        results = ParallelExecutor(4).starmap(_square, [(i,) for i in range(12)])
        assert results == [i * i for i in range(12)]
        assert _counter("parallel_serial_fallbacks_total") - fallbacks == 1
        assert not pool_manager.pool_stats()["live"]

    def test_auto_dispatches_when_measured_work_is_large(self):
        set_serial_fallback_mode("auto")
        model = get_cost_model()
        model.reset()
        model.observe_spinup(0.01)
        model.observe_dispatch(0.0001)
        model.observe_task(model.task_key(_slow_square), 0.5)
        results = ParallelExecutor(4).starmap(
            _slow_square, [(i,) for i in range(8)]
        )
        assert results == [i * i for i in range(8)]
        assert pool_manager.pool_stats()["live"]

    def test_auto_probes_unknown_tasks_in_process(self):
        set_serial_fallback_mode("auto")
        model = get_cost_model()
        model.reset()
        key = model.task_key(_slow_square)
        assert model.estimate_task(key) is None
        results = ParallelExecutor(4).starmap(
            _slow_square, [(i,) for i in range(4)]
        )
        assert results == [i * i for i in range(4)]
        # The probe ran task #0 in-process and recorded its duration.
        assert model.estimate_task(key) is not None

    def test_forest_bit_identical_fallback_on_and_off(self, binary_blobs):
        X, y = binary_blobs

        def fit():
            model = RandomForestClassifier(
                n_estimators=8, max_depth=5, seed=5, n_jobs=2
            )
            return model.fit(X, y).predict_proba(X)

        set_serial_fallback_mode("never")
        pooled = fit()
        set_serial_fallback_mode("always")
        fallback = fit()
        np.testing.assert_array_equal(pooled, fallback)


class TestClamping:
    def test_clamp_annotates_active_run(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_PARALLEL_OVERSUBSCRIBE", raising=False)
        run = start_run(tmp_path / "run", command="train", args={})
        set_current_run(run)
        try:
            requested = (os.cpu_count() or 1) + 3
            executor = ParallelExecutor(requested)
            assert executor.n_jobs == (os.cpu_count() or 1)
            assert run.annotations["parallel_requested_n_jobs"] == requested
            assert (
                run.annotations["parallel_effective_n_jobs"]
                == executor.n_jobs
            )
        finally:
            set_current_run(None)


class TestStalePayloadErrors:
    def test_unregistered_token_is_typed_and_actionable(self):
        handle = SharedPayload(999999, name="ghost", generation=42)
        with pytest.raises(StalePayloadError) as excinfo:
            handle.get()
        assert excinfo.value.payload_name == "ghost"
        assert excinfo.value.generation == 42
        assert "ghost" in str(excinfo.value)
        assert "generation 42" in str(excinfo.value)

    def test_released_handle_is_typed(self):
        with share({"a": 1}, name="config") as handle:
            assert handle.get() == {"a": 1}
        with pytest.raises(StalePayloadError, match="config.*released"):
            handle.get()


def _payload_total(handle):
    return float(handle.get().sum())
