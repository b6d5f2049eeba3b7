"""Serial-vs-parallel wall-clock for the hot paths (``make bench-parallel``).

Times forest fitting, grid search and sharded fleet scoring (whole
shards of a shard store per task) serially and at ``n_jobs`` ∈ {2, 4},
verifies the outputs are identical either way, and records
machine-readable JSON under
``benchmarks/results/parallel_speedup.json`` so speedups are tracked
alongside the paper exhibits.

Two classes of assertion:

* **Never slower** (every host, every ``n_jobs``): with the persistent
  pool and the calibrated serial fallback, a parallel run may cost at
  most ``NEVER_SLOWER_RATIO``× the serial run plus a small absolute
  slack. On a single-core host this proves the fallback: ``n_jobs``
  clamps to the core count and the run degrades to the serial loop
  instead of paying fork overhead for nothing.
* **Actually faster** (hosts with ≥ 4 cores only): forest fit or grid
  search must reach ≥ 2× at ``n_jobs=4``, and fleet scoring must at
  least break even. On smaller runners the numbers are still recorded,
  but a fork pool cannot beat the clock there — a property of the
  host, not the code.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from benchmarks._util import (
    NEVER_SLOWER_RATIO,
    NEVER_SLOWER_SLACK_SECONDS,
    RESULTS_DIR,
    cores_label,
    never_slower,
    save_exhibit,
)
from repro.core.deployment import RetrainPolicy
from repro.core.pipeline import MFPA, MFPAConfig
from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import GridSearchCV, KFold
from repro.ml.tree import DecisionTreeClassifier
from repro.parallel import effective_n_jobs, fork_available, shutdown_pool
from repro.reporting import render_table
from repro.scale import ShardedFleetMonitor, write_dataset_sharded
from repro.telemetry import FleetConfig, VendorMix, simulate_fleet

pytestmark = pytest.mark.parallel_bench

#: Requested worker counts; each clamps to ``os.cpu_count()``.
N_JOBS_GRID = (2, 4)
#: Assert real speedup only when the host can run 4 workers.
ENOUGH_CORES = (os.cpu_count() or 1) >= 4


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def _training_data(n_samples=6000, n_features=16, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n_samples, n_features))
    y = (X[:, 0] + 0.5 * X[:, 3] - X[:, 7] + rng.normal(0, 0.7, n_samples) > 0).astype(
        int
    )
    return X, y


def _bench_forest_fit():
    X, y = _training_data()

    def run(n_jobs):
        model = RandomForestClassifier(
            n_estimators=24, max_depth=None, seed=0, n_jobs=n_jobs
        ).fit(X, y)
        return model.predict_proba(X[:200])

    return run, lambda a, b: np.testing.assert_array_equal(a, b)


def _bench_grid_search():
    X, y = _training_data(n_samples=4000)
    grid = {"max_depth": [4, 8, 12], "min_samples_leaf": [1, 4]}

    def run(n_jobs):
        search = GridSearchCV(
            DecisionTreeClassifier(seed=0),
            grid,
            splitter=KFold(n_splits=3, seed=0),
            refit=False,
            n_jobs=n_jobs,
        ).fit(X, y)
        return search.best_params_, search.results_

    def check(a, b):
        assert a == b

    return run, check


def _bench_fleet_scoring(root):
    """Sharded-monitor scoring of six windows over a 4-shard store, the
    shards fanned out over the pool. The model is trained once, outside
    the timed region, and never retrained, so only scoring is timed."""
    fleet = simulate_fleet(
        FleetConfig(
            mix=VendorMix({"I": 400}),
            horizon_days=540,
            failure_boost=20.0,
            seed=11,
        )
    )
    store = write_dataset_sharded(fleet, root / "store", n_shards=4)
    no_retrain = RetrainPolicy(interval_days=10_000)
    model = MFPA(MFPAConfig()).fit(fleet, train_end_day=360)

    def run(n_jobs):
        monitor = ShardedFleetMonitor(store, policy=no_retrain, n_jobs=n_jobs)
        monitor.use_model(model, train_end_day=360)
        return monitor.run(360, 540, window_days=30)

    def check(a, b):
        assert a == b

    return run, check


def test_parallel_speedup(tmp_path):
    benches = {
        "forest_fit": _bench_forest_fit,
        "grid_search": _bench_grid_search,
        "fleet_scoring": lambda: _bench_fleet_scoring(tmp_path),
    }
    shutdown_pool()  # cold-start baseline: first dispatch pays the fork
    records = []
    for name, build in benches.items():
        run, check = build()
        serial_result, serial_seconds = _timed(lambda: run(1))
        runs = []
        for n_jobs in N_JOBS_GRID:
            parallel_result, parallel_seconds = _timed(lambda: run(n_jobs))
            check(serial_result, parallel_result)
            runs.append(
                {
                    "requested_n_jobs": n_jobs,
                    "effective_n_jobs": effective_n_jobs(n_jobs),
                    "seconds": round(parallel_seconds, 4),
                    "speedup": round(serial_seconds / parallel_seconds, 3),
                    "never_slower": never_slower(serial_seconds, parallel_seconds),
                }
            )
        records.append(
            {
                "name": name,
                "serial_seconds": round(serial_seconds, 4),
                "runs": runs,
            }
        )

    payload = {
        "cpu_count": os.cpu_count(),
        "fork_available": fork_available(),
        "gate": {
            "ratio": NEVER_SLOWER_RATIO,
            "slack_seconds": NEVER_SLOWER_SLACK_SECONDS,
            "passed": all(r["never_slower"] for b in records for r in b["runs"]),
        },
        "benchmarks": records,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "parallel_speedup.json").write_text(json.dumps(payload, indent=2))

    save_exhibit(
        "parallel_speedup",
        render_table(
            ["Benchmark", "n_jobs (eff)", "Serial (s)", "Parallel (s)", "Speedup", "Gate"],
            [
                [
                    bench["name"],
                    f"{r['requested_n_jobs']} ({r['effective_n_jobs']})",
                    f"{bench['serial_seconds']:.2f}",
                    f"{r['seconds']:.2f}",
                    f"{r['speedup']:.2f}x",
                    "ok" if r["never_slower"] else "SLOWER",
                ]
                for bench in records
                for r in bench["runs"]
            ],
            title=f"Parallel speedup ({cores_label(os.cpu_count())})",
        ),
    )

    slower = [
        (bench["name"], r["requested_n_jobs"], r["speedup"])
        for bench in records
        for r in bench["runs"]
        if not r["never_slower"]
    ]
    assert not slower, (
        f"parallel lost to serial beyond the {NEVER_SLOWER_RATIO}x gate "
        f"(+{NEVER_SLOWER_SLACK_SECONDS}s slack): {slower}"
    )

    if ENOUGH_CORES and fork_available():
        at_four = {
            bench["name"]: r["speedup"]
            for bench in records
            for r in bench["runs"]
            if r["requested_n_jobs"] == 4
        }
        training = [at_four["forest_fit"], at_four["grid_search"]]
        assert max(training) >= 2.0, (
            f"expected ≥2x on forest fit or grid search at n_jobs=4, got {training}"
        )
        assert at_four["fleet_scoring"] >= 1.0, (
            f"expected fleet scoring to at least break even at n_jobs=4, "
            f"got {at_four['fleet_scoring']}"
        )
