"""Exact-vs-arena prediction wall-clock (``make bench-predict``).

Times drive scoring through the seed per-tree loops ("exact", the
``predict_exact`` test oracle) and the forest arena at four batch
shapes, plus the cold-start comparison the artifact layer exists for:
seconds from process start to the first scored window when the model
is refit versus loaded from a versioned artifact. Each shape also
times the arena with each walk forced — lanes and row partition — and
records the walk the arena's own rule picks
(``ForestArena.partition_min_rows``). Results land in
``benchmarks/results/predict_speedup.json`` so the inference fast path
is tracked alongside the training-side exhibits.

The serve daemon scores batches of at most 512 rows; the in-RAM
monitor scores about 19k rows per 30-day window of an 800-drive fleet,
which the 16,384-row shape stands in for. The ``>= 2x`` gate stays at
1024 rows, the small-batch regime where the arena's win over the
per-tree loop is largest. That advantage shrinks as batches grow (the
seed loop's per-tree Python overhead amortizes away), which is why the
large-batch rows are recorded but not gated.

Walk parity with the oracle is asserted bit-for-bit here as well: a
speedup measured on diverging outputs would be meaningless.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from benchmarks._util import RESULTS_DIR, save_exhibit
from repro.ml import arena
from repro.ml.artifact import load_model, save_model
from repro.ml.forest import RandomForestClassifier
from repro.reporting import render_table

from tests.ml.arena_oracle import predict_exact

pytestmark = pytest.mark.predict_bench

#: The small-batch regime the acceptance gate is measured at.
WINDOW_ROWS = 1024
#: Minimum drives/second win the arena must post at WINDOW_ROWS.
REQUIRED_SPEEDUP = 2.0
#: Rows the in-RAM monitor scores per window, to the nearest power of 2.
MONITOR_ROWS = 16384
#: Batch shapes covered (rows per predict call).
BATCH_SHAPES = (256, WINDOW_ROWS, 8192, MONITOR_ROWS)
#: Timing repeats; best-of keeps allocator/GC noise out of the ratios.
REPEATS = 9


def _timed_best(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _training_data(n_samples=6000, n_features=16, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n_samples, n_features))
    y = (
        X[:, 0] + 0.5 * X[:, 3] - X[:, 7] + rng.normal(0, 0.7, n_samples) > 0
    ).astype(int)
    return X, y


def _fit_model():
    X, y = _training_data()
    model = RandomForestClassifier(
        n_estimators=40, max_depth=12, seed=0, n_jobs=1
    ).fit(X, y)
    return model, X.shape[1]


def _with_walk(min_rows, fn):
    """Run ``fn`` with every chunk of ``min_rows`` or more partitioned."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arena, "_PARTITION_MIN_ROWS", min_rows)
        patch.setattr(arena, "_PARTITION_LANE_STEPS_PER_NODE", 0)
        return fn()


def _bench_batches(model, n_features):
    records = []
    for n_rows in BATCH_SHAPES:
        rows = np.random.default_rng(n_rows).normal(
            scale=2.0, size=(n_rows, n_features)
        )

        def predict():
            return model.predict_proba(rows)

        # Parity first; these calls also build and cache the arena (and
        # its partition program) so one-time construction stays out of
        # the timings below.
        exact = predict_exact(model, rows)
        np.testing.assert_array_equal(predict(), exact)
        for min_rows in (0, n_rows + 1):
            np.testing.assert_array_equal(_with_walk(min_rows, predict), exact)
        partition_min_rows = model._arena_.partition_min_rows()
        exact_seconds = _timed_best(lambda: predict_exact(model, rows))
        arena_seconds = _timed_best(predict)
        lane_seconds = _timed_best(lambda: _with_walk(n_rows + 1, predict))
        partition_seconds = _timed_best(lambda: _with_walk(0, predict))
        records.append(
            {
                "n_rows": n_rows,
                "walk": (
                    "partition" if n_rows >= partition_min_rows else "lanes"
                ),
                "exact_seconds": round(exact_seconds, 6),
                "arena_seconds": round(arena_seconds, 6),
                "lane_seconds": round(lane_seconds, 6),
                "partition_seconds": round(partition_seconds, 6),
                "exact_drives_per_second": round(n_rows / exact_seconds, 1),
                "arena_drives_per_second": round(n_rows / arena_seconds, 1),
                "speedup": round(exact_seconds / arena_seconds, 3),
            }
        )
    return records


def _bench_cold_start(model, n_features, tmp_path):
    """Seconds to the first scored window: refit vs artifact load."""
    rows = np.random.default_rng(1).normal(
        scale=2.0, size=(WINDOW_ROWS, n_features)
    )
    save_model(model, tmp_path / "artifact")

    def cold():
        refit, _ = _fit_model()
        refit.predict_proba(rows)

    def from_artifact():
        load_model(tmp_path / "artifact").predict_proba(rows)

    cold_seconds = _timed_best(cold, repeats=3)
    artifact_seconds = _timed_best(from_artifact, repeats=3)
    return {
        "cold_fit_seconds": round(cold_seconds, 4),
        "artifact_load_seconds": round(artifact_seconds, 4),
        "speedup": round(cold_seconds / artifact_seconds, 1),
    }


def test_predict_speedup(tmp_path):
    model, n_features = _fit_model()
    records = _bench_batches(model, n_features)
    cold_start = _bench_cold_start(model, n_features, tmp_path)

    window = next(r for r in records if r["n_rows"] == WINDOW_ROWS)
    payload = {
        "cpu_count": os.cpu_count(),
        "model": {
            "n_estimators": 40,
            "max_depth": 12,
            "n_features": n_features,
            "n_nodes": model._arena_.n_nodes,
            "partition_min_rows": model._arena_.partition_min_rows(),
        },
        "window_rows": WINDOW_ROWS,
        "required_speedup": REQUIRED_SPEEDUP,
        "batches": records,
        "window_speedup": window["speedup"],
        "cold_start": cold_start,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "predict_speedup.json").write_text(
        json.dumps(payload, indent=2)
    )

    save_exhibit(
        "predict_speedup",
        render_table(
            ["Rows", "Exact (drv/s)", "Arena (drv/s)", "Speedup",
             "Lanes (ms)", "Partition (ms)", "Walk"],
            [
                [
                    str(r["n_rows"]),
                    f"{r['exact_drives_per_second']:.0f}",
                    f"{r['arena_drives_per_second']:.0f}",
                    f"{r['speedup']:.2f}x",
                    f"{1e3 * r['lane_seconds']:.1f}",
                    f"{1e3 * r['partition_seconds']:.1f}",
                    r["walk"],
                ]
                for r in records
            ]
            + [
                [
                    "first window",
                    f"refit {cold_start['cold_fit_seconds']:.2f}s",
                    f"artifact {cold_start['artifact_load_seconds']:.2f}s",
                    f"{cold_start['speedup']:.0f}x",
                    "",
                    "",
                    "",
                ]
            ],
            title="Forest-arena inference (RF 40x d12)",
        ),
    )

    assert window["speedup"] >= REQUIRED_SPEEDUP, (
        f"expected >={REQUIRED_SPEEDUP}x drive-scoring win at "
        f"{WINDOW_ROWS} rows, got {window['speedup']:.2f}x ({window})"
    )
    assert cold_start["speedup"] >= REQUIRED_SPEEDUP, (
        f"artifact start should beat a refit by >={REQUIRED_SPEEDUP}x, "
        f"got {cold_start}"
    )
