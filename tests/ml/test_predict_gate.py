"""Tiny-size never-slower gate for the inference fast path.

A miniature of ``make bench-predict``'s gate, run by ``make smoke``:
on a small forest and a window-sized batch, the forest arena must not
lose to the seed per-tree loops (``predict_exact``, the test oracle).
The full benchmark pins the >=2x win; this gate only guards against
the fast path regressing into a slow path (per-row work, an arena
rebuild per call) without needing benchmark-scale fixtures. Slack is
wide because these runs are sub-millisecond.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks._util import never_slower
from repro.ml.forest import RandomForestClassifier

from tests.ml.arena_oracle import predict_exact

pytestmark = pytest.mark.smoke

#: Sub-millisecond predict calls need generous absolute slack.
TINY_SLACK_SECONDS = 0.05


def _timed_best(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_arena_never_slower_than_exact():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(600, 8))
    y = (X[:, 0] + X[:, 2] > 0.5).astype(int)
    model = RandomForestClassifier(
        n_estimators=10, max_depth=8, seed=0, n_jobs=1
    ).fit(X, y)
    rows = rng.normal(scale=2.0, size=(512, 8))
    model.predict_proba(rows[:4])  # build the arena once; time steady state

    exact = predict_exact(model, rows)
    exact_seconds = _timed_best(lambda: predict_exact(model, rows))
    np.testing.assert_array_equal(model.predict_proba(rows), exact)
    arena_seconds = _timed_best(lambda: model.predict_proba(rows))

    assert never_slower(
        exact_seconds, arena_seconds, slack_seconds=TINY_SLACK_SECONDS
    ), (
        f"arena lost to the seed loop: exact {exact_seconds:.4f}s "
        f"vs arena {arena_seconds:.4f}s on 512 rows"
    )
