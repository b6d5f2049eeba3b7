#!/usr/bin/env python
"""Lane walk against row partition on five forest shapes.

The sweep behind ``ForestArena.partition_min_rows`` (``docs/performance.md``,
"Choosing the walk"). For each forest it times one call of each walk
(``ForestArena._descend`` and ``ForestArena._partition``, descent only)
at 512 and 2,048 rows, at half the forest's partition threshold, at the
threshold and at 18,900 rows (one monitor window), as the median of
interleaved calls, and prints milliseconds and lanes ÷ partition.

The forests:

* the e2e ``monitor`` model (``benchmarks/e2e``) scoring its own window
  rows, captured from one run of the workload;
* four fit on the 16-feature synthetic data of ``make bench-predict``:
  GBDT 60 × depth 3, RF 40 × depth 6, RF 40 × depth 12 with about 7%
  positives, and the ``bench-predict`` RF 40 × depth 12.

Run from the repository root::

    python3 tools/arena_walk_sweep.py [--seed 2023] [--calls 11]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.inputs import DEFAULT_CACHE, ensure  # noqa: E402
from benchmarks.e2e.workloads import Monitor  # noqa: E402
from repro.ml.arena import ForestArena  # noqa: E402
from repro.ml.forest import RandomForestClassifier  # noqa: E402
from repro.ml.gbdt import GradientBoostingClassifier  # noqa: E402
from repro.obs import configure_logging  # noqa: E402

MONITOR_ROWS = 18_900
FIXED_ROWS = (512, 2048)


def monitor_forest(seed: int, cache: Path):
    """The e2e monitor model's arena and its windows' rows, as one
    ``(rows, features)`` batch, captured from one workload run (the
    monitor screens its windows at the alarm threshold, so the rows are
    captured where they enter ``ForestArena._screen``)."""
    workload = Monitor(ensure(seed, "full", cache))
    captured = []
    screen = ForestArena._screen

    def spy(table, columns, floor):
        captured.append((table, np.array(columns)))
        return screen(table, columns, floor)

    ForestArena._screen = spy
    try:
        workload.run(workload.setup())
    finally:
        ForestArena._screen = screen
        workload.close()
    table = captured[0][0]
    rows = np.concatenate([columns for _, columns in captured], axis=1).T
    return table, lambda n: rows[:n]


def _synthetic(n_samples: int, seed: int, positives: float | None = None):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n_samples, 16))
    score = X[:, 0] + 0.5 * X[:, 3] - X[:, 7] + rng.normal(0, 0.7, n_samples)
    cut = 0.0 if positives is None else np.quantile(score, 1 - positives)
    return X, (score > cut).astype(int)


def synthetic_forests():
    """``(name, fitted model)`` for the four synthetic shapes."""
    X, y = _synthetic(6000, 0)
    _, rare = _synthetic(6000, 0, positives=0.07)
    yield "GBDT 60 × depth 3", GradientBoostingClassifier(
        n_estimators=60, max_depth=3).fit(X, y)
    yield "RF 40 × depth 6", RandomForestClassifier(
        n_estimators=40, max_depth=6, seed=0, n_jobs=1).fit(X, y)
    yield "RF 40 × depth 12, 7% positives", RandomForestClassifier(
        n_estimators=40, max_depth=12, seed=0, n_jobs=1).fit(X, rare)
    yield "RF 40 × depth 12 (bench-predict)", RandomForestClassifier(
        n_estimators=40, max_depth=12, seed=0, n_jobs=1).fit(X, y)


def forests(seed: int, cache: Path):
    """``(name, arena, rows)`` per shape; ``rows(n)`` is an ``(n, features)``
    batch."""
    yield ("monitor RF (e2e model)", *monitor_forest(seed, cache))
    rng = np.random.default_rng(1)
    for name, model in synthetic_forests():
        model.predict_proba(rng.normal(0, 1, (2, 16)))  # build the arena
        pool = rng.normal(0, 1, (70_000, 16))
        yield name, model._arena_, lambda n, pool=pool: pool[:n]


def sizes(table) -> list[int]:
    threshold = table.partition_min_rows()
    return [*FIXED_ROWS, threshold // 2, threshold, MONITOR_ROWS]


def time_walks(walks: dict, columns: np.ndarray, calls: int) -> dict:
    """Median seconds per walk over ``calls`` interleaved rounds, the
    order reversed every other round."""
    seconds = {name: [] for name in walks}
    order = list(walks)
    for round_ in range(calls):
        for name in order if round_ % 2 == 0 else order[::-1]:
            started = time.perf_counter()
            walks[name](columns)
            seconds[name].append(time.perf_counter() - started)
    return {name: statistics.median(times) for name, times in seconds.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--calls", type=int, default=11)
    parser.add_argument("--cache", type=Path, default=DEFAULT_CACHE)
    args = parser.parse_args(argv)
    configure_logging("warning")
    print("| forest | nodes/tree | depth | rows | lanes ms | partition ms "
          "| lanes ÷ partition |")
    print("|---|---|---|---|---|---|---|")
    for name, table, rows in forests(args.seed, args.cache):
        for n in sizes(table):
            columns = table.encode(rows(n))
            assert (table._partition(columns).tobytes()
                    == table._descend(columns).tobytes())
            ms = {walk: 1000 * s for walk, s in time_walks(
                {"lanes": table._descend, "partition": table._partition},
                columns, args.calls).items()}
            print(f"| {name} | {table.n_nodes // table.n_trees} "
                  f"| {table.max_depth} | {n:,} | {ms['lanes']:.1f} "
                  f"| {ms['partition']:.1f} "
                  f"| {ms['lanes'] / ms['partition']:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
