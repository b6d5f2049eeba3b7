#!/usr/bin/env python
"""Untraced per-stage split of the end-to-end ``serve`` workload.

Runs the benchmark's serve loop (``benchmarks/e2e``: the seed's cached
edge-fleet stream and model artifacts, one ``submit`` per reading and
one ``pump`` per simulated day, then ``finish``) with
``time.perf_counter`` wrappers around the daemon's stage calls, and
prints the mean seconds per run of each stage:

* ``offer`` — the ``submit`` loop (the queue's ``offer``);
* ``parse`` — ``IncrementalScorer.parse``;
* ``gate`` — ``ReadingGate.admit`` and ``DimensionFreshness.observe``;
* ``assemble`` — ``IncrementalScorer.stage``;
* ``score`` / ``checkpoint`` — ``ServeDaemon._score_staged`` and
  ``ServeDaemon._checkpoint``;
* ``decide`` — the rest of each window flush (alarm decisions, drift).

A wrapper costs well under a microsecond per call, and every wrapped
stage but ``offer`` runs once per pump or flush. Run from the
repository root::

    python3 tools/serve_split.py [--seed 2023] [--runs 5]
"""

from __future__ import annotations

import argparse
import collections
import functools
import gc
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from benchmarks.e2e.inputs import END_DAY, ensure, serve_config  # noqa: E402
from benchmarks.e2e.workloads import Serve  # noqa: E402
from repro.obs import configure_logging  # noqa: E402
from repro.serve.daemon import ServeDaemon  # noqa: E402
from repro.serve.ingest import ReadingGate  # noqa: E402
from repro.serve.state import DimensionFreshness, IncrementalScorer  # noqa: E402

STAGES = ("offer", "parse", "gate", "assemble", "score", "decide", "checkpoint")


def _timed(owner, name: str, stage: str, seconds: collections.Counter) -> None:
    function = getattr(owner, name)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            seconds[stage] += time.perf_counter() - started

    setattr(owner, name, wrapper)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    configure_logging("warning")

    seconds: collections.Counter = collections.Counter()
    for owner, name, stage in (
        (IncrementalScorer, "parse", "parse"),
        (ReadingGate, "admit", "gate"),
        (DimensionFreshness, "observe", "gate"),
        (IncrementalScorer, "stage", "assemble"),
        (ServeDaemon, "_score_staged", "score"),
        (ServeDaemon, "_checkpoint", "checkpoint"),
        (ServeDaemon, "_flush_window", "flush"),
    ):
        _timed(owner, name, stage, seconds)

    workload = Serve(ensure(args.seed, "full"))
    full, reduced, profile = workload.setup()
    runs = []
    try:
        for _ in range(args.runs):
            gc.collect()
            started = time.perf_counter()
            daemon = ServeDaemon.from_models(
                full, reduced, serve_config(), drift=profile,
                checkpoint_dir=workload.work_dir / "checkpoint",
                sink_path=workload.work_dir / "alarms.jsonl",
            )
            for day in workload.days:
                offered = time.perf_counter()
                for serial, day_, reading in day:
                    daemon.submit(serial, day_, reading)
                seconds["offer"] += time.perf_counter() - offered
                daemon.pump()
            daemon.finish(END_DAY)
            runs.append(time.perf_counter() - started)
    finally:
        workload.close()

    seconds["decide"] = seconds.pop("flush") - seconds["score"] - seconds["checkpoint"]
    for stage in STAGES:
        print(f"{stage:>10} {seconds[stage] / args.runs:8.3f} s")
    print(f"{'iteration':>10} {statistics.median(runs):8.3f} s (median of {args.runs})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
