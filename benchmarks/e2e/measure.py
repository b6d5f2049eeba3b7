"""One measured run: set up, run the workload for a time budget, check it.

Setup is repeated (at least ``MIN_SETUPS`` times and for at least
``SETUP_BUDGET_S``) and reported as its median, so work moved into
setup shows. The timed phase repeats until ``seconds`` of it have been
measured, and at least ``MIN_ITERATIONS`` times; throughput is the
drives of every iteration over the whole phase's time. Every reported
time is scaled to the reference host speed (``hostspeed``): setup by the
probes taken just before and after it, the timed phase by the mean of
the probes taken after setup and after each iteration. The record keeps
the raw times and the probes.
End-to-end numbers are taken with tracing off. A traced run
(``trace=True``) instead does one setup and one iteration under the span
wrappers, so per-layer call counts are exact and repeatable.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics untraced, the per-layer metrics traced. Before it, one
``<workload> <metric> <value> <unit>`` line per metric measured.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from benchmarks.e2e import hostspeed
from benchmarks.e2e.inputs import DEFAULT_SEED, ensure
from benchmarks.e2e.spans import SPANS, SpanRecorder, count_names

MIN_SETUPS = 3
MAX_SETUPS = 100
SETUP_BUDGET_S = 1.0
#: A median of at least three iterations, never the mean of two.
MIN_ITERATIONS = 3
EXPECTED_FILE = Path(__file__).with_name("expected.json")
#: A block this size, allocated and freed before anything else, leaves
#: glibc's dynamic mmap threshold at its 32 MiB ceiling: the state a
#: long-running process reaches anyway. Without it the threshold followed
#: whichever arrays a run happened to free first, and a store-backed
#: monitor's peak memory landed on 143 or 159 MiB depending on the seed.
ALLOCATOR_WARMUP_BYTES = 30 * 2**20


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    """Share of the parent's median by which the metric may worsen
    before a change counts as a regression (None: per-layer, unbounded)."""
    floor: float = 0.0
    """Absolute slack added to the bound (for very small medians)."""


#: Emitted by every workload; these are BENCHMARK.json's end_to_end.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, floor=0.05),
    Metric("drives_per_s", "drives/s", "higher", 0.25),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
)
#: Recorded and compared, but only some workloads have them. Tick
#: latencies are reported without a bound: two same-seed sets of five
#: runs disagreed by 27% on the median tick and 29% on the p90 (see the
#: README).
WORKLOAD_METRICS = (
    Metric("error_rate", "fraction", "lower", 0.0),
    Metric("tick_p50_ms", "ms", "lower"),
    Metric("tick_p90_ms", "ms", "lower"),
    Metric("window_close_s", "s", "lower", 0.25),
    Metric("drive_tpr", "fraction", "higher", 0.0),
    Metric("drive_fpr", "fraction", "lower", 0.0),
)
METRICS = {metric.name: metric for metric in END_TO_END + WORKLOAD_METRICS}
#: Printed only: the timed phase's factor from host seconds to reference
#: seconds (below 1 when the host ran slower than the reference).
HOST_SCALE = Metric("host_scale", "ratio", "higher")

_COUNT_UNITS = {"rows": "rows", "rejected": "readings", "bytes": "bytes"}
#: Traced runs only; these are BENCHMARK.json's per_layer. ``self_pct``
#: is a span's self time as a percentage of the traced setup + run.
PER_LAYER = tuple(
    metric
    for span in SPANS
    for metric in (
        Metric(f"{span.name}.calls", "count", "lower"),
        Metric(f"{span.name}.self_pct", "%", "lower"),
    )
) + tuple(
    Metric(name, _COUNT_UNITS[name.rsplit(".", 1)[1]], "lower")
    for name in count_names()
)


def _median_setup(workload):
    """Repeat setup; return (last state, every setup's seconds)."""
    times: list[float] = []
    while True:
        state = None  # free the previous setup's data before the next
        gc.collect()
        started = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - started)
        if len(times) >= MAX_SETUPS or (
            len(times) >= MIN_SETUPS and sum(times) >= SETUP_BUDGET_S
        ):
            return state, times


def _pins(size: str, workload: str) -> dict:
    return json.loads(EXPECTED_FILE.read_text()).get(size, {}).get(workload, {})


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str,
    cache: Path,
    record_path: Path | None = None,
) -> int:
    """Run one workload once; print its metrics; return the exit code."""
    from benchmarks.e2e.workloads import WORKLOADS, Check
    from repro.obs import configure_logging

    configure_logging("warning")
    np.empty(ALLOCATOR_WARMUP_BYTES, dtype=np.uint8)  # freed at once
    inputs = ensure(seed, size, cache)
    workload = WORKLOADS[workload_name](inputs)
    recorder = SpanRecorder() if trace else None
    probe = None
    probes: list[float] = []
    try:
        if recorder is not None:
            recorder.install()
            started = time.perf_counter()
            state = workload.setup()
            setup_times = [time.perf_counter() - started]
        else:
            # A probe tracks the speed of the CPU it runs on, so the run and
            # its probe child (which inherits this) share one.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            probe = hostspeed.Probe()
            probes.append(probe())
            state, setup_times = _median_setup(workload)
            probes.append(probe())

        run_times: list[float] = []
        check = Check()
        spans = None
        while True:
            gc.collect()  # start each iteration without the last one's garbage
            started = time.perf_counter()
            output = workload.run(state)
            run_times.append(time.perf_counter() - started)
            if recorder is not None:
                spans = recorder.report()  # before the checks call in too
            else:
                probes.append(probe())
            check.merge(workload.check(output))
            if recorder is not None or (
                len(run_times) >= MIN_ITERATIONS and sum(run_times) >= seconds
            ):
                break
            output = None
        final, extra = workload.finish(state, output, check)
        check.merge(final)
    finally:
        workload.close()
        if probe is not None:
            probe.close()

    failures = {name: count for name, count in check.failures.items() if count}
    pins = _pins(size, workload_name) if seed == DEFAULT_SEED else {}
    for key, expected in pins.items():
        if check.observed.get(key) != expected:
            failures[f"pinned_{key}"] = 1
    failed = sum(failures.values())
    setup_scale = hostspeed.scale(probes[:2]) if probes else 1.0
    host_scale = hostspeed.scale(probes[1:]) if probes else 1.0
    values = {
        "setup_s": statistics.median(setup_times) * setup_scale,
        "drives_per_s": workload.drives * len(run_times) / (sum(run_times) * host_scale),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": failed / check.attempted,
        "host_scale": host_scale,
        **{
            name: value * host_scale if METRICS[name].unit in ("s", "ms") else value
            for name, value in extra.items()
        },
    }
    if spans is not None:
        total = setup_times[0] + run_times[0]
        for name, span in spans["spans"].items():
            values[f"{name}.calls"] = span["calls"]
            values[f"{name}.self_pct"] = 100.0 * span["self_s"] / total
        values.update(spans["counts"])

    # End-to-end numbers only from untraced runs, layer numbers only traced.
    declared = PER_LAYER if trace else END_TO_END
    printed = PER_LAYER if trace else END_TO_END + WORKLOAD_METRICS + (HOST_SCALE,)
    for metric in printed:
        if metric.name in values:
            print(f"{workload_name} {metric.name} {values[metric.name]!r} {metric.unit}")
    for name, count in failures.items():
        print(f"check failed: {workload_name} {name} ({count})", file=sys.stderr)
    correct = not failures
    if record_path is not None:
        record = {
            "workload": workload_name,
            "seed": seed,
            "size": size,
            "trace": trace,
            "setup_s": values["setup_s"],
            "setup_samples": setup_times,
            "run_s": statistics.median(run_times),
            "run_samples": run_times,
            "host_probes": probes,
            "drives": workload.drives,
            "readings": getattr(workload, "n_readings", None),
            "attempted": check.attempted,
            "failed": failed,
            "correct": correct,
            "failures": failures,
            "observed": check.observed,
            "metrics": {
                name: value for name, value in values.items()
                if name in METRICS
            },
            "spans": spans,
        }
        Path(record_path).write_text(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": failed,
        "metrics": {
            metric.name: {"value": values[metric.name], "unit": metric.unit}
            for metric in declared
        },
    }))
    return 0 if correct else 1
