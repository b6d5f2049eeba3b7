"""repro.obs — fleet-scale observability for the MFPA pipeline.

Four pillars, each usable alone:

* :mod:`repro.obs.tracing` — nesting span tracer (wall + CPU time)
  aggregating across :class:`~repro.parallel.ParallelExecutor` fork
  workers;
* :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket
  histograms with JSONL and Prometheus text export;
* :mod:`repro.obs.logs` — leveled structured logging whose default
  output is byte-identical to the ``print()`` calls it replaced;
* :mod:`repro.obs.manifest` — per-run ``manifest.json`` stamping
  config hash, dataset fingerprint, span tree, metrics and results.

This module also owns the cross-process glue: :func:`capture_active`
tells the executor whether to ship worker-side observations home, and
:func:`worker_begin` / :func:`worker_collect` / :func:`absorb_worker`
are the three calls that move them (see ``parallel/executor.py``).

Instrumentation is contractually *passive*: with observability off the
span/metric calls are no-ops or dict updates, and with it on they never
touch model inputs or outputs — ``tests/obs/test_parallel_obs.py`` pins
bit-identical predictions either way.
"""

from __future__ import annotations

from repro.obs.logs import configure_logging, get_logger
from repro.obs.manifest import (
    RunContext,
    config_hash,
    dataset_fingerprint,
    load_manifest,
    start_run,
    validate_manifest,
)
from repro.obs.metrics import (
    MetricsRegistry,
    get_registry,
    inc_counter,
    observe_histogram,
    set_gauge,
)
from repro.obs.server import (
    ObsServer,
    TextfileExporter,
    histogram_quantile,
    registry_status,
)
from repro.obs.top import fetch_json, render_top, run_top
from repro.obs.tracing import Tracer, get_tracer, set_tracing, trace_span, traced
from repro.obs import metrics as _metrics

__all__ = [
    "MetricsRegistry",
    "ObsServer",
    "RunContext",
    "TextfileExporter",
    "Tracer",
    "absorb_worker",
    "annotate_run",
    "capture_active",
    "config_hash",
    "configure_logging",
    "current_run",
    "dataset_fingerprint",
    "disable_observability",
    "enable_observability",
    "fetch_json",
    "get_logger",
    "get_registry",
    "get_tracer",
    "histogram_quantile",
    "inc_counter",
    "load_manifest",
    "observe_histogram",
    "record_result",
    "registry_status",
    "render_top",
    "run_top",
    "set_current_run",
    "set_gauge",
    "set_tracing",
    "start_run",
    "trace_span",
    "traced",
    "validate_manifest",
    "worker_begin",
    "worker_collect",
]


# ----------------------------------------------------------------------
# Session switches
# ----------------------------------------------------------------------
def enable_observability() -> None:
    """Turn on tracing and cross-process metric capture together."""
    set_tracing(True)
    _metrics.set_capture(True)


def disable_observability() -> None:
    """Turn both off and reset tracer + registry (no state leaks
    between CLI invocations in one process)."""
    set_tracing(False)
    _metrics.set_capture(False)
    set_current_run(None)


def capture_active() -> bool:
    """Should ParallelExecutor ship worker observations back?"""
    return get_tracer().enabled or _metrics.capture_enabled()


# ----------------------------------------------------------------------
# Worker-side hooks (called by ParallelExecutor)
# ----------------------------------------------------------------------
def worker_begin() -> None:
    """Reset the fork-inherited tracer totals and registry inside a
    worker, so the upcoming task's observations are a clean delta."""
    tracer = get_tracer()
    tracer.reset()
    get_registry().reset()


def worker_collect() -> dict:
    """Snapshot the worker's observations for shipping to the parent.

    Only counters and histograms travel: they are additive deltas. A
    gauge describes the process that set it, and the worker's copies of
    the parent's gauges (the pool size, the serve mode, the peak RSS)
    read whatever the per-task reset left, so merging them would
    overwrite the parent's live values."""
    return {
        "spans": get_tracer().snapshot(),
        "metrics": [
            family
            for family in get_registry().dump()
            if family["type"] != "gauge"
        ],
    }


def absorb_worker(payload: dict) -> None:
    """Parent side: merge one worker task's observations. Spans nest
    under the parent's currently open span."""
    get_tracer().absorb(payload["spans"])
    get_registry().merge(payload["metrics"])


# ----------------------------------------------------------------------
# Current-run plumbing (CLI sets it; instrumented commands annotate it)
# ----------------------------------------------------------------------
_CURRENT_RUN: RunContext | None = None


def set_current_run(run: RunContext | None) -> None:
    global _CURRENT_RUN
    _CURRENT_RUN = run


def current_run() -> RunContext | None:
    return _CURRENT_RUN


def annotate_run(**keys) -> None:
    """Attach provenance to the active run; no-op without one."""
    if _CURRENT_RUN is not None:
        _CURRENT_RUN.annotate(**keys)


def record_result(key: str, value) -> None:
    """Record a headline outcome on the active run; no-op without one."""
    if _CURRENT_RUN is not None:
        _CURRENT_RUN.record_result(key, value)
