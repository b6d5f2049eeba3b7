"""Process-pool execution substrate for the embarrassingly parallel paths.

The MFPA workload (per-tree forest fitting, per-candidate grid search,
per-feature forward selection, per-shard scoring of a shard store)
decomposes into independent tasks that all read the *same* large
arrays; scoring one window stays a single serial prediction pass. This
module provides the one primitive everything shares:

* :class:`ParallelExecutor` — ``starmap`` over a task list, either
  in-process (``n_jobs=1``, the deterministic reference path) or on the
  **persistent** ``fork``-context worker pool owned by
  :mod:`repro.parallel.pool`. The pool is forked lazily on the first
  parallel dispatch and reused by every later dispatch that fits it —
  across forward-selection rounds and across the sharded monitor's
  shard groups; it re-forks transparently when workers die or when
  task arguments carry payloads registered after the fork. Task order
  is always preserved, so callers that pre-derive per-task seeds get
  **bit-identical** results at every ``n_jobs``.
* :func:`share` — registers a payload (feature matrix, shard-scoring
  context) in the generation-tagged registry
  (:mod:`repro.parallel.shared`).
  Workers inherit the registry through copy-on-write fork memory and
  dereference a tiny :class:`SharedPayload` token, so the dataset is
  never pickled per task — only the token and per-task index arrays
  cross the pipe.

Dispatching is gated by a measured cost model
(:mod:`repro.parallel.calibration`): the first task of a ``starmap`` is
probed in-process (its result is kept), and the remainder go to the
pool only when the estimated serial time saved exceeds the measured
fork/dispatch overhead — otherwise the whole call runs serially and
counts a ``parallel_serial_fallbacks_total``. That is what makes
"parallel never slower than serial" hold even on a single-core box.

``n_jobs`` above ``os.cpu_count()`` is clamped (with a warning logged
once per distinct request and the effective count surfaced in the run
manifest); set ``REPRO_PARALLEL_OVERSUBSCRIBE=1`` to opt out, which the
parallel test suite does so pool paths stay covered on small CI boxes.

Platforms without ``fork`` (Windows; macOS under spawn-only policies)
silently fall back to the serial path: correctness never depends on the
pool, only wall-clock does. Workers themselves are marked so nested
``ParallelExecutor`` use inside a task (e.g. a forest with ``n_jobs>1``
cloned inside a parallel grid search) degrades to serial instead of
forking recursively.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable, Sequence

from repro.obs import (
    absorb_worker,
    annotate_run,
    capture_active,
    get_logger,
    inc_counter,
    observe_histogram,
    trace_span,
    worker_begin,
    worker_collect,
)

from repro.parallel import pool as pool_manager
from repro.parallel.calibration import get_cost_model, serial_fallback_mode
from repro.parallel.shared import (
    SharedPayload,
    StalePayloadError,
    in_worker,
    share,
)

__all__ = [
    "ParallelExecutor",
    "SharedPayload",
    "StalePayloadError",
    "effective_n_jobs",
    "fork_available",
    "share",
    "shutdown_pool",
]

_LOG = get_logger("repro.parallel")

#: Environment switch that disables the cpu_count clamp (tests use it to
#: exercise real pool paths on single-core machines).
_OVERSUBSCRIBE_ENV = "REPRO_PARALLEL_OVERSUBSCRIBE"

#: (requested, cap) pairs already warned about, so fleets of executors
#: built in a loop don't spam the log.
_WARNED_CLAMPS: set[tuple[int, int]] = set()


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (safe to call anytime)."""
    pool_manager.shutdown()


def _oversubscribe_allowed() -> bool:
    return os.environ.get(_OVERSUBSCRIBE_ENV, "") not in ("", "0")


def effective_n_jobs(n_jobs: int | None) -> int:
    """Resolve an ``n_jobs`` request to a concrete worker count.

    ``None`` means 1 (serial); negative values count back from the CPU
    count joblib-style (``-1`` = all cores, ``-2`` = all but one).
    Positive requests above ``os.cpu_count()`` are clamped to the core
    count — oversubscribed fork workers only add page-fault and context-
    switch cost — with a warning logged once per distinct request.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        raise ValueError("n_jobs must not be 0; use 1 for serial or -1 for all cores")
    cap = os.cpu_count() or 1
    if n_jobs < 0:
        return max(1, cap + 1 + n_jobs)
    if n_jobs > cap and not _oversubscribe_allowed():
        if (n_jobs, cap) not in _WARNED_CLAMPS:
            _WARNED_CLAMPS.add((n_jobs, cap))
            _LOG.warning(
                f"n_jobs={n_jobs} exceeds os.cpu_count()={cap}; "
                f"clamping to {cap} worker{'s' if cap != 1 else ''} "
                f"(set {_OVERSUBSCRIBE_ENV}=1 to override)",
                requested=n_jobs,
                cpu_count=cap,
            )
        return cap
    return n_jobs


def _observed_call(task: Callable[..., Any], arguments: tuple) -> tuple[Any, dict]:
    """Worker-side wrapper when observability capture is on.

    Resets the fork-inherited tracer/registry so this task's spans and
    metrics are a clean delta, and ships that delta back alongside the
    task's (unchanged) result for the parent to absorb.
    """
    worker_begin()
    result = task(*arguments)
    return result, worker_collect()


def _max_generation(tasks: Sequence[tuple]) -> int:
    """Newest registry generation referenced by any task argument.

    The pool serving these tasks must have forked at or after this
    generation, or its workers' registry snapshots miss the payload.
    Handles are passed as top-level tuple items by every caller, so one
    flat scan suffices.
    """
    generation = 0
    for arguments in tasks:
        for item in arguments:
            if isinstance(item, SharedPayload) and item.generation > generation:
                generation = item.generation
    return generation


class ParallelExecutor:
    """Ordered ``starmap`` over independent tasks, serial or forked.

    Parameters
    ----------
    n_jobs:
        Worker count; 1 (or ``None``) runs in-process. Negative counts
        back from the CPU count (``-1`` = all cores); positive requests
        are clamped to the CPU count (see :func:`effective_n_jobs`).

    The serial path, the calibrated fallback path and the pool path all
    execute the *same* task functions on the *same* pre-derived
    arguments, so any caller that hoists its randomness into the task
    list (per-tree seeds, fold indices) is bit-identical at every
    ``n_jobs``.
    """

    def __init__(self, n_jobs: int | None = 1):
        self.requested_n_jobs = n_jobs
        self.n_jobs = effective_n_jobs(n_jobs)
        if (
            isinstance(n_jobs, int)
            and n_jobs > 1
            and self.n_jobs != n_jobs
        ):
            annotate_run(
                parallel_requested_n_jobs=n_jobs,
                parallel_effective_n_jobs=self.n_jobs,
            )

    @property
    def is_parallel(self) -> bool:
        """Whether ``starmap`` is *allowed* to dispatch to a pool here
        and now (the calibrated cost model may still keep it serial)."""
        return self.n_jobs > 1 and fork_available() and not in_worker()

    def starmap(
        self, task: Callable[..., Any], argument_tuples: Sequence[tuple]
    ) -> list:
        """Apply ``task`` to every argument tuple, preserving order.

        Spans and metrics recorded inside tasks behave identically at
        every ``n_jobs``: on the serial path they land in the live
        tracer/registry directly; on the pool path each task ships its
        observation delta back with its result and the parent absorbs
        it under the currently open span (see :mod:`repro.obs`).
        Shipping only happens while observability capture is active, so
        the default result protocol is untouched.
        """
        tasks = list(argument_tuples)
        started = time.perf_counter()
        with trace_span("parallel.starmap"):
            inc_counter("parallel_tasks_total", len(tasks))
            if len(tasks) <= 1 or not self.is_parallel:
                results = [task(*arguments) for arguments in tasks]
            else:
                results = self._parallel_starmap(task, tasks)
            observe_histogram(
                "parallel_starmap_seconds", time.perf_counter() - started
            )
            return results

    # -- parallel-capable dispatch ------------------------------------
    def _parallel_starmap(self, task: Callable[..., Any], tasks: list) -> list:
        model = get_cost_model()
        key = model.task_key(task)
        mode = serial_fallback_mode()
        workers = min(self.n_jobs, len(tasks))
        generation = _max_generation(tasks)

        if mode == "always":
            inc_counter("parallel_serial_fallbacks_total")
            return self._timed_serial(model, key, task, tasks)
        if mode == "never":
            return self._dispatch(task, tasks, workers, generation)

        # auto: probe the first task in-process when this task function
        # has no cost estimate yet. The probe's result is kept — the
        # measurement costs nothing beyond running task #1 serially.
        results: list = []
        remaining = tasks
        if model.estimate_task(key) is None:
            probe_started = time.perf_counter()
            results.append(task(*tasks[0]))
            model.observe_task(key, time.perf_counter() - probe_started)
            remaining = tasks[1:]
            if not remaining:
                return results

        warm = pool_manager.pool_is_warm(workers, generation)
        if not model.worth_dispatching(key, len(remaining), workers, warm):
            inc_counter("parallel_serial_fallbacks_total")
            results.extend(self._timed_serial(model, key, task, remaining))
            return results

        results.extend(self._dispatch(task, remaining, workers, generation))
        return results

    @staticmethod
    def _timed_serial(model, key: str, task, tasks: list) -> list:
        """Serial execution that keeps the task-cost EWMA fresh."""
        started = time.perf_counter()
        results = [task(*arguments) for arguments in tasks]
        if tasks:
            model.observe_task(
                key, (time.perf_counter() - started) / len(tasks)
            )
        return results

    def _dispatch(
        self, task, tasks: list, workers: int, generation: int
    ) -> list:
        capture = capture_active()
        pool_task = _observed_call if capture else task
        pool_args = [(task, arguments) for arguments in tasks] if capture else tasks
        # Small chunks keep the pool busy when task durations are skewed
        # (deep trees next to stumps) without flooding the result pipe.
        chunksize = max(1, len(tasks) // (workers * 4))
        # acquire() forks at or after the newest token the tasks carry,
        # and tokens leave the registry only when their share() exits,
        # so every live handle here is in the workers' snapshot.
        raw = pool_manager.acquire(workers, generation).starmap(
            pool_task, pool_args, chunksize=chunksize
        )
        if not capture:
            return raw
        results = []
        for result, observations in raw:
            absorb_worker(observations)
            results.append(result)
        return results
