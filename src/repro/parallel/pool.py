"""Persistent fork-pool lifecycle for :class:`ParallelExecutor`.

Forking a fresh ``multiprocessing.Pool`` on every ``starmap`` call
pays pool start-up plus copy-on-write page-fault cost per forest, per
grid search, per forward-selection round and per shard group. This
module owns exactly one process-wide pool instead:

* **Lazy fork, broad reuse.** The pool is created on the first parallel
  dispatch and reused by every later one that fits inside it
  (``parallel_pool_reuses_total``).
* **Generation safety.** The pool records the shared-registry
  generation (:func:`repro.parallel.shared.registry_generation`) it
  forked at. A dispatch whose task arguments carry payloads registered
  *after* that fork restarts the pool first, so workers always hold a
  registry snapshot that covers every token they are asked to
  dereference.
* **Crash-safe re-fork.** A dispatch against a pool with dead workers
  (or one torn down by a crash) re-forks transparently
  (``parallel_pool_restarts_total``); no caller sees a broken pool.
* **Explicit shutdown.** :func:`shutdown` tears the pool down
  deterministically and runs from an ``atexit`` hook so interpreter
  exit never hangs on live workers.

Forking also feeds the calibration layer: every fork times the spin-up
and runs a tiny no-op starmap to measure per-task dispatch overhead,
which is what makes the executor's serial fallback *calibrated* rather
than guessed.
"""

from __future__ import annotations

import atexit
import multiprocessing
import time
from multiprocessing.pool import Pool
from typing import Any

from repro.obs import inc_counter, set_gauge

from repro.parallel import shared
from repro.parallel.calibration import get_cost_model

__all__ = [
    "acquire",
    "pool_is_warm",
    "pool_stats",
    "shutdown",
]

#: Tasks used to time per-task dispatch overhead on a fresh pool.
_CALIBRATION_TASKS = 32

_pool: Pool | None = None
_workers = 0
#: PIDs of the workers as forked. Pool's maintainer thread silently
#: respawns dead workers, so ``is_alive`` alone cannot detect a crash —
#: but a respawned worker has a fresh pid (and may sit behind a queue a
#: dying worker left broken), so any pid drift means re-fork.
_worker_pids: tuple[int | None, ...] = ()
_fork_generation = -1
_forked_at = 0.0
_restarts = 0
_atexit_registered = False


def _noop() -> None:
    """Calibration task: measures pure dispatch/result-pipe overhead."""


def _init_worker() -> None:
    shared.mark_worker()


def _alive(pool: Pool) -> bool:
    procs = getattr(pool, "_pool", None)
    if not procs:
        return False
    if tuple(proc.pid for proc in procs) != _worker_pids:
        return False
    return all(proc.is_alive() for proc in procs)


def pool_is_warm(workers: int, generation: int) -> bool:
    """Whether a dispatch could reuse the live pool without a re-fork."""
    return (
        _pool is not None
        and workers <= _workers
        and generation <= _fork_generation
        and _alive(_pool)
    )


def pool_stats() -> dict[str, Any]:
    """Lifecycle snapshot (used by tests and the run manifest)."""
    return {
        "live": _pool is not None,
        "workers": _workers if _pool is not None else 0,
        "fork_generation": _fork_generation,
        "restarts": _restarts,
        "age_seconds": time.monotonic() - _forked_at if _pool is not None else 0.0,
    }


def acquire(workers: int, generation: int) -> Pool:
    """Return a live pool of at least ``workers`` covering ``generation``.

    Reuses the persistent pool when it is big enough, forked at or
    after every payload the caller will dereference, and all its
    workers are alive; otherwise tears it down and re-forks. The caller
    never owns the pool — it must not close or terminate it.
    """
    global _pool, _workers, _worker_pids, _fork_generation, _forked_at
    global _restarts, _atexit_registered
    if _pool is not None:
        if pool_is_warm(workers, generation):
            inc_counter("parallel_pool_reuses_total")
            set_gauge(
                "parallel_pool_age_seconds", time.monotonic() - _forked_at
            )
            return _pool
        _teardown()
        _restarts += 1
        inc_counter("parallel_pool_restarts_total")

    started = time.perf_counter()
    context = multiprocessing.get_context("fork")
    pool = context.Pool(processes=workers, initializer=_init_worker)
    spinup = time.perf_counter() - started
    inc_counter("parallel_pool_forks_total")

    model = get_cost_model()
    model.observe_spinup(spinup)
    dispatch_started = time.perf_counter()
    pool.starmap(_noop, [()] * _CALIBRATION_TASKS)
    model.observe_dispatch(
        (time.perf_counter() - dispatch_started) / _CALIBRATION_TASKS
    )

    _pool = pool
    _workers = workers
    _worker_pids = tuple(proc.pid for proc in pool._pool)
    _fork_generation = shared.registry_generation()
    _forked_at = time.monotonic()
    set_gauge("parallel_pool_workers", workers)
    set_gauge("parallel_pool_age_seconds", 0.0)
    if not _atexit_registered:
        atexit.register(shutdown)
        _atexit_registered = True
    return _pool


def _repair_queue_locks(pool: Pool) -> None:
    """Release queue locks a killed worker may have died holding.

    ``Pool.terminate`` drains the task queue under ``inqueue._rlock``
    and posts the result-handler sentinel under ``outqueue._wlock``. A
    worker killed mid ``get``/``put`` leaves the semaphore permanently
    acquired and ``terminate`` deadlocks in ``_help_stuff_finish``.
    Both are plain (non-recursive) semaphores, so once every worker is
    dead the parent can restore them from its side.
    """
    for queue_lock in (
        getattr(pool._inqueue, "_rlock", None),
        getattr(pool._outqueue, "_wlock", None),
    ):
        if queue_lock is None:  # pragma: no cover - platform dependent
            continue
        if queue_lock.acquire(block=False):
            queue_lock.release()
        else:
            try:
                queue_lock.release()
            except ValueError:  # pragma: no cover - racing live holder
                pass


def _teardown() -> None:
    global _pool, _workers, _worker_pids
    if _pool is None:
        return
    if not _alive(_pool):
        # Crash path: respawned workers may be blocked on a lock a dead
        # sibling held. Kill whatever is left, then repair the queue
        # locks so ``terminate`` cannot deadlock draining the queues.
        procs = list(getattr(_pool, "_pool", None) or ())
        for proc in procs:
            if proc.is_alive():
                proc.kill()
        for proc in procs:
            proc.join(timeout=5.0)
        _repair_queue_locks(_pool)
    _pool.terminate()
    _pool.join()
    _pool = None
    _workers = 0
    _worker_pids = ()
    set_gauge("parallel_pool_workers", 0)
    set_gauge("parallel_pool_age_seconds", 0.0)


def shutdown() -> None:
    """Tear down the persistent pool (idempotent; also the atexit hook)."""
    _teardown()
