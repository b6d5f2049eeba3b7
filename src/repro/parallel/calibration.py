"""Measured cost model behind the executor's calibrated serial fallback.

Forking and dispatching have real prices: pool spin-up is tens of
milliseconds, and every task round-trip through the result pipe costs a
little more. When the work being distributed is smaller than those
prices, ``n_jobs > 1`` is a measured net *loss* — the bug this module
exists to prevent. The executor therefore:

1. measures pool spin-up whenever it forks, and per-task dispatch
   overhead with a tiny no-op calibration pass on the fresh pool;
2. probes the first task of each ``starmap`` in-process (its result is
   kept — nothing is wasted) and folds the duration into a per-task-
   function EWMA;
3. dispatches the remaining tasks to the pool only when the estimated
   serial time saved exceeds the estimated overhead — otherwise it
   runs them serially and counts a ``parallel_serial_fallbacks_total``.

This replaces hand-tuned guards (a "stay serial below N rows per
worker" constant) with numbers measured on the running host: a tiny
forest fit at ``n_jobs=4`` costs what the serial fit does, where a
forced dispatch costs about half as much again.

Test hooks: :func:`set_serial_fallback_mode` forces the decision
(``"always"`` = always fall back, ``"never"`` = always dispatch,
``"auto"`` = measure and decide), so the lifecycle suite can pin both
paths deterministically.
"""

from __future__ import annotations

from typing import Callable

__all__ = [
    "CostModel",
    "get_cost_model",
    "serial_fallback_mode",
    "set_serial_fallback_mode",
]

#: EWMA smoothing for all duration estimates.
_ALPHA = 0.5

#: Conservative priors used until the first real measurement lands.
_DEFAULT_SPINUP_SECONDS = 0.05
_DEFAULT_DISPATCH_SECONDS = 0.001

_MODES = ("auto", "always", "never")
_mode = "auto"


def set_serial_fallback_mode(mode: str) -> None:
    """Force ('always'/'never') or restore ('auto') the serial fallback."""
    global _mode
    if mode not in _MODES:
        raise ValueError(f"fallback mode must be one of {_MODES}, got {mode!r}")
    _mode = mode


def serial_fallback_mode() -> str:
    return _mode


def _ewma(previous: float | None, sample: float) -> float:
    if previous is None:
        return sample
    return _ALPHA * sample + (1.0 - _ALPHA) * previous


class CostModel:
    """EWMA estimates of task durations and pool overheads."""

    def __init__(self) -> None:
        self.spinup_seconds: float | None = None
        self.dispatch_seconds: float | None = None
        self._task_seconds: dict[str, float] = {}

    def reset(self) -> None:
        """Forget all measurements (test isolation hook)."""
        self.spinup_seconds = None
        self.dispatch_seconds = None
        self._task_seconds.clear()

    # -- measurement ---------------------------------------------------
    @staticmethod
    def task_key(task: Callable) -> str:
        return f"{getattr(task, '__module__', '?')}.{getattr(task, '__qualname__', repr(task))}"

    def observe_spinup(self, seconds: float) -> None:
        self.spinup_seconds = _ewma(self.spinup_seconds, seconds)

    def observe_dispatch(self, per_task_seconds: float) -> None:
        self.dispatch_seconds = _ewma(self.dispatch_seconds, per_task_seconds)

    def observe_task(self, key: str, per_task_seconds: float) -> None:
        self._task_seconds[key] = _ewma(
            self._task_seconds.get(key), per_task_seconds
        )

    def estimate_task(self, key: str) -> float | None:
        return self._task_seconds.get(key)

    # -- decision ------------------------------------------------------
    def worth_dispatching(
        self, key: str, n_tasks: int, workers: int, pool_is_warm: bool
    ) -> bool:
        """Does a pool beat the serial loop for ``n_tasks`` of ``key``?

        Compares the serial time a pool would save against the overhead
        it would add; with no task estimate yet the executor is expected
        to probe first, so an unknown task conservatively stays serial.
        """
        if workers < 2 or n_tasks < 1:
            return False
        per_task = self._task_seconds.get(key)
        if per_task is None:
            return False
        spinup = 0.0 if pool_is_warm else (
            self.spinup_seconds
            if self.spinup_seconds is not None
            else _DEFAULT_SPINUP_SECONDS
        )
        dispatch = (
            self.dispatch_seconds
            if self.dispatch_seconds is not None
            else _DEFAULT_DISPATCH_SECONDS
        )
        serial_seconds = per_task * n_tasks
        saved = serial_seconds * (1.0 - 1.0 / min(workers, n_tasks))
        overhead = spinup + dispatch * n_tasks
        return saved > overhead


_COST_MODEL = CostModel()


def get_cost_model() -> CostModel:
    return _COST_MODEL
