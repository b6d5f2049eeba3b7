"""Per-drive incremental feature state for the serve loop.

:class:`IncrementalScorer` scores through two
:class:`~repro.core.client.ClientPredictor` models — the full-feature
model and the PR-1 reduced-dimension (default SF) fallback — over
**one** per-drive feature state, held by the full predictor. That state
covers the full model's columns (widened to the union with the reduced
model's when those are not a subset), so every admitted reading is
assembled once and the reduced route reads its rows as a column gather
(``rows[:, reduced_index]``). The daemon can therefore switch routes at
any window boundary without a state rebuild. Staging the gate's admitted
batch (already parsed: a :class:`~repro.core.client.ReadingBatch`)
returns its assembled rows in one array; the daemon stacks them and
calls ``predict_matrix`` once per scoring batch.

:class:`DimensionFreshness` watches for a feature dimension (W, B,
firmware) going *stale* — absent from ``stale_after`` consecutive
admitted readings, the signature of a collector losing a source — which
is one of the two triggers for degraded-mode routing (the other is the
scoring circuit breaker).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.client import ClientPredictor, ReadingBatch
from repro.robustness.faults import DIMENSION_COLUMNS

__all__ = ["DimensionFreshness", "IncrementalScorer"]


class IncrementalScorer:
    """Full/reduced streaming scorer with JSON-safe checkpoint state."""

    def __init__(self, full: ClientPredictor, reduced: ClientPredictor | None):
        self.full = full
        self.reduced = reduced
        #: The reduced model's input positions within a staged row.
        self.reduced_index = full.cover(reduced) if reduced is not None else None

    @property
    def has_reduced(self) -> bool:
        return self.reduced is not None

    def parse(self, serials, days, readings) -> ReadingBatch:
        """Parse readings in the layout :meth:`stage` reads (see
        :meth:`ClientPredictor.parse`)."""
        return self.full.parse(serials, days, readings)

    def stage(self, batch: ReadingBatch) -> tuple[np.ndarray, dict[int, Exception]]:
        """Commit a parsed batch of readings; return ``(rows, rejections)``.

        One :meth:`ClientPredictor.ingest` of the shared state: ``rows``
        holds one row per accepted reading in batch order, and
        ``rejections`` maps each rejected batch position to its error
        (an unseen firmware label, for one). A rejected reading leaves
        its drive untouched.
        """
        return self.full.ingest(batch)

    def predict_full(self, X: np.ndarray) -> np.ndarray:
        return self.full.predict_matrix(X)

    def predict_reduced(self, X: np.ndarray) -> np.ndarray:
        if self.reduced is None:
            raise RuntimeError("no reduced-feature fallback model was fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.reduced.predict_matrix(X[:, self.reduced_index])

    # -- checkpointing --------------------------------------------------
    def snapshot(self) -> dict:
        # ``reduced`` stays in the layout for checkpoints written when
        # each model kept its own state; the shared state replaces it.
        return {"full": self.full.snapshot(), "reduced": None}

    def restore(self, snapshot: dict) -> None:
        """Restore the shared state from the ``full`` block.

        An older checkpoint's ``reduced`` block is ignored: its state is
        a subset of the ``full`` block's whenever the reduced model's
        columns are a subset of the full model's. Otherwise the old
        ``full`` rows are narrower than the shared state and
        :meth:`ClientPredictor.restore` raises ``ValueError``.
        """
        self.full.restore(snapshot["full"])


_FIRMWARE_DIMENSION = list(DIMENSION_COLUMNS).index("firmware")


@functools.lru_cache(maxsize=64)
def _dimension_columns(keys: tuple) -> np.ndarray:
    """``(len(keys), dimensions)`` mask: which keys belong to which
    dimension (firmware is no key; it is tested on the labels)."""
    member = np.array(
        [[key in columns for columns in DIMENSION_COLUMNS.values()] for key in keys],
        dtype=bool,
    ).reshape(len(keys), len(DIMENSION_COLUMNS))
    member.flags.writeable = False
    return member


class DimensionFreshness:
    """Consecutive-absence staleness detector per feature dimension."""

    def __init__(self, stale_after: int = 256):
        if stale_after < 1:
            raise ValueError("stale_after must be >= 1")
        self.stale_after = stale_after
        self._streaks: dict[str, int] = {name: 0 for name in DIMENSION_COLUMNS}

    def observe(self, batch: ReadingBatch) -> None:
        """Advance every streak over a batch of admitted readings, in order."""
        n = len(batch)
        seen = batch.present @ _dimension_columns(batch.keys)
        seen[:, _FIRMWARE_DIMENSION] |= batch.label_index >= 0
        # the last reading that carried each dimension, -1 for none
        last = (seen * np.arange(1, n + 1)[:, None]).max(axis=0, initial=0) - 1
        for name, hit in zip(DIMENSION_COLUMNS, last.tolist()):
            self._streaks[name] = n - 1 - hit if hit >= 0 else self._streaks[name] + n

    def stale_dimensions(self) -> tuple[str, ...]:
        return tuple(
            name
            for name, streak in sorted(self._streaks.items())
            if streak >= self.stale_after
        )

    # -- checkpointing --------------------------------------------------
    def snapshot(self) -> dict:
        return {"streaks": dict(self._streaks)}

    def restore(self, snapshot: dict) -> None:
        self._streaks = {name: 0 for name in DIMENSION_COLUMNS}
        self._streaks.update(
            {k: int(v) for k, v in snapshot["streaks"].items()}
        )
