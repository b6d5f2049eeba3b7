"""Streaming (shard-at-a-time) statistics for out-of-core pipelines.

Two jobs that the in-RAM pipeline does on the full matrix must be done
shard-by-shard at fleet scale:

* **Quantile bin edges** for the histogram tree backend. A
  :class:`StreamingQuantiles` sketch sees each shard's rows once and
  yields per-feature edges compatible with
  :func:`repro.ml.binning.build_binned_from_edges`. The sketch is
  *deterministically* subsampled — a stride doubling scheme keyed to
  the global row index, no RNG — so the fitted edges depend only on
  the row stream, never on how it was cut into shards.
* **Quarantine / preprocess accounting**. Per-shard
  :class:`~repro.core.preprocess.PreprocessReport` and
  :class:`~repro.robustness.quarantine.QuarantineReport` objects merge
  into fleet totals (:func:`merge_preprocess_reports`,
  :func:`merge_quarantine_reports`; the first is defined beside its
  report type, where the fit body uses it) so a sharded run reports the
  same shape of evidence as an in-RAM one.

Edge-fit semantics match :func:`repro.ml.binning.build_binned` exactly
while a feature's distinct values fit in the bin budget (the lossless
midpoint case — true for most MFPA counters); high-cardinality features
fall back to quantiles of the deterministic subsample, which is where
out-of-core fitting is approximate by construction.
"""

from __future__ import annotations

import numpy as np

from repro.core.preprocess import merge_preprocess_reports
from repro.ml.binning import DEFAULT_BINS, MAX_BINS
from repro.robustness.quarantine import QuarantineReport, RuleOutcome

__all__ = [
    "StreamingQuantiles",
    "fit_bin_edges",
    "merge_preprocess_reports",
    "merge_quarantine_reports",
]

#: Default deterministic-subsample target per feature. Compaction keeps
#: the live sample in [target, 2*target); 8192 points bound the quantile
#: error of a 64-bin fit far below one bin width.
_DEFAULT_SAMPLE_TARGET = 8192


class _ColumnSketch:
    """One feature's streaming state: distinct set + strided subsample."""

    __slots__ = ("max_distinct", "target", "distinct", "overflowed",
                 "stride", "indices", "values", "n_seen")

    def __init__(self, max_distinct: int, target: int):
        self.max_distinct = max_distinct
        self.target = target
        self.distinct: set[float] | None = set()
        self.overflowed = False
        self.stride = 1
        self.indices = np.empty(0, dtype=np.int64)
        self.values = np.empty(0, dtype=float)
        self.n_seen = 0

    def update(self, column: np.ndarray) -> None:
        column = np.asarray(column, dtype=float)
        finite = column[np.isfinite(column)]
        if not self.overflowed and finite.size:
            self.distinct.update(np.unique(finite).tolist())
            if len(self.distinct) > self.max_distinct:
                # Too many distinct values for lossless midpoints; from
                # here on only the subsample matters.
                self.distinct = None
                self.overflowed = True
        global_indices = np.arange(
            self.n_seen, self.n_seen + finite.size, dtype=np.int64
        )
        self.n_seen += finite.size
        keep = (global_indices % self.stride) == 0
        if keep.any():
            self.indices = np.concatenate([self.indices, global_indices[keep]])
            self.values = np.concatenate([self.values, finite[keep]])
        while self.values.size >= 2 * self.target:
            self.stride *= 2
            keep = (self.indices % self.stride) == 0
            self.indices = self.indices[keep]
            self.values = self.values[keep]

    def edges(self, max_bins: int) -> np.ndarray:
        if not self.overflowed:
            distinct = np.sort(np.asarray(sorted(self.distinct), dtype=float))
            if distinct.size == 0:
                return np.empty(0)
            return (distinct[:-1] + distinct[1:]) / 2.0
        quantiles = np.quantile(
            self.values, np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
        )
        return np.unique(quantiles)


class StreamingQuantiles:
    """Shard-at-a-time quantile edge fitting for a fixed feature list.

    Feed shards (2-D matrices whose columns follow ``feature_names``)
    through :meth:`update`, then :meth:`edges` returns one ascending
    edge array per feature, ready for
    :func:`~repro.ml.binning.build_binned_from_edges`.
    """

    def __init__(
        self,
        feature_names: list[str] | tuple[str, ...],
        max_bins: int = DEFAULT_BINS,
        sample_target: int = _DEFAULT_SAMPLE_TARGET,
    ):
        if not 2 <= max_bins <= MAX_BINS:
            raise ValueError(f"max_bins must be in [2, {MAX_BINS}]")
        if sample_target < max_bins:
            raise ValueError("sample_target must be at least max_bins")
        self.feature_names = tuple(feature_names)
        self.max_bins = max_bins
        self._sketches = [
            _ColumnSketch(max_distinct=max_bins, target=sample_target)
            for _ in self.feature_names
        ]
        self.n_rows = 0

    def update(self, X: np.ndarray) -> None:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise ValueError(
                f"expected (n, {len(self.feature_names)}) matrix, "
                f"got {X.shape}"
            )
        self.n_rows += X.shape[0]
        for j, sketch in enumerate(self._sketches):
            sketch.update(X[:, j])

    def edges(self) -> list[np.ndarray]:
        return [sketch.edges(self.max_bins) for sketch in self._sketches]

    def is_lossless(self) -> list[bool]:
        """Per feature: True when edges are exact midpoints (no sampling)."""
        return [not sketch.overflowed for sketch in self._sketches]


def fit_bin_edges(
    shard_matrices,
    feature_names: list[str] | tuple[str, ...],
    max_bins: int = DEFAULT_BINS,
    sample_target: int = _DEFAULT_SAMPLE_TARGET,
) -> list[np.ndarray]:
    """Fit per-feature bin edges over an iterable of shard matrices."""
    sketch = StreamingQuantiles(feature_names, max_bins, sample_target)
    for X in shard_matrices:
        sketch.update(X)
    return sketch.edges()


def merge_quarantine_reports(
    reports: list[QuarantineReport],
) -> QuarantineReport:
    """Fleet-total quarantine accounting from per-shard reports.

    Serial partitions are disjoint, so rule serial sets union cleanly
    and counts add.
    """
    if not reports:
        raise ValueError("nothing to merge")
    merged = QuarantineReport()
    for report in reports:
        merged.n_input_rows += report.n_input_rows
        merged.n_output_rows += report.n_output_rows
        merged.n_drives_dropped += report.n_drives_dropped
        merged.n_tickets_dropped += report.n_tickets_dropped
        merged.n_tickets_repaired += report.n_tickets_repaired
        for rule, outcome in report.rules.items():
            target = merged.rules.setdefault(rule, RuleOutcome(rule))
            target.n_dropped += outcome.n_dropped
            target.n_repaired += outcome.n_repaired
            target.serials |= outcome.serials
    return merged
