"""Cross-vendor transfer for data-starved vendors (extension).

The paper finds vendor IV's model weak because it has the fewest faulty
drives (§IV-(4)), and cites transfer learning for minority-disk
prediction [20] as the established remedy. This module implements a
pragmatic instance-transfer scheme:

1. train a *source* MFPA on a data-rich vendor,
2. train a *target* MFPA on the minority vendor's own (scarce) data,
3. blend their scores, choosing the mixing weight α on the target's
   own validation window (time-ordered, no future leakage).

The result is an :class:`MFPA`-compatible scorer, so all evaluation
utilities work unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import MFPA, EvaluationResult, MFPAConfig
from repro.ml.metrics import auc_score
from repro.telemetry.dataset import TelemetryDataset


@dataclass
class TransferResult:
    """Outcome of a transfer fit: the blend and its ingredients."""

    alpha: float
    source_auc: float
    target_auc: float
    blended_auc: float


class TransferredMFPA:
    """Score blend of a source-vendor and a target-vendor MFPA.

    ``predict_proba_rows`` and ``evaluate`` mirror :class:`MFPA` so the
    blended model drops into existing evaluation code. The blend is
    ``alpha * target + (1 - alpha) * source`` where both models score
    the *target* fleet's prepared rows.
    """

    def __init__(self, config: MFPAConfig | None = None):
        self.config = config or MFPAConfig()

    def fit(
        self,
        source_dataset: TelemetryDataset,
        target_dataset: TelemetryDataset,
        train_end_day: int,
        validation_days: int = 60,
        alphas: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    ) -> "TransferredMFPA":
        """Fit source/target models and tune the blend weight.

        Both models train on data before ``train_end_day -
        validation_days``; α is chosen by record-level AUC on the
        held-out validation slice of the *target* fleet, keeping the
        tuning strictly earlier than any later evaluation window.
        """
        if validation_days < 7:
            raise ValueError("validation_days must be at least 7")
        fit_end = train_end_day - validation_days
        self.source_model = MFPA(self.config)
        self.source_model.fit(source_dataset, train_end_day=fit_end)
        self.target_model = MFPA(self.config)
        self.target_model.fit(target_dataset, train_end_day=fit_end)

        # Validation rows: target-fleet records in the held-out slice.
        validation = self._validation_rows(fit_end, train_end_day)
        if validation is None:
            # No failures in the validation slice -> fall back to an
            # even blend; scarce-data vendors hit this regularly.
            self.alpha = 0.5
            self.result_ = TransferResult(0.5, float("nan"), float("nan"), float("nan"))
            return self

        rows, labels = validation
        source_scores = self._source_scores(rows)
        target_scores = self.target_model.predict_proba_rows(rows)
        source_auc = auc_score(labels, source_scores)
        target_auc = auc_score(labels, target_scores)
        best_alpha, best_auc = 0.5, -np.inf
        for alpha in alphas:
            blended = alpha * target_scores + (1 - alpha) * source_scores
            area = auc_score(labels, blended)
            if area > best_auc:
                best_auc = area
                best_alpha = alpha
        self.alpha = best_alpha
        self.result_ = TransferResult(
            alpha=best_alpha,
            source_auc=float(source_auc),
            target_auc=float(target_auc),
            blended_auc=float(best_auc),
        )
        return self

    def _validation_rows(
        self, start_day: int, end_day: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        from repro.core.labeling import build_samples

        target = self.target_model
        samples = build_samples(
            target.dataset_,
            target.failure_times_,
            positive_window=self.config.positive_window,
        )
        in_slice = (samples.days >= start_day) & (samples.days < end_day)
        rows = samples.row_indices[in_slice]
        labels = samples.labels[in_slice]
        if np.sum(labels == 1) == 0 or np.sum(labels == 0) == 0:
            return None
        return rows, labels

    def _source_scores(self, row_indices: np.ndarray) -> np.ndarray:
        """Score target-fleet rows with the source model's estimator."""
        X = self.source_model.assembler_.assemble(
            self.target_model.dataset_.columns, np.asarray(row_indices)
        )
        return self.source_model.model_.predict_proba(X)[:, 1]

    # ------------------------------------------------------------------
    def predict_proba_rows(
        self, row_indices: np.ndarray, at_least: float | None = None
    ) -> np.ndarray:
        """Blended positive-class probability; exact on every row (a blend
        cannot screen, so ``at_least`` is ignored)."""
        if not hasattr(self, "alpha"):
            raise RuntimeError("TransferredMFPA is not fitted yet")
        target_scores = self.target_model.predict_proba_rows(row_indices)
        source_scores = self._source_scores(row_indices)
        return self.alpha * target_scores + (1 - self.alpha) * source_scores

    def evaluate(self, start_day: int, end_day: int) -> EvaluationResult:
        """Drive-level evaluation on the target fleet (MFPA semantics).

        Reuses MFPA's evaluation by temporarily installing the blend as
        the target pipeline's scorer. The blend closes over the
        *class-level* scorer so the target model's own probabilities —
        not the patched attribute — feed the mix.
        """
        if not hasattr(self, "alpha"):
            raise RuntimeError("TransferredMFPA is not fitted yet")
        target = self.target_model
        original = MFPA.predict_proba_rows.__get__(target)

        def blended(row_indices: np.ndarray) -> np.ndarray:
            target_scores = original(row_indices)
            source_scores = self._source_scores(row_indices)
            return self.alpha * target_scores + (1 - self.alpha) * source_scores

        target.predict_proba_rows = blended  # type: ignore[method-assign]
        try:
            return target.evaluate(start_day, end_day)
        finally:
            del target.predict_proba_rows
