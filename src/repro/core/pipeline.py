"""End-to-end MFPA pipeline: preprocess -> label -> sample -> train -> evaluate.

The deployment story matches the paper's: train on a historical learning
window, then score the fleet forward in time. Evaluation is *per drive*
(the unit the after-sales department cares about): a faulty drive counts
as a true positive if any of its records inside the pre-failure window
raises an alarm; a healthy drive counts as a false positive if any of
its records in the evaluation period does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.features import FeatureAssembler, feature_group
from repro.core.labeling import (
    FailureTimeIdentifier,
    SampleSet,
    build_samples,
    late_failure_mask,
)
from repro.core.preprocess import preprocess
from repro.core.selection import SequentialForwardSelector, youden_score
from repro.core.splitting import TimeSeriesCrossValidator
from repro.ml.base import BaseClassifier, clone
from repro.ml.forest import RandomForestClassifier
from repro.ml.metrics import ClassificationReport, classification_report
from repro.ml.model_selection import GridSearchCV
from repro.ml.resampling import RandomUnderSampler
from repro.ml.tree import _check_split_algorithm
from repro.obs import trace_span
from repro.telemetry.dataset import TelemetryDataset


def _default_algorithm() -> BaseClassifier:
    return RandomForestClassifier(n_estimators=40, max_depth=12, seed=0)


def _with_n_jobs(estimator: BaseClassifier, n_jobs: int) -> BaseClassifier:
    """Propagate ``n_jobs`` onto estimators that accept it.

    Only overrides the estimator's own setting when the config actually
    requests parallelism, so an explicitly configured algorithm keeps
    whatever the caller chose.
    """
    if n_jobs != 1 and "n_jobs" in estimator.get_params():
        estimator.set_params(n_jobs=n_jobs)
    return estimator


def _with_split_algorithm(
    estimator: BaseClassifier, split_algorithm: str
) -> BaseClassifier:
    """Propagate ``split_algorithm`` onto estimators that accept it.

    Same contract as :func:`_with_n_jobs`: the default ("exact") never
    overrides an explicitly configured estimator, and estimators without
    the knob (Bayes, SVM, ...) are left untouched.
    """
    if (
        split_algorithm != "exact"
        and "split_algorithm" in estimator.get_params()
    ):
        estimator.set_params(split_algorithm=split_algorithm)
    return estimator


@dataclass
class MFPAConfig:
    """All MFPA knobs, defaulting to the paper's choices.

    Parameters
    ----------
    feature_group_name:
        One of Table V's groups ("SFWB" … "B").
    algorithm:
        Prototype estimator (cloned before fitting). RF by default —
        the paper's best performer.
    theta:
        Failure-time identification threshold (paper: 7).
    positive_window:
        Days before failure whose records are positive (paper: 7/14/21).
    lookahead:
        Predict-ahead distance N in days (Fig 19).
    negative_ratio:
        Under-sampling ratio negatives:positives (paper: 3:1 or 5:1).
    feature_columns:
        Optional explicit column subset (e.g. from forward selection);
        overrides the feature group's full column list.
    feature_selection:
        Run sequential forward selection (§III-C(5)) during fit to pick
        the optimal column subset. Crucial for estimators sensitive to
        the time-drifting cumulative usage counters (Bayes, SVM).
    selection_estimator:
        Cheap wrapper model for the selection search; defaults to the
        configured algorithm itself.
    selection_max_features / selection_max_rows:
        Caps keeping the greedy search tractable.
    history_length:
        Trailing records stacked per sample (CNN_LSTM uses > 1).
    param_grid:
        Optional hyperparameter grid; searched with the time-series CV.
    cv_k:
        k of the 2k-subset time-series cross-validation.
    max_gap / fill_gap / min_segment_records:
        Discontinuity-repair thresholds (paper: 10 / 3).
    decision_threshold:
        Alarm probability threshold.
    seed:
        Seed for under-sampling.
    n_jobs:
        Worker processes for the parallelizable stages (grid search,
        forward selection, and estimators that accept ``n_jobs`` such
        as the random forests). 1 is serial; -1 uses every core. The
        fitted model is bit-identical at every value.
    split_algorithm:
        Tree split-search backend for estimators that accept it
        ("exact" or "hist", see :mod:`repro.ml.binning`). "exact" is
        the bit-identical reference; "hist" trades per-node sorts for
        histogram accumulation over a shared pre-binned dataset cache.
    """

    feature_group_name: str = "SFWB"
    algorithm: BaseClassifier = field(default_factory=_default_algorithm)
    theta: int = 7
    positive_window: int = 14
    lookahead: int = 0
    negative_ratio: float = 3.0
    feature_columns: tuple[str, ...] | None = None
    derived_features: bool = False
    """Add day-over-day delta / rolling-mean columns for the cumulative
    counters (see :mod:`repro.core.derived`) to the input features —
    the FAST'20-style change features that also neutralize fleet-age
    drift."""
    derived_mode: str = "append"
    """``"append"`` keeps the raw counters alongside their derivatives;
    ``"replace"`` swaps the drifting raw counters out entirely — what
    distribution-sensitive models (Bayes, SVM) need, since for them the
    raw counters otherwise dominate the likelihood."""
    feature_selection: bool = False
    selection_estimator: BaseClassifier | None = None
    selection_max_features: int | None = 12
    selection_max_rows: int = 3000
    history_length: int = 1
    param_grid: dict | None = None
    cv_k: int = 3
    max_gap: int = 10
    fill_gap: int = 3
    min_segment_records: int = 5
    decision_threshold: float = 0.5
    seed: int = 0
    n_jobs: int = 1
    split_algorithm: str = "exact"
    memory_ceiling_mb: int | None = None
    """Peak-RSS budget (MiB) enforced by the out-of-core sharded paths
    (:mod:`repro.scale`); the in-RAM pipeline ignores it. ``None``
    disables the checks."""

    def __post_init__(self) -> None:
        feature_group(self.feature_group_name)  # validate the name
        _check_split_algorithm(self.split_algorithm)
        if not 0 < self.decision_threshold < 1:
            raise ValueError("decision_threshold must be in (0, 1)")
        if self.derived_mode not in ("append", "replace"):
            raise ValueError("derived_mode must be 'append' or 'replace'")
        if self.memory_ceiling_mb is not None and self.memory_ceiling_mb <= 0:
            raise ValueError("memory_ceiling_mb must be positive (or None)")


@dataclass(frozen=True)
class EvaluationResult:
    """Drive-level and record-level metrics for one evaluation period."""

    drive_report: ClassificationReport
    record_report: ClassificationReport
    n_faulty_drives: int
    n_healthy_drives: int
    period: tuple[int, int]

    def __str__(self) -> str:
        return (
            f"period {self.period}: drives[{self.drive_report}] "
            f"({self.n_faulty_drives} faulty / {self.n_healthy_drives} healthy)"
        )


class MFPA:
    """The multidimensional-based failure prediction approach.

    Typical usage::

        model = MFPA(MFPAConfig(feature_group_name="SFWB"))
        model.fit(dataset, train_end_day=360)
        result = model.evaluate(360, 540)
        print(result.drive_report)
    """

    def __init__(self, config: MFPAConfig | None = None):
        self.config = config or MFPAConfig()
        self.stage_stats_: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, dataset: TelemetryDataset, train_end_day: int) -> "MFPA":
        """Preprocess, label and train on records before ``train_end_day``.

        Each stage runs inside a ``trace_span`` (nested under
        ``pipeline.fit``) mirroring the ``stage_stats_`` keys, so traced
        runs show exactly where fit wall-clock goes.
        """
        with trace_span("pipeline.fit"):
            return self._fit(dataset, train_end_day)

    def _fit(self, dataset: TelemetryDataset, train_end_day: int) -> "MFPA":
        config = self.config

        started = time.perf_counter()
        with trace_span("feature_engineering"):
            prepared, report, encoder = preprocess(
                dataset,
                max_gap=config.max_gap,
                fill_gap=config.fill_gap,
                min_segment_records=config.min_segment_records,
            )
            if config.derived_features:
                from repro.core.derived import add_derived_features

                prepared, self.derived_columns_ = add_derived_features(prepared)
            else:
                self.derived_columns_ = ()
        self._record_stage("feature_engineering", started, prepared.n_records)
        self.dataset_ = prepared
        self.preprocess_report_ = report
        self.firmware_encoder_ = encoder

        started = time.perf_counter()
        with trace_span("labeling"):
            self.failure_times_ = FailureTimeIdentifier(config.theta).identify(
                prepared
            )
            samples = build_samples(
                prepared,
                self.failure_times_,
                positive_window=config.positive_window,
                lookahead=config.lookahead,
            )
        self._record_stage("labeling", started, samples.n_samples)

        train = self._select_train_samples(samples, train_end_day)

        started = time.perf_counter()
        with trace_span("sampling"):
            row_indices, labels, days = self._undersample(train)
            columns = self._training_columns()
            if config.feature_selection:
                columns = self._forward_select(
                    prepared, row_indices, labels, days, columns
                )
            self.assembler_ = FeatureAssembler(columns, config.history_length)
            X = self.assembler_.assemble(prepared.columns, row_indices)
        self._record_stage("sampling", started, labels.size)

        started = time.perf_counter()
        with trace_span("training"):
            self._fit_estimator(X, labels, days)
        self._record_stage("training", started, labels.size)
        self.train_end_day_ = train_end_day
        return self

    def bind_dataset(self, dataset: TelemetryDataset) -> "MFPA":
        """Attach a fleet dataset to an artifact-loaded pipeline.

        Runs only the *transform* half of :meth:`fit` — the same
        :func:`~repro.core.preprocess.preprocess` pass with the firmware
        encoded through the **saved** encoder, derived features, and
        failure-time labeling — so an ``repro model load``-ed pipeline
        can ``evaluate()`` or drive a fleet monitor without retraining.
        ``model_``, ``assembler_`` and ``firmware_encoder_`` are left
        exactly as loaded; non-finite telemetry and a firmware version
        the encoder never saw raise ``ValueError`` rather than reaching
        the prepared columns or silently remapping codes.
        """
        self._check_fitted()
        config = self.config
        started = time.perf_counter()
        with trace_span("bind_dataset"):
            prepared, report, _ = preprocess(
                dataset,
                max_gap=config.max_gap,
                fill_gap=config.fill_gap,
                min_segment_records=config.min_segment_records,
                encoder=self.firmware_encoder_,
            )
            if self.derived_columns_:
                from repro.core.derived import add_derived_features

                prepared, _ = add_derived_features(prepared)
            self.dataset_ = prepared
            self.preprocess_report_ = report
            self.failure_times_ = FailureTimeIdentifier(config.theta).identify(
                prepared
            )
        self._record_stage("bind_dataset", started, prepared.n_records)
        return self

    def _select_train_samples(
        self, samples: SampleSet, train_end_day: int
    ) -> SampleSet:
        """Restrict to pre-horizon samples of drives that failed in time.

        Faulty drives whose failure happens after the training horizon
        are excluded entirely: their pre-failure window belongs to the
        future.
        """
        train_mask = samples.days < train_end_day
        late_failure = late_failure_mask(
            self.failure_times_, samples.serials, train_end_day
        )
        train = samples.subset(np.flatnonzero(train_mask & ~late_failure))
        if train.n_positive == 0:
            raise ValueError("no positive samples in the training window")
        return train

    def _undersample(
        self, train: SampleSet
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Seeded undersample + chronological (stable) reordering."""
        config = self.config
        sampler = RandomUnderSampler(
            ratio=config.negative_ratio, seed=config.seed
        )
        row_indices, labels, days = sampler.fit_resample(
            train.row_indices, train.labels, train.days
        )
        order = np.argsort(days, kind="stable")
        return row_indices[order], labels[order], days[order]

    def _training_columns(self) -> tuple[str, ...]:
        """Candidate feature columns before forward selection.

        Requires ``self.derived_columns_`` (set during feature
        engineering) so the derived-mode swap is applied consistently.
        """
        config = self.config
        columns = config.feature_columns or feature_group(
            config.feature_group_name
        ).columns
        if self.derived_columns_:
            if config.derived_mode == "replace":
                from repro.core.derived import DEFAULT_DERIVE_COLUMNS

                columns = tuple(
                    c for c in columns if c not in DEFAULT_DERIVE_COLUMNS
                )
            columns = (*columns, *self.derived_columns_)
        return columns

    def _fit_estimator(
        self, X: np.ndarray, labels: np.ndarray, days: np.ndarray
    ) -> None:
        """Train ``self.model_`` on an assembled matrix (grid search or
        plain fit). Shared verbatim by the sharded trainer — given the
        same ``(X, labels, days)`` the fitted model is bit-identical."""
        config = self.config
        if config.param_grid:
            search = GridSearchCV(
                _with_split_algorithm(
                    clone(config.algorithm), config.split_algorithm
                ),
                config.param_grid,
                splitter=TimeSeriesCrossValidator(k=config.cv_k, days=days),
                n_jobs=config.n_jobs,
            )
            search.fit(X, labels)
            self.model_ = search.best_estimator_
            self.search_ = search
        else:
            self.model_ = _with_split_algorithm(
                _with_n_jobs(clone(config.algorithm), config.n_jobs),
                config.split_algorithm,
            )
            self.model_.fit(X, labels)

    def _forward_select(
        self,
        prepared: TelemetryDataset,
        row_indices: np.ndarray,
        labels: np.ndarray,
        days: np.ndarray,
        columns: tuple[str, ...],
    ) -> tuple[str, ...]:
        """Sequential forward selection over the candidate columns.

        Runs on a (chronologically ordered) row cap with the time-series
        CV, scoring Youden's J. The score trajectory lands in
        ``self.selection_history_`` (the data behind Fig 17).
        """
        with trace_span("feature_selection"):
            assembler = FeatureAssembler(columns, history_length=1)
            subsample = self._selection_subsample(row_indices.size)
            X = assembler.assemble(prepared.columns, row_indices[subsample])
            return self._run_forward_selection(
                X, labels[subsample], days[subsample], columns
            )

    def _selection_subsample(self, n_rows: int) -> np.ndarray:
        """Deterministic chronological row cap for the greedy search."""
        cap = min(self.config.selection_max_rows, n_rows)
        step = max(1, n_rows // cap)
        return np.arange(0, n_rows, step)[:cap]

    def _run_forward_selection(
        self,
        X: np.ndarray,
        labels: np.ndarray,
        days: np.ndarray,
        columns: tuple[str, ...],
    ) -> tuple[str, ...]:
        """Greedy search over an already-assembled candidate matrix.

        Split out of :meth:`_forward_select` so the out-of-core trainer
        can hand in a shard-assembled matrix and still land on the same
        chosen columns and ``selection_history_``.
        """
        config = self.config
        selector = SequentialForwardSelector(
            _with_split_algorithm(
                clone(config.selection_estimator or config.algorithm),
                config.split_algorithm,
            ),
            TimeSeriesCrossValidator(k=config.cv_k, days=days),
            scoring=youden_score,
            max_features=config.selection_max_features,
            n_jobs=config.n_jobs,
        )
        chosen = selector.select(X, labels)
        self.selection_history_ = [
            (columns[index], score) for index, score in selector.history_
        ]
        return tuple(columns[index] for index in chosen)

    def _record_stage(self, stage: str, started: float, n_items: int) -> None:
        self.stage_stats_[stage] = {
            "seconds": time.perf_counter() - started,
            "n_items": float(n_items),
        }

    def _check_fitted(self) -> None:
        if not hasattr(self, "model_"):
            raise RuntimeError("MFPA is not fitted yet; call fit() first")

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_proba_rows(self, row_indices: np.ndarray) -> np.ndarray:
        """Positive-class probability for rows of the prepared dataset."""
        self._check_fitted()
        X = self.assembler_.assemble(self.dataset_.columns, np.asarray(row_indices))
        return self.model_.predict_proba(X)[:, 1]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _collect_drive_scores(
        self, start_day: int, end_day: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
        """Score every evaluable drive over a period.

        Returns ``(drive_truth, drive_scores, record_truth,
        record_scores, n_faulty, n_healthy)``. Faulty drives (identified
        failure time inside the period) are scored on their pre-failure
        window; healthy drives on all their records in the period; a
        drive's score is its records' max positive probability.
        """
        self._check_fitted()
        if end_day <= start_day:
            raise ValueError("end_day must exceed start_day")
        config = self.config
        prepared = self.dataset_
        row_slices = prepared._row_slices()
        day = prepared.columns["day"]

        drive_truth: list[int] = []
        drive_row_indices: list[np.ndarray] = []
        n_faulty = 0
        n_healthy = 0

        faulty_serials = set(self.failure_times_)
        for target_serial in prepared.drives:
            row_slice = row_slices[target_serial]
            drive_days = day[row_slice]
            if target_serial in faulty_serials:
                failure_time = self.failure_times_[target_serial]
                if not start_day <= failure_time < end_day:
                    continue
                window_end = failure_time - config.lookahead
                window_start = window_end - config.positive_window
                in_window = (drive_days > window_start) & (drive_days <= window_end)
                if not np.any(in_window):
                    continue
                truth = 1
                n_faulty += 1
            else:
                in_window = (drive_days >= start_day) & (drive_days < end_day)
                if not np.any(in_window):
                    continue
                truth = 0
                n_healthy += 1

            drive_truth.append(truth)
            drive_row_indices.append(row_slice.start + np.flatnonzero(in_window))

        if n_faulty == 0 and n_healthy == 0:
            raise ValueError(f"no drives to evaluate in [{start_day}, {end_day})")

        # One batched prediction pass over every evaluated record.
        counts = np.array([indices.size for indices in drive_row_indices])
        record_scores = self.predict_proba_rows(np.concatenate(drive_row_indices))
        splits = np.split(record_scores, np.cumsum(counts)[:-1])

        drive_truth_arr = np.asarray(drive_truth)
        drive_scores = np.array([scores.max() for scores in splits])
        record_truth = np.repeat(drive_truth_arr, counts)
        return (
            drive_truth_arr,
            drive_scores,
            record_truth,
            record_scores,
            n_faulty,
            n_healthy,
        )

    def calibrate_threshold(
        self, start_day: int, end_day: int, max_fpr: float | None = 0.01
    ) -> float:
        """Tune the alarm threshold on drive-level validation scores.

        Scores the period (typically a slice held out *after* the
        training window) and picks the threshold maximizing TPR subject
        to ``max_fpr`` — falling back to Youden's J when the budget is
        infeasible or ``max_fpr`` is None. The chosen value replaces
        ``config.decision_threshold`` and is returned.

        Noisy scorers (SVM margins, neural nets) hover near 0.5 on
        healthy records, and drive-level "any record alarms" compounds
        that over long windows; calibration is what keeps their
        deployment FPR usable.
        """
        from repro.core.thresholding import (
            tune_threshold_fpr_budget,
            tune_threshold_youden,
        )

        truths, scores, _, _, n_faulty, n_healthy = self._collect_drive_scores(
            start_day, end_day
        )
        if n_faulty == 0 or n_healthy == 0:
            raise ValueError(
                "threshold calibration needs both faulty and healthy drives "
                f"in [{start_day}, {end_day})"
            )
        choice = None
        if max_fpr is not None:
            try:
                choice = tune_threshold_fpr_budget(truths, scores, max_fpr=max_fpr)
            except ValueError:
                choice = None
        if choice is None:
            choice = tune_threshold_youden(truths, scores)
        threshold = float(np.clip(choice.threshold, 1e-6, 1 - 1e-6))
        self.config.decision_threshold = threshold
        return threshold

    def evaluate(self, start_day: int, end_day: int) -> EvaluationResult:
        """Drive- and record-level metrics over ``[start_day, end_day)``.

        Faulty drives whose identified failure time falls in the period
        are scored on their pre-failure window; healthy drives on all
        their records in the period.
        """
        started = time.perf_counter()
        with trace_span("pipeline.evaluate"), trace_span("prediction"):
            (
                drive_truth_arr,
                drive_scores_arr,
                record_truth_arr,
                record_scores_arr,
                n_faulty,
                n_healthy,
            ) = self._collect_drive_scores(start_day, end_day)
            threshold = self.config.decision_threshold
            drive_predictions = (drive_scores_arr >= threshold).astype(int)
            record_predictions = (record_scores_arr >= threshold).astype(int)
        self._record_stage("prediction", started, record_truth_arr.size)

        return EvaluationResult(
            drive_report=classification_report(
                drive_truth_arr, drive_predictions, drive_scores_arr
            ),
            record_report=classification_report(
                record_truth_arr, record_predictions, record_scores_arr
            ),
            n_faulty_drives=n_faulty,
            n_healthy_drives=n_healthy,
            period=(start_day, end_day),
        )
