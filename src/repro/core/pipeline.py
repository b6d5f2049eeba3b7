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
from typing import Callable, Iterable

import numpy as np

from repro.core.features import FeatureAssembler, feature_group
from repro.core.labeling import (
    FailureTimeIdentifier,
    SampleSet,
    build_samples,
    late_failure_mask,
)
from repro.core.preprocess import (
    PreprocessReport,
    _row_map,
    merge_preprocess_reports,
    preprocess,
)
from repro.core.selection import SequentialForwardSelector, youden_score
from repro.core.splitting import TimeSeriesCrossValidator
from repro.ml.base import BaseClassifier, clone
from repro.ml.encoding import LabelEncoder
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

    @classmethod
    def from_scores(
        cls, scores: tuple, threshold: float, period: tuple[int, int]
    ) -> "EvaluationResult":
        """Threshold ``MFPA._collect_drive_scores``-shaped arrays
        ``(drive_truth, drive_scores, record_truth, record_scores,
        n_faulty, n_healthy)`` into both reports."""
        drive_truth, drive_scores, record_truth, record_scores, n_faulty, n_healthy = (
            scores
        )
        return cls(
            drive_report=classification_report(
                drive_truth, (drive_scores >= threshold).astype(int), drive_scores
            ),
            record_report=classification_report(
                record_truth, (record_scores >= threshold).astype(int), record_scores
            ),
            n_faulty_drives=n_faulty,
            n_healthy_drives=n_healthy,
            period=period,
        )

    def __str__(self) -> str:
        return (
            f"period {self.period}: drives[{self.drive_report}] "
            f"({self.n_faulty_drives} faulty / {self.n_healthy_drives} healthy)"
        )


def _prepare_shard(
    raw: TelemetryDataset,
    config: MFPAConfig,
    encoder: LabelEncoder | None = None,
) -> tuple[TelemetryDataset, PreprocessReport, LabelEncoder, tuple[str, ...]]:
    """The per-shard transform of every MFPA path: §III-C(1)
    :func:`preprocess` — fitting the firmware encoder on the shard when
    ``encoder`` is None, transform-only otherwise — then derived
    features. Returns ``(prepared, report, encoder, derived_columns)``.
    """
    prepared, report, encoder = preprocess(
        raw,
        max_gap=config.max_gap,
        fill_gap=config.fill_gap,
        min_segment_records=config.min_segment_records,
        encoder=encoder,
    )
    derived: tuple[str, ...] = ()
    if config.derived_features:
        from repro.core.derived import add_derived_features

        prepared, derived = add_derived_features(prepared)
    return prepared, report, encoder, derived


def _union_encoder(
    shards: Iterable[TelemetryDataset], config: MFPAConfig
) -> LabelEncoder:
    """Fit the firmware encoder over every shard's vocabulary.

    The encoder sorts its classes, so fitting it on the union of the
    per-shard vocabularies equals fitting it on the whole repaired
    column. Repair drops rows (and with them firmware values), so the
    vocabulary is collected from the rows ``preprocess`` keeps; finding
    them costs only the repair's row map over ``serial`` and ``day``.
    """
    vocabulary: set = set()
    for raw in shards:
        kept = _row_map(
            raw.columns["serial"],
            raw.columns["day"],
            config.max_gap,
            config.fill_gap,
            config.min_segment_records,
        ).source
        vocabulary.update(raw.columns["firmware"][kept].tolist())
    return LabelEncoder().fit(vocabulary)


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

        The fleet is the one-shard, in-memory case of :meth:`_fit_shards`,
        the only MFPA fit body (the out-of-core
        :func:`~repro.scale.trainer.fit_sharded` runs it over a store):
        ``preprocess`` fits the firmware encoder itself, the prepared
        fleet is kept for assembly and becomes ``dataset_``, and nothing
        is prepared twice.

        Each stage runs inside a ``trace_span`` (nested under
        ``pipeline.fit``) mirroring the ``stage_stats_`` keys, so traced
        runs show exactly where fit wall-clock goes.
        """
        with trace_span("pipeline.fit"):
            return self._fit_shards(
                lambda: (dataset,), 1, train_end_day, in_memory=True
            )

    def _fit_shards(
        self,
        shards: Callable[[], Iterable[TelemetryDataset]],
        n_shards: int,
        train_end_day: int,
        in_memory: bool = False,
        check: Callable[[str], object] = lambda stage: None,
    ) -> "MFPA":
        """The MFPA stage sequence over a fleet cut into drive shards.

        ``shards()`` starts a fresh pass over the raw shards, in serial
        order; ``check(stage)`` runs after every shard and global step
        (the out-of-core memory ceiling). Every stage up to sampling is
        per drive, so running it shard by shard with global row offsets
        reproduces the whole-fleet result:

        1. the firmware encoder — fitted by ``preprocess`` itself for one
           shard, over the union of the shards' vocabularies otherwise;
        2. pass 1: per shard, the transform of :func:`_prepare_shard`,
           failure-time identification and sample labeling;
        3. the horizon filter, seeded undersample and forward selection
           over the concatenated samples;
        4. pass 2: each selected row assembled on its own shard and
           scattered into the global order — from the kept prepared
           fleet when it is ``in_memory`` (it then becomes ``dataset_``),
           re-loaded and re-prepared from a store;
        5. :meth:`_fit_estimator`.
        """
        config = self.config
        engineering = labeling = 0.0
        encoder = None
        if n_shards > 1:
            started = time.perf_counter()
            with trace_span("feature_engineering"):
                encoder = _union_encoder(shards(), config)
            engineering += time.perf_counter() - started
            check("fit.vocabulary")

        # ---- pass 1: per-shard transform and labels, global row offsets
        failure_times: dict[int, int] = {}
        parts: list[SampleSet] = []
        reports: list[PreprocessReport] = []
        offsets: list[int] = []
        n_records = 0
        for raw in shards():
            started = time.perf_counter()
            with trace_span("feature_engineering"):
                prepared, report, encoder, derived = _prepare_shard(
                    raw, config, encoder
                )
            labeled = time.perf_counter()
            engineering += labeled - started
            with trace_span("labeling"):
                shard_times = FailureTimeIdentifier(config.theta).identify(
                    prepared
                )
                samples = build_samples(
                    prepared,
                    shard_times,
                    positive_window=config.positive_window,
                    lookahead=config.lookahead,
                )
            labeling += time.perf_counter() - labeled
            failure_times.update(shard_times)
            parts.append(samples)
            reports.append(report)
            offsets.append(n_records)
            n_records += prepared.n_records
            check("fit.label_shard")
        samples = SampleSet.concat(parts, offsets)
        del parts  # hold one copy of the samples through training, not two
        self.failure_times_ = failure_times
        self.preprocess_report_ = merge_preprocess_reports(reports)
        self.firmware_encoder_ = encoder
        self.derived_columns_ = derived
        if in_memory:
            self.dataset_ = prepared
        self._record_stage("feature_engineering", engineering, n_records)
        self._record_stage("labeling", labeling, samples.n_samples)

        # ---- global steps, then pass 2: shard-local assembly, scattered
        kept = prepared if in_memory else None

        def assemble(assembler: FeatureAssembler, rows: np.ndarray) -> np.ndarray:
            X = None
            bounds = [*offsets, n_records]
            for index, raw in enumerate(shards()):
                low = bounds[index]
                in_shard = np.flatnonzero(
                    (rows >= low) & (rows < bounds[index + 1])
                )
                if in_shard.size == 0:
                    continue
                shard = kept if kept is not None else _prepare_shard(
                    raw, config, encoder
                )[0]
                local = assembler.assemble(shard.columns, rows[in_shard] - low)
                check("fit.assemble_shard")
                if in_shard.size == rows.size:
                    return local
                if X is None:
                    X = np.empty((rows.size, local.shape[1]))
                X[in_shard] = local
            return X

        train = self._select_train_samples(samples, train_end_day)
        started = time.perf_counter()
        with trace_span("sampling"):
            row_indices, labels, days = self._undersample(train)
            check("fit.undersample")
            columns = self._training_columns()
            if config.feature_selection:
                with trace_span("feature_selection"):
                    subsample = self._selection_subsample(row_indices.size)
                    X = assemble(
                        FeatureAssembler(columns, history_length=1),
                        row_indices[subsample],
                    )
                    columns = self._run_forward_selection(
                        X, labels[subsample], days[subsample], columns
                    )
            self.assembler_ = FeatureAssembler(columns, config.history_length)
            X = assemble(self.assembler_, row_indices)
        self._record_stage("sampling", time.perf_counter() - started, labels.size)

        started = time.perf_counter()
        with trace_span("training"):
            self._fit_estimator(X, labels, days)
        self._record_stage("training", time.perf_counter() - started, labels.size)
        check("fit.train")
        self.train_end_day_ = train_end_day
        return self

    def bind_dataset(self, dataset: TelemetryDataset) -> "MFPA":
        """Attach a fleet dataset to an artifact-loaded pipeline.

        Runs only the *transform* half of :meth:`fit` — the same
        per-shard transform (:func:`_prepare_shard`) with the firmware
        encoded through the **saved** encoder, then failure-time
        labeling — so an ``repro model load``-ed pipeline can
        ``evaluate()`` or drive a fleet monitor without retraining.
        ``model_``, ``assembler_`` and ``firmware_encoder_`` are left
        exactly as loaded; non-finite telemetry and a firmware version
        the encoder never saw raise ``ValueError`` rather than reaching
        the prepared columns or silently remapping codes.
        """
        self._check_fitted()
        started = time.perf_counter()
        with trace_span("bind_dataset"):
            prepared, report, _, _ = _prepare_shard(
                dataset, self.config, self.firmware_encoder_
            )
            self.dataset_ = prepared
            self.preprocess_report_ = report
            self.failure_times_ = FailureTimeIdentifier(
                self.config.theta
            ).identify(prepared)
        self._record_stage(
            "bind_dataset", time.perf_counter() - started, prepared.n_records
        )
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
        plain fit)."""
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
        """Sequential forward selection over an assembled candidate matrix.

        Runs on a (chronologically ordered) row cap with the time-series
        CV, scoring Youden's J. The score trajectory lands in
        ``self.selection_history_`` (the data behind Fig 17).
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

    def _record_stage(self, stage: str, seconds: float, n_items: int) -> None:
        self.stage_stats_[stage] = {
            "seconds": seconds,
            "n_items": float(n_items),
        }

    def _check_fitted(self) -> None:
        if not hasattr(self, "model_"):
            raise RuntimeError("MFPA is not fitted yet; call fit() first")

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict_proba_rows(
        self, row_indices: np.ndarray, at_least: float | None = None
    ) -> np.ndarray:
        """Positive-class probability for rows of the prepared dataset.

        With ``at_least``, rows the model proves below it may come back
        NaN (:meth:`repro.ml.base.BaseClassifier.predict_proba`); rows at
        or above it are exact.
        """
        self._check_fitted()
        X = self.assembler_.assemble(self.dataset_.columns, np.asarray(row_indices))
        return self.model_.predict_proba(X, at_least=at_least)[:, 1]

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
            scores = self._collect_drive_scores(start_day, end_day)
        self._record_stage(
            "prediction", time.perf_counter() - started, scores[2].size
        )
        return EvaluationResult.from_scores(
            scores, self.config.decision_threshold, (start_day, end_day)
        )
