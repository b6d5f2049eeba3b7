"""Streaming (shard-at-a-time) MFPA training over a sharded store.

:func:`fit_sharded` produces a fitted :class:`~repro.core.pipeline.MFPA`
**bit-identical** to ``MFPA(config).fit(full_dataset, train_end_day)``
without ever materializing the full fleet. The equivalence rests on a
locality argument, checked stage by stage:

* repair, event accumulation, derived features, failure-time
  identification and sample labeling are all *per drive*, and shards
  partition drives — so running them per shard and concatenating in
  shard (= serial) order reproduces the global result exactly;
* the firmware :class:`~repro.ml.encoding.LabelEncoder` sorts its
  classes, so fitting it on the union of per-shard vocabularies of the
  rows repair keeps equals fitting it on the repaired column;
* undersampling and the chronological reorder are pure functions of the
  concatenated sample arrays plus the seed — identical inputs, so
  identical selected rows;
* feature assembly backtracks history only within a drive, so each
  selected row's feature vector can be assembled on its own shard and
  scattered into the globally-ordered training matrix;
* from there, :meth:`MFPA._fit_estimator` runs unchanged (grid search,
  hist binning via the shared :mod:`repro.ml.binning` cache, the lot).

Peak memory is one shard plus the (undersampled, hence small) training
matrix; a :class:`~repro.scale.memory.MemoryCeiling` checkpoint runs
after every shard pass.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.features import FeatureAssembler
from repro.core.labeling import FailureTimeIdentifier, SampleSet, build_samples
from repro.core.pipeline import MFPA, MFPAConfig, EvaluationResult
from repro.core.preprocess import PreprocessReport, _row_map, preprocess
from repro.ml.encoding import LabelEncoder
from repro.ml.metrics import classification_report
from repro.obs import trace_span
from repro.robustness.quarantine import QuarantineReport, sanitize_dataset
from repro.scale.memory import MemoryCeiling
from repro.scale.stats import merge_preprocess_reports, merge_quarantine_reports
from repro.scale.store import ShardedDataset
from repro.telemetry.dataset import TelemetryDataset

__all__ = ["evaluate_sharded", "fit_sharded", "prepare_shard"]


def prepare_shard(
    raw: TelemetryDataset,
    config: MFPAConfig,
    encoder: LabelEncoder,
    sanitize: bool = False,
) -> tuple[
    TelemetryDataset,
    PreprocessReport,
    QuarantineReport | None,
    tuple[str, ...],
]:
    """§III-C(1) preprocessing of one shard with a *global* encoder.

    Runs :func:`repro.core.preprocess.preprocess` with the firmware
    encoder transform-only: it was fitted on the union of every shard's
    firmware vocabulary, so codes agree across shards and match the
    in-RAM fit. The last element is the derived-column name tuple
    (empty unless ``config.derived_features``).
    """
    quarantine = None
    if sanitize:
        raw, quarantine = sanitize_dataset(raw)
    prepared, report, _ = preprocess(
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
    return prepared, report, quarantine, derived


def _fit_global_encoder(
    store: ShardedDataset, config: MFPAConfig, sanitize: bool
) -> LabelEncoder:
    """Union-fit the firmware encoder over every shard's vocabulary.

    Sanitization and repair drop rows (and with them firmware values),
    so the vocabulary is collected from the rows ``preprocess`` keeps
    of the *sanitized* column, to match what the in-RAM path encodes.
    Finding those rows costs only the repair's row map over ``serial``
    and ``day``.
    """
    vocabulary: set = set()
    for _, raw in store.iter_shards():
        if sanitize:
            raw, _ = sanitize_dataset(raw)
        kept = _row_map(
            raw.columns["serial"],
            raw.columns["day"],
            config.max_gap,
            config.fill_gap,
            config.min_segment_records,
        ).source
        vocabulary.update(raw.columns["firmware"][kept].tolist())
    return LabelEncoder().fit(vocabulary)


def fit_sharded(
    store: ShardedDataset,
    config: MFPAConfig | None = None,
    train_end_day: int | None = None,
    sanitize: bool = False,
    ceiling: MemoryCeiling | None = None,
) -> MFPA:
    """Stream-fit an MFPA over a sharded store (see module docstring).

    Returns a fitted model whose ``dataset_`` attribute is **not** set —
    the full prepared fleet never exists in this process. Callers that
    score must bind a per-shard prepared dataset first (what
    :class:`~repro.scale.monitor.ShardedFleetMonitor` does); the fitted
    estimator, assembler, encoder, failure times and reports are all
    bit-identical to the in-RAM ``MFPA.fit``.
    """
    if train_end_day is None:
        raise ValueError("train_end_day is required")
    config = config or MFPAConfig()
    ceiling = ceiling or MemoryCeiling(config.memory_ceiling_mb)
    model = MFPA(config)

    with trace_span("scale.fit_sharded"):
        encoder = _fit_global_encoder(store, config, sanitize)
        ceiling.check("scale.fit.vocabulary")

        # ---- pass 1: per-shard labeling with global row offsets ------
        failure_times: dict[int, int] = {}
        sample_parts: list[SampleSet] = []
        preprocess_reports: list[PreprocessReport] = []
        quarantine_reports: list[QuarantineReport] = []
        shard_row_offsets: list[int] = []
        derived_columns: tuple[str, ...] = ()
        offset = 0
        identifier = FailureTimeIdentifier(config.theta)
        for info, raw in store.iter_shards():
            with trace_span("scale.fit.label_shard"):
                prepared, report, quarantine, derived = prepare_shard(
                    raw, config, encoder, sanitize=sanitize
                )
                preprocess_reports.append(report)
                if quarantine is not None:
                    quarantine_reports.append(quarantine)
                if derived:
                    derived_columns = derived
                shard_times = identifier.identify(prepared)
                failure_times.update(shard_times)
                samples = build_samples(
                    prepared,
                    shard_times,
                    positive_window=config.positive_window,
                    lookahead=config.lookahead,
                )
                sample_parts.append(
                    SampleSet(
                        row_indices=samples.row_indices + offset,
                        labels=samples.labels,
                        serials=samples.serials,
                        days=samples.days,
                    )
                )
                shard_row_offsets.append(offset)
                offset += prepared.n_records
            ceiling.check("scale.fit.label_shard")

        model.failure_times_ = failure_times
        model.preprocess_report_ = merge_preprocess_reports(preprocess_reports)
        model.firmware_encoder_ = encoder
        if quarantine_reports:
            model.quarantine_report_ = merge_quarantine_reports(
                quarantine_reports
            )
        model.derived_columns_ = derived_columns

        samples = SampleSet(
            row_indices=np.concatenate(
                [p.row_indices for p in sample_parts]
            ),
            labels=np.concatenate([p.labels for p in sample_parts]),
            serials=np.concatenate([p.serials for p in sample_parts]),
            days=np.concatenate([p.days for p in sample_parts]),
        )

        # ---- global steps: horizon filter + seeded undersample -------
        train = model._select_train_samples(samples, train_end_day)
        row_indices, labels, days = model._undersample(train)
        columns = model._training_columns()
        ceiling.check("scale.fit.undersample")

        # ---- pass 2: shard-local assembly, global scatter ------------
        if config.feature_selection:
            subsample = model._selection_subsample(row_indices.size)
            X_sel = _scatter_assemble(
                store, config, encoder, sanitize,
                FeatureAssembler(columns, history_length=1),
                row_indices[subsample], shard_row_offsets, ceiling,
            )
            columns = model._run_forward_selection(
                X_sel, labels[subsample], days[subsample], columns
            )
        model.assembler_ = FeatureAssembler(columns, config.history_length)
        X = _scatter_assemble(
            store, config, encoder, sanitize,
            model.assembler_, row_indices, shard_row_offsets, ceiling,
        )

        # ---- training: unchanged MFPA stage over the assembled matrix
        with trace_span("training"):
            model._fit_estimator(X, labels, days)
        ceiling.check("scale.fit.train")
    model.train_end_day_ = train_end_day
    return model


def _scatter_assemble(
    store: ShardedDataset,
    config: MFPAConfig,
    encoder: LabelEncoder,
    sanitize: bool,
    assembler: FeatureAssembler,
    row_indices: np.ndarray,
    shard_row_offsets: list[int],
    ceiling: MemoryCeiling,
) -> np.ndarray:
    """Assemble features for globally-indexed rows, one shard at a time.

    ``row_indices`` index the virtual concatenation of the prepared
    shards (arbitrary order — undersampled and day-sorted). Each shard
    assembles its own rows locally and the vectors scatter back into
    the global order, so the result equals the in-RAM
    ``assembler.assemble(full_prepared.columns, row_indices)``.
    """
    X: np.ndarray | None = None
    bounds = shard_row_offsets + [np.inf]
    for index, (info, raw) in enumerate(store.iter_shards()):
        with trace_span("scale.fit.assemble_shard"):
            low, high = bounds[index], bounds[index + 1]
            in_shard = np.flatnonzero((row_indices >= low) & (row_indices < high))
            if in_shard.size == 0:
                continue
            prepared, _, _, _ = prepare_shard(
                raw, config, encoder, sanitize=sanitize
            )
            local = assembler.assemble(
                prepared.columns, row_indices[in_shard] - int(low)
            )
            if X is None:
                X = np.empty((row_indices.size, local.shape[1]))
            X[in_shard] = local
        ceiling.check("scale.fit.assemble_shard")
    if X is None:
        raise ValueError("no selected rows fell inside any shard")
    return X


def evaluate_sharded(
    model: MFPA,
    store: ShardedDataset,
    start_day: int,
    end_day: int,
    sanitize: bool = False,
    ceiling: MemoryCeiling | None = None,
) -> EvaluationResult:
    """Streaming counterpart of :meth:`MFPA.evaluate` over a shard store.

    Drive scoring is per drive (pre-failure window for faulty drives,
    period records for healthy ones, max positive probability per
    drive), so collecting scores shard by shard and concatenating in
    shard (= serial) order reproduces the in-RAM evaluation arrays —
    and therefore every report metric — exactly.
    """
    if end_day <= start_day:
        raise ValueError("end_day must exceed start_day")
    ceiling = ceiling or MemoryCeiling(model.config.memory_ceiling_mb)
    drive_truth: list[np.ndarray] = []
    drive_scores: list[np.ndarray] = []
    record_truth: list[np.ndarray] = []
    record_scores: list[np.ndarray] = []
    n_faulty = 0
    n_healthy = 0
    with trace_span("scale.evaluate"):
        for _, raw in store.iter_shards():
            with trace_span("scale.evaluate_shard"):
                prepared, _, _, _ = prepare_shard(
                    raw, model.config, model.firmware_encoder_, sanitize=sanitize
                )
                view = copy.copy(model)
                view.dataset_ = prepared
                try:
                    dt, ds, rt, rs, nf, nh = view._collect_drive_scores(
                        start_day, end_day
                    )
                except ValueError:
                    # No evaluable drives in this shard; the fleet-wide
                    # emptiness check below still applies.
                    continue
                drive_truth.append(dt)
                drive_scores.append(ds)
                record_truth.append(rt)
                record_scores.append(rs)
                n_faulty += nf
                n_healthy += nh
            ceiling.check("scale.evaluate_shard")
    if not drive_truth:
        raise ValueError(f"no drives to evaluate in [{start_day}, {end_day})")
    drive_truth_arr = np.concatenate(drive_truth)
    drive_scores_arr = np.concatenate(drive_scores)
    record_truth_arr = np.concatenate(record_truth)
    record_scores_arr = np.concatenate(record_scores)
    threshold = model.config.decision_threshold
    return EvaluationResult(
        drive_report=classification_report(
            drive_truth_arr,
            (drive_scores_arr >= threshold).astype(int),
            drive_scores_arr,
        ),
        record_report=classification_report(
            record_truth_arr,
            (record_scores_arr >= threshold).astype(int),
            record_scores_arr,
        ),
        n_faulty_drives=n_faulty,
        n_healthy_drives=n_healthy,
        period=(start_day, end_day),
    )
