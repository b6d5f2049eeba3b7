"""Streaming (shard-at-a-time) MFPA training over a sharded store.

There is one MFPA fit body, :meth:`MFPA._fit_shards
<repro.core.pipeline.MFPA._fit_shards>`; ``MFPA.fit`` runs it over one
in-memory shard and :func:`fit_sharded` over a store, so the model
:func:`fit_sharded` returns is **bit-identical** to
``MFPA(config).fit(full_dataset, train_end_day)`` without ever
materializing the full fleet. The equivalence rests on a locality
argument, checked stage by stage:

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

The shard count alone decides two things. For one shard ``preprocess``
fits the firmware encoder itself; the union-encoder pass runs only when
there are several. A store re-loads and re-prepares each shard for
assembly and never sets ``dataset_``; only the in-memory fleet of
``MFPA.fit`` is kept from the labeling pass.

Peak memory is one shard plus the (undersampled, hence small) training
matrix; a :class:`~repro.scale.memory.MemoryCeiling` checkpoint runs
after every shard pass.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.pipeline import MFPA, EvaluationResult, MFPAConfig, _prepare_shard
from repro.core.preprocess import PreprocessReport
from repro.ml.encoding import LabelEncoder
from repro.obs import trace_span
from repro.robustness.quarantine import QuarantineReport, sanitize_dataset
from repro.scale.memory import MemoryCeiling
from repro.scale.stats import merge_quarantine_reports
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

    The fit body's per-shard transform, after the optional sanitize
    gate, with the firmware encoder transform-only: it was fitted on the
    union of every shard's firmware vocabulary, so codes agree across
    shards and match the in-RAM fit. The last element is the
    derived-column name tuple (empty unless ``config.derived_features``).
    """
    quarantine = None
    if sanitize:
        raw, quarantine = sanitize_dataset(raw)
    prepared, report, _, derived = _prepare_shard(raw, config, encoder)
    return prepared, report, quarantine, derived


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
    # Every pass sanitizes alike; keep one report per shard.
    quarantine: dict[int, QuarantineReport] = {}

    def shards():
        for info, raw in store.iter_shards():
            if sanitize:
                raw, quarantine[info.index] = sanitize_dataset(raw)
            yield raw

    with trace_span("scale.fit_sharded"):
        model = MFPA(config)._fit_shards(
            shards,
            store.n_shards,
            train_end_day,
            check=lambda stage: ceiling.check(f"scale.{stage}"),
        )
    if quarantine:
        model.quarantine_report_ = merge_quarantine_reports(
            list(quarantine.values())
        )
    return model


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
    parts: list[tuple] = []
    with trace_span("scale.evaluate"):
        for _, raw in store.iter_shards():
            with trace_span("scale.evaluate_shard"):
                prepared, _, _, _ = prepare_shard(
                    raw, model.config, model.firmware_encoder_, sanitize=sanitize
                )
                view = copy.copy(model)
                view.dataset_ = prepared
                try:
                    parts.append(view._collect_drive_scores(start_day, end_day))
                except ValueError:
                    # No evaluable drives in this shard; the fleet-wide
                    # emptiness check below still applies.
                    continue
            ceiling.check("scale.evaluate_shard")
    if not parts:
        raise ValueError(f"no drives to evaluate in [{start_day}, {end_day})")
    columns = list(zip(*parts))
    scores = (*map(np.concatenate, columns[:4]), sum(columns[4]), sum(columns[5]))
    return EvaluationResult.from_scores(
        scores, model.config.decision_threshold, (start_day, end_day)
    )
