"""Reference bodies of the §III-C(1) preprocessing stage, kept as oracles.

These are the column-at-a-time passes that ``repro.core.preprocess``
used to run: :func:`oracle_repair_discontinuity` copies every column
for the kept rows, concatenates the imputed rows and restores the
(serial, day) order with a ``lexsort``; :func:`oracle_accumulate_events`
runs one :func:`_grouped_cumsum` per event column; firmware is encoded
with one dictionary lookup per row. On (serial, day)-sorted input the
one-pass implementation must match them byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.core.preprocess import (
    FIRMWARE_CODE_COLUMN,
    IMPUTED_COLUMN,
    PreprocessReport,
    _EVENT_COLUMNS,
    _OBJECT_COLUMNS,
)
from repro.ml.encoding import LabelEncoder
from repro.telemetry.dataset import TelemetryDataset


def _grouped_cumsum(values: np.ndarray, group_starts: np.ndarray) -> np.ndarray:
    """Cumulative sum that restarts at every True in ``group_starts``."""
    if np.any(values < 0):
        raise ValueError("event counts must be non-negative")
    totals = np.cumsum(values)
    start_indices = np.flatnonzero(group_starts)
    # Each group's offset is the running total just before its start;
    # forward-fill it with a running maximum (valid because counts are
    # non-negative, so carries are non-decreasing).
    carry = np.concatenate([[0.0], totals[start_indices[1:] - 1]])
    offsets = np.zeros_like(totals)
    offsets[start_indices] = carry
    offsets = np.maximum.accumulate(offsets)
    return totals - offsets


def oracle_accumulate_events(dataset: TelemetryDataset) -> TelemetryDataset:
    serial = dataset.columns["serial"]
    group_starts = np.concatenate([[True], serial[1:] != serial[:-1]])
    columns = dict(dataset.columns)
    for column in _EVENT_COLUMNS:
        columns[f"cum_{column}"] = _grouped_cumsum(
            dataset.columns[column].astype(float), group_starts
        )
    return TelemetryDataset(columns, dataset.drives, dataset.tickets)


def _exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    result = np.zeros_like(values)
    np.cumsum(values[:-1], out=result[1:])
    return result


def oracle_repair_discontinuity(
    dataset: TelemetryDataset,
    max_gap: int = 10,
    fill_gap: int = 3,
    min_segment_records: int = 5,
) -> tuple[TelemetryDataset, PreprocessReport]:
    if max_gap < 2:
        raise ValueError("max_gap must be at least 2")
    if fill_gap < 0:
        raise ValueError("fill_gap must be non-negative")
    if fill_gap >= max_gap:
        raise ValueError("fill_gap must be smaller than max_gap")

    serial = dataset.columns["serial"]
    day = dataset.columns["day"]
    n = serial.shape[0]

    new_drive = np.concatenate([[True], serial[1:] != serial[:-1]])
    gap = np.concatenate([[0], np.diff(day) - 1])
    gap[new_drive] = 0
    fragment_start = new_drive | (gap >= max_gap)
    fragment_id = np.cumsum(fragment_start) - 1
    fragment_sizes = np.bincount(fragment_id)
    keep = fragment_sizes[fragment_id] >= min_segment_records
    n_dropped = int(n - np.count_nonzero(keep))

    base_columns: dict[str, np.ndarray] = {
        name: values[keep] for name, values in dataset.columns.items()
    }
    if IMPUTED_COLUMN not in base_columns:
        base_columns[IMPUTED_COLUMN] = np.zeros(int(keep.sum()))
    if base_columns["serial"].size == 0:
        raise ValueError("repair removed every record; thresholds too aggressive")

    kept_serial = base_columns["serial"]
    kept_day = base_columns["day"]
    same_drive = kept_serial[1:] == kept_serial[:-1]
    kept_gap = np.diff(kept_day) - 1
    fill_boundary = same_drive & (kept_gap >= 1) & (kept_gap <= fill_gap)
    left_rows = np.flatnonzero(fill_boundary)
    counts = kept_gap[left_rows].astype(np.int64)
    total_new = int(counts.sum())

    if total_new:
        repeated_left = np.repeat(left_rows, counts)
        within = np.arange(total_new) - np.repeat(_exclusive_cumsum(counts), counts)
        new_columns: dict[str, np.ndarray] = {
            "serial": kept_serial[repeated_left],
            "day": kept_day[repeated_left] + 1 + within,
            IMPUTED_COLUMN: np.ones(total_new),
        }
        for name in _OBJECT_COLUMNS:
            new_columns[name] = base_columns[name][repeated_left]
        for name, values in base_columns.items():
            if name in new_columns:
                continue
            means = (values[repeated_left] + values[repeated_left + 1]) / 2.0
            new_columns[name] = means
        merged = {
            name: np.concatenate([base_columns[name], new_columns[name]])
            for name in base_columns
        }
        order = np.lexsort((merged["day"], merged["serial"]))
        columns = {name: values[order] for name, values in merged.items()}
    else:
        columns = base_columns

    surviving = set(np.unique(columns["serial"]).tolist())
    drives = {s: m for s, m in dataset.drives.items() if s in surviving}
    tickets = [t for t in dataset.tickets if t.serial in surviving]
    repaired = TelemetryDataset(columns, drives, tickets)
    report = PreprocessReport(
        n_input_rows=n,
        n_output_rows=repaired.n_records,
        n_rows_dropped=n_dropped,
        n_rows_filled=total_new,
        n_drives_dropped=dataset.n_drives - len(drives),
    )
    return repaired, report


def oracle_preprocess(
    dataset: TelemetryDataset,
    max_gap: int = 10,
    fill_gap: int = 3,
    min_segment_records: int = 5,
    encoder: LabelEncoder | None = None,
) -> tuple[TelemetryDataset, PreprocessReport, LabelEncoder]:
    """Finite check, repair, accumulate, then encode every repaired row:
    fitting a new encoder, or transform-only through ``encoder`` (what
    ``MFPA.bind_dataset`` did, minus its missing finite check)."""
    for name, values in dataset.columns.items():
        if values.dtype != object and not np.all(np.isfinite(values)):
            raise ValueError(f"column {name!r} contains NaN or infinite values")
    repaired, report = oracle_repair_discontinuity(
        dataset, max_gap=max_gap, fill_gap=fill_gap, min_segment_records=min_segment_records
    )
    accumulated = oracle_accumulate_events(repaired)
    columns = dict(accumulated.columns)
    if encoder is None:
        encoder = LabelEncoder()
        codes = encoder.fit_transform(columns["firmware"])
    else:
        codes = encoder.transform(columns["firmware"])
    columns[FIRMWARE_CODE_COLUMN] = codes.astype(float)
    encoded = TelemetryDataset(columns, accumulated.drives, accumulated.tickets)
    return encoded, report, encoder
