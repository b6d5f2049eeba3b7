"""Stage 1 of MFPA: optimization of the discontinuous data (§III-C(1)).

Consumer machines boot irregularly, so a drive's log days look like
``(0, 3, 5-8, 11, 13-15)``. Following the paper:

* runs separated by a gap of ``>= max_gap`` days (paper: 10) are split;
  fragments with too few records are *removed* — they cannot support
  window-based training;
* short gaps of ``<= fill_gap`` missing days (paper: 3) are *filled*
  with the mean of the adjacent observed records;
* daily Windows-event and BSOD counts are converted to *cumulative*
  values, because per-day counts are too sparse to show a trend;
* the character-valued firmware version is label encoded.

:func:`preprocess` does all four in one pass. A *row map* sends kept
input row ``i`` to output row ``i`` plus the fills before it, and each
fill right after its left neighbour, so the output is (serial,
day)-sorted without a re-sort. Float64 columns are gathered once into
one block, fills are averaged in one 2-D step, one ``cumsum(axis=1)``
over the block's event rows gives every counter, and the firmware
column costs one encoder lookup per run of equal labels.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from repro.ml.encoding import LabelEncoder
from repro.obs import inc_counter, observe_histogram
from repro.telemetry.dataset import B_COLUMNS, TelemetryDataset, W_COLUMNS

IMPUTED_COLUMN = "imputed"
FIRMWARE_CODE_COLUMN = "firmware_code"

_EVENT_COLUMNS: tuple[str, ...] = (*W_COLUMNS, *B_COLUMNS)
_OBJECT_COLUMNS = ("firmware", "vendor", "model")
#: Columns a fill copies from its left neighbour instead of averaging.
_COPIED_COLUMNS = frozenset({"serial", *_OBJECT_COLUMNS})
_NOT_AVERAGED = _COPIED_COLUMNS | {"day", IMPUTED_COLUMN}


@dataclass(frozen=True)
class PreprocessReport:
    """What the repair pass did — reported by the overhead bench (Fig 20)."""

    n_input_rows: int
    n_output_rows: int
    n_rows_dropped: int
    n_rows_filled: int
    n_drives_dropped: int

    def __str__(self) -> str:
        return (
            f"rows {self.n_input_rows} -> {self.n_output_rows} "
            f"(dropped {self.n_rows_dropped}, filled {self.n_rows_filled}); "
            f"drives dropped {self.n_drives_dropped}"
        )


class _RowMap(NamedTuple):
    """Output row ``k`` gathers input row ``source[k]``; a fill gathers its
    left neighbour. ``fills``, ``left`` and ``right`` are output rows, one
    entry per fill: the fill and its two observed neighbours."""

    source: np.ndarray
    fills: np.ndarray
    left: np.ndarray
    right: np.ndarray
    serials: list[int]


def _row_map(
    serial: np.ndarray,
    day: np.ndarray,
    max_gap: int,
    fill_gap: int,
    min_segment_records: int,
) -> _RowMap:
    """Segment, drop short fragments and place the fills of short gaps.

    A *gap* is the count of missing days between consecutive records of
    the same drive. Runs separated by gaps >= ``max_gap`` are
    independent fragments; fragments with fewer than
    ``min_segment_records`` records are removed. Within kept fragments,
    each gap of at most ``fill_gap`` missing days gets one fill per day.
    """
    new_drive = np.ones(serial.shape[0], dtype=bool)
    np.not_equal(serial[1:], serial[:-1], out=new_drive[1:])
    step = np.diff(day)
    disorder = (serial[1:] < serial[:-1]) | (~new_drive[1:] & (step < 0))
    if disorder.any():
        raise ValueError(
            "telemetry rows must be sorted by (serial, day), but row "
            f"{int(np.argmax(disorder)) + 1} comes before its predecessor; "
            "sort the fleet or load it with --sanitize"
        )

    fragment_start = new_drive.copy()
    fragment_start[1:] |= step - 1 >= max_gap
    fragment_id = np.cumsum(fragment_start) - 1
    kept = np.flatnonzero(np.bincount(fragment_id)[fragment_id] >= min_segment_records)
    if kept.size == 0:
        raise ValueError("repair removed every record; thresholds too aggressive")

    kept_serial = serial[kept]
    same_drive = kept_serial[1:] == kept_serial[:-1]
    kept_gap = np.diff(day[kept]) - 1
    left_rows = np.flatnonzero(same_drive & (kept_gap >= 1) & (kept_gap <= fill_gap))
    counts = kept_gap[left_rows].astype(np.int64)

    repeats = np.ones(kept.size, dtype=np.int64)
    repeats[left_rows] += counts
    position = np.cumsum(repeats) - repeats
    left = np.repeat(position[left_rows], counts)
    offset = np.arange(1, left.size + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    heads = np.flatnonzero(np.concatenate(([True], ~same_drive)))
    return _RowMap(
        source=np.repeat(kept, repeats),
        fills=left + offset,
        left=left,
        right=np.repeat(position[left_rows + 1], counts),
        serials=kept_serial[heads].tolist(),
    )


def _repair_columns(
    columns: dict[str, np.ndarray], row_map: _RowMap
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Gather every column once through the row map and write the fills.

    The float64 columns share one block, W and B first. Returns the
    repaired columns in input order (``imputed`` appended when new) and
    the block's event rows — ``None`` unless every event column is in it.
    """
    source, fills, left, right = row_map.source, row_map.fills, row_map.left, row_map.right
    floats = [
        name
        for name, values in columns.items()
        if values.dtype == np.float64 and name not in _NOT_AVERAGED
    ]
    events = [name for name in _EVENT_COLUMNS if name in floats]
    names = events + [name for name in floats if name not in events]
    block = np.empty((len(names), source.size))
    for row, name in zip(block, names):
        # ``source`` is in range by construction; "clip" skips the
        # bounds-checked copy numpy makes for ``out=`` in "raise" mode.
        np.take(columns[name], source, out=row, mode="clip")
    block[:, fills] = (block[:, left] + block[:, right]) / 2.0
    gathered_rows = dict(zip(names, block))

    repaired: dict[str, np.ndarray] = {}
    for name, values in columns.items():
        gathered = gathered_rows.get(name)
        if gathered is None:
            gathered = values[source]
            if name == "day":
                gathered[fills] += fills - left
            elif name not in _COPIED_COLUMNS and fills.size:
                if name == IMPUTED_COLUMN:
                    value = np.ones(fills.size)
                else:
                    value = (gathered[left] + gathered[right]) / 2.0
                gathered = gathered.astype(np.result_type(gathered, value), copy=False)
                gathered[fills] = value
        repaired[name] = gathered
    if IMPUTED_COLUMN not in repaired:
        repaired[IMPUTED_COLUMN] = np.zeros(source.size)
        repaired[IMPUTED_COLUMN][fills] = 1.0
    return repaired, (block[: len(events)] if events == list(_EVENT_COLUMNS) else None)


def _repair(
    dataset: TelemetryDataset, max_gap: int, fill_gap: int, min_segment_records: int
) -> tuple[TelemetryDataset, PreprocessReport, np.ndarray | None]:
    """The repaired dataset, its report and the event rows of the block."""
    if max_gap < 2:
        raise ValueError("max_gap must be at least 2")
    if fill_gap < 0:
        raise ValueError("fill_gap must be non-negative")
    if fill_gap >= max_gap:
        raise ValueError("fill_gap must be smaller than max_gap")

    serial = dataset.columns["serial"]
    row_map = _row_map(serial, dataset.columns["day"], max_gap, fill_gap, min_segment_records)
    columns, events = _repair_columns(dataset.columns, row_map)
    surviving = set(row_map.serials)
    repaired = TelemetryDataset(
        columns,
        {s: m for s, m in dataset.drives.items() if s in surviving},
        [t for t in dataset.tickets if t.serial in surviving],
    )
    n_output, n_filled = row_map.source.size, row_map.fills.size
    report = PreprocessReport(
        n_input_rows=serial.shape[0],
        n_output_rows=n_output,
        n_rows_dropped=serial.shape[0] - (n_output - n_filled),
        n_rows_filled=n_filled,
        n_drives_dropped=dataset.n_drives - repaired.n_drives,
    )
    return repaired, report, events


def _event_rows(columns: dict[str, np.ndarray]) -> np.ndarray:
    """The W and B columns as float64 rows, in ``_EVENT_COLUMNS`` order."""
    return np.array([columns[name] for name in _EVENT_COLUMNS], dtype=float)


def _add_counters(columns: dict[str, np.ndarray], events: np.ndarray) -> None:
    """Add ``cum_<column>`` per-drive cumulative counters for W and B.

    One running sum over the whole fleet per event row, minus each
    drive's carry (the running total just before the drive's first
    row), repeated over the drive's rows.
    """
    if np.any(events < 0):
        raise ValueError("event counts must be non-negative")
    totals = np.cumsum(events, axis=1)
    serial = columns["serial"]
    starts = np.flatnonzero(serial[1:] != serial[:-1]) + 1
    if starts.size:
        lengths = np.diff(starts, append=serial.size)
        for row, carry in zip(totals, totals[:, starts - 1]):
            row[starts[0]:] -= np.repeat(carry, lengths)
    for name, row in zip(_EVENT_COLUMNS, totals):
        columns[f"cum_{name}"] = row


def _encode_runs(
    firmware: np.ndarray, encoder: LabelEncoder | None
) -> tuple[np.ndarray, LabelEncoder]:
    """``firmware_code`` with one encoder lookup per run of equal labels.

    With ``encoder=None`` a new encoder is fitted on the labels present.
    """
    change = np.ones(firmware.shape[0], dtype=bool)
    np.not_equal(firmware[1:], firmware[:-1], out=change[1:])
    heads = np.flatnonzero(change)
    labels = firmware[heads]
    if encoder is None:
        encoder = LabelEncoder().fit(labels)
    codes = encoder.transform(labels)
    return np.repeat(codes, np.diff(heads, append=firmware.shape[0])).astype(float), encoder


def accumulate_events(dataset: TelemetryDataset) -> TelemetryDataset:
    """Add ``cum_<column>`` per-drive cumulative counters for W and B."""
    columns = dict(dataset.columns)
    _add_counters(columns, _event_rows(columns))
    return TelemetryDataset(columns, dataset.drives, dataset.tickets)


def encode_firmware(dataset: TelemetryDataset) -> tuple[TelemetryDataset, LabelEncoder]:
    """Label-encode the firmware-version strings into ``firmware_code``."""
    columns = dict(dataset.columns)
    columns[FIRMWARE_CODE_COLUMN], encoder = _encode_runs(columns["firmware"], None)
    return TelemetryDataset(columns, dataset.drives, dataset.tickets), encoder


def repair_discontinuity(
    dataset: TelemetryDataset,
    max_gap: int = 10,
    fill_gap: int = 3,
    min_segment_records: int = 5,
) -> tuple[TelemetryDataset, PreprocessReport]:
    """Drop unusable fragments, mean-fill short gaps (paper defaults 10/3).

    Fills copy their left neighbour's serial and object columns, take
    the day after it, and carry ``imputed = 1``; every other column is
    the mean of the two adjacent records. Input rows must be sorted by
    (serial, day); duplicate days are accepted.
    """
    repaired, report, _ = _repair(dataset, max_gap, fill_gap, min_segment_records)
    return repaired, report


def preprocess(
    dataset: TelemetryDataset,
    max_gap: int = 10,
    fill_gap: int = 3,
    min_segment_records: int = 5,
    encoder: LabelEncoder | None = None,
) -> tuple[TelemetryDataset, PreprocessReport, LabelEncoder]:
    """Full §III-C(1) stage: repair -> accumulate events -> encode firmware.

    With ``encoder=None`` a new firmware encoder is fitted on the
    repaired rows; a fitted ``encoder`` (a loaded model's, or a shard
    store's global one) only transforms, and a label it never saw
    raises ``ValueError``. Labels seen only in dropped fragments are
    never encoded.

    Rejects non-finite telemetry up front: a NaN that slipped through a
    collector would otherwise poison means and model training far from
    its source.
    """
    started = time.perf_counter()
    for name, values in dataset.columns.items():
        if values.dtype != object and not np.all(np.isfinite(values)):
            raise ValueError(f"column {name!r} contains NaN or infinite values")
    repaired, report, events = _repair(dataset, max_gap, fill_gap, min_segment_records)
    columns = dict(repaired.columns)
    _add_counters(columns, _event_rows(columns) if events is None else events)
    columns[FIRMWARE_CODE_COLUMN], encoder = _encode_runs(columns["firmware"], encoder)
    observe_histogram("preprocess_seconds", time.perf_counter() - started)
    inc_counter("preprocess_rows_total", report.n_rows_dropped, outcome="dropped")
    inc_counter("preprocess_rows_total", report.n_rows_filled, outcome="filled")
    return TelemetryDataset(columns, repaired.drives, repaired.tickets), report, encoder


def merge_preprocess_reports(
    reports: list[PreprocessReport],
) -> PreprocessReport:
    """Fleet-total repair accounting from per-shard reports."""
    if not reports:
        raise ValueError("nothing to merge")
    merged = reports[0]
    for report in reports[1:]:
        merged = replace(
            merged,
            n_input_rows=merged.n_input_rows + report.n_input_rows,
            n_output_rows=merged.n_output_rows + report.n_output_rows,
            n_rows_dropped=merged.n_rows_dropped + report.n_rows_dropped,
            n_rows_filled=merged.n_rows_filled + report.n_rows_filled,
            n_drives_dropped=merged.n_drives_dropped + report.n_drives_dropped,
        )
    return merged
