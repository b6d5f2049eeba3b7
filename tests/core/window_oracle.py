"""Reference bodies of the monitor window core, kept as test oracles.

:func:`oracle_score_window` is the per-drive loop that
``score_prepared_window`` used to run: it walks ``prepared.drives`` in
order, slices each not-yet-alarmed drive's rows, scores every selected
row in one batch and alarms at each drive's first crossing.
:func:`oracle_assemble` builds the whole fleet's matrix with
``column_stack`` and only then gathers the requested rows. The array
implementations must match both exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.deployment import Alarm


def oracle_score_window(
    model,
    alarmed: set[int],
    alarm_threshold: float,
    start_day: int,
    end_day: int,
) -> tuple[list[Alarm], int]:
    prepared = model.dataset_
    row_slices = prepared._row_slices()
    scored_serials: list[int] = []
    scored_days: list[np.ndarray] = []
    scored_indices: list[np.ndarray] = []
    for serial in prepared.drives:
        if serial in alarmed:
            continue
        rows = prepared.drive_rows(serial)
        days = rows["day"]
        in_window = (days >= start_day) & (days < end_day)
        if not np.any(in_window):
            continue
        base = row_slices[serial].start
        scored_serials.append(int(serial))
        scored_days.append(days[in_window])
        scored_indices.append(base + np.flatnonzero(in_window))

    alarms: list[Alarm] = []
    n_scored = len(scored_serials)
    if n_scored:
        counts = np.array([indices.size for indices in scored_indices])
        all_probabilities = model.predict_proba_rows(np.concatenate(scored_indices))
        per_drive = np.split(all_probabilities, np.cumsum(counts)[:-1])
        for serial, days, probabilities in zip(
            scored_serials, scored_days, per_drive
        ):
            crossings = np.flatnonzero(probabilities >= alarm_threshold)
            if crossings.size:
                first = int(crossings[0])
                alarms.append(
                    Alarm(
                        serial=serial,
                        day=int(days[first]),
                        probability=float(probabilities[first]),
                    )
                )
                alarmed.add(serial)
    return alarms, n_scored


def oracle_assemble(
    columns: tuple[str, ...],
    history_length: int,
    dataset_columns: dict[str, np.ndarray],
    row_indices: np.ndarray,
) -> np.ndarray:
    row_indices = np.asarray(row_indices)
    base = np.column_stack(
        [dataset_columns[column] for column in columns]
    ).astype(float)
    if history_length == 1:
        return base[row_indices]
    serial = np.asarray(dataset_columns["serial"])
    drive_starts = np.flatnonzero(np.r_[True, serial[1:] != serial[:-1]])
    row_starts = drive_starts[
        np.searchsorted(drive_starts, row_indices, side="right") - 1
    ]
    blocks = [
        base[np.maximum(row_indices - offset, row_starts)]
        for offset in range(history_length - 1, -1, -1)
    ]
    return np.concatenate(blocks, axis=1)
