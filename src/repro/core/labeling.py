"""Stage 2 of MFPA: identification of the eventual failure time (§III-C(2)).

CSS drives are labeled through trouble tickets, but the ticket's initial
maintenance time (IMT) lags the actual failure — users do not rush to
the repair shop. The paper's rule with threshold θ (tuned to 7 days):

* let ``Pt_d`` be the drive's log day closest to the IMT and
  ``ti = IMT - Pt_d``;
* if ``ti <= θ`` the failure time is ``Pt_d``;
* otherwise it is ``IMT - θ``.

This module also builds the record-level training samples: records of a
faulty drive inside the positive window before its identified failure
time are positive; records of never-failed drives are negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry.dataset import TelemetryDataset


class FailureTimeIdentifier:
    """Applies the θ rule to every RaSRF ticket of a dataset.

    Parameters
    ----------
    theta:
        Maximum trusted ticket lag in days (paper: 7).
    """

    def __init__(self, theta: int = 7):
        if theta < 0:
            raise ValueError("theta must be non-negative")
        self.theta = theta

    def identify(self, dataset: TelemetryDataset) -> dict[int, int]:
        """Return serial -> identified failure day for every ticket."""
        failure_times: dict[int, int] = {}
        for ticket in dataset.tickets:
            try:
                days = dataset.drive_rows(ticket.serial)["day"]
            except KeyError:
                # The drive's telemetry did not survive preprocessing.
                continue
            imt = ticket.initial_maintenance_time
            # Closest tracking point: logs stop at failure <= IMT, so it
            # is the last day at or before the IMT (guard anyway).
            eligible = days[days <= imt]
            if eligible.size == 0:
                continue
            closest = int(eligible[-1])
            interval = imt - closest
            if interval <= self.theta:
                failure_times[ticket.serial] = closest
            else:
                failure_times[ticket.serial] = imt - self.theta
        return failure_times


@dataclass
class SampleSet:
    """Aligned per-record sample arrays (rows reference a dataset)."""

    row_indices: np.ndarray
    labels: np.ndarray
    serials: np.ndarray
    days: np.ndarray

    def __post_init__(self) -> None:
        n = self.row_indices.shape[0]
        if not (self.labels.shape[0] == self.serials.shape[0] == self.days.shape[0] == n):
            raise ValueError("sample arrays must align")

    @property
    def n_samples(self) -> int:
        return int(self.row_indices.shape[0])

    @property
    def n_positive(self) -> int:
        return int(np.sum(self.labels == 1))

    @property
    def n_negative(self) -> int:
        return int(np.sum(self.labels == 0))

    def sorted_by_day(self) -> "SampleSet":
        """Chronological order — required by the time-series splitters."""
        order = np.argsort(self.days, kind="stable")
        return SampleSet(
            row_indices=self.row_indices[order],
            labels=self.labels[order],
            serials=self.serials[order],
            days=self.days[order],
        )

    @staticmethod
    def concat(parts: list["SampleSet"], row_offsets: list[int]) -> "SampleSet":
        """Samples of consecutive datasets, ``parts[i]``'s rows shifted by
        ``row_offsets[i]`` to index the datasets' concatenation."""
        return SampleSet(
            row_indices=np.concatenate(
                [p.row_indices + o for p, o in zip(parts, row_offsets)]
            ),
            labels=np.concatenate([p.labels for p in parts]),
            serials=np.concatenate([p.serials for p in parts]),
            days=np.concatenate([p.days for p in parts]),
        )

    def subset(self, indices: np.ndarray) -> "SampleSet":
        return SampleSet(
            row_indices=self.row_indices[indices],
            labels=self.labels[indices],
            serials=self.serials[indices],
            days=self.days[indices],
        )


def late_failure_mask(
    failure_times: dict[int, int], serials: np.ndarray, day: int
) -> np.ndarray:
    """``failure_times.get(serial, -1) >= day`` for every serial.

    Marks the samples of drives whose identified failure falls on or
    after ``day`` — their pre-failure window lies beyond a training
    horizon at ``day``. A drive without a failure time counts as
    failing on day -1, so for ``day <= -1`` it is late as well.
    """
    n_failed = len(failure_times)
    failed = np.fromiter(failure_times, dtype=np.int64, count=n_failed)
    failure_days = np.fromiter(
        failure_times.values(), dtype=np.int64, count=n_failed
    )
    late = np.isin(serials, failed[failure_days >= day])
    if day <= -1:
        late |= ~np.isin(serials, failed)
    return late


def build_samples(
    dataset: TelemetryDataset,
    failure_times: dict[int, int],
    positive_window: int = 14,
    lookahead: int = 0,
    include_negative_from_faulty: bool = False,
) -> SampleSet:
    """Label dataset records for training/evaluation.

    Parameters
    ----------
    failure_times:
        serial -> identified failure day (from
        :class:`FailureTimeIdentifier`).
    positive_window:
        Days before the (lookahead-shifted) failure time whose records
        are positive (paper: 7, 14 or 21).
    lookahead:
        Predict-ahead distance N: the positive window ends N days before
        the failure (Fig 19 sweeps N up to 21).
    include_negative_from_faulty:
        When True, a faulty drive's *early* records (before the positive
        window) are used as negatives; the paper keeps negatives to
        healthy drives, which is the default.
    """
    if positive_window < 1:
        raise ValueError("positive_window must be at least 1")
    if lookahead < 0:
        raise ValueError("lookahead must be non-negative")

    serial = dataset.columns["serial"]
    day = dataset.columns["day"]
    n = serial.shape[0]

    failure_serials = np.array(sorted(failure_times), dtype=np.int64)
    failure_days = np.array(
        [failure_times[s] for s in failure_serials], dtype=np.int64
    )
    position = np.searchsorted(failure_serials, serial)
    position_valid = position < failure_serials.size
    is_faulty_row = np.zeros(n, dtype=bool)
    row_failure_day = np.zeros(n, dtype=np.int64)
    matched = position_valid.copy()
    matched[position_valid] = (
        failure_serials[position[position_valid]] == serial[position_valid]
    )
    is_faulty_row[matched] = True
    row_failure_day[matched] = failure_days[position[matched]]

    window_end = row_failure_day - lookahead
    window_start = window_end - positive_window
    positive = is_faulty_row & (day > window_start) & (day <= window_end)
    if include_negative_from_faulty:
        negative = (~is_faulty_row) | (is_faulty_row & (day <= window_start))
    else:
        negative = ~is_faulty_row

    keep = positive | negative
    indices = np.flatnonzero(keep)
    labels = positive[indices].astype(int)
    return SampleSet(
        row_indices=indices,
        labels=labels,
        serials=serial[indices],
        days=day[indices],
    )
