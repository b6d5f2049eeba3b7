"""Feature group sets (Table V) and feature-matrix assembly.

The paper evaluates seven input groups — SFWB, SFW, SFB, SF, S, W, B —
where S is the 16 SMART attributes, F the (label-encoded) firmware
version, W five Windows-event cumulative counters and B the 23 BSOD
cumulative counters. ``FeatureAssembler`` turns dataset rows into model
matrices, optionally stacking a trailing history window for the
sequence model (CNN_LSTM).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.telemetry.bsod import BSOD_CODES
from repro.telemetry.smart import SMART_COLUMNS
from repro.telemetry.windows_events import MODEL_W_COLUMNS

#: Cumulative-count column names produced by core.preprocess.
CUM_W_COLUMNS: tuple[str, ...] = tuple(f"cum_{c}" for c in MODEL_W_COLUMNS)
CUM_B_COLUMNS: tuple[str, ...] = tuple(f"cum_{e.column}" for e in BSOD_CODES)
FIRMWARE_CODE_COLUMN = "firmware_code"


@dataclass(frozen=True)
class FeatureGroup:
    """A named set of input columns (one row of Table V)."""

    name: str
    smart: bool
    firmware: bool
    windows_events: bool
    bsod: bool

    @property
    def columns(self) -> tuple[str, ...]:
        """Dataset columns this group consumes, in canonical order."""
        parts: list[str] = []
        if self.smart:
            parts.extend(SMART_COLUMNS)
        if self.firmware:
            parts.append(FIRMWARE_CODE_COLUMN)
        if self.windows_events:
            parts.extend(CUM_W_COLUMNS)
        if self.bsod:
            parts.extend(CUM_B_COLUMNS)
        return tuple(parts)

    @property
    def counts(self) -> dict[str, int]:
        """The Table-V row: feature count per dimension (0 for NaN)."""
        return {
            "SMART": len(SMART_COLUMNS) if self.smart else 0,
            "Firmware": 1 if self.firmware else 0,
            "WindowsEvent": len(CUM_W_COLUMNS) if self.windows_events else 0,
            "BlueScreenofDeath": len(CUM_B_COLUMNS) if self.bsod else 0,
        }

    def __len__(self) -> int:
        return len(self.columns)


FEATURE_GROUPS: dict[str, FeatureGroup] = {
    "SFWB": FeatureGroup("SFWB", True, True, True, True),
    "SFW": FeatureGroup("SFW", True, True, True, False),
    "SFB": FeatureGroup("SFB", True, True, False, True),
    "SF": FeatureGroup("SF", True, True, False, False),
    "S": FeatureGroup("S", True, False, False, False),
    "W": FeatureGroup("W", False, False, True, False),
    "B": FeatureGroup("B", False, False, False, True),
}


def feature_group(name: str) -> FeatureGroup:
    """Look up a Table-V feature group by name."""
    try:
        return FEATURE_GROUPS[name]
    except KeyError:
        raise ValueError(
            f"unknown feature group {name!r}; known: {sorted(FEATURE_GROUPS)}"
        ) from None


class FeatureAssembler:
    """Builds model input matrices from dataset columns.

    Parameters
    ----------
    columns:
        The input columns (typically ``feature_group(name).columns``, or
        a subset chosen by forward selection).
    history_length:
        1 produces one row per record (tabular models). k > 1 stacks the
        record's k most recent observations of the *same drive* into a
        flattened ``k * n_columns`` vector (earlier-first), padding with
        the drive's first observation — the sequence input for CNN_LSTM.
    """

    def __init__(self, columns: tuple[str, ...], history_length: int = 1):
        if not columns:
            raise ValueError("columns must not be empty")
        if history_length < 1:
            raise ValueError("history_length must be at least 1")
        self.columns = tuple(columns)
        self.history_length = history_length

    @property
    def n_features(self) -> int:
        return len(self.columns) * self.history_length

    def assemble(
        self,
        dataset_columns: dict[str, np.ndarray],
        row_indices: np.ndarray,
    ) -> np.ndarray:
        """Build the ``(rows, features)`` matrix for the given rows.

        ``dataset_columns`` must contain ``serial`` and be sorted by
        (serial, day) — the invariant :class:`TelemetryDataset`
        maintains — so a drive's history is the contiguous run of rows
        preceding each index.

        The matrix is column-major (Fortran order): it is the transpose
        of a C-contiguous ``(features, rows)`` block, one contiguous row
        per feature, which is the layout
        :meth:`repro.ml.arena.ForestArena.encode` reads without a copy.
        """
        row_indices = np.asarray(row_indices)
        missing = [c for c in self.columns if c not in dataset_columns]
        if missing:
            raise KeyError(f"dataset is missing feature columns {missing}")
        if self.history_length == 1:
            blocks = [row_indices]
        else:
            serial = np.asarray(dataset_columns["serial"])
            # Rows are sorted by (serial, day), so each drive is one
            # contiguous run; its first row bounds how far history may
            # walk back. Clamping to that start replaces the
            # data-dependent walk-forward loop with one searchsorted
            # over the run starts.
            drive_starts = np.flatnonzero(np.r_[True, serial[1:] != serial[:-1]])
            row_starts = drive_starts[
                np.searchsorted(drive_starts, row_indices, side="right") - 1
            ]
            blocks = [
                np.maximum(row_indices - offset, row_starts)
                for offset in range(self.history_length - 1, -1, -1)
            ]
        # Gather only the requested rows, one column at a time, straight
        # into one contiguous row of a (features, rows) block: the
        # fleet-wide matrix is never built, and the arena reads the
        # block's transpose without another copy.
        block = np.empty((self.n_features, row_indices.shape[0]))
        for out, (rows, column) in zip(block, product(blocks, self.columns)):
            out[...] = dataset_columns[column].take(rows)
        return block.T
