"""Client-side streaming prediction (§IV Fig 20's deployment story).

The paper pushes the trained model to consumer machines, where it must
score each day's fresh telemetry in microseconds without the batch
pipeline's columnar dataset. :class:`ClientPredictor` packages a fitted
MFPA for that setting: it keeps per-drive incremental state (cumulative
W/B counters, encoded firmware, a trailing-history ring) and turns raw
daily readings into the same feature rows the batch pipeline would
assemble — verified equivalent in the test suite.

Ingest is batch-shaped: :func:`parse_readings` turns a run of readings
into one :class:`ReadingBatch` (a float matrix with a presence mask),
and :meth:`ClientPredictor.ingest` assembles the whole batch at once
from slot-indexed per-drive arrays and a column plan compiled at
construction; ``observe`` and ``alarm`` wrap a batch of one. The serve
gate parses each drained run once and hands the validated batch
straight here. A rejected reading (out-of-order day, unseen firmware,
missing column in strict mode) leaves its drive's state untouched, so
the caller can correct the reading and retry. With
``on_missing="impute"`` a reading with absent or non-finite values is
scored anyway — last-known value, else zero — and flagged degraded
(see :mod:`repro.robustness.degraded` for dimension-level fallback).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from repro.core.features import FIRMWARE_CODE_COLUMN
from repro.core.pipeline import MFPA
from repro.telemetry.dataset import B_COLUMNS, W_COLUMNS

_EVENT_COLUMNS = frozenset((*W_COLUMNS, *B_COLUMNS))
#: A drive's last day before its first reading; also the parsed day of
#: a reading whose day is not a whole number.
NO_DAY = np.iinfo(np.int64).min


@dataclass
class ReadingBatch:
    """A run of daily readings parsed into columns.

    ``keys`` are every numeric key the run's readings carry (all but
    ``firmware``). ``values[i, j]`` is reading ``i``'s ``keys[j]`` as a
    float, NaN where the reading lacks it (``present`` is False there)
    or where it is not a number (``non_numeric`` marks those cells;
    ``None`` when there are none). A reading whose serial, day or body
    cannot be parsed is ``malformed``; ``anonymous`` marks the ones
    whose serial names no drive, and an unparseable day is
    :data:`NO_DAY`. ``firmware`` holds each reading's label (``None``
    when absent). ``readings`` are the source dicts, consulted only for
    their key order when a reading is rejected.
    """

    serials: np.ndarray
    days: np.ndarray
    keys: tuple
    values: np.ndarray
    present: np.ndarray
    firmware: list
    readings: list
    malformed: np.ndarray
    anonymous: np.ndarray
    non_numeric: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.serials)

    @functools.cached_property
    def position(self) -> dict:
        """Column index of each key."""
        return {key: j for j, key in enumerate(self.keys)}

    def take(self, index: np.ndarray, values=None, present=None) -> "ReadingBatch":
        """The readings at ``index``; ``values``/``present`` replace the
        matrix (already taken) when given."""
        return ReadingBatch(
            serials=self.serials[index],
            days=self.days[index],
            keys=self.keys,
            values=self.values[index] if values is None else values,
            present=self.present[index] if present is None else present,
            firmware=[self.firmware[i] for i in index],
            readings=[self.readings[i] for i in index],
            malformed=self.malformed[index],
            anonymous=self.anonymous[index],
            non_numeric=(
                None if self.non_numeric is None else self.non_numeric[index]
            ),
        )

    def columns(self, names) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(values, present, non_numeric)`` over ``names``; a name no
        reading carries is an absent column."""
        index = np.array(
            [self.position.get(name, -1) for name in names], dtype=np.intp
        )
        have = index >= 0
        shape = (len(self), len(index))
        values = np.full(shape, math.nan)
        values[:, have] = self.values[:, index[have]]
        present = np.zeros(shape, dtype=bool)
        present[:, have] = self.present[:, index[have]]
        non_numeric = None
        if self.non_numeric is not None:
            non_numeric = np.zeros(shape, dtype=bool)
            non_numeric[:, have] = self.non_numeric[:, index[have]]
        return values, present, non_numeric


def _integers(items, n: int, whole: bool) -> tuple[np.ndarray, np.ndarray]:
    """``items`` as int64 plus a mask of the ones that are not numbers
    (``whole``: not whole numbers — ``10.7`` is refused, ``10.0`` kept)."""
    try:
        array = np.asarray(items)
    except (TypeError, ValueError):
        array = None
    if array is not None and array.shape == (n,) and array.dtype.kind == "i":
        return array.astype(np.int64, copy=False), np.zeros(n, dtype=bool)
    out = np.zeros(n, dtype=np.int64)
    bad = np.zeros(n, dtype=bool)
    for i, item in enumerate(items):
        try:
            number = int(item)
            if whole and number != item and float(item) != number:
                raise ValueError(f"{item!r} is not a whole number")
            out[i] = number
        except (TypeError, ValueError, OverflowError):
            bad[i] = True
    return out, bad


def _getter(keys: tuple):
    """reading -> tuple of its ``keys`` values; KeyError when one is
    absent (itemgetter returns a bare value for one name)."""
    if len(keys) > 1:
        return operator.itemgetter(*keys)
    return lambda reading: tuple(reading[key] for key in keys)


def _float_matrix(rows: list, width: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Rows of raw values as floats, with the cells ``float()`` refuses
    marked (NaN in the matrix)."""
    n = len(rows)
    if n == 0 or width == 0:
        return np.empty((n, width)), None
    non_numeric = np.zeros((n, width), dtype=bool)
    try:
        values = np.array(rows, dtype=float)
    except (TypeError, ValueError, OverflowError):
        values = None
    # A cell that is itself a sequence adds a dimension; float() refuses it.
    if values is not None and values.shape == (n, width):
        # numpy reads None as NaN where float() refuses it
        for i, j in zip(*np.nonzero(np.isnan(values))):
            non_numeric[i, j] = rows[i][j] is None
    else:
        values = np.empty((n, width))
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                try:
                    values[i, j] = float(value)
                except (TypeError, ValueError, OverflowError):
                    values[i, j] = math.nan
                    non_numeric[i, j] = True
    return values, non_numeric if non_numeric.any() else None


def parse_readings(serials, days, readings) -> ReadingBatch:
    """Parse parallel sequences of serials, days and reading dicts once.

    When every reading is a dict with the same keys (one collector
    schema, the normal case) the values come out through one
    ``itemgetter`` and one ``np.array``; otherwise row by row.
    """
    readings = list(readings)
    n = len(readings)
    serials, anonymous = _integers(serials, n, whole=False)
    days, bad_day = _integers(days, n, whole=True)
    days[bad_day] = NO_DAY
    malformed = anonymous | bad_day

    first = readings[0] if n else {}
    rows = None
    if set(map(type, readings)) <= {dict} and set(map(len, readings)) <= {len(first)}:
        keys = tuple(key for key in first if key != "firmware")
        try:
            rows = list(map(_getter(keys), readings))
            firmware = (
                [r["firmware"] for r in readings]
                if "firmware" in first
                else [None] * n
            )
        except KeyError:
            rows = None
    if rows is None:
        parsed = []
        for i, reading in enumerate(readings):
            if type(reading) is not dict:
                try:
                    reading = dict(reading)
                except (TypeError, ValueError):
                    malformed[i] = True
                    reading = {}
            parsed.append(reading)
        readings = parsed
        keys = tuple(
            dict.fromkeys(k for r in readings for k in r if k != "firmware")
        )
        nan = math.nan
        rows = [[r.get(key, nan) for key in keys] for r in readings]
        present = np.array(
            [[key in r for key in keys] for r in readings], dtype=bool
        ).reshape(n, len(keys))
        firmware = [r.get("firmware") for r in readings]
    else:
        present = np.ones((n, len(keys)), dtype=bool)
    values, non_numeric = _float_matrix(rows, len(keys))
    return ReadingBatch(
        serials=serials,
        days=days,
        keys=keys,
        values=values,
        present=present,
        firmware=firmware,
        readings=readings,
        malformed=malformed,
        anonymous=anonymous,
        non_numeric=non_numeric,
    )


def drive_rounds(serials: np.ndarray, order: np.ndarray):
    """Batch positions in rounds of distinct drives.

    Round ``k`` holds each drive's ``k``-th reading by ``order`` (its
    day, or its batch position), so applying the rounds in turn is
    one-reading-at-a-time processing in that order.
    """
    n = serials.size
    if n == 0:
        return
    index = np.lexsort((order, serials))
    ordered = serials[index]
    first = np.ones(n, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    if starts.size == n:
        yield np.arange(n)
        return
    rank = np.arange(n) - np.repeat(starts, np.diff(starts, append=n))
    for k in range(int(rank.max()) + 1):
        yield np.sort(index[rank == k])


@dataclass
class _DriveState:
    """One drive's state in the pre-columnar pickle layout.

    Only :meth:`ClientPredictor.__setstate__` reads it, so predictors
    pickled in that layout (older serve checkpoints) still load.
    """

    cumulative_events: dict[str, float] = field(default_factory=dict)
    history: list[np.ndarray] = field(default_factory=list)
    last_day: int | None = None
    last_raw: dict[str, float] = field(default_factory=dict)
    last_firmware: str | None = None
    n_degraded: int = 0


class _DriveTable:
    """Every tracked drive's streaming state, one array row per drive.

    A row of the table's output is ``depth`` blocks of ``columns``,
    oldest first. Each drive owns a slot: its cumulative W/B counters,
    last-known raw values (NaN = never seen), firmware code (NaN = none
    seen), last day and history ring live at that index. A drive's first
    vector fills its whole ring, which is the earliest-vector padding
    :class:`~repro.core.features.FeatureAssembler` applies, so a row is
    just the ring flattened.
    """

    _ARRAYS = (
        "last_day", "n_history", "n_degraded", "last_raw", "cumulative",
        "firmware", "ring",
    )
    _PERSISTED = ("columns", "depth", "encoder", "slots", "free", *_ARRAYS)

    def __init__(self, columns, depth: int, encoder):
        self.columns = tuple(columns)
        self.depth = int(depth)
        self.encoder = encoder
        self._compile()
        self.slots: dict[int, int] = {}
        self.free: list[int] = []
        self._allocate(0)

    def _compile(self) -> None:
        """The column plan: where raw, ``cum_`` and firmware values go."""
        raw, events, self.fw_pos = [], [], None
        for position, column in enumerate(self.columns):
            if column == FIRMWARE_CODE_COLUMN:
                self.fw_pos = position
            elif not column.startswith("cum_"):
                raw.append(position)
            elif column[4:] in _EVENT_COLUMNS:
                events.append(position)
            # a cum_ column over a non-event field stays 0.0
        self.raw_pos = np.array(raw, dtype=np.intp)
        self.cum_pos = np.array(events, dtype=np.intp)
        self.raw_columns = tuple(self.columns[p] for p in raw)
        self.cum_columns = tuple(self.columns[p] for p in events)
        self.event_columns = tuple(c[4:] for c in self.cum_columns)
        self.sources = self.raw_columns + self.event_columns
        self.fw_codes = (
            {label: float(code) for code, label in enumerate(self.encoder.classes_)}
            if self.fw_pos is not None
            else None
        )


    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self._PERSISTED}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._compile()

    # -- slots ----------------------------------------------------------
    def _allocate(self, capacity: int) -> None:
        width = len(self.columns)
        self.last_day = np.full(capacity, NO_DAY, dtype=np.int64)
        self.n_history = np.zeros(capacity, dtype=np.int64)
        self.n_degraded = np.zeros(capacity, dtype=np.int64)
        self.last_raw = np.full((capacity, len(self.raw_columns)), np.nan)
        self.cumulative = np.zeros((capacity, len(self.cum_columns)))
        self.firmware = np.full(capacity, np.nan)
        self.ring = np.zeros((capacity, self.depth, width))

    def _slot(self, serial: int) -> None:
        """Give an untracked drive a slot."""
        if self.free:
            slot = self.free.pop()
        else:
            slot = len(self.slots)
            capacity = len(self.last_day)
            if slot >= capacity:
                kept = {name: getattr(self, name) for name in self._ARRAYS}
                self._allocate(max(64, 2 * capacity))
                for name, array in kept.items():
                    getattr(self, name)[:capacity] = array
        self.slots[serial] = slot

    def release(self, serial: int) -> None:
        slot = self.slots.pop(serial, None)
        if slot is None:
            return
        self.last_day[slot] = NO_DAY
        self.n_history[slot] = 0
        self.n_degraded[slot] = 0
        self.last_raw[slot] = np.nan
        self.cumulative[slot] = 0.0
        self.firmware[slot] = np.nan
        self.free.append(slot)

    # -- assembly -------------------------------------------------------
    def _codes(self, labels, errors: dict) -> np.ndarray:
        """Firmware codes (NaN where absent); unseen labels are errors."""
        if self.fw_codes is None:
            return np.full(len(labels), np.nan)
        lookup = self.fw_codes.get
        codes = np.full(len(labels), -1.0)
        for i, label in enumerate(labels):
            try:
                codes[i] = math.nan if label is None else lookup(label, -1.0)
            except TypeError:  # an unhashable label: unseen
                pass
        for i in np.flatnonzero(codes < 0):
            errors.setdefault(int(i), ValueError(f"unseen label {labels[i]!r}"))
        return codes

    def ingest(self, batch: ReadingBatch, impute: bool):
        """Commit a parsed batch; see :meth:`ClientPredictor.ingest`.

        Returns ``(rows, rejections, missing)``: ``missing`` names the
        imputed inputs of the last accepted reading (``None`` when no
        reading was accepted).
        """
        n = len(batch)
        serials, days = batch.serials, batch.days
        message = "the reading's serial, day or body does not parse"
        errors: dict[int, Exception] = {
            int(i): ValueError(message) for i in np.flatnonzero(batch.malformed)
        }
        values, present, non_numeric = batch.columns(self.sources)
        if non_numeric is not None:
            for i, j in zip(*np.nonzero(non_numeric)):
                errors.setdefault(int(i), ValueError(
                    f"reading has a non-numeric {self.sources[j]!r}"
                ))
        codes = self._codes(batch.firmware, errors)
        finite = np.isfinite(values)
        n_raw = len(self.raw_columns)
        raw_missing = ~finite[:, :n_raw]
        fw_missing = (
            np.isnan(codes) if self.fw_pos is not None else np.zeros(n, dtype=bool)
        )
        # An absent event count adds nothing and is not a defect; a
        # present but non-finite one is treated as absent and flagged.
        bad_event = present[:, n_raw:] & ~finite[:, n_raw:]
        degraded = raw_missing.any(axis=1) | fw_missing | bad_event.any(axis=1)
        if not impute:
            for i in np.flatnonzero(degraded):
                errors.setdefault(int(i), self._strict_error(
                    present[i, :n_raw], raw_missing[i], batch.firmware[i], bad_event[i]
                ))

        valid = np.flatnonzero(~batch.malformed)
        tracked = serials[valid].tolist()
        new = [s for s in dict.fromkeys(tracked) if s not in self.slots]
        for serial in new:
            self._slot(serial)
        slots = np.zeros(n, dtype=np.intp)
        slots[valid] = [self.slots[s] for s in tracked]
        rejected = np.zeros(n, dtype=bool)
        rejected[list(errors)] = True
        out = np.empty((n, self.depth * len(self.columns)))
        accepted = np.zeros(n, dtype=bool)
        for idx in drive_rounds(serials[valid], days[valid]):
            idx = valid[idx]
            late = self.last_day[slots[idx]] >= days[idx]
            for i in idx[late]:
                errors[int(i)] = ValueError(
                    f"out-of-order reading for drive {serials[i]}: "
                    f"day {days[i]} after day {self.last_day[slots[i]]}"
                )
            rejected[idx[late]] = True
            idx = idx[~rejected[idx]]
            if idx.size:
                out[idx] = self._commit(
                    slots[idx], days[idx], values[idx], finite[idx],
                    codes[idx], degraded[idx],
                )
                accepted[idx] = True
        for serial in new:
            if self.last_day[self.slots[serial]] == NO_DAY:
                self.release(serial)

        missing = None
        if accepted.any():
            last = int(np.flatnonzero(accepted)[-1])
            missing = (
                *(c for c, m in zip(self.raw_columns, raw_missing[last]) if m),
                *(("firmware",) if fw_missing[last] else ()),
                *(c for c, m in zip(self.event_columns, bad_event[last]) if m),
            )
        return out[accepted], errors, missing

    def _strict_error(self, raw_present, raw_missing, firmware, bad_event) -> Exception:
        for column, present, missing in zip(self.raw_columns, raw_present, raw_missing):
            if missing:
                if not present:
                    return KeyError(f"reading is missing {column!r}")
                return ValueError(f"reading has a non-finite {column!r}")
        if self.fw_pos is not None and firmware is None:
            return KeyError("reading is missing 'firmware'")
        column = self.event_columns[int(np.flatnonzero(bad_event)[0])]
        return ValueError(f"reading has a non-finite {column!r}")

    def _commit(self, slots, days, values, finite, codes, degraded) -> np.ndarray:
        """Apply one round (distinct slots); return its rows."""
        n_raw = len(self.raw_columns)
        raw_ok = finite[:, :n_raw]
        known = np.where(raw_ok, values[:, :n_raw], self.last_raw[slots])
        self.last_raw[slots] = known
        self.cumulative[slots] += np.where(
            finite[:, n_raw:], values[:, n_raw:], 0.0
        )
        firmware = np.where(np.isnan(codes), self.firmware[slots], codes)
        self.firmware[slots] = firmware

        vectors = np.zeros((len(slots), len(self.columns)))
        vectors[:, self.raw_pos] = np.where(np.isnan(known), 0.0, known)
        vectors[:, self.cum_pos] = self.cumulative[slots]
        if self.fw_pos is not None:
            vectors[:, self.fw_pos] = np.where(np.isnan(firmware), 0.0, firmware)

        ring = self.ring[slots]
        if self.depth > 1:
            fresh = self.n_history[slots] == 0
            ring[:, :-1] = ring[:, 1:]
            ring[fresh] = vectors[fresh, None, :]
        ring[:, -1] = vectors
        self.ring[slots] = ring
        self.n_history[slots] = np.minimum(self.n_history[slots] + 1, self.depth)
        self.last_day[slots] = days
        self.n_degraded[slots] += degraded
        return ring.reshape(len(slots), -1)

    # -- checkpointing --------------------------------------------------
    def snapshot(self) -> dict:
        classes = self.encoder.classes_ if self.fw_pos is not None else ()
        last_raw = self.last_raw.tolist()
        cumulative = self.cumulative.tolist()
        drives = {}
        for serial, slot in self.slots.items():
            code = self.firmware[slot]
            drives[str(serial)] = {
                "cumulative_events": dict(zip(self.cum_columns, cumulative[slot])),
                "history": self.ring[
                    slot, self.depth - self.n_history[slot]:
                ].tolist(),
                "last_day": int(self.last_day[slot]),
                "last_raw": {
                    column: value
                    for column, value in zip(self.raw_columns, last_raw[slot])
                    if not math.isnan(value)
                },
                "last_firmware": None if np.isnan(code) else classes[int(code)],
                "n_degraded": int(self.n_degraded[slot]),
            }
        return {"drives": drives}

    def restore(self, snapshot: dict) -> None:
        # A drive with no committed day carries no state; older layouts
        # kept one after a rejected first reading.
        entries = [
            (int(serial), entry)
            for serial, entry in snapshot["drives"].items()
            if entry["last_day"] is not None
        ]
        self.slots, self.free = {}, []
        self._allocate(len(entries))
        width = len(self.columns)
        for slot, (serial, entry) in enumerate(entries):
            self.slots[serial] = slot
            self.last_day[slot] = entry["last_day"]
            self.n_degraded[slot] = entry["n_degraded"]
            cumulative = entry["cumulative_events"]
            self.cumulative[slot] = [cumulative.get(c, 0.0) for c in self.cum_columns]
            last_raw = entry["last_raw"]
            self.last_raw[slot] = [last_raw.get(c, math.nan) for c in self.raw_columns]
            if self.fw_pos is not None and entry["last_firmware"] is not None:
                self.firmware[slot] = self.fw_codes[entry["last_firmware"]]
            history = np.asarray(entry["history"], dtype=float)[-self.depth:]
            if history.ndim != 2 or history.shape[1] != width:
                raise ValueError(
                    f"snapshot history of drive {serial} has shape "
                    f"{history.shape}; this drive state holds rows of "
                    f"{width} columns"
                )
            self.ring[slot] = history[0]
            self.ring[slot, self.depth - len(history):] = history
            self.n_history[slot] = len(history)


class ClientPredictor:
    """Streaming scorer built from a fitted :class:`MFPA`.

    Usage::

        predictor = ClientPredictor.from_model(fitted_mfpa)
        probability = predictor.observe(serial=7, day=120, reading={...})

    ``reading`` maps raw telemetry names (SMART columns, daily W/B
    counts, ``firmware``) to values — exactly what a client collector
    produces. The predictor accumulates the W/B counters itself and
    maintains the trailing-history window when the model was trained
    with ``history_length > 1``.

    ``on_missing`` selects the missing-column policy: ``"raise"``
    (default, reject the reading with ``KeyError``, or ``ValueError``
    for a non-finite value) or ``"impute"`` (fill from the drive's
    last-known value, else zero, and record the prediction as degraded
    in ``last_prediction_degraded`` / ``last_missing_columns``).
    """

    def __init__(
        self,
        model,
        columns,
        history_length,
        firmware_encoder,
        threshold,
        on_missing: str = "raise",
    ):
        if on_missing not in ("raise", "impute"):
            raise ValueError("on_missing must be 'raise' or 'impute'")
        self._model = model
        self._columns = tuple(columns)
        self._history_length = history_length
        self._encoder = firmware_encoder
        self.threshold = threshold
        self.on_missing = on_missing
        self._table = _DriveTable(self._columns, history_length, firmware_encoder)
        #: Positions of this model's input row within an ingest row;
        #: ``None`` while the two layouts are the same (see :meth:`cover`).
        self._model_index: np.ndarray | None = None
        self.last_prediction_degraded = False
        self.last_missing_columns: tuple[str, ...] = ()

    def __setstate__(self, state: dict) -> None:
        legacy = state.pop("_states", None)
        self.__dict__.update(state)
        if legacy is not None:  # pickled before the columnar drive table
            self._table = _DriveTable(
                self._columns, self._history_length, self._encoder
            )
            self._model_index = None
            self._table.restore(
                {"drives": {str(s): vars(d) for s, d in legacy.items()}}
            )

    @classmethod
    def from_model(cls, fitted: MFPA, on_missing: str = "raise") -> "ClientPredictor":
        """Package a fitted pipeline for client deployment."""
        fitted._check_fitted()
        return cls(
            model=fitted.model_,
            columns=fitted.assembler_.columns,
            history_length=fitted.assembler_.history_length,
            firmware_encoder=fitted.firmware_encoder_,
            threshold=fitted.config.decision_threshold,
            on_missing=on_missing,
        )

    @property
    def n_tracked_drives(self) -> int:
        return len(self._table.slots)

    @property
    def firmware_vocabulary(self) -> frozenset | None:
        """Firmware labels ingest accepts; ``None`` when the rows carry no
        firmware code (any label is then accepted and ignored)."""
        codes = self._table.fw_codes
        return frozenset(codes) if codes is not None else None

    def cover(self, other: "ClientPredictor") -> np.ndarray:
        """Widen the drive state so ingest rows also carry ``other``'s inputs.

        Returns the positions of ``other``'s model-input row within an
        ingest row: ``rows[:, index]`` is what ``other`` would have
        assembled from the same readings. The state covers the union of
        both column sets over the longer history; while that equals this
        model's own layout nothing changes, otherwise tracked drives are
        dropped, so call it before ingesting.
        """
        if FIRMWARE_CODE_COLUMN in other._columns and list(
            other._encoder.classes_
        ) != list(self._encoder.classes_):
            raise ValueError(
                "the two models encode firmware differently; their rows "
                "cannot share one drive state"
            )
        columns = self._table.columns + tuple(
            c for c in other._columns if c not in self._table.columns
        )
        depth = max(self._table.depth, other._history_length)
        if (columns, depth) != (self._table.columns, self._table.depth):
            self._table = _DriveTable(columns, depth, self._encoder)
            self._model_index = self._index_of(
                self._columns, self._history_length
            )
        return self._index_of(other._columns, other._history_length)

    def _index_of(self, columns, history_length) -> np.ndarray:
        layout, depth = self._table.columns, self._table.depth
        positions = [layout.index(c) for c in columns]
        return np.array(
            [
                block * len(layout) + p
                for block in range(depth - history_length, depth)
                for p in positions
            ],
            dtype=np.intp,
        )

    def ingest(
        self, serials, days=None, readings=None
    ) -> tuple[np.ndarray, dict[int, Exception]]:
        """Commit a batch of daily readings; return their input rows.

        ``serials``, ``days`` and ``readings`` are parallel sequences,
        parsed by :func:`parse_readings`; ``serials`` may instead be an
        already parsed :class:`ReadingBatch` (the serve gate's output),
        with ``days`` and ``readings`` omitted. Returns
        ``(rows, rejections)``: one row per accepted reading, in batch
        order, and ``{batch position: exception}`` for each rejected
        one. This is :meth:`observe` without the model call — the
        streaming state update (cumulative counters, trailing history,
        last-known values) plus feature assembly; pass the rows to
        :meth:`predict_matrix`.

        Readings must arrive in chronological order per drive: a day at
        or before the drive's last committed day is rejected. Readings
        of one drive within a batch are applied in day order, so the
        result is identical to ingesting them one at a time. The daily
        W/B counts are added to the drive's running counters *before*
        assembly, matching the batch pipeline's accumulate-then-assemble
        order. A rejected reading leaves its drive untouched — it is
        retryable. A value that does not parse as a number (``None``
        included) or a serial or day that does not (a day must be a
        whole number) rejects its reading.
        """
        batch = (
            serials
            if isinstance(serials, ReadingBatch)
            else parse_readings(serials, days, readings)
        )
        rows, rejections, missing = self._table.ingest(
            batch, impute=self.on_missing == "impute"
        )
        if missing is not None:
            self.last_missing_columns = missing
            self.last_prediction_degraded = bool(missing)
        return rows, rejections

    def model_rows(self, X: np.ndarray) -> np.ndarray:
        """This model's input columns of stacked :meth:`ingest` rows."""
        return X if self._model_index is None else X[:, self._model_index]

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Positive-class probabilities for stacked :meth:`ingest` rows."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._model.predict_proba(self.model_rows(X))[:, 1]

    def observe(self, serial: int, day: int, reading: dict) -> float:
        """Ingest one day's telemetry and return the failure probability.

        A batch of one through :meth:`ingest`; a rejected reading raises
        its rejection.
        """
        rows, rejections = self.ingest([serial], [day], [reading])
        if rejections:
            raise rejections[0]
        return float(self.predict_matrix(rows)[0])

    def alarm(self, serial: int, day: int, reading: dict) -> tuple[bool, float]:
        """Convenience: ``(raises_alarm, probability)`` for one reading."""
        probability = self.observe(serial, day, reading)
        return probability >= self.threshold, probability

    def n_degraded_predictions(self, serial: int) -> int:
        """How many of a drive's predictions used imputed values."""
        slot = self._table.slots.get(int(serial))
        return int(self._table.n_degraded[slot]) if slot is not None else 0

    def forget(self, serial: int) -> None:
        """Drop a drive's state (it was replaced or decommissioned)."""
        self._table.release(int(serial))

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable copy of every drive's streaming state.

        Finite floats round-trip exactly through JSON, so a predictor
        restored from a snapshot scores future readings bit-identically
        to one that never stopped — the serve daemon's resume contract.
        """
        return self._table.snapshot()

    def restore(self, snapshot: dict) -> None:
        """Replace all per-drive state with a :meth:`snapshot`."""
        self._table.restore(snapshot)
