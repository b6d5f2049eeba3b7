"""Client-side streaming prediction (§IV Fig 20's deployment story).

The paper pushes the trained model to consumer machines, where it must
score each day's fresh telemetry in microseconds without the batch
pipeline's columnar dataset. :class:`ClientPredictor` packages a fitted
MFPA for that setting: it keeps per-drive incremental state (cumulative
W/B counters, encoded firmware, a trailing-history ring) and turns raw
daily readings into the same feature rows the batch pipeline would
assemble — verified equivalent in the test suite.

Ingest is batch-shaped: :func:`parse_readings` turns a run of readings
into one :class:`ReadingBatch` (a float matrix with a presence mask,
the firmware labels resolved once per distinct label), and
:meth:`ClientPredictor.ingest` assembles the whole batch at once from
slot-indexed per-drive arrays and a column plan compiled at
construction; ``observe`` and ``alarm`` wrap a batch of one. The serve
daemon parses each drained run once, with the scorer's source columns
first, and the gate hands the validated batch straight here with its
:class:`DrivePlan` (the rounds of distinct drives), so neither the
column gather nor the round split is done twice. A rejected reading
(out-of-order day, unseen firmware, missing column in strict mode)
leaves its drive's state untouched, so the caller can correct the
reading and retry. With
``on_missing="impute"`` a reading with absent or non-finite values is
scored anyway — last-known value, else zero — and flagged degraded
(see :mod:`repro.robustness.degraded` for dimension-level fallback).
"""

from __future__ import annotations

import functools
import itertools
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


@dataclass(frozen=True)
class DrivePlan:
    """The order a batch's readings apply in: rounds of distinct drives.

    ``drives`` are the planned readings' distinct serials (sorted) and
    ``drive_of`` each reading's index into them (-1 for a reading left
    out). Round ``k`` holds each drive's ``k``-th reading, so applying
    the rounds in turn is applying the readings one at a time.
    """

    drives: np.ndarray
    drive_of: np.ndarray
    rounds: tuple

    @classmethod
    def build(cls, serials: np.ndarray, members: np.ndarray, days=None) -> "DrivePlan":
        """Plan the readings ``members`` marks, each drive's in day
        order (``days``) or, without days, in batch order."""
        drive_of = np.full(len(serials), -1, dtype=np.intp)
        positions = members.nonzero()[0]
        m = positions.size
        if m == 0:
            return cls(np.empty(0, dtype=np.int64), drive_of, ())
        planned = serials[positions]
        index = positions[
            np.argsort(planned, kind="stable")
            if days is None
            else np.lexsort((days[positions], planned))
        ]
        ordered = serials[index]
        first = np.ones(m, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        starts = first.nonzero()[0]
        drive_of[index] = first.cumsum() - 1
        if starts.size == m:
            rounds = (positions,)
        else:
            rank = np.arange(m) - np.repeat(starts, np.diff(starts, append=m))
            rounds = tuple(
                np.sort(index[rank == k]) for k in range(int(rank.max()) + 1)
            )
        return cls(ordered[starts], drive_of, rounds)

    def take(self, index: np.ndarray) -> "DrivePlan":
        """The plan of the readings at ``index`` (ascending positions)."""
        position = np.full(len(self.drive_of), -1, dtype=np.intp)
        position[index] = np.arange(len(index))
        kept = (r[r >= 0] for r in (position[r] for r in self.rounds))
        return DrivePlan(
            self.drives, self.drive_of[index], tuple(r for r in kept if r.size)
        )


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
    :data:`NO_DAY`. Firmware is resolved once: ``labels`` are the
    distinct labels the run carries and ``label_index`` each reading's
    index into them (-1 when it carries none), so a consumer maps each
    distinct label, not each reading. ``readings`` are the source
    dicts, consulted only for their key order when a reading is
    rejected. ``plan`` is the order the readings apply in, once a
    consumer has worked it out (the gate hands its plan on with the
    readings it admits).
    """

    serials: np.ndarray
    days: np.ndarray
    keys: tuple
    values: np.ndarray
    present: np.ndarray
    labels: tuple
    label_index: np.ndarray
    readings: list
    malformed: np.ndarray
    anonymous: np.ndarray
    non_numeric: np.ndarray | None = None
    plan: DrivePlan | None = None

    def __len__(self) -> int:
        return len(self.serials)

    @functools.cached_property
    def position(self) -> dict:
        """Column index of each key."""
        return {key: j for j, key in enumerate(self.keys)}

    @property
    def firmware(self) -> list:
        """Each reading's firmware label (``None`` when absent)."""
        labels = (*self.labels, None)
        return [labels[i] for i in self.label_index.tolist()]

    def take(self, index: np.ndarray, values=None, present=None) -> "ReadingBatch":
        """The readings at ``index``; ``values``/``present`` replace the
        matrix (already taken) when given."""
        return ReadingBatch(
            serials=self.serials[index],
            days=self.days[index],
            keys=self.keys,
            values=self.values.take(index, axis=0) if values is None else values,
            present=self.present.take(index, axis=0) if present is None else present,
            labels=self.labels,
            label_index=self.label_index[index],
            readings=[self.readings[i] for i in index],
            malformed=self.malformed[index],
            anonymous=self.anonymous[index],
            non_numeric=(
                None if self.non_numeric is None
                else self.non_numeric.take(index, axis=0)
            ),
            plan=None if self.plan is None else self.plan.take(index),
        )

    def columns(self, names: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """``(values, present, non_numeric)`` over ``names``; a name no
        reading carries is an absent column. A batch parsed with
        ``names`` first (``parse_readings(..., order=names)``) returns
        slices of its own matrices."""
        k = len(names)
        if self.keys[:k] == names:
            non_numeric = self.non_numeric
            return (
                self.values[:, :k],
                self.present[:, :k],
                None if non_numeric is None else non_numeric[:, :k],
            )
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


@functools.lru_cache(maxsize=64)
def _key_order(keys: tuple, order: tuple) -> tuple:
    """``keys`` without ``firmware``: those named in ``order`` first, in
    that order, then the rest in their own order."""
    first = tuple(key for key in order if key in keys)
    return first + tuple(k for k in keys if k != "firmware" and k not in first)


def _float_matrix(rows: list, width: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Rows of raw values as floats, with the cells ``float()`` refuses
    marked (NaN in the matrix)."""
    n = len(rows)
    if n == 0 or width == 0:
        return np.empty((n, width)), None
    try:
        # a cell that is itself a sequence raises here; float() refuses it
        values = np.fromiter(
            itertools.chain.from_iterable(rows), dtype=float, count=n * width
        ).reshape(n, width)
    except (TypeError, ValueError, OverflowError):
        values = None
    if values is not None:
        # numpy reads None as NaN where float() refuses it
        rows_nan, columns_nan = np.isnan(values).nonzero()
        non_numeric = np.zeros((n, width), dtype=bool)
        for i, j in zip(rows_nan.tolist(), columns_nan.tolist()):
            non_numeric[i, j] = rows[i][j] is None
        return values, non_numeric if non_numeric.any() else None
    values = np.empty((n, width))
    non_numeric = np.zeros((n, width), dtype=bool)
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            try:
                values[i, j] = float(value)
            except (TypeError, ValueError, OverflowError):
                values[i, j] = math.nan
                non_numeric[i, j] = True
    return values, non_numeric if non_numeric.any() else None


def _resolve_labels(firmware: list) -> tuple[tuple, np.ndarray]:
    """The distinct firmware labels (first-seen order) and each
    reading's index into them, -1 for ``None``. An unhashable label is
    an entry of its own."""
    labels: list = []
    seen: dict = {None: -1}
    index = []
    for label in firmware:
        try:
            code = seen.setdefault(label, len(labels))
        except TypeError:
            code = len(labels)
        if code == len(labels):
            labels.append(label)
        index.append(code)
    return tuple(labels), np.array(index, dtype=np.intp)


def parse_readings(serials, days, readings, order: tuple = ()) -> ReadingBatch:
    """Parse parallel sequences of serials, days and reading dicts once.

    When every reading is a dict with the same keys (one collector
    schema, the normal case) the values come out through one
    ``itemgetter`` and one ``np.fromiter``; otherwise row by row. The
    keys named in ``order`` (a scorer's source columns) lead ``keys``,
    so :meth:`ReadingBatch.columns` over them is a slice.
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
        keys = _key_order(tuple(first), order)
        try:
            rows = list(map(_getter(keys), readings))
            firmware = (
                list(map(operator.itemgetter("firmware"), readings))
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
        keys = _key_order(tuple(dict.fromkeys(k for r in readings for k in r)), order)
        nan = math.nan
        rows = [[r.get(key, nan) for key in keys] for r in readings]
        present = np.array(
            [[key in r for key in keys] for r in readings], dtype=bool
        ).reshape(n, len(keys))
        firmware = [r.get("firmware") for r in readings]
    else:
        present = np.ones((n, len(keys)), dtype=bool)
    values, non_numeric = _float_matrix(rows, len(keys))
    labels, label_index = _resolve_labels(firmware)
    return ReadingBatch(
        serials=serials,
        days=days,
        keys=keys,
        values=values,
        present=present,
        labels=labels,
        label_index=label_index,
        readings=readings,
        malformed=malformed,
        anonymous=anonymous,
        non_numeric=non_numeric,
    )


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
    def _codes(self, batch: ReadingBatch, errors: dict) -> np.ndarray:
        """Firmware codes (NaN where absent); unseen labels are errors.
        Each distinct label is looked up once."""
        if self.fw_codes is None:
            return np.full(len(batch), np.nan)
        lookup = self.fw_codes.get
        codes = []
        for label in batch.labels:
            try:
                codes.append(lookup(label, -1.0))
            except TypeError:  # an unhashable label: unseen
                codes.append(-1.0)
        codes = np.array([*codes, math.nan])[batch.label_index]  # -1: no label
        for i in (codes < 0).nonzero()[0].tolist():
            label = batch.labels[batch.label_index[i]]
            errors.setdefault(i, ValueError(f"unseen label {label!r}"))
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
            i: ValueError(message) for i in batch.malformed.nonzero()[0].tolist()
        }
        values, present, non_numeric = batch.columns(self.sources)
        if non_numeric is not None:
            for i, j in np.argwhere(non_numeric).tolist():
                errors.setdefault(i, ValueError(
                    f"reading has a non-numeric {self.sources[j]!r}"
                ))
        codes = self._codes(batch, errors)
        finite = np.isfinite(values)
        n_raw = len(self.raw_columns)
        # An absent event count adds nothing and is not a defect; a
        # present but non-finite one is treated as absent and flagged.
        missing = ~finite
        missing[:, n_raw:] &= present[:, n_raw:]
        raw_missing, bad_event = missing[:, :n_raw], missing[:, n_raw:]
        fw_missing = (
            np.isnan(codes) if self.fw_pos is not None else np.zeros(n, dtype=bool)
        )
        degraded = missing.any(axis=1) | fw_missing
        if not impute:
            for i in degraded.nonzero()[0].tolist():
                errors.setdefault(i, self._strict_error(
                    present[i, :n_raw], raw_missing[i], batch.label_index[i] < 0,
                    bad_event[i],
                ))

        plan = batch.plan
        if plan is None:
            plan = DrivePlan.build(serials, ~batch.malformed, days)
        # each distinct drive's slot, untracked drives claiming one
        drives = plan.drives.tolist()
        drive_slots = np.fromiter(
            map(self.slots.get, drives, itertools.repeat(-1)), np.intp, len(drives)
        )
        new = [drives[d] for d in (drive_slots < 0).nonzero()[0].tolist()]
        for serial in new:
            self._slot(serial)
        drive_slots[drive_slots < 0] = [self.slots[serial] for serial in new]
        rejected = np.zeros(n, dtype=bool)
        rejected[list(errors)] = True
        out = np.empty((n, self.depth * len(self.columns)))
        accepted = np.zeros(n, dtype=bool)
        for idx in plan.rounds:
            slots = drive_slots[plan.drive_of[idx]]
            late = self.last_day[slots] >= days[idx]
            if late.any():
                for i, slot in zip(idx[late].tolist(), slots[late].tolist()):
                    errors[i] = ValueError(
                        f"out-of-order reading for drive {serials[i]}: "
                        f"day {days[i]} after day {self.last_day[slot]}"
                    )
            keep = ~(late | rejected[idx])
            if keep.any():
                idx, slots = idx[keep], slots[keep]
                out[idx] = self._commit(
                    slots, days[idx], values.take(idx, axis=0),
                    finite.take(idx, axis=0), codes[idx], degraded[idx],
                )
                accepted[idx] = True
        for serial in new:
            if self.last_day[self.slots[serial]] == NO_DAY:
                self.release(serial)

        imputed = None
        if accepted.any():
            last = int(accepted.nonzero()[0][-1])
            imputed = (
                *(self.raw_columns[j] for j in raw_missing[last].nonzero()[0]),
                *(("firmware",) if fw_missing[last] else ()),
                *(self.event_columns[j] for j in bad_event[last].nonzero()[0]),
            )
        return out.compress(accepted, axis=0), errors, imputed

    def _strict_error(
        self, raw_present, raw_missing, no_firmware, bad_event
    ) -> Exception:
        for column, present, missing in zip(self.raw_columns, raw_present, raw_missing):
            if missing:
                if not present:
                    return KeyError(f"reading is missing {column!r}")
                return ValueError(f"reading has a non-finite {column!r}")
        if self.fw_pos is not None and no_firmware:
            return KeyError("reading is missing 'firmware'")
        column = self.event_columns[int(np.flatnonzero(bad_event)[0])]
        return ValueError(f"reading has a non-finite {column!r}")

    def _commit(self, slots, days, values, finite, codes, degraded) -> np.ndarray:
        """Apply one round (distinct slots); return its rows."""
        n_raw = len(self.raw_columns)
        known = np.where(
            finite[:, :n_raw], values[:, :n_raw], self.last_raw.take(slots, axis=0)
        )
        self.last_raw[slots] = known
        cumulative = self.cumulative.take(slots, axis=0)
        np.add(cumulative, values[:, n_raw:], out=cumulative, where=finite[:, n_raw:])
        self.cumulative[slots] = cumulative
        firmware = np.where(np.isnan(codes), self.firmware[slots], codes)
        self.firmware[slots] = firmware

        vectors = np.zeros((len(slots), len(self.columns)))
        vectors[:, self.raw_pos] = known
        vectors[:, self.cum_pos] = cumulative
        if self.fw_pos is not None:
            vectors[:, self.fw_pos] = firmware
        np.copyto(vectors, 0.0, where=np.isnan(vectors))  # never seen: zero

        if self.depth > 1:
            ring = self.ring[slots]
            fresh = self.n_history[slots] == 0
            ring[:, :-1] = ring[:, 1:]
            ring[fresh] = vectors[fresh, None, :]
            ring[:, -1] = vectors
            self.n_history[slots] = np.minimum(self.n_history[slots] + 1, self.depth)
        else:  # a one-vector ring is full after one reading
            ring = vectors[:, None, :]
            self.n_history[slots] = 1
        self.ring[slots] = ring
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

    def parse(self, serials, days, readings) -> ReadingBatch:
        """:func:`parse_readings` with the columns :meth:`ingest` reads
        first, so ingest takes them as a slice."""
        return parse_readings(serials, days, readings, order=self._table.sources)

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
        parsed by :meth:`parse`; ``serials`` may instead be an
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
            else self.parse(serials, days, readings)
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
