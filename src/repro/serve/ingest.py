"""Supervised ingestion: batch quarantine gate + bounded queue.

The gate is the streaming counterpart of
:func:`repro.robustness.quarantine.sanitize_dataset` — the same
violation classes (non-finite values, negative daily event counts,
decreasing cumulative counters) with the same repair-or-drop policy
knobs, plus firmware labels the scorer cannot encode and per-drive audit
counters. It validates each drained run of readings as one parsed
matrix (:class:`~repro.core.client.ReadingBatch`), with exactly the
outcome of checking the readings one at a time in batch order. Every
check runs before the gate commits a drive's day or counter maxima, so
a rejected reading can be corrected and retried. A drive that keeps
sending garbage is banned outright after ``quarantine_drive_after``
rejected readings.

Behind the gate sits :class:`BoundedReadingQueue`: when producers
outrun the scoring loop the queue sheds the *oldest reading of a
not-yet-alarmed drive* first — an alarmed drive's readings are already
moot (alarms are once per drive lifetime), and for healthy drives a
fresher reading always supersedes a staler one. Every shed is counted;
nothing is dropped silently.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, replace

import numpy as np

from repro.core.client import NO_DAY, ReadingBatch, drive_rounds
from repro.obs import get_logger, inc_counter, set_gauge
from repro.robustness.faults import Reading
from repro.telemetry.dataset import B_COLUMNS, W_COLUMNS
from repro.telemetry.validation import _MONOTONE_COLUMNS

__all__ = ["BoundedReadingQueue", "GatePolicy", "ReadingGate"]

_LOG = get_logger("repro.serve.ingest")
_EVENT_COLUMNS = frozenset((*W_COLUMNS, *B_COLUMNS))
_MONOTONE = tuple(_MONOTONE_COLUMNS)
#: Reading outcomes, in the order the gate checks one reading; the three
#: value rules take the reading's own key order between them.
_RULES = (
    None, "malformed", "banned_drive", "alarmed", "stale_day",
    "assembly_error", "non_numeric", "nonfinite", "negative_events",
    "counter_reset",
)
(
    _MALFORMED, _BANNED, _ALARMED, _STALE, _FIRMWARE,
    _NON_NUMERIC, _NONFINITE, _NEGATIVE, _RESET,
) = range(1, len(_RULES))


@dataclass(frozen=True)
class GatePolicy:
    """Repair-or-drop policy per violation class (quarantine semantics)."""

    nonfinite: str = "repair"
    """NaN/inf values: ``"repair"`` strips the entry (the impute-mode
    scorer substitutes the drive's last-known value) or ``"drop"`` the
    whole reading."""
    negative_events: str = "repair"
    """Negative daily W/B counts: ``"repair"`` clamps to zero or
    ``"drop"`` the reading."""
    counter_resets: str = "repair"
    """A cumulative SMART counter below the drive's running maximum:
    ``"repair"`` clamps back up to it or ``"drop"`` the reading."""
    quarantine_drive_after: int | None = 20
    """Ban a drive outright after this many quarantined readings
    (``None`` disables banning)."""

    def __post_init__(self):
        for knob in ("nonfinite", "negative_events", "counter_resets"):
            value = getattr(self, knob)
            if value not in ("repair", "drop"):
                raise ValueError(f"{knob} must be 'repair' or 'drop', not {value!r}")


class ReadingGate:
    """Validate, repair or quarantine a parsed batch of readings.

    ``admit`` returns the admitted readings as a batch — repaired
    values in place, a stripped value absent (NaN, not present) — or
    ``None`` when it admitted none. ``is_alarmed`` is the daemon's
    alarm-ledger membership test: readings for already-alarmed drives
    are skipped (counted, not quarantined — they are expected).
    ``firmware_vocabulary`` is the set of firmware labels the scorer can
    encode (``None`` accepts any): a reading carrying another label is
    quarantined as ``assembly_error`` here, before the gate commits the
    drive's day or counter maxima, so the corrected reading can retry.

    Per-drive last days and running counter maxima live in slot-indexed
    arrays; the audit counts (``quarantine_counts``, ``banned``) stay
    plain containers, touched only by rejections.
    """

    def __init__(
        self,
        policy: GatePolicy | None = None,
        is_alarmed=None,
        firmware_vocabulary: frozenset | None = None,
    ):
        self.policy = policy or GatePolicy()
        self._is_alarmed = is_alarmed or (lambda serial: False)
        self._firmware_vocabulary = firmware_vocabulary
        self._slots: dict[int, int] = {}
        self._last_day = np.full(0, NO_DAY, dtype=np.int64)
        self._running_max = np.full((0, len(_MONOTONE)), np.nan)
        self.quarantine_counts: dict[int, int] = {}
        self.banned: set[int] = set()

    def last_day(self, serial: int) -> int | None:
        slot = self._slots.get(int(serial))
        return None if slot is None else int(self._last_day[slot])

    def _count(self, serial: int) -> None:
        """One more quarantined reading of ``serial``; ban at the limit."""
        count = self.quarantine_counts.get(serial, 0) + 1
        self.quarantine_counts[serial] = count
        limit = self.policy.quarantine_drive_after
        if limit is not None and count >= limit and serial not in self.banned:
            self.banned.add(serial)
            _LOG.warning("drive banned", serial=serial, quarantined=count)

    def note_quarantine(self, serial: int, rule: str) -> None:
        """Record a post-gate rejection (e.g. feature-assembly failure)."""
        inc_counter("serve_readings_quarantined_total", rule=rule)
        self._count(int(serial))

    def admit(
        self, batch: ReadingBatch, rejections: dict | None = None
    ) -> ReadingBatch | None:
        """Validate ``batch``; return its admitted readings, or ``None``.

        The outcome is that of checking the readings one at a time in
        batch order: the readings of one drive are applied in rounds
        (each drive's ``k``-th reading in round ``k``), so a ban reached
        mid-batch, a stale day and a counter reset all see the readings
        before them. ``rejections``, when given, receives ``{batch
        position: rule}`` for every quarantined or skipped (``"alarmed"``)
        reading. Counters are incremented once per rule per batch.
        """
        n = len(batch)
        position = batch.position
        reported = [m for m, c in enumerate(_MONOTONE) if c in position]
        maxima = np.array(reported, dtype=np.intp)
        columns = np.array([position[_MONOTONE[m]] for m in reported], dtype=np.intp)
        values, present, value_code, repairs = self._screen(batch)
        unknown = self._unknown_firmware(batch.firmware)
        serials = batch.serials.tolist()
        alarmed = np.array(
            [not bad and self._is_alarmed(serial)
             for serial, bad in zip(serials, batch.malformed.tolist())],
            dtype=bool,
        ).reshape(n)
        drop_resets = self.policy.counter_resets == "drop"

        code = np.zeros(n, dtype=np.intp)
        code[batch.anonymous] = _MALFORMED
        repairs[:, batch.anonymous] = 0
        reset_repairs = 0
        attributed = np.flatnonzero(~batch.anonymous)
        for idx in drive_rounds(batch.serials[attributed], attributed):
            idx = attributed[idx]
            drives = [serials[i] for i in idx]
            slots = np.array([self._slots.get(s, -1) for s in drives], dtype=np.intp)
            known = slots >= 0
            last = np.full(idx.size, NO_DAY, dtype=np.int64)
            last[known] = self._last_day[slots[known]]
            ceiling = np.full((idx.size, maxima.size), np.nan)
            ceiling[known] = self._running_max[slots[known, None], maxima]
            current = values[idx[:, None], columns]
            reset = current < ceiling  # NaN (absent or unseen) never resets
            checks = (
                (batch.malformed[idx], _MALFORMED),
                (np.array([s in self.banned for s in drives], dtype=bool), _BANNED),
                (alarmed[idx], _ALARMED),
                (batch.days[idx] <= last, _STALE),
                (unknown[idx], _FIRMWARE),
                (value_code[idx] > 0, value_code[idx]),
                (reset.any(axis=1) & drop_resets, _RESET),
            )
            outcome = np.zeros(idx.size, dtype=np.intp)
            for failed, rule in reversed(checks):  # the first failed check wins
                if failed.any():
                    outcome = np.where(failed, rule, outcome)
            code[idx] = outcome
            # value repairs count once a reading reaches the value checks
            repairs[:, idx[(outcome > 0) & (outcome < _NON_NUMERIC)]] = 0
            ok = outcome == 0
            if ok.any():
                rows = idx[ok]
                repaired = np.where(reset[ok], ceiling[ok], current[ok])
                reset_repairs += int(reset[ok].sum())
                values[rows[:, None], columns] = repaired
                new = ok & ~known
                if new.any():
                    slots[new] = self._claim([drives[i] for i in np.flatnonzero(new)])
                commit = slots[ok, None]
                self._last_day[commit[:, 0]] = batch.days[rows]
                self._running_max[commit, maxima] = np.where(
                    present[rows[:, None], columns], repaired,
                    self._running_max[commit, maxima],
                )
            for i in idx[(outcome > 0) & (outcome != _ALARMED)]:
                self._count(serials[i])

        repairs_by_rule = {
            "nonfinite": int(repairs[0].sum()),
            "negative_events": int(repairs[1].sum()),
            "counter_reset": reset_repairs,
        }
        rules = {int(i): _RULES[code[i]] for i in np.flatnonzero(code)}
        _publish(rules, repairs_by_rule, admitted=n - len(rules))
        if rejections is not None:
            rejections.update(rules)
        if len(rules) == n:
            return None
        if not rules:
            return replace(batch, values=values, present=present)
        admitted = np.flatnonzero(code == 0)
        return batch.take(admitted, values[admitted], present[admitted])

    def _screen(self, batch: ReadingBatch):
        """The state-free value checks of every reading.

        Returns the repaired ``(values, present)`` (a non-finite value
        stripped, a negative event count clamped to zero), each
        reading's first failing value rule in its own key order (0 when
        none), and the ``(nonfinite, negative_events)`` repairs each
        reading counts before that failure.
        """
        raw, present = batch.values, batch.present
        non_numeric = batch.non_numeric
        if non_numeric is None:
            non_numeric = np.zeros(raw.shape, dtype=bool)
        finite = np.isfinite(raw)
        nonfinite = present & ~finite & ~non_numeric
        events = np.array([key in _EVENT_COLUMNS for key in batch.keys], dtype=bool)
        negative = finite & events & (raw < 0)
        failing = non_numeric.copy()
        if self.policy.nonfinite == "drop":
            failing |= nonfinite
            nonfinite_repairs = np.zeros_like(nonfinite)
        else:
            nonfinite_repairs = nonfinite
        if self.policy.negative_events == "drop":
            failing |= negative
            negative_repairs = np.zeros_like(negative)
        else:
            negative_repairs = negative
        repairs = np.stack(
            [nonfinite_repairs.sum(axis=1), negative_repairs.sum(axis=1)]
        )
        value_code = np.zeros(len(batch), dtype=np.intp)
        failed = np.flatnonzero(failing.any(axis=1))
        position = batch.position if failed.size else {}
        for i in failed:
            repairs[:, i] = 0
            for key in batch.readings[i]:
                j = position.get(key)
                if j is None:
                    continue  # firmware
                if failing[i, j]:
                    value_code[i] = (
                        _NON_NUMERIC if non_numeric[i, j]
                        else _NONFINITE if nonfinite[i, j]
                        else _NEGATIVE
                    )
                    break
                repairs[:, i] += (nonfinite_repairs[i, j], negative_repairs[i, j])
        values = raw.copy()
        values[negative] = 0.0
        values[nonfinite] = np.nan
        return values, present & ~nonfinite, value_code, repairs

    def _unknown_firmware(self, labels: list) -> np.ndarray:
        return np.array(
            [not self._known_firmware(label) for label in labels], dtype=bool
        )

    def _known_firmware(self, label) -> bool:
        if label is None or self._firmware_vocabulary is None:
            return True
        try:
            return label in self._firmware_vocabulary
        except TypeError:  # unhashable label
            return False

    def _claim(self, serials: list) -> np.ndarray:
        """Allocate a slot to each of ``serials`` (new drives)."""
        first = len(self._slots)
        self._slots.update(zip(serials, range(first, first + len(serials))))
        capacity = len(self._last_day)
        if len(self._slots) > capacity:
            grown = max(64, 2 * capacity, len(self._slots))
            last_day = np.full(grown, NO_DAY, dtype=np.int64)
            last_day[:capacity] = self._last_day
            running_max = np.full((grown, len(_MONOTONE)), np.nan)
            running_max[:capacity] = self._running_max
            self._last_day, self._running_max = last_day, running_max
        return np.arange(first, len(self._slots), dtype=np.intp)

    # -- checkpointing --------------------------------------------------
    def snapshot(self) -> dict:
        last_day = self._last_day.tolist()
        running_max = self._running_max.tolist()
        return {
            "last_day": {
                str(serial): last_day[slot]
                for serial, slot in self._slots.items()
                if last_day[slot] != NO_DAY
            },
            "running_max": {
                str(serial): {
                    column: value
                    for column, value in zip(_MONOTONE, running_max[slot])
                    if value == value  # not NaN: a column this drive reported
                }
                for serial, slot in self._slots.items()
            },
            "quarantine_counts": {
                str(k): v for k, v in self.quarantine_counts.items()
            },
            "banned": sorted(self.banned),
        }

    def restore(self, snapshot: dict) -> None:
        last_day = {int(k): int(v) for k, v in snapshot["last_day"].items()}
        running_max = {int(k): v for k, v in snapshot["running_max"].items()}
        self._slots = {}
        self._last_day = np.full(0, NO_DAY, dtype=np.int64)
        self._running_max = np.full((0, len(_MONOTONE)), np.nan)
        drives = list(dict.fromkeys([*last_day, *running_max]))
        column = {name: m for m, name in enumerate(_MONOTONE)}
        for serial, slot in zip(drives, self._claim(drives).tolist()):
            self._last_day[slot] = last_day.get(serial, NO_DAY)
            for name, value in running_max.get(serial, {}).items():
                if name in column:  # the gate keeps maxima of these only
                    self._running_max[slot, column[name]] = float(value)
        self.quarantine_counts = {
            int(k): int(v) for k, v in snapshot["quarantine_counts"].items()
        }
        self.banned = set(int(s) for s in snapshot["banned"])


def _publish(rules: dict, repaired: dict, admitted: int) -> None:
    """Increment each ``serve_readings_*`` counter once for a batch."""
    counts = collections.Counter(rules.values())
    skipped = counts.pop("alarmed", 0)
    for rule, amount in counts.items():
        inc_counter("serve_readings_quarantined_total", amount, rule=rule)
    for rule, amount in repaired.items():
        if amount:
            inc_counter("serve_readings_repaired_total", amount, rule=rule)
    if skipped:
        inc_counter("serve_readings_skipped_alarmed_total", skipped)
    if admitted:
        inc_counter("serve_readings_ingested_total", admitted)


class BoundedReadingQueue:
    """FIFO with explicit backpressure: full means shed, never block.

    The victim is the oldest entry whose drive has not alarmed
    (``is_alarmed`` is the same ledger test the gate uses); if every
    queued drive has alarmed the plain oldest goes. Depth is exported
    as the ``serve_queue_depth`` gauge on every mutation.
    """

    def __init__(self, capacity: int = 4096, is_alarmed=None):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self._is_alarmed = is_alarmed or (lambda serial: False)
        self._items: list[Reading] = []

    def __len__(self) -> int:
        return len(self._items)

    def offer(self, serial: int, day: int, reading: dict) -> None:
        if len(self._items) >= self.capacity:
            victim = 0
            for i, (queued_serial, _day, _reading) in enumerate(self._items):
                if not self._is_alarmed(queued_serial):
                    victim = i
                    break
            shed = self._items.pop(victim)
            inc_counter("serve_readings_shed_total")
            _LOG.warning("reading shed", serial=shed[0], day=shed[1])
        self._items.append((serial, day, reading))
        set_gauge("serve_queue_depth", len(self._items))

    def drain(self) -> list[Reading]:
        items, self._items = self._items, []
        set_gauge("serve_queue_depth", 0)
        return items
