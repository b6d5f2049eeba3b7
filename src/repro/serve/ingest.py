"""Supervised ingestion: per-reading quarantine gate + bounded queue.

The gate is the streaming counterpart of
:func:`repro.robustness.quarantine.sanitize_dataset` — the same
violation classes (non-finite values, negative daily event counts,
decreasing cumulative counters) with the same repair-or-drop policy
knobs, applied one reading at a time with per-drive audit counters,
plus firmware labels the scorer cannot encode. Every check runs before
the gate commits a drive's day or counter maxima, so a rejected
reading can be corrected and retried. A
drive that keeps sending garbage is banned outright after
``quarantine_drive_after`` rejected readings.

Behind the gate sits :class:`BoundedReadingQueue`: when producers
outrun the scoring loop the queue sheds the *oldest reading of a
not-yet-alarmed drive* first — an alarmed drive's readings are already
moot (alarms are once per drive lifetime), and for healthy drives a
fresher reading always supersedes a staler one. Every shed is counted;
nothing is dropped silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.obs import get_logger, inc_counter, set_gauge
from repro.robustness.faults import Reading
from repro.telemetry.dataset import B_COLUMNS, W_COLUMNS
from repro.telemetry.validation import _MONOTONE_COLUMNS

__all__ = ["BoundedReadingQueue", "GatePolicy", "ReadingGate"]

_LOG = get_logger("repro.serve.ingest")
_EVENT_COLUMNS = frozenset((*W_COLUMNS, *B_COLUMNS))
_MONOTONE = tuple(_MONOTONE_COLUMNS)


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
    """Validate, repair or quarantine one reading at a time.

    ``admit`` returns the (possibly repaired) reading dict, or ``None``
    when the reading was quarantined or skipped. ``is_alarmed`` is the
    daemon's alarm-ledger membership test: readings for already-alarmed
    drives are skipped (counted, not quarantined — they are expected).
    ``firmware_vocabulary`` is the set of firmware labels the scorer can
    encode (``None`` accepts any): a reading carrying another label is
    quarantined as ``assembly_error`` here, before the gate commits the
    drive's day or counter maxima, so the corrected reading can retry.
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
        self._last_day: dict[int, int] = {}
        self._running_max: dict[int, dict[str, float]] = {}
        self.quarantine_counts: dict[int, int] = {}
        self.banned: set[int] = set()

    def last_day(self, serial: int) -> int | None:
        return self._last_day.get(int(serial))

    def _quarantine(self, serial, rule: str) -> None:
        inc_counter("serve_readings_quarantined_total", rule=rule)
        try:
            serial = int(serial)
        except (TypeError, ValueError):
            return  # unattributable reading: counted, no drive to ban
        count = self.quarantine_counts.get(serial, 0) + 1
        self.quarantine_counts[serial] = count
        limit = self.policy.quarantine_drive_after
        if limit is not None and count >= limit and serial not in self.banned:
            self.banned.add(serial)
            _LOG.warning("drive banned", serial=serial, quarantined=count)

    def note_quarantine(self, serial, rule: str) -> None:
        """Record a post-gate rejection (e.g. feature-assembly failure)."""
        self._quarantine(serial, rule)

    def admit(self, serial, day, reading) -> dict | None:
        try:
            serial = int(serial)
            day = int(day)
            fields = dict(reading)
        except (TypeError, ValueError):
            self._quarantine(serial, "malformed")
            return None

        if serial in self.banned:
            self._quarantine(serial, "banned_drive")
            return None
        if self._is_alarmed(serial):
            inc_counter("serve_readings_skipped_alarmed_total")
            return None
        last = self._last_day.get(serial)
        if last is not None and day <= last:
            # duplicates and out-of-order delivery both land here
            self._quarantine(serial, "stale_day")
            return None

        if not self._known_firmware(fields.get("firmware")):
            self._quarantine(serial, "assembly_error")
            return None

        clean: dict = {}
        for key, value in fields.items():
            if key == "firmware":
                clean[key] = value
                continue
            try:
                value = float(value)
            except (TypeError, ValueError):
                self._quarantine(serial, "non_numeric")
                return None
            if not math.isfinite(value):
                if self.policy.nonfinite == "drop":
                    self._quarantine(serial, "nonfinite")
                    return None
                inc_counter("serve_readings_repaired_total", rule="nonfinite")
                continue  # stripped: impute-mode scoring fills it in
            if key in _EVENT_COLUMNS and value < 0:
                if self.policy.negative_events == "drop":
                    self._quarantine(serial, "negative_events")
                    return None
                inc_counter(
                    "serve_readings_repaired_total", rule="negative_events"
                )
                value = 0.0
            clean[key] = value

        maxima = self._running_max.get(serial, {})
        raised: dict[str, float] = {}
        for column in _MONOTONE:
            value = clean.get(column)
            if value is None:
                continue
            ceiling = maxima.get(column)
            if ceiling is not None and value < ceiling:
                if self.policy.counter_resets == "drop":
                    self._quarantine(serial, "counter_reset")
                    return None
                inc_counter(
                    "serve_readings_repaired_total", rule="counter_reset"
                )
                clean[column] = ceiling
            else:
                raised[column] = value

        # ---- validation passed: commit ----
        self._running_max.setdefault(serial, {}).update(raised)
        self._last_day[serial] = day
        inc_counter("serve_readings_ingested_total")
        return clean

    def _known_firmware(self, label) -> bool:
        if label is None or self._firmware_vocabulary is None:
            return True
        try:
            return label in self._firmware_vocabulary
        except TypeError:  # unhashable label
            return False

    # -- checkpointing --------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "last_day": {str(k): v for k, v in self._last_day.items()},
            "running_max": {
                str(k): dict(v) for k, v in self._running_max.items()
            },
            "quarantine_counts": {
                str(k): v for k, v in self.quarantine_counts.items()
            },
            "banned": sorted(self.banned),
        }

    def restore(self, snapshot: dict) -> None:
        self._last_day = {int(k): int(v) for k, v in snapshot["last_day"].items()}
        self._running_max = {
            int(k): {c: float(x) for c, x in v.items()}
            for k, v in snapshot["running_max"].items()
        }
        self.quarantine_counts = {
            int(k): int(v) for k, v in snapshot["quarantine_counts"].items()
        }
        self.banned = set(int(s) for s in snapshot["banned"])


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
