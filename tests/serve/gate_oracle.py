"""Reference oracle for the batch ingest gate.

:class:`OracleGate` is the gate as it was when it checked one reading at
a time against dict state: ``admit(serial, day, reading)`` returns the
clean reading dict or ``None``. The batch ``ReadingGate.admit`` must give
the same outcome for every reading of a batch as this gate gives when fed
the batch's readings in order. The one change from that per-reading
body is the day check: a day that is not a whole number is quarantined
as ``malformed`` instead of being truncated.
"""

from __future__ import annotations

import math

from repro.obs import inc_counter
from repro.serve.ingest import GatePolicy
from repro.telemetry.dataset import B_COLUMNS, W_COLUMNS
from repro.telemetry.validation import _MONOTONE_COLUMNS

_EVENT_COLUMNS = frozenset((*W_COLUMNS, *B_COLUMNS))
_MONOTONE = tuple(_MONOTONE_COLUMNS)


def batch_readings(batch) -> list[dict]:
    """A parsed batch back as reading dicts: present values plus the
    firmware label (``None`` when absent)."""
    return [
        {
            **{
                key: value
                for key, value, present in zip(batch.keys, row, mask)
                if present
            },
            "firmware": batch.firmware[i],
        }
        for i, (row, mask) in enumerate(
            zip(batch.values.tolist(), batch.present.tolist())
        )
    ]


class OracleGate:
    def __init__(self, policy=None, is_alarmed=None, firmware_vocabulary=None):
        self.policy = policy or GatePolicy()
        self._is_alarmed = is_alarmed or (lambda serial: False)
        self._firmware_vocabulary = firmware_vocabulary
        self._last_day: dict[int, int] = {}
        self._running_max: dict[int, dict[str, float]] = {}
        self.quarantine_counts: dict[int, int] = {}
        self.banned: set[int] = set()

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

    def admit(self, serial, day, reading) -> dict | None:
        try:
            serial = int(serial)
            whole = int(day)
            if whole != day and float(day) != whole:
                raise ValueError(f"day {day!r} is not a whole number")
            day = whole
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
                continue
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

        self._running_max.setdefault(serial, {}).update(raised)
        self._last_day[serial] = day
        inc_counter("serve_readings_ingested_total")
        return clean

    def _known_firmware(self, label) -> bool:
        if label is None or self._firmware_vocabulary is None:
            return True
        try:
            return label in self._firmware_vocabulary
        except TypeError:
            return False

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
