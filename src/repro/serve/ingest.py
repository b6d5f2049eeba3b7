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
import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from repro.core.client import NO_DAY, DrivePlan, ReadingBatch
from repro.obs import get_logger, get_registry, inc_counter
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
    _PASS,  # no rule failed: above every rule, so the least code is the first failure
) = range(1, len(_RULES) + 1)


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
        # one row past the slots: see _claim
        self._last_day = np.full(1, NO_DAY, dtype=np.int64)
        self._running_max = np.full((1, len(_MONOTONE)), np.nan)
        self.quarantine_counts: dict[int, int] = {}
        self.banned: set[int] = set()

    def last_day(self, serial: int) -> int | None:
        slot = self._slots.get(int(serial))
        return None if slot is None else int(self._last_day[slot])

    def _count(self, serial: int) -> bool:
        """One more quarantined reading of ``serial``; ban at the limit.
        True when this reading bans the drive."""
        count = self.quarantine_counts.get(serial, 0) + 1
        self.quarantine_counts[serial] = count
        limit = self.policy.quarantine_drive_after
        if limit is not None and count >= limit and serial not in self.banned:
            self.banned.add(serial)
            _LOG.warning("drive banned", serial=serial, quarantined=count)
            return True
        return False

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
        before them. The checks that need no drive state run once over
        the batch, and the per-drive tests (alarmed, banned, tracking
        slot) once per distinct drive. The admitted batch carries the
        round plan on to the scorer. ``rejections``, when given, receives
        ``{batch position: rule}`` for every quarantined or skipped
        (``"alarmed"``) reading. Counters are incremented once per rule
        per batch.
        """
        n = len(batch)
        plan = DrivePlan.build(batch.serials, ~batch.anonymous)
        events, maxima, columns = _key_plan(batch.keys)
        values, present, code, repairs = self._screen(batch, events)
        drives = plan.drives.tolist()
        # per distinct drive, plus a last entry for the unplanned (-1)
        alarmed = np.fromiter(
            itertools.chain(map(self._is_alarmed, drives), (False,)),
            bool, len(drives) + 1,
        )
        banned = np.fromiter(map(self.banned.__contains__, drives), bool, len(drives))
        # per distinct label, plus a last entry for no label (-1)
        known = np.array([*map(self._known_firmware, batch.labels), True])
        # the checks in reverse order, so the first failing one wins
        code[~known[batch.label_index]] = _FIRMWARE
        code[alarmed[plan.drive_of]] = _ALARMED
        code[batch.malformed] = _MALFORMED
        drive_slots = np.fromiter(
            map(self._slots.get, drives, itertools.repeat(-1)), np.intp, len(drives)
        )
        # The counters as one block over every counter the gate tracks;
        # one the batch does not carry is absent (NaN: never a reset).
        current = np.full((n, len(_MONOTONE)), np.nan)
        current[:, maxima] = values.take(columns, axis=1)
        reported = np.zeros((n, len(_MONOTONE)), dtype=bool)
        reported[:, maxima] = present.take(columns, axis=1)
        drop_resets = self.policy.counter_resets == "drop"
        reset_repairs = 0
        for idx in plan.rounds:
            drive = plan.drive_of[idx]
            slots = drive_slots[drive]
            outcome = code[idx]
            stale = batch.days[idx] <= self._last_day[slots]
            np.minimum(outcome, np.where(stale, _STALE, _PASS), out=outcome)
            if self.banned:
                np.minimum(
                    outcome, np.where(banned[drive], _BANNED, _PASS), out=outcome
                )
            ceiling = self._running_max.take(slots, axis=0)
            reset = current.take(idx, axis=0) < ceiling
            if drop_resets:
                np.minimum(
                    outcome, np.where(reset.any(axis=1), _RESET, _PASS), out=outcome
                )
            code[idx] = outcome
            ok = outcome == _PASS
            n_ok = np.count_nonzero(ok)
            if n_ok:
                rows, slots = idx[ok], slots[ok]
                ceiling = ceiling.compress(ok, axis=0)
                reset = reset.compress(ok, axis=0)
                repaired = np.where(reset, ceiling, current.take(rows, axis=0))
                reset_repairs += np.count_nonzero(reset)
                current[rows] = repaired
                new = slots < 0
                if new.any():
                    fresh = drive[ok][new]
                    slots[new] = drive_slots[fresh] = self._claim(
                        plan.drives[fresh].tolist()
                    )
                self._last_day[slots] = batch.days[rows]
                self._running_max[slots] = np.where(
                    reported.take(rows, axis=0), repaired, ceiling
                )
            if n_ok < idx.size:
                counted = (outcome < _PASS) & (outcome != _ALARMED)
                for d in drive[counted].tolist():
                    banned[d] |= self._count(drives[d])
        values[:, columns] = current.take(maxima, axis=1)

        rejected = code < _PASS
        # value repairs count once a reading reaches the value checks
        nonfinite, negative = repairs[:, code >= _NON_NUMERIC].sum(axis=1).tolist()
        rules = {
            i: _RULES[c]
            for i, c in zip(rejected.nonzero()[0].tolist(), code[rejected].tolist())
        }
        _publish(
            rules,
            {"nonfinite": nonfinite, "negative_events": negative,
             "counter_reset": reset_repairs},
            admitted=n - len(rules),
        )
        if rejections is not None:
            rejections.update(rules)
        if len(rules) == n:
            return None
        batch = replace(batch, values=values, present=present, plan=plan)
        return batch.take((~rejected).nonzero()[0]) if rules else batch

    def _screen(self, batch: ReadingBatch, events: np.ndarray):
        """The state-free value checks of every reading.

        Returns the repaired ``(values, present)`` (a non-finite value
        stripped, a negative event count clamped to zero), each
        reading's first failing value rule in its own key order
        (``_PASS`` when none), and the ``(nonfinite, negative_events)``
        repairs each reading counts before that failure.
        """
        raw, present, non_numeric = batch.values, batch.present, batch.non_numeric
        finite = np.isfinite(raw)
        nonfinite = present & ~finite
        if non_numeric is not None:
            nonfinite &= ~non_numeric
        negative = (raw < 0) & finite
        negative &= events
        repairs = np.zeros((2, len(batch)), dtype=np.int64)
        dropped = [] if non_numeric is None else [non_numeric]
        policies = (self.policy.nonfinite, self.policy.negative_events)
        for k, (cells, policy) in enumerate(zip((nonfinite, negative), policies)):
            if policy == "drop":
                dropped.append(cells)
            elif cells.any():
                repairs[k] = np.count_nonzero(cells, axis=1)
        code = np.full(len(batch), _PASS, dtype=np.intp)
        failing = functools.reduce(np.logical_or, dropped) if dropped else None
        failed = [] if failing is None else failing.any(axis=1).nonzero()[0].tolist()
        position = batch.position if failed else {}
        for i in failed:
            repairs[:, i] = 0
            for key in batch.readings[i]:
                j = position.get(key)
                if j is None:
                    continue  # firmware
                if failing[i, j]:
                    code[i] = (
                        _NON_NUMERIC if non_numeric is not None and non_numeric[i, j]
                        else _NONFINITE if nonfinite[i, j]
                        else _NEGATIVE
                    )
                    break
                if self.policy.nonfinite == "repair":
                    repairs[0, i] += nonfinite[i, j]
                if self.policy.negative_events == "repair":
                    repairs[1, i] += negative[i, j]
        values = raw.copy()
        values[negative] = 0.0
        values[nonfinite] = np.nan
        return values, present ^ nonfinite, code, repairs  # nonfinite is within present

    def _known_firmware(self, label) -> bool:
        if label is None or self._firmware_vocabulary is None:
            return True
        try:
            return label in self._firmware_vocabulary
        except TypeError:  # unhashable label
            return False

    def _claim(self, serials: list) -> np.ndarray:
        """Allocate a slot to each of ``serials`` (new drives).

        The state arrays keep one row past the slots, never claimed: an
        untracked drive (slot -1) reads it as a day before every day and
        no counter maxima.
        """
        first = len(self._slots)
        self._slots.update(zip(serials, range(first, first + len(serials))))
        capacity = len(self._last_day) - 1
        if len(self._slots) > capacity:
            grown = max(64, 2 * capacity, len(self._slots))
            last_day = np.full(grown + 1, NO_DAY, dtype=np.int64)
            last_day[:capacity] = self._last_day[:capacity]
            running_max = np.full((grown + 1, len(_MONOTONE)), np.nan)
            running_max[:capacity] = self._running_max[:capacity]
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
        self._last_day = np.full(1, NO_DAY, dtype=np.int64)
        self._running_max = np.full((1, len(_MONOTONE)), np.nan)
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


@functools.lru_cache(maxsize=64)
def _key_plan(keys: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the gate needs of a column layout: the event-count columns
    (a mask over ``keys``), and for the monotone counters ``keys``
    carries, their index among the gate's maxima and their column."""
    position = {key: j for j, key in enumerate(keys)}
    reported = [m for m, name in enumerate(_MONOTONE) if name in position]
    plan = (
        np.array([key in _EVENT_COLUMNS for key in keys], dtype=bool),
        np.array(reported, dtype=np.intp),
        np.array([position[_MONOTONE[m]] for m in reported], dtype=np.intp),
    )
    for array in plan:
        array.flags.writeable = False  # shared by every batch of this layout
    return plan


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
    queued drive has alarmed the plain oldest goes. :meth:`offer_many`
    sheds exactly as that many :meth:`offer` calls would. An offer only
    appends: the ``serve_queue_depth`` gauge reads ``len(queue)`` when
    the registry is exported (dumped or scraped), so every scrape sees
    the true depth.
    """

    def __init__(self, capacity: int = 4096, is_alarmed=None):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self._is_alarmed = is_alarmed or (lambda serial: False)
        self._items: list[Reading] = []
        # the newest queue is the one the gauge reads
        get_registry().gauge("serve_queue_depth").set_function(self.__len__)

    def __len__(self) -> int:
        return len(self._items)

    def offer(self, serial: int, day: int, reading: dict) -> None:
        self._items.append((serial, day, reading))
        if len(self._items) > self.capacity:
            self._shed()

    def offer_many(self, serials, days, readings) -> None:
        """Offer parallel sequences of readings, in order."""
        self._items.extend(zip(serials, days, readings))
        if len(self._items) > self.capacity:
            self._shed()

    def _shed(self) -> None:
        """Shed the entries past capacity as one offer at a time would.

        The ``j``-th shed happens as entry ``capacity + j`` arrives, so
        its victim is the oldest non-alarmed entry before that one, or,
        when every entry left before it has alarmed, the oldest of them.
        """
        items = self._items
        victims: list[int] = []
        alarmed: collections.deque[int] = collections.deque()
        scan = 0
        for arrival in range(self.capacity, len(items)):
            while scan < arrival and self._is_alarmed(items[scan][0]):
                alarmed.append(scan)
                scan += 1
            if scan < arrival:
                victims.append(scan)
                scan += 1
            else:
                victims.append(alarmed.popleft())
        shed = set(victims)
        self._items = [item for i, item in enumerate(items) if i not in shed]
        inc_counter("serve_readings_shed_total", len(victims))
        for i in victims:
            _LOG.warning("reading shed", serial=items[i][0], day=items[i][1])

    def drain(self) -> list[Reading]:
        items, self._items = self._items, []
        return items
