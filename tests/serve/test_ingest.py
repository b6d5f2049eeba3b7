"""Ingest gate rules, drive banning and bounded-queue shedding."""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import parse_readings
from repro.obs import get_registry
from repro.serve import ingest
from repro.serve.ingest import BoundedReadingQueue, GatePolicy, ReadingGate

from .gate_oracle import batch_readings


def _counter(name: str, **labels) -> float:
    for family in get_registry().dump():
        if family["name"] == name:
            for sample in family["samples"]:
                if all(
                    sample["labels"].get(k) == str(v) for k, v in labels.items()
                ):
                    return sample["value"]
    return 0.0


def _admit(gate, serial, day, reading) -> dict | None:
    """Admit a batch of one; return its clean reading dict or ``None``."""
    admitted = gate.admit(parse_readings([serial], [day], [reading]))
    if admitted is None:
        return None
    (clean,) = batch_readings(admitted)
    if clean["firmware"] is None:
        del clean["firmware"]
    return clean


GOOD = {"s2_temperature": 40.0, "w161_fs_io_error": 1.0, "firmware": "FW1"}


class TestGateRules:
    def test_clean_reading_passes_unchanged(self):
        gate = ReadingGate()
        assert _admit(gate, 1, 10, GOOD) == GOOD
        assert _counter("serve_readings_ingested_total") == 1.0

    def test_stale_day_rejected(self):
        gate = ReadingGate()
        assert _admit(gate, 1, 10, GOOD) is not None
        assert _admit(gate, 1, 10, GOOD) is None  # duplicate
        assert _admit(gate, 1, 9, GOOD) is None  # out of order
        assert _counter("serve_readings_quarantined_total", rule="stale_day") == 2.0
        assert _admit(gate, 1, 11, GOOD) is not None

    def test_days_independent_across_drives(self):
        gate = ReadingGate()
        assert _admit(gate, 1, 10, GOOD) is not None
        assert _admit(gate, 2, 5, GOOD) is not None

    def test_malformed_rejected(self):
        gate = ReadingGate()
        assert _admit(gate, "not-a-serial", 1, GOOD) is None
        assert _admit(gate, 1, 1, "not-a-dict") is None
        assert _admit(gate, 1, 10.7, GOOD) is None  # used to truncate to day 10
        assert _counter("serve_readings_quarantined_total", rule="malformed") == 3.0

    def test_non_numeric_value_rejected(self):
        gate = ReadingGate()
        assert _admit(gate, 1, 1, {**GOOD, "s2_temperature": "hot"}) is None
        assert (
            _counter("serve_readings_quarantined_total", rule="non_numeric") == 1.0
        )

    def test_nonfinite_repair_strips_the_entry(self):
        gate = ReadingGate(GatePolicy(nonfinite="repair"))
        clean = _admit(gate, 1, 1, {**GOOD, "s2_temperature": math.nan})
        assert clean is not None
        assert "s2_temperature" not in clean
        assert _counter("serve_readings_repaired_total", rule="nonfinite") == 1.0

    def test_nonfinite_drop_rejects_the_reading(self):
        gate = ReadingGate(GatePolicy(nonfinite="drop"))
        assert _admit(gate, 1, 1, {**GOOD, "s2_temperature": math.inf}) is None
        assert (
            _counter("serve_readings_quarantined_total", rule="nonfinite") == 1.0
        )

    def test_negative_events_clamped(self):
        gate = ReadingGate(GatePolicy(negative_events="repair"))
        clean = _admit(gate, 1, 1, {**GOOD, "w161_fs_io_error": -3.0})
        assert clean["w161_fs_io_error"] == 0.0
        assert (
            _counter("serve_readings_repaired_total", rule="negative_events")
            == 1.0
        )

    def test_negative_events_drop(self):
        gate = ReadingGate(GatePolicy(negative_events="drop"))
        assert _admit(gate, 1, 1, {**GOOD, "w161_fs_io_error": -3.0}) is None

    def test_counter_reset_clamped_to_running_max(self):
        gate = ReadingGate(GatePolicy(counter_resets="repair"))
        _admit(gate, 1, 1, {"s12_power_on_hours": 100.0})
        clean = _admit(gate, 1, 2, {"s12_power_on_hours": 10.0})
        assert clean["s12_power_on_hours"] == 100.0
        assert (
            _counter("serve_readings_repaired_total", rule="counter_reset")
            == 1.0
        )

    def test_counter_reset_drop(self):
        gate = ReadingGate(GatePolicy(counter_resets="drop"))
        _admit(gate, 1, 1, {"s12_power_on_hours": 100.0})
        assert _admit(gate, 1, 2, {"s12_power_on_hours": 10.0}) is None

    def test_dropped_reset_commits_no_other_maximum(self):
        """A reading dropped for one counter reset must not raise the
        running maximum of the counters checked before it."""
        gate = ReadingGate(GatePolicy(counter_resets="drop"))
        _admit(gate, 1, 1, {"s6_data_units_read": 10.0, "s7_data_units_written": 10.0})
        assert _admit(
            gate, 1, 2, {"s6_data_units_read": 20.0, "s7_data_units_written": 5.0}
        ) is None
        clean = _admit(
            gate, 1, 3, {"s6_data_units_read": 15.0, "s7_data_units_written": 12.0}
        )
        assert clean == {"s6_data_units_read": 15.0, "s7_data_units_written": 12.0}

    def test_running_max_is_per_drive(self):
        gate = ReadingGate()
        _admit(gate, 1, 1, {"s12_power_on_hours": 100.0})
        clean = _admit(gate, 2, 1, {"s12_power_on_hours": 10.0})
        assert clean["s12_power_on_hours"] == 10.0

    def test_alarmed_drive_skipped_not_quarantined(self):
        gate = ReadingGate(is_alarmed=lambda serial: serial == 7)
        assert _admit(gate, 7, 1, GOOD) is None
        assert _counter("serve_readings_skipped_alarmed_total") == 1.0
        assert gate.quarantine_counts == {}

    def test_drive_banned_after_repeated_quarantines(self):
        gate = ReadingGate(GatePolicy(quarantine_drive_after=3))
        _admit(gate, 1, 5, GOOD)
        for _ in range(3):
            _admit(gate, 1, 5, GOOD)  # stale duplicates
        assert 1 in gate.banned
        # even a valid reading is now rejected
        assert _admit(gate, 1, 99, GOOD) is None
        assert (
            _counter("serve_readings_quarantined_total", rule="banned_drive")
            == 1.0
        )

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            GatePolicy(nonfinite="maybe")

    def test_snapshot_roundtrip(self):
        gate = ReadingGate(GatePolicy(quarantine_drive_after=2))
        _admit(gate, 1, 5, {"s12_power_on_hours": 100.0, **GOOD})
        _admit(gate, 1, 5, GOOD)
        _admit(gate, 1, 5, GOOD)  # banned now
        restored = ReadingGate(GatePolicy(quarantine_drive_after=2))
        restored.restore(gate.snapshot())
        assert restored.banned == gate.banned
        assert restored.last_day(1) == 5
        # the restored running max still clamps resets
        clean = _admit(restored, 2, 1, {"s12_power_on_hours": 10.0})
        assert clean is not None
        # and the restored gate still rejects the banned drive
        assert _admit(restored, 1, 99, GOOD) is None


class TestUnseenFirmware:
    """Regression: an unseen firmware label used to pass the gate, which
    committed the drive's day and counter maxima before the scorer
    quarantined the reading as ``assembly_error``."""

    @staticmethod
    def _assert_validated_before_commit(admit, firmware):
        bad = {"s12_power_on_hours": 500.0, "firmware": "NOT_A_FW"}
        fixed = {"s12_power_on_hours": 100.0, "firmware": firmware}
        following = {"s12_power_on_hours": 101.0, "firmware": firmware}
        assert admit(1, 5, bad) is None
        assert (
            _counter("serve_readings_quarantined_total", rule="assembly_error")
            == 1.0
        )
        # the corrected retry of the same day is not a stale day ...
        assert admit(1, 5, fixed) == fixed
        # ... and the rejected 500 never became the counter's maximum
        assert admit(1, 6, following) == following

    def test_gate_checks_the_vocabulary_before_committing(self):
        gate = ReadingGate(firmware_vocabulary=frozenset({"FW1"}))
        self._assert_validated_before_commit(
            lambda *reading: _admit(gate, *reading), "FW1"
        )
        assert _admit(gate, 1, 7, {"firmware": ["unhashable"]}) is None
        assert _admit(gate, 1, 8, {"s2_temperature": 40.0}) is not None

    def test_daemon_gate_uses_the_scorer_vocabulary(
        self, serve_models, serve_config
    ):
        from repro.serve import ServeDaemon

        full, reduced = serve_models
        daemon = ServeDaemon.from_models(full, reduced, serve_config)
        self._assert_validated_before_commit(
            lambda *reading: _admit(daemon.gate, *reading),
            full.firmware_encoder_.classes_[0],
        )


class TestBoundedQueue:
    def test_fifo_drain(self):
        queue = BoundedReadingQueue(capacity=10)
        queue.offer(1, 1, GOOD)
        queue.offer(2, 1, GOOD)
        assert [serial for serial, _, _ in queue.drain()] == [1, 2]
        assert len(queue) == 0

    def test_sheds_oldest_when_full(self):
        queue = BoundedReadingQueue(capacity=2)
        queue.offer(1, 1, GOOD)
        queue.offer(2, 1, GOOD)
        queue.offer(3, 1, GOOD)
        assert [serial for serial, _, _ in queue.drain()] == [2, 3]
        assert _counter("serve_readings_shed_total") == 1.0

    def test_sheds_oldest_non_alarmed_first(self):
        queue = BoundedReadingQueue(capacity=2, is_alarmed=lambda s: s == 1)
        queue.offer(1, 1, GOOD)  # alarmed: protected
        queue.offer(2, 1, GOOD)
        queue.offer(3, 1, GOOD)  # sheds serial 2, not serial 1
        assert [serial for serial, _, _ in queue.drain()] == [1, 3]

    def test_all_alarmed_falls_back_to_oldest(self):
        queue = BoundedReadingQueue(capacity=2, is_alarmed=lambda s: True)
        queue.offer(1, 1, GOOD)
        queue.offer(2, 1, GOOD)
        queue.offer(3, 1, GOOD)
        assert [serial for serial, _, _ in queue.drain()] == [2, 3]

    def test_queue_depth_gauge(self):
        queue = BoundedReadingQueue(capacity=10)
        queue.offer(1, 1, GOOD)
        queue.offer(2, 1, GOOD)
        assert _gauge("serve_queue_depth") == 2.0
        queue.drain()
        assert _gauge("serve_queue_depth") == 0.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BoundedReadingQueue(capacity=0)


def _reference_offers(capacity, alarmed, bursts):
    """The queue as it shed one offer at a time: ``(kept, victims)``."""
    items, victims = [], []
    for burst in bursts:
        for item in burst:
            if len(items) >= capacity:
                victim = next(
                    (i for i, queued in enumerate(items) if queued[0] not in alarmed), 0
                )
                victims.append(items.pop(victim))
            items.append(item)
    return items, victims


def _offer_all(offer, capacity, alarmed, bursts):
    """``(kept, shed counter, victims in shed order)`` after ``offer``
    puts every burst into a fresh queue."""
    get_registry().reset()
    queue = BoundedReadingQueue(capacity, is_alarmed=lambda serial: serial in alarmed)
    with mock.patch.object(ingest, "_LOG") as log:
        for burst in bursts:
            offer(queue, burst)
    victims = [
        (c.kwargs["serial"], c.kwargs["day"]) for c in log.warning.call_args_list
    ]
    return queue.drain(), _counter("serve_readings_shed_total"), victims


def _one_at_a_time(queue, burst):
    for item in burst:
        queue.offer(*item)


def _as_batch(queue, burst):
    queue.offer_many(
        [serial for serial, _, _ in burst],
        [day for _, day, _ in burst],
        [reading for _, _, reading in burst],
    )


class TestOfferMany:
    """``offer_many`` sheds exactly as one ``offer`` per reading does."""

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(1, 6),
        alarmed=st.sets(st.integers(0, 4), max_size=4),
        bursts=st.lists(
            st.lists(st.tuples(st.integers(0, 4), st.integers(0, 30)), max_size=14),
            max_size=4,
        ),
    )
    def test_offer_many_equals_repeated_offer(self, capacity, alarmed, bursts):
        bursts = [
            [(serial, day, {"n": k}) for k, (serial, day) in enumerate(burst)]
            for burst in bursts
        ]
        kept, victims = _reference_offers(capacity, alarmed, bursts)
        expected = (kept, float(len(victims)), [(s, d) for s, d, _ in victims])
        assert _offer_all(_one_at_a_time, capacity, alarmed, bursts) == expected
        assert _offer_all(_as_batch, capacity, alarmed, bursts) == expected

    def test_burst_past_capacity_with_alarmed_drives(self):
        # When (2, 2) arrives every queued drive has alarmed, so the
        # oldest alarmed entry goes, not a non-alarmed later arrival;
        # after that the oldest non-alarmed entry goes each time.
        burst = [(1, 0, {}), (1, 1, {}), (2, 2, {}), (2, 3, {}), (3, 4, {})]
        assert _offer_all(_as_batch, 2, {1}, [burst]) == (
            [(1, 1, {}), (3, 4, {})], 3.0, [(1, 0), (2, 2), (2, 3)]
        )


def _gauge(name: str) -> float:
    for family in get_registry().dump():
        if family["name"] == name:
            for sample in family["samples"]:
                return sample["value"]
    return 0.0
