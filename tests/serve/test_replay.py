"""Stream replay: dataset conversion, JSONL round-trip, pacing/min_day."""

import pytest

from repro.serve import ServeDaemon
from repro.serve.replay import (
    dataset_to_readings,
    iter_stream,
    replay_into,
    write_stream,
)

from .conftest import END
from .test_daemon import _feed, _subset


class TestDatasetToReadings:
    def test_day_major_order(self, serve_readings):
        days = [day for _, day, _ in serve_readings]
        assert days == sorted(days)
        # within one day, serials ascend
        by_day = {}
        for serial, day, _ in serve_readings:
            by_day.setdefault(day, []).append(serial)
        for serials in by_day.values():
            assert serials == sorted(serials)

    def test_end_day_is_exclusive(self, serve_readings):
        assert max(day for _, day, _ in serve_readings) == END - 1

    def test_repair_fills_gaps(self, serve_fleet):
        repaired = dataset_to_readings(serve_fleet, end_day=END)
        raw = dataset_to_readings(serve_fleet, end_day=END, repair=False)
        assert len(repaired) >= len(raw)

    def test_readings_are_json_safe(self, serve_readings):
        serial, day, reading = serve_readings[0]
        assert isinstance(serial, int) and isinstance(day, int)
        for key, value in reading.items():
            assert isinstance(value, str if key == "firmware" else float)

    def test_start_day_filters(self, serve_fleet):
        late = dataset_to_readings(serve_fleet, start_day=300, end_day=END)
        assert min(day for _, day, _ in late) >= 300


class TestStreamRoundTrip:
    def test_write_then_iter(self, tmp_path, serve_readings):
        sample = serve_readings[:50]
        path = write_stream(tmp_path / "stream.jsonl", sample, end_day=END)
        events = list(iter_stream(path))
        assert events[-1] == {"kind": "end", "day": END}
        parsed = [
            (e["serial"], e["day"], e["reading"])
            for e in events[:-1]
        ]
        assert all(e["kind"] == "reading" for e in events[:-1])
        assert parsed == sample


class _RecordingDaemon:
    def __init__(self):
        self.submitted = []
        self.batches = 0
        self.pumps = 0

    def submit_many(self, serials, days, readings):
        self.submitted.extend(zip(serials, days))
        self.batches += 1

    def pump(self):
        self.pumps += 1

    def finish(self, end_day=None):
        return {"end_day": end_day}


class TestReplayInto:
    READINGS = [
        (1, 10, {"s2_temperature": 40.0}),
        (2, 10, {"s2_temperature": 41.0}),
        (1, 11, {"s2_temperature": 42.0}),
        (1, 13, {"s2_temperature": 43.0}),
    ]

    def test_pumps_once_per_day_change(self):
        daemon = _RecordingDaemon()
        summary = replay_into(daemon, self.READINGS, end_day=20)
        assert len(daemon.submitted) == 4
        assert daemon.batches == 3  # one submit_many per day
        assert daemon.pumps == 2  # 10→11 and 11→13
        assert summary == {"end_day": 20}

    def test_min_day_skips_acknowledged_input(self):
        daemon = _RecordingDaemon()
        replay_into(daemon, self.READINGS, min_day=11)
        assert daemon.submitted == [(1, 11), (1, 13)]

    def test_speed_paces_by_simulated_days(self):
        daemon = _RecordingDaemon()
        slept = []
        replay_into(
            daemon, self.READINGS, speed=10.0, sleep=slept.append
        )
        assert slept == pytest.approx([0.1, 0.2])  # 1 day, then 2 days

    def test_throttle_from_day(self):
        daemon = _RecordingDaemon()
        slept = []
        replay_into(
            daemon,
            self.READINGS,
            throttle_seconds=0.5,
            throttle_from_day=12,
            sleep=slept.append,
        )
        assert slept == [0.5]  # only the 11→13 transition is at/after 12


def test_replay_through_submit_many_matches_per_reading_submits(
    serve_models, serve_readings, serve_config
):
    """One ``submit_many`` per day gives the alarms and summary of one
    ``submit`` per reading (a fixed clock makes the latencies equal)."""
    full, reduced = serve_models
    readings = _subset(serve_readings, 40)

    def daemon():
        return ServeDaemon.from_models(full, reduced, serve_config, clock=lambda: 0.0)

    batched = daemon()
    summary = replay_into(batched, readings, end_day=END)
    single = daemon()
    _feed(single, readings)
    assert summary["n_alarms"] > 0
    assert summary == single.finish(END)
    assert batched.alarm_records() == single.alarm_records()
