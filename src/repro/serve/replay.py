"""Replay a recorded :class:`TelemetryDataset` at a live daemon.

``repro replay`` (and the chaos harness) turn the columnar dataset back
into the per-day reading stream a client collector would emit. The
stream is produced from the *gap-repaired* dataset (same
``repair_discontinuity`` parameters the batch pipeline's preprocessing
uses) and starts at day 0 even when serving starts later: the daemon
needs the warmup days to build the same cumulative W/B counters the
batch pipeline computes over full history — that is what makes daemon
alarms bit-identical to ``simulate_operation`` on clean input.

Streams also serialize to JSONL (one ``{"kind": "reading", ...}`` event
per line, a final ``{"kind": "end"}``) so a recorded stream can be
fired at a daemon process via ``repro serve --input``.
"""

from __future__ import annotations

import itertools
import json
import operator
import time
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.core.preprocess import repair_discontinuity
from repro.robustness.faults import Reading
from repro.serve.daemon import ServeDaemon
from repro.telemetry.dataset import B_COLUMNS, TelemetryDataset, W_COLUMNS
from repro.telemetry.smart import SMART_COLUMNS

__all__ = [
    "dataset_to_readings",
    "feed",
    "iter_stream",
    "replay_into",
    "write_stream",
]

_READING_COLUMNS = (*SMART_COLUMNS, *W_COLUMNS, *B_COLUMNS)


def dataset_to_readings(
    dataset: TelemetryDataset,
    start_day: int = 0,
    end_day: int | None = None,
    repair: bool = True,
    max_gap: int = 10,
    fill_gap: int = 3,
    min_segment_records: int = 5,
) -> list[Reading]:
    """Day-major ``(serial, day, reading)`` stream from a dataset.

    ``repair=True`` (the default) replays the
    :func:`repair_discontinuity`-repaired rows — the same rows the
    batch pipeline scores — which is required for alarm parity with
    ``simulate_operation``.
    """
    if repair:
        dataset, _report = repair_discontinuity(
            dataset,
            max_gap=max_gap,
            fill_gap=fill_gap,
            min_segment_records=min_segment_records,
        )
    serial = dataset.columns["serial"]
    day = dataset.columns["day"]
    keep = day >= start_day
    if end_day is not None:
        keep &= day < end_day
    indices = np.flatnonzero(keep)
    # Day-major: all of day d across the fleet, then day d+1 — the order
    # readings arrive from a fleet of collectors.
    indices = indices[np.lexsort((serial[indices], day[indices]))]
    value_columns = {
        name: dataset.columns[name]
        for name in _READING_COLUMNS
        if name in dataset.columns
    }
    firmware = dataset.columns.get("firmware")
    readings: list[Reading] = []
    for i in indices:
        reading = {name: float(values[i]) for name, values in value_columns.items()}
        if firmware is not None:
            reading["firmware"] = str(firmware[i])
        readings.append((int(serial[i]), int(day[i]), reading))
    return readings


def write_stream(
    path: str | Path, readings: list[Reading], end_day: int | None = None
) -> Path:
    """Serialize a reading stream to JSONL for cross-process replay."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for serial, day, reading in readings:
            handle.write(
                json.dumps(
                    {"kind": "reading", "serial": serial, "day": day,
                     "reading": reading},
                    sort_keys=True,
                )
                + "\n"
            )
        handle.write(json.dumps({"kind": "end", "day": end_day}) + "\n")
    return path


def iter_stream(path: str | Path) -> Iterator[dict]:
    """Yield the events of a recorded JSONL stream."""
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def feed(
    daemon: ServeDaemon,
    readings: Iterable[Reading],
    speed: float | None = None,
    sleep=time.sleep,
    min_day: int | None = None,
    throttle_seconds: float = 0.0,
    throttle_from_day: int | None = None,
) -> None:
    """Submit a day-major reading stream one day at a time.

    Each run of same-day readings goes in with one
    :meth:`ServeDaemon.submit_many`, and the daemon pumps once between
    days. ``min_day`` skips readings below it (the resume path replays
    only ``day >= daemon.watermark``). ``speed`` paces the stream at
    simulated-days-per-second; ``throttle_seconds`` adds a flat delay
    per day from ``throttle_from_day`` on (the serve-smoke harness uses
    it to widen the kill window). The last day is left queued for
    :meth:`ServeDaemon.finish`.
    """
    if min_day is not None:
        readings = (reading for reading in readings if reading[1] >= min_day)
    previous: int | None = None
    for day, group in itertools.groupby(readings, key=operator.itemgetter(1)):
        if previous is not None:
            daemon.pump()
            if speed:
                sleep((day - previous) / speed)
            if throttle_seconds and (
                throttle_from_day is None or day >= throttle_from_day
            ):
                sleep(throttle_seconds)
        daemon.submit_many(*zip(*group))
        previous = day


def replay_into(
    daemon: ServeDaemon,
    readings: list[Reading],
    end_day: int | None = None,
    speed: float | None = None,
    sleep=time.sleep,
    min_day: int | None = None,
    throttle_seconds: float = 0.0,
    throttle_from_day: int | None = None,
) -> dict:
    """Fire ``readings`` at ``daemon`` through :func:`feed`, pumping
    once per simulated day; return the summary after
    :meth:`ServeDaemon.finish`."""
    feed(
        daemon, readings, speed=speed, sleep=sleep, min_day=min_day,
        throttle_seconds=throttle_seconds, throttle_from_day=throttle_from_day,
    )
    return daemon.finish(end_day)
