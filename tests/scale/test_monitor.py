"""Shard-merge equivalence: ``ShardedFleetMonitor`` vs the in-RAM monitor.

The satellite contract: on the Table-V workload (SFWB feature group),
the partitioned monitor's alarms are bit-identical to
``simulate_operation`` on the same fleet, and the merged
``OperationSummary`` matches field by field — at ``n_jobs`` 1 and 4.
"""

from __future__ import annotations

import pytest

from repro.core.deployment import RetrainPolicy, simulate_operation
from repro.scale import ShardedFleetMonitor

from tests.scale.conftest import cheap_config

START, END, WINDOW = 240, 360, 40
POLICY = RetrainPolicy(interval_days=60, min_new_failures=1)


@pytest.fixture(scope="module")
def batch_summary(small_fleet):
    return simulate_operation(
        small_fleet,
        config=cheap_config(feature_group_name="SFWB"),
        policy=POLICY,
        start_day=START,
        end_day=END,
        window_days=WINDOW,
    )


@pytest.mark.parametrize("n_jobs", [1, 4])
def test_sharded_monitor_matches_in_ram(shard_store, batch_summary, n_jobs):
    monitor = ShardedFleetMonitor(
        shard_store,
        config=cheap_config(feature_group_name="SFWB"),
        policy=POLICY,
        n_jobs=n_jobs,
    )
    sharded = monitor.run(START, END, window_days=WINDOW)

    assert sharded.alarm_records() == batch_summary.alarm_records()
    for field in (
        "n_alarms",
        "true_alarms",
        "false_alarms",
        "missed_failures",
        "lead_times",
        "unknown_serial_alarms",
        "precision",
        "recall",
    ):
        got = getattr(sharded, field)
        want = getattr(batch_summary, field)
        assert got == want, (field, got, want)

    assert len(sharded.windows) == len(batch_summary.windows)
    for got_window, want_window in zip(sharded.windows, batch_summary.windows):
        assert got_window.start_day == want_window.start_day
        assert got_window.end_day == want_window.end_day
        assert got_window.n_drives_scored == want_window.n_drives_scored
        assert got_window.retrained == want_window.retrained
        got_alarms = [
            (a.serial, a.day, a.probability) for a in got_window.alarms
        ]
        want_alarms = [
            (a.serial, a.day, a.probability) for a in want_window.alarms
        ]
        assert got_alarms == want_alarms
    assert any(window.retrained for window in sharded.windows)


def test_alarm_threshold_validated(shard_store):
    with pytest.raises(ValueError, match="alarm_threshold"):
        ShardedFleetMonitor(shard_store, alarm_threshold=1.5)


@pytest.mark.parametrize(
    "arguments, named",
    [
        ({"window_days": -30}, "window_days"),
        ({"window_days": 0}, "window_days"),
        ({"start_day": END, "end_day": START}, "end_day"),
        ({"max_shards": -1}, "max_shards"),
    ],
)
def test_bad_window_arguments_raise(shard_store, arguments, named):
    monitor = ShardedFleetMonitor(shard_store, config=cheap_config())
    with pytest.raises(ValueError, match=named):
        monitor.run(**{"start_day": START, "end_day": END, **arguments})
