"""Unit tests for the fleet-monitoring deployment loop."""

import numpy as np
import pytest

from repro.core.deployment import (
    Alarm,
    FleetMonitor,
    MonitoringWindow,
    RetrainPolicy,
    simulate_operation,
    summarize_windows,
)
from repro.core.pipeline import MFPAConfig
from repro.ml.forest import RandomForestClassifier


class TestRetrainPolicy:
    def test_defaults(self):
        policy = RetrainPolicy()
        assert policy.interval_days == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            RetrainPolicy(interval_days=0)
        with pytest.raises(ValueError):
            RetrainPolicy(min_new_failures=-1)


class TestFleetMonitor:
    @pytest.fixture(scope="class")
    def monitor(self, small_fleet):
        monitor = FleetMonitor(policy=RetrainPolicy(interval_days=10_000))
        monitor.start(small_fleet, train_end_day=240)
        return monitor

    def test_requires_start(self):
        with pytest.raises(RuntimeError, match="start"):
            FleetMonitor().score_window(0, 30)

    def test_window_scores_drives(self, monitor):
        window = monitor.score_window(240, 270)
        assert window.n_drives_scored > 0
        assert not window.retrained
        for alarm in window.alarms:
            assert alarm.probability >= monitor.alarm_threshold
            assert 240 <= alarm.day < 270

    def test_alarms_deduplicated(self, small_fleet):
        monitor = FleetMonitor(policy=RetrainPolicy(interval_days=10_000))
        monitor.start(small_fleet, train_end_day=240)
        first = monitor.score_window(240, 300)
        second = monitor.score_window(240, 300)  # same window again
        alarmed_first = {alarm.serial for alarm in first.alarms}
        alarmed_second = {alarm.serial for alarm in second.alarms}
        assert not alarmed_first & alarmed_second

    def test_invalid_window(self, monitor):
        with pytest.raises(ValueError):
            monitor.score_window(300, 300)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            FleetMonitor(alarm_threshold=1.5)

    def test_retrain_fires_on_schedule(self, small_fleet):
        monitor = FleetMonitor(
            policy=RetrainPolicy(interval_days=30, min_new_failures=0)
        )
        monitor.start(small_fleet, train_end_day=200)
        window = monitor.score_window(260, 290)
        assert window.retrained
        assert monitor._last_trained_day == 260

    def test_retrain_skipped_without_new_failures(self, small_fleet):
        monitor = FleetMonitor(
            policy=RetrainPolicy(interval_days=30, min_new_failures=10_000)
        )
        monitor.start(small_fleet, train_end_day=200)
        window = monitor.score_window(260, 290)
        assert not window.retrained


class TestRetrainPolicyEdges:
    def test_min_new_failures_zero_retrains_on_schedule(self, small_fleet):
        """With min_new_failures=0 the schedule alone triggers retraining,
        even when not a single new failure arrived since the last fit."""
        monitor = FleetMonitor(
            policy=RetrainPolicy(interval_days=30, min_new_failures=0)
        )
        monitor.start(small_fleet, train_end_day=200)
        known_at_start = monitor._failures_at_training
        # A window starting exactly one interval later must retrain even
        # if the failure count is unchanged.
        assert monitor._maybe_retrain(230)
        assert monitor._last_trained_day == 230
        assert monitor._failures_at_training >= known_at_start

    def test_retrain_exactly_at_interval_boundary(self, small_fleet):
        monitor = FleetMonitor(
            policy=RetrainPolicy(interval_days=30, min_new_failures=0)
        )
        monitor.start(small_fleet, train_end_day=200)
        assert not monitor._maybe_retrain(229)  # one day early: no
        assert monitor._maybe_retrain(230)  # exactly interval_days: yes

    def test_failures_at_training_tracks_consecutive_retrains(self, small_fleet):
        monitor = FleetMonitor(
            policy=RetrainPolicy(interval_days=30, min_new_failures=0)
        )
        monitor.start(small_fleet, train_end_day=200)

        def failures_before(day):
            return sum(
                1 for d in monitor.model.failure_times_.values() if d < day
            )

        assert monitor._maybe_retrain(230)
        assert monitor._failures_at_training == failures_before(230)
        assert monitor._maybe_retrain(260)
        assert monitor._failures_at_training == failures_before(260)
        # immediately after a retrain, another one is not yet due
        assert not monitor._maybe_retrain(261)


class TestSummarizeWindows:
    def _window(self, alarms):
        return MonitoringWindow(
            start_day=240, end_day=270, alarms=alarms, n_drives_scored=1, retrained=False
        )

    def test_unknown_serial_alarm_counted_separately(self, small_fleet):
        ghost = Alarm(serial=987_654_321, day=250, probability=0.9)
        summary = summarize_windows(
            [self._window([ghost])], small_fleet, start_day=240, end_day=360
        )
        assert summary.unknown_serial_alarms == 1
        assert summary.false_alarms == 0
        assert summary.true_alarms == 0

    def test_known_healthy_serial_still_false_alarm(self, small_fleet):
        healthy = int(small_fleet.healthy_serials()[0])
        alarm = Alarm(serial=healthy, day=250, probability=0.9)
        summary = summarize_windows(
            [self._window([alarm])], small_fleet, start_day=240, end_day=360
        )
        assert summary.false_alarms == 1
        assert summary.unknown_serial_alarms == 0

    def test_known_failed_serial_true_alarm_with_lead_time(self, small_fleet):
        failed = next(
            meta
            for meta in small_fleet.drives.values()
            if meta.failed and meta.failure_day >= 250
        )
        alarm = Alarm(serial=failed.serial, day=250, probability=0.9)
        summary = summarize_windows(
            [self._window([alarm])], small_fleet, start_day=240, end_day=360
        )
        assert summary.true_alarms == 1
        assert summary.lead_times == [failed.failure_day - 250]


class TestSimulateOperation:
    def test_summary_accounting(self, small_fleet):
        summary = simulate_operation(
            small_fleet,
            config=MFPAConfig(),
            start_day=240,
            end_day=360,
            window_days=30,
        )
        assert len(summary.windows) == 4
        assert summary.n_alarms == summary.true_alarms + summary.false_alarms
        assert 0.0 <= summary.recall <= 1.0 or np.isnan(summary.recall)

    def test_catches_most_failures_with_lead_time(self, small_fleet):
        summary = simulate_operation(
            small_fleet, start_day=240, end_day=360, window_days=30
        )
        assert summary.recall >= 0.6
        if summary.lead_times:
            assert summary.median_lead_time >= 0

    def test_higher_threshold_fewer_alarms(self, small_fleet):
        lenient = simulate_operation(
            small_fleet, start_day=240, end_day=360, alarm_threshold=0.3
        )
        strict = simulate_operation(
            small_fleet, start_day=240, end_day=360, alarm_threshold=0.95
        )
        assert strict.n_alarms <= lenient.n_alarms

    @pytest.mark.parametrize(
        "arguments, named",
        [
            ({"window_days": -30}, "window_days"),
            ({"window_days": 0}, "window_days"),
            ({"start_day": 300, "end_day": 300}, "end_day"),
            ({"start_day": 360, "end_day": 240}, "end_day"),
            ({"max_windows": -1}, "max_windows"),
        ],
    )
    def test_bad_window_arguments_raise(self, small_fleet, arguments, named):
        # A bad tiling used to return zero windows and grade every
        # failure in the horizon as missed (recall 0.0).
        with pytest.raises(ValueError, match=named):
            simulate_operation(
                small_fleet, **{"start_day": 240, "end_day": 360, **arguments}
            )

    def test_zero_max_windows_stops_before_first_window(self, small_fleet):
        summary = simulate_operation(
            small_fleet,
            config=MFPAConfig(
                algorithm=RandomForestClassifier(n_estimators=4, max_depth=4, seed=0)
            ),
            start_day=240,
            end_day=360,
            max_windows=0,
        )
        assert summary.windows == []

    def test_empty_alarm_precision_nan(self):
        from repro.core.deployment import OperationSummary

        summary = OperationSummary(
            windows=[], true_alarms=0, false_alarms=0, missed_failures=0
        )
        assert np.isnan(summary.precision)
        assert np.isnan(summary.median_lead_time)
