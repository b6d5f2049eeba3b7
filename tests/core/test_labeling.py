"""Unit tests for failure-time identification (θ rule) and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labeling import (
    FailureTimeIdentifier,
    SampleSet,
    build_samples,
    late_failure_mask,
)
from repro.core.preprocess import preprocess


class TestFailureTimeIdentifier:
    def test_every_surviving_ticket_labeled(self, prepared_fleet):
        prepared, _, _ = prepared_fleet
        failure_times = FailureTimeIdentifier(theta=7).identify(prepared)
        present = {t.serial for t in prepared.tickets}
        assert set(failure_times) == present

    def test_small_lag_uses_last_tracking_point(self, prepared_fleet):
        prepared, _, _ = prepared_fleet
        theta = 7
        failure_times = FailureTimeIdentifier(theta=theta).identify(prepared)
        for ticket in prepared.tickets:
            days = prepared.drive_rows(ticket.serial)["day"]
            closest = int(days[days <= ticket.initial_maintenance_time][-1])
            interval = ticket.initial_maintenance_time - closest
            if interval <= theta:
                assert failure_times[ticket.serial] == closest
            else:
                assert (
                    failure_times[ticket.serial]
                    == ticket.initial_maintenance_time - theta
                )

    def test_identified_time_close_to_true_failure(self, prepared_fleet):
        # The θ rule should land within ~θ days of the drive's actual
        # (simulated) failure day for most drives.
        prepared, _, _ = prepared_fleet
        failure_times = FailureTimeIdentifier(theta=7).identify(prepared)
        errors = []
        for serial, labeled in failure_times.items():
            true_day = prepared.drives[serial].failure_day
            errors.append(abs(labeled - true_day))
        assert np.median(errors) <= 7

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            FailureTimeIdentifier(theta=-1)


class TestSampleSet:
    def test_alignment_enforced(self):
        with pytest.raises(ValueError, match="align"):
            SampleSet(
                row_indices=np.arange(3),
                labels=np.zeros(2),
                serials=np.zeros(3),
                days=np.zeros(3),
            )

    def test_sorted_by_day(self):
        samples = SampleSet(
            row_indices=np.array([0, 1, 2]),
            labels=np.array([0, 1, 0]),
            serials=np.array([1, 2, 3]),
            days=np.array([30, 10, 20]),
        )
        ordered = samples.sorted_by_day()
        np.testing.assert_array_equal(ordered.days, [10, 20, 30])
        np.testing.assert_array_equal(ordered.labels, [1, 0, 0])

    def test_counts(self):
        samples = SampleSet(
            row_indices=np.arange(4),
            labels=np.array([0, 1, 1, 0]),
            serials=np.arange(4),
            days=np.arange(4),
        )
        assert samples.n_samples == 4
        assert samples.n_positive == 2
        assert samples.n_negative == 2


class TestBuildSamples:
    @pytest.fixture(scope="class")
    def labeled(self, prepared_fleet):
        prepared, _, _ = prepared_fleet
        failure_times = FailureTimeIdentifier(theta=7).identify(prepared)
        return prepared, failure_times

    def test_positive_rows_inside_window(self, labeled):
        prepared, failure_times = labeled
        samples = build_samples(prepared, failure_times, positive_window=14)
        positives = samples.subset(np.flatnonzero(samples.labels == 1))
        for serial, day in zip(positives.serials[:200], positives.days[:200]):
            failure_time = failure_times[int(serial)]
            assert failure_time - 14 < day <= failure_time

    def test_negatives_only_from_healthy_by_default(self, labeled):
        prepared, failure_times = labeled
        samples = build_samples(prepared, failure_times)
        negatives = samples.subset(np.flatnonzero(samples.labels == 0))
        faulty = set(failure_times)
        assert not faulty & set(np.unique(negatives.serials).tolist())

    def test_faulty_early_records_as_negatives_optional(self, labeled):
        prepared, failure_times = labeled
        samples = build_samples(
            prepared, failure_times, include_negative_from_faulty=True
        )
        negatives = samples.subset(np.flatnonzero(samples.labels == 0))
        faulty = set(failure_times)
        assert faulty & set(np.unique(negatives.serials).tolist())

    def test_lookahead_shifts_window(self, labeled):
        prepared, failure_times = labeled
        base = build_samples(prepared, failure_times, positive_window=7, lookahead=0)
        shifted = build_samples(prepared, failure_times, positive_window=7, lookahead=10)
        # Shifted windows end 10 days earlier.
        for samples, lookahead in ((base, 0), (shifted, 10)):
            positives = samples.subset(np.flatnonzero(samples.labels == 1))
            for serial, day in zip(positives.serials[:100], positives.days[:100]):
                assert day <= failure_times[int(serial)] - lookahead

    def test_longer_window_more_positives(self, labeled):
        prepared, failure_times = labeled
        short = build_samples(prepared, failure_times, positive_window=7)
        long = build_samples(prepared, failure_times, positive_window=21)
        assert long.n_positive > short.n_positive

    def test_imbalance_is_severe(self, labeled):
        prepared, failure_times = labeled
        samples = build_samples(prepared, failure_times)
        assert samples.n_negative > 5 * samples.n_positive

    def test_invalid_params(self, labeled):
        prepared, failure_times = labeled
        with pytest.raises(ValueError):
            build_samples(prepared, failure_times, positive_window=0)
        with pytest.raises(ValueError):
            build_samples(prepared, failure_times, lookahead=-1)


class TestLateFailureMask:
    @settings(max_examples=200, deadline=None)
    @given(
        failure_times=st.dictionaries(
            st.integers(0, 30), st.integers(-5, 40), max_size=12
        ),
        serials=st.lists(st.integers(0, 40), max_size=30),
        day=st.integers(-8, 45),
    )
    def test_matches_dict_lookup(self, failure_times, serials, day):
        serials = np.array(serials, dtype=np.int64)
        expected = [failure_times.get(int(s), -1) >= day for s in serials]
        late = late_failure_mask(failure_times, serials, day)
        assert late.dtype == bool
        assert late.tolist() == expected

    def test_unfailed_drives_are_late_only_before_day_zero(self):
        serials = np.array([1, 2, 3])
        assert late_failure_mask({1: 5}, serials, -1).tolist() == [True] * 3
        assert late_failure_mask({1: 5}, serials, 0).tolist() == [True, False, False]
        assert late_failure_mask({1: 5}, serials, 6).tolist() == [False] * 3
