"""Unit tests for the discontinuity-repair preprocessing stage."""

import numpy as np
import pytest

from repro.core.preprocess import (
    IMPUTED_COLUMN,
    accumulate_events,
    encode_firmware,
    preprocess,
    repair_discontinuity,
)
from repro.telemetry.dataset import TelemetryDataset, W_COLUMNS, B_COLUMNS
from repro.telemetry.smart import SMART_COLUMNS

from .preprocess_oracle import _grouped_cumsum


def _toy_dataset(day_lists, metas=None):
    """Build a minimal dataset with the full schema from day lists."""
    serials, days = [], []
    for serial, day_list in day_lists.items():
        serials.extend([serial] * len(day_list))
        days.extend(day_list)
    n = len(days)
    columns = {
        "serial": np.array(serials, dtype=np.int64),
        "day": np.array(days, dtype=np.int64),
        "firmware": np.array(["I_F_1"] * n, dtype=object),
        "vendor": np.array(["I"] * n, dtype=object),
        "model": np.array(["I-A128"] * n, dtype=object),
    }
    for column in (*SMART_COLUMNS, *W_COLUMNS, *B_COLUMNS):
        columns[column] = np.arange(n, dtype=float)
    order = np.lexsort((columns["day"], columns["serial"]))
    columns = {k: v[order] for k, v in columns.items()}
    from repro.telemetry.dataset import DriveMeta

    drives = {
        serial: DriveMeta(serial, "I", "I-A128", 128, "I_F_1", "healthy", None)
        for serial in day_lists
    }
    return TelemetryDataset(columns, drives, [])


class TestGroupedCumsum:
    def test_single_group(self):
        values = np.array([1.0, 2.0, 3.0])
        starts = np.array([True, False, False])
        np.testing.assert_allclose(_grouped_cumsum(values, starts), [1, 3, 6])

    def test_restarts_at_group_boundaries(self):
        values = np.array([1.0, 1.0, 5.0, 5.0])
        starts = np.array([True, False, True, False])
        np.testing.assert_allclose(_grouped_cumsum(values, starts), [1, 2, 5, 10])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            _grouped_cumsum(np.array([-1.0]), np.array([True]))


class TestAccumulateEvents:
    def test_adds_cum_columns(self, small_fleet):
        accumulated = accumulate_events(small_fleet)
        for column in (*W_COLUMNS, *B_COLUMNS):
            assert f"cum_{column}" in accumulated.columns

    def test_cumulative_per_drive(self, small_fleet):
        accumulated = accumulate_events(small_fleet)
        serial = int(small_fleet.serials[3])
        rows = accumulated.drive_rows(serial)
        column = W_COLUMNS[0]
        np.testing.assert_allclose(
            rows[f"cum_{column}"], np.cumsum(rows[column])
        )

    def test_original_columns_untouched(self, small_fleet):
        accumulated = accumulate_events(small_fleet)
        np.testing.assert_array_equal(
            accumulated.columns[W_COLUMNS[0]], small_fleet.columns[W_COLUMNS[0]]
        )


class TestEncodeFirmware:
    def test_codes_match_encoder(self, small_fleet):
        encoded, encoder = encode_firmware(small_fleet)
        codes = encoded.columns["firmware_code"]
        recovered = encoder.inverse_transform(codes.astype(int)[:5])
        assert recovered == list(small_fleet.columns["firmware"][:5])

    def test_codes_are_floats_for_models(self, small_fleet):
        encoded, _ = encode_firmware(small_fleet)
        assert encoded.columns["firmware_code"].dtype == float


class TestRepairDiscontinuity:
    def test_short_gaps_filled_with_means(self):
        dataset = _toy_dataset({1: [0, 1, 2, 3, 4, 7, 8, 9, 10, 11]})
        repaired, report = repair_discontinuity(dataset, max_gap=10, fill_gap=3)
        days = repaired.drive_rows(1)["day"]
        np.testing.assert_array_equal(days, np.arange(12))
        assert report.n_rows_filled == 2
        # Filled rows carry the mean of the neighbors.
        rows = repaired.drive_rows(1)
        left = np.flatnonzero(rows["day"] == 4)[0]
        filled = np.flatnonzero(rows["day"] == 5)[0]
        right = np.flatnonzero(rows["day"] == 7)[0]
        expected = (rows[SMART_COLUMNS[5]][left] + rows[SMART_COLUMNS[5]][right]) / 2
        assert rows[SMART_COLUMNS[5]][filled] == pytest.approx(expected)

    def test_imputed_flag_set(self):
        dataset = _toy_dataset({1: [0, 1, 2, 3, 4, 6, 7, 8]})
        repaired, _ = repair_discontinuity(dataset)
        rows = repaired.drive_rows(1)
        assert rows[IMPUTED_COLUMN][np.flatnonzero(rows["day"] == 5)[0]] == 1.0
        assert rows[IMPUTED_COLUMN][0] == 0.0

    def test_long_gap_splits_and_drops_short_fragment(self):
        # Paper's F3 case: (0, 11-14) -> leading record is unusable.
        dataset = _toy_dataset(
            {1: [0, 30, 31, 32, 33, 34, 35], 2: list(range(20))}
        )
        repaired, report = repair_discontinuity(
            dataset, max_gap=10, fill_gap=3, min_segment_records=5
        )
        days = repaired.drive_rows(1)["day"]
        assert days[0] == 30  # the isolated day-0 record was dropped
        assert report.n_rows_dropped == 1

    def test_whole_drive_dropped_when_all_fragments_short(self):
        dataset = _toy_dataset({1: [0, 20, 40, 60], 2: list(range(20))})
        repaired, report = repair_discontinuity(dataset, min_segment_records=5)
        assert 1 not in repaired.drives
        assert report.n_drives_dropped == 1

    def test_medium_gaps_neither_filled_nor_dropped(self):
        dataset = _toy_dataset({1: [0, 1, 2, 3, 4, 10, 11, 12, 13, 14]})
        repaired, report = repair_discontinuity(dataset, max_gap=10, fill_gap=3)
        # Gap of 5 missing days: below max_gap=10? diff=6 -> gap=5 so
        # fragment survives, but 5 > fill_gap so nothing is inserted.
        assert report.n_rows_filled == 0
        assert report.n_rows_dropped == 0
        assert repaired.drive_rows(1)["day"].size == 10

    def test_boundary_gap_exactly_max_gap_splits(self):
        dataset = _toy_dataset({1: [0, 1, 2, 3, 4, 15, 16, 17, 18, 19]})
        repaired, report = repair_discontinuity(
            dataset, max_gap=10, fill_gap=3, min_segment_records=5
        )
        # Gap = 10 missing days -> split; both fragments have 5 records.
        assert repaired.drive_rows(1)["day"].size == 10
        assert report.n_rows_dropped == 0

    def test_sort_order_restored_after_fill(self):
        dataset = _toy_dataset({1: [0, 2, 3], 2: [0, 1, 3]})
        repaired, _ = repair_discontinuity(dataset, min_segment_records=2)
        serial = repaired.columns["serial"]
        day = repaired.columns["day"]
        order = np.lexsort((day, serial))
        np.testing.assert_array_equal(order, np.arange(serial.size))

    def test_invalid_thresholds(self, small_fleet):
        with pytest.raises(ValueError):
            repair_discontinuity(small_fleet, max_gap=1)
        with pytest.raises(ValueError):
            repair_discontinuity(small_fleet, fill_gap=-1)
        with pytest.raises(ValueError):
            repair_discontinuity(small_fleet, max_gap=5, fill_gap=5)

    def test_everything_dropped_raises(self):
        dataset = _toy_dataset({1: [0, 20, 40]})
        with pytest.raises(ValueError, match="every record"):
            repair_discontinuity(dataset, min_segment_records=10)

    def test_report_row_accounting(self, small_fleet):
        repaired, report = repair_discontinuity(small_fleet)
        assert (
            report.n_output_rows
            == report.n_input_rows - report.n_rows_dropped + report.n_rows_filled
        )
        assert "rows" in str(report)


class TestFullPreprocess:
    def test_produces_model_ready_columns(self, prepared_fleet):
        prepared, report, encoder = prepared_fleet
        assert "firmware_code" in prepared.columns
        assert "cum_w161_fs_io_error" in prepared.columns
        assert report.n_output_rows == prepared.n_records
        assert len(encoder.classes_) >= 1

    def test_idempotent_on_repaired_data(self, prepared_fleet):
        prepared, _, _ = prepared_fleet
        again, report = repair_discontinuity(prepared)
        assert report.n_rows_filled == 0
