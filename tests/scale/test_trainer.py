"""Streaming trainer parity: ``fit_sharded`` vs the in-RAM ``MFPA.fit``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import MFPA
from repro.scale import evaluate_sharded, fit_sharded, write_dataset_sharded
from repro.telemetry.dataset import TelemetryDataset

from tests.scale.conftest import cheap_config

TRAIN_END = 240
EVAL_END = 360


@pytest.fixture(scope="module")
def fitted_pair(small_fleet, shard_store):
    config = cheap_config()
    in_ram = MFPA(cheap_config()).fit(small_fleet, train_end_day=TRAIN_END)
    sharded = fit_sharded(shard_store, config, train_end_day=TRAIN_END)
    return in_ram, sharded


class TestFitParity:
    def test_failure_times_identical(self, fitted_pair):
        in_ram, sharded = fitted_pair
        assert sharded.failure_times_ == in_ram.failure_times_

    def test_encoder_classes_identical(self, fitted_pair):
        in_ram, sharded = fitted_pair
        np.testing.assert_array_equal(
            sharded.firmware_encoder_.classes_,
            in_ram.firmware_encoder_.classes_,
        )

    def test_preprocess_report_identical(self, fitted_pair):
        in_ram, sharded = fitted_pair
        assert sharded.preprocess_report_ == in_ram.preprocess_report_

    def test_assembler_columns_identical(self, fitted_pair):
        in_ram, sharded = fitted_pair
        assert sharded.assembler_.columns == in_ram.assembler_.columns

    def test_predictions_bit_identical(self, fitted_pair):
        in_ram, sharded = fitted_pair
        rows = np.arange(0, in_ram.dataset_.n_records, 97)
        # The sharded model never holds the fleet; borrow the in-RAM
        # prepared dataset to drive its estimator on identical features.
        sharded.dataset_ = in_ram.dataset_
        try:
            np.testing.assert_array_equal(
                sharded.predict_proba_rows(rows),
                in_ram.predict_proba_rows(rows),
            )
        finally:
            del sharded.dataset_

    def test_dataset_not_materialized(self, fitted_pair):
        _, sharded = fitted_pair
        assert not hasattr(sharded, "dataset_")


class TestEvaluateParity:
    def test_reports_identical(self, fitted_pair, shard_store):
        in_ram, sharded = fitted_pair
        want = in_ram.evaluate(TRAIN_END, EVAL_END)
        got = evaluate_sharded(sharded, shard_store, TRAIN_END, EVAL_END)
        assert got.n_faulty_drives == want.n_faulty_drives
        assert got.n_healthy_drives == want.n_healthy_drives
        for level in ("drive_report", "record_report"):
            for metric in ("tpr", "fpr", "accuracy", "pdr", "auc"):
                got_value = getattr(getattr(got, level), metric)
                want_value = getattr(getattr(want, level), metric)
                assert got_value == want_value or (
                    got_value != got_value and want_value != want_value
                ), (level, metric, got_value, want_value)

    def test_bad_period_rejected(self, fitted_pair, shard_store):
        _, sharded = fitted_pair
        with pytest.raises(ValueError, match="end_day"):
            evaluate_sharded(sharded, shard_store, 300, 300)


#: A firmware label that sorts before every simulated one (``I_F_<n>``).
ORPHAN_FIRMWARE = "!orphan"


def _with_dropped_fragment(fleet: TelemetryDataset) -> TelemetryDataset:
    """``fleet`` with one healthy drive's first two rows cut off by a gap
    of at least ``max_gap`` days into a fragment repair drops, and that
    fragment relabelled with :data:`ORPHAN_FIRMWARE`."""
    serial, day = fleet.columns["serial"], fleet.columns["day"]
    healthy = next(
        s for s, meta in fleet.drives.items()
        if meta.failure_day is None and np.count_nonzero(serial == s) > 60
    )
    rows = np.flatnonzero(serial == healthy)
    fragment_end = day[rows[1]]
    keep = np.ones(serial.size, dtype=bool)
    keep[rows[(day[rows] > fragment_end) & (day[rows] <= fragment_end + 11)]] = False
    columns = {name: values[keep] for name, values in fleet.columns.items()}
    columns["firmware"][rows[:2]] = ORPHAN_FIRMWARE  # rows before the cut
    return TelemetryDataset(columns, fleet.drives, fleet.tickets)


@pytest.fixture(scope="module")
def orphan_pair(small_fleet, tmp_path_factory):
    fleet = _with_dropped_fragment(small_fleet)
    store = write_dataset_sharded(
        fleet, tmp_path_factory.mktemp("orphan") / "store", n_shards=3
    )
    in_ram = MFPA(cheap_config()).fit(fleet, train_end_day=TRAIN_END)
    sharded = fit_sharded(store, cheap_config(), train_end_day=TRAIN_END)
    return in_ram, sharded


class TestDroppedFragmentFirmware:
    """A firmware label seen only in a fragment repair drops is never a
    class, in RAM or sharded — even when it would sort first and shift
    every kept label's code."""

    def test_encoder_classes_identical(self, orphan_pair):
        in_ram, sharded = orphan_pair
        assert ORPHAN_FIRMWARE not in in_ram.firmware_encoder_.classes_
        np.testing.assert_array_equal(
            sharded.firmware_encoder_.classes_,
            in_ram.firmware_encoder_.classes_,
        )

    def test_predictions_bit_identical(self, orphan_pair):
        in_ram, sharded = orphan_pair
        rows = np.arange(0, in_ram.dataset_.n_records, 97)
        sharded.dataset_ = in_ram.dataset_
        try:
            np.testing.assert_array_equal(
                sharded.predict_proba_rows(rows),
                in_ram.predict_proba_rows(rows),
            )
        finally:
            del sharded.dataset_


def test_train_end_day_required(shard_store):
    with pytest.raises(ValueError, match="train_end_day"):
        fit_sharded(shard_store, cheap_config())
