"""Streaming trainer parity: ``fit_sharded`` vs the in-RAM ``MFPA.fit``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import pipeline as pipeline_mod
from repro.core.pipeline import MFPA
from repro.scale import (
    ShardedDataset,
    evaluate_sharded,
    fit_sharded,
    write_dataset_sharded,
)
from repro.telemetry.dataset import TelemetryDataset
from repro.telemetry.io import save_dataset

from tests.scale.conftest import cheap_config

TRAIN_END = 240
EVAL_END = 360


def _fit_pair(fleet: TelemetryDataset, store: ShardedDataset, **overrides):
    in_ram = MFPA(cheap_config(**overrides)).fit(fleet, train_end_day=TRAIN_END)
    sharded = fit_sharded(store, cheap_config(**overrides), train_end_day=TRAIN_END)
    return in_ram, sharded


@pytest.fixture(scope="module")
def fitted_pair(small_fleet, shard_store):
    return _fit_pair(small_fleet, shard_store)


@pytest.fixture(scope="module")
def one_shard_store(small_fleet, tmp_path_factory):
    """The small fleet as ``save_dataset`` writes it: a one-shard store."""
    root = tmp_path_factory.mktemp("one-shard") / "store"
    return ShardedDataset(save_dataset(small_fleet, root))


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


class TestOneShardStore(TestFitParity, TestEvaluateParity):
    """Every fit and evaluate parity check again over a one-shard store,
    where ``preprocess`` fits the encoder and no union pass runs."""

    @pytest.fixture(scope="class")
    def shard_store(self, one_shard_store):
        return one_shard_store

    @pytest.fixture(scope="class")
    def fitted_pair(self, small_fleet, one_shard_store):
        return _fit_pair(small_fleet, one_shard_store)


def test_selection_and_derived_features_parity(small_fleet, shard_store):
    """Forward selection assembles its candidate matrix in pass 2 too."""
    in_ram, sharded = _fit_pair(
        small_fleet,
        shard_store,
        feature_selection=True,
        selection_max_features=2,
        selection_max_rows=600,
        derived_features=True,
    )
    assert sharded.selection_history_ == in_ram.selection_history_
    assert sharded.assembler_.columns == in_ram.assembler_.columns
    rows = np.arange(0, in_ram.dataset_.n_records, 97)
    sharded.dataset_ = in_ram.dataset_
    np.testing.assert_array_equal(
        sharded.predict_proba_rows(rows), in_ram.predict_proba_rows(rows)
    )


def test_in_ram_fit_prepares_the_fleet_once(small_fleet, monkeypatch):
    calls = {"preprocess": 0, "load_shard": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        pipeline_mod, "preprocess", counting("preprocess", pipeline_mod.preprocess)
    )
    monkeypatch.setattr(
        ShardedDataset,
        "load_shard",
        counting("load_shard", ShardedDataset.load_shard),
    )
    model = MFPA(cheap_config()).fit(small_fleet, train_end_day=TRAIN_END)
    assert calls == {"preprocess": 1, "load_shard": 0}
    calls["preprocess"] = 0
    model.bind_dataset(small_fleet)
    assert calls == {"preprocess": 1, "load_shard": 0}


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
