"""The monitor window core against its per-drive and column-stack oracles.

``score_prepared_window`` selects a window's rows with one mask and
takes first crossings with one ``np.unique``; ``FeatureAssembler``
gathers only the requested rows. Both must reproduce the reference
bodies in :mod:`tests.core.window_oracle` exactly: the same alarms in
the same order, the same scored-drive count, the same mutated
``alarmed`` set, and the same matrices.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deployment import FleetMonitor, RetrainPolicy, score_prepared_window
from repro.core.features import FeatureAssembler, feature_group
from repro.obs import get_registry
from repro.telemetry.dataset import DriveMeta, TelemetryDataset

from .window_oracle import oracle_assemble, oracle_score_window

PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.8, 1.0]), st.floats(0.0, 1.0)
)
THRESHOLDS = st.one_of(
    st.sampled_from([0.05, 0.2, 0.5, 0.8]), st.floats(0.01, 0.99)
)
NO_RETRAIN = RetrainPolicy(interval_days=10_000)


class TableModel:
    """A fitted-model stand-in: prepared row ``i`` scores ``scores[i]``."""

    def __init__(self, dataset: TelemetryDataset, scores: np.ndarray):
        self.dataset_ = dataset
        self.scores = scores

    def predict_proba_rows(
        self, row_indices: np.ndarray, at_least: float | None = None
    ) -> np.ndarray:
        return self.scores[np.asarray(row_indices)]


def _meta(serial: int) -> DriveMeta:
    return DriveMeta(serial, "I", "I-1", 512, "FW1", "healthy", None)


def _table_model(days_by_serial, drive_order, scores) -> TableModel:
    """Rows sorted by (serial, day); ``drives`` in ``drive_order``."""
    serial = [s for s in sorted(days_by_serial) for _ in days_by_serial[s]]
    day = [d for s in sorted(days_by_serial) for d in sorted(days_by_serial[s])]
    columns = {
        "serial": np.array(serial, dtype=np.int64),
        "day": np.array(day, dtype=np.int64),
    }
    drives = {s: _meta(s) for s in drive_order}
    dataset = TelemetryDataset(columns, drives, [])
    return TableModel(dataset, np.asarray(scores, dtype=float))


@st.composite
def table_models(draw):
    serials = draw(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True))
    days_by_serial = {
        serial: draw(
            st.lists(st.integers(0, 60), min_size=1, max_size=8, unique=True)
        )
        for serial in serials
    }
    n_rows = sum(len(days) for days in days_by_serial.values())
    scores = draw(st.lists(PROBABILITIES, min_size=n_rows, max_size=n_rows))
    # drives in any order; some serials have rows but no DriveMeta
    order = draw(st.permutations(serials))
    dropped = draw(st.sets(st.sampled_from(serials), max_size=2))
    return _table_model(
        days_by_serial, [s for s in order if s not in dropped], scores
    )


@pytest.fixture(scope="module")
def fitted(small_fleet):
    monitor = FleetMonitor(policy=NO_RETRAIN)
    monitor.start(small_fleet, train_end_day=240)
    return monitor.model


def _assert_window_parity(model, alarmed, threshold, start, end):
    expected_alarmed = set(alarmed)
    actual_alarmed = set(alarmed)
    expected = oracle_score_window(model, expected_alarmed, threshold, start, end)
    actual = score_prepared_window(model, actual_alarmed, threshold, start, end)
    assert actual == expected
    assert actual_alarmed == expected_alarmed
    for alarm in actual[0]:
        assert type(alarm.serial) is int and type(alarm.day) is int
        assert type(alarm.probability) is float
    return actual


class TestScoreWindowParity:
    @settings(
        max_examples=150,
        deadline=None,
    )
    @given(
        model=table_models(),
        threshold=THRESHOLDS,
        start=st.integers(-5, 65),
        length=st.integers(1, 40),
        alarmed=st.sets(st.integers(0, 40), max_size=4),
    )
    def test_matches_per_drive_oracle(self, model, threshold, start, length, alarmed):
        _assert_window_parity(model, alarmed, threshold, start, start + length)

    def test_unsorted_drives_orphan_rows_and_idle_drives(self):
        days = {
            3: [1, 5, 9],  # crosses on day 5
            7: [2, 4],  # crosses on day 2
            11: [50, 51],  # no rows in the window
            20: [3, 6],  # orphan rows: no DriveMeta, never scored
            25: [1, 2, 8],  # pre-alarmed
            30: [7],  # scored, never crosses
        }
        scores = [0.1, 0.9, 0.95, 0.7, 0.2, 0.99, 0.99, 0.9, 0.9, 0.9, 0.9, 0.9, 0.3]
        model = _table_model(days, [30, 25, 11, 7, 3], scores)
        alarms, n_scored = _assert_window_parity(model, {25}, 0.5, 0, 30)
        assert [(a.serial, a.day) for a in alarms] == [(7, 2), (3, 5)]
        assert n_scored == 3

    @settings(
        max_examples=20,
        deadline=None,
    )
    @given(
        threshold=st.sampled_from([0.05, 0.2, 0.5, 0.8]),
        start=st.integers(230, 330),
        length=st.sampled_from([7, 15, 30]),
        n_alarmed=st.integers(0, 20),
    )
    def test_fitted_model_matches_oracle(
        self, fitted, threshold, start, length, n_alarmed
    ):
        alarmed = set(list(fitted.dataset_.drives)[::7][:n_alarmed])
        _assert_window_parity(fitted, alarmed, threshold, start, start + length)


class TestWindowStageHistogram:
    def test_one_sample_per_stage_per_window(self, fitted, small_fleet):
        monitor = FleetMonitor(policy=NO_RETRAIN)
        monitor.start_with_model(fitted, small_fleet, train_end_day=240)
        get_registry().reset()
        monitor.score_window(240, 270)
        counts = {
            sample["labels"]["stage"]: sample["count"]
            for family in get_registry().dump()
            if family["name"] == "window_stage_seconds"
            for sample in family["samples"]
        }
        assert counts == {"select": 1, "score": 1, "decide": 1}


def _assemble_columns(rows_per_serial) -> dict[str, np.ndarray]:
    serial = np.array(
        [s for s in sorted(rows_per_serial) for _ in range(rows_per_serial[s])],
        dtype=np.int64,
    )
    generator = np.random.default_rng(serial.size)
    return {
        "serial": serial,
        "a": generator.normal(size=serial.size),
        "b": generator.integers(-5, 1000, size=serial.size, dtype=np.int64),
        "c": generator.uniform(size=serial.size),
    }


class TestAssembleParity:
    @settings(max_examples=100, deadline=None)
    @given(
        runs=st.dictionaries(
            st.integers(0, 50), st.integers(1, 6), min_size=1, max_size=6
        ),
        history_length=st.sampled_from([1, 3]),
        data=st.data(),
    )
    def test_matches_column_stack_oracle(self, runs, history_length, data):
        columns = _assemble_columns(runs)
        n_rows = columns["serial"].size
        # unsorted, duplicated, possibly empty
        rows = np.array(
            data.draw(st.lists(st.integers(0, n_rows - 1), max_size=12)),
            dtype=np.int64,
        )
        names = ("b", "a", "c")
        actual = FeatureAssembler(names, history_length).assemble(columns, rows)
        expected = oracle_assemble(names, history_length, columns, rows)
        assert actual.dtype == expected.dtype == np.float64
        assert actual.shape == expected.shape == (rows.size, 3 * history_length)
        np.testing.assert_array_equal(actual, expected)

    @pytest.mark.parametrize("history_length", [1, 3])
    def test_prepared_fleet_rows(self, prepared_fleet, history_length):
        prepared, _, _ = prepared_fleet
        names = feature_group("SFWB").columns
        rows = np.random.default_rng(0).integers(0, prepared.n_records, 2_000)
        actual = FeatureAssembler(names, history_length).assemble(
            prepared.columns, rows
        )
        expected = oracle_assemble(names, history_length, prepared.columns, rows)
        np.testing.assert_array_equal(actual, expected)
