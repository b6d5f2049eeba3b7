"""The one-pass preprocess against its column-at-a-time oracle.

On (serial, day)-sorted input, :func:`repro.core.preprocess.preprocess`
and its three views must reproduce :mod:`tests.core.preprocess_oracle`
exactly: the same column names, order, dtypes and bytes, the same
report, encoder classes, surviving drives and tickets, and the same
error type and message. Unsorted input is rejected instead of being
repaired into duplicate rows.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preprocess import (
    accumulate_events,
    encode_firmware,
    preprocess,
    repair_discontinuity,
)
from repro.ml.encoding import LabelEncoder
from repro.obs.metrics import get_registry
from repro.robustness import DuplicateRows, OutOfOrder, inject
from repro.telemetry.dataset import B_COLUMNS, DriveMeta, TelemetryDataset, W_COLUMNS
from repro.telemetry.smart import SMART_COLUMNS
from repro.telemetry.tickets import TroubleTicket

from .preprocess_oracle import (
    oracle_accumulate_events,
    oracle_preprocess,
    oracle_repair_discontinuity,
)

FIRMWARES = ("F-A", "F-B", "F-C")


def _fleet(
    day_lists: list[list[int]],
    firmware: list[list[str]] | None = None,
    seed: int = 0,
    imputed: bool = False,
    int_column: bool = False,
    negative_event: int | None = None,
) -> TelemetryDataset:
    """A full-schema fleet; drive ``k`` (serial ``10 + k``) logs ``day_lists[k]``.

    Telemetry is random, event counts are small non-negative integers.
    ``negative_event`` makes that row's first W count negative. One
    extra drive has metadata but no rows.
    """
    rng = np.random.default_rng(seed)
    serial = np.concatenate(
        [np.full(len(days), 10 + k, dtype=np.int64) for k, days in enumerate(day_lists)]
    )
    n = serial.size
    if firmware is None:
        firmware = [[FIRMWARES[k % 3]] * len(days) for k, days in enumerate(day_lists)]
    columns: dict[str, np.ndarray] = {
        "serial": serial,
        "day": np.concatenate([np.asarray(d, dtype=np.int64) for d in day_lists]),
        "firmware": np.array([f for labels in firmware for f in labels], dtype=object),
        "vendor": np.full(n, "I", dtype=object),
        "model": np.full(n, "I-A128", dtype=object),
    }
    if imputed:
        columns["imputed"] = rng.integers(0, 2, n).astype(float)
    for name in SMART_COLUMNS:
        columns[name] = rng.normal(50.0, 20.0, n)
    for name in (*W_COLUMNS, *B_COLUMNS):
        columns[name] = rng.integers(0, 4, n).astype(float)
    if int_column:
        columns[SMART_COLUMNS[3]] = rng.integers(0, 1000, n)
    if negative_event is not None:
        columns[W_COLUMNS[0]][negative_event] = -1.0
    serials = [*range(10, 10 + len(day_lists)), 99]
    drives = {s: DriveMeta(s, "I", "I-A128", 128, "F-A", "healthy", None) for s in serials}
    tickets = [TroubleTicket(s, 5, "L1", "media", "wear") for s in serials[::2]]
    return TelemetryDataset(columns, drives, tickets)


def _outcome(function, *args, **kwargs):
    try:
        return function(*args, **kwargs), None
    except (KeyError, ValueError) as error:
        return None, (type(error), str(error))


def _assert_same_dataset(got: TelemetryDataset, want: TelemetryDataset) -> None:
    assert list(got.columns) == list(want.columns)
    for name, values in want.columns.items():
        assert got.columns[name].dtype == values.dtype, name
        if values.dtype == object:
            assert got.columns[name].tolist() == values.tolist(), name
        else:
            assert got.columns[name].tobytes() == values.tobytes(), name
    assert list(got.drives) == list(want.drives)
    assert got.tickets == want.tickets


def _assert_same_preprocess(dataset, encoder=None, **thresholds) -> None:
    got, got_error = _outcome(preprocess, dataset, encoder=encoder, **thresholds)
    want, want_error = _outcome(oracle_preprocess, dataset, encoder=encoder, **thresholds)
    assert got_error == want_error
    if want is None:
        return
    _assert_same_dataset(got[0], want[0])
    assert got[1] == want[1]
    assert got[2].classes_ == want[2].classes_


def _assert_same_views(dataset, **thresholds) -> None:
    got, got_error = _outcome(repair_discontinuity, dataset, **thresholds)
    want, want_error = _outcome(oracle_repair_discontinuity, dataset, **thresholds)
    assert got_error == want_error
    if want is not None:
        _assert_same_dataset(got[0], want[0])
        assert got[1] == want[1]
    got, got_error = _outcome(accumulate_events, dataset)
    want, want_error = _outcome(oracle_accumulate_events, dataset)
    assert got_error == want_error
    if want is not None:
        _assert_same_dataset(got, want)
    encoded, encoder = encode_firmware(dataset)
    reference = LabelEncoder()
    codes = reference.fit_transform(dataset.columns["firmware"]).astype(float)
    assert encoded.columns["firmware_code"].tobytes() == codes.tobytes()
    assert encoder.classes_ == reference.classes_


@st.composite
def sorted_fleets(draw):
    max_gap = draw(st.integers(2, 6))
    fill_gap = draw(st.integers(0, max_gap - 1))
    min_segment_records = draw(st.integers(1, 4))
    # Days between consecutive records: 0 repeats a day, and g missing
    # days is a step of g + 1 — so 0, 1, fill_gap, fill_gap + 1,
    # max_gap - 1 and max_gap missing days.
    steps = st.sampled_from(
        sorted({0, 1, 2, fill_gap + 1, fill_gap + 2, max_gap, max_gap + 1})
    )
    day_lists = []
    for _ in range(draw(st.integers(1, 5))):
        drive_steps = draw(st.lists(steps, max_size=12))
        day_lists.append(np.cumsum([draw(st.integers(0, 3)), *drive_steps]).tolist())
    if draw(st.booleans()):
        firmware = [draw(st.lists(st.sampled_from(FIRMWARES), min_size=len(days),
                                  max_size=len(days))) for days in day_lists]
    else:
        firmware = None
    n_rows = sum(len(days) for days in day_lists)
    dataset = _fleet(
        day_lists,
        firmware=firmware,
        seed=draw(st.integers(0, 2**32 - 1)),
        imputed=draw(st.booleans()),
        int_column=draw(st.booleans()),
        negative_event=draw(st.none() | st.integers(0, n_rows - 1)),
    )
    thresholds = dict(
        max_gap=max_gap, fill_gap=fill_gap, min_segment_records=min_segment_records
    )
    return dataset, thresholds


@given(sorted_fleets())
@settings(max_examples=150, deadline=None)
def test_matches_oracle_on_random_sorted_fleets(case):
    dataset, thresholds = case
    _assert_same_preprocess(dataset, **thresholds)
    _assert_same_views(dataset, **thresholds)


@given(sorted_fleets())
@settings(max_examples=50, deadline=None)
def test_transform_only_matches_oracle(case):
    dataset, thresholds = case
    encoder = LabelEncoder().fit(FIRMWARES[:2])
    _assert_same_preprocess(dataset, encoder=encoder, **thresholds)


class TestNamedCases:
    """One fixed fleet per case the random search must not miss."""

    def test_every_gap_width(self):
        # 0, 1, 3 (fill_gap), 4, 9 (max_gap - 1) and 10 (max_gap) missing days.
        days = [0, 1, 3, 7, 12, 22, 33, 34, 35, 36, 37]
        _assert_same_preprocess(_fleet([days, list(range(8))]))

    def test_fragment_one_short_of_the_minimum(self):
        _assert_same_preprocess(_fleet([[0, 1, 2, 3, 20, 21, 22, 23, 24]]))

    def test_drive_dropped_whole(self):
        dataset = _fleet([[0, 20, 40], list(range(10))])
        prepared, report, _ = preprocess(dataset)
        assert 10 not in prepared.drives and report.n_drives_dropped == 2
        _assert_same_preprocess(dataset)

    def test_firmware_seen_only_in_dropped_rows_is_not_a_class(self):
        dataset = _fleet(
            [[0, 30, 31, 32, 33, 34], list(range(8))],
            firmware=[["F-GONE"] + ["F-A"] * 5, ["F-B"] * 8],
        )
        _, _, encoder = preprocess(dataset)
        assert encoder.classes_ == ["F-A", "F-B"]
        _assert_same_preprocess(dataset)
        known = LabelEncoder().fit(["F-A", "F-B"])
        _assert_same_preprocess(dataset, encoder=known)

    def test_input_already_imputed(self):
        _assert_same_preprocess(_fleet([[0, 1, 3, 4, 5, 6]], imputed=True))

    @pytest.mark.parametrize("days", [[0, 1, 2, 3, 4, 5], [0, 2, 3, 4, 5, 6]])
    def test_int64_telemetry_column(self, days):
        dataset = _fleet([days], int_column=True)
        _assert_same_preprocess(dataset)
        prepared, report, _ = preprocess(dataset)
        expected = np.int64 if report.n_rows_filled == 0 else np.float64
        assert prepared.columns[SMART_COLUMNS[3]].dtype == expected

    def test_duplicate_days_accepted(self):
        _assert_same_preprocess(_fleet([[0, 1, 1, 2, 4, 5, 5, 6]]))

    def test_no_fills(self):
        dataset = _fleet([list(range(7)), list(range(3, 12))])
        assert preprocess(dataset)[1].n_rows_filled == 0
        _assert_same_preprocess(dataset)

    def test_negative_count_in_dropped_rows_is_ignored(self):
        dataset = _fleet([[0, 30, 31, 32, 33, 34]], negative_event=0)
        preprocess(dataset)
        _assert_same_preprocess(dataset)

    def test_unseen_label_raises_in_transform_only(self):
        dataset = _fleet([list(range(6))], firmware=[["F-A"] * 3 + ["F-Z"] * 3])
        encoder = LabelEncoder().fit(["F-A"])
        with pytest.raises(ValueError, match="unseen label 'F-Z'"):
            preprocess(dataset, encoder=encoder)
        _assert_same_preprocess(dataset, encoder=encoder)

    def test_simulated_fleet(self, small_fleet):
        _assert_same_preprocess(small_fleet)
        _assert_same_views(small_fleet)


class TestSortContract:
    def test_out_of_order_rows_rejected(self, small_fleet):
        shuffled = inject(small_fleet, [OutOfOrder(0.05)], seed=0)
        with pytest.raises(ValueError, match=r"sorted by \(serial, day\).*--sanitize"):
            preprocess(shuffled)
        with pytest.raises(ValueError, match=r"sorted by \(serial, day\)"):
            repair_discontinuity(shuffled)

    def test_drives_out_of_serial_order_rejected(self):
        dataset = _fleet([list(range(6)), list(range(6))])
        serial = dataset.columns["serial"].copy()
        serial[:6], serial[6:] = 11, 10
        columns = {**dataset.columns, "serial": serial}
        swapped = TelemetryDataset(columns, dataset.drives, dataset.tickets)
        with pytest.raises(ValueError, match="row 6 comes before its predecessor"):
            preprocess(swapped)

    def test_duplicate_rows_accepted(self, small_fleet):
        duplicated = inject(small_fleet, [DuplicateRows(0.05)], seed=0)
        _assert_same_preprocess(duplicated)


class TestMetrics:
    @pytest.fixture(autouse=True)
    def _fresh_registry(self):
        get_registry().reset()
        yield
        get_registry().reset()

    def test_one_observation_and_row_counts_per_call(self):
        dataset = _fleet([[0, 20, 21, 22, 23, 24, 26, 27]])
        _, report, encoder = preprocess(dataset)
        preprocess(dataset, encoder=encoder)
        registry = get_registry()
        assert registry.histogram("preprocess_seconds").count == 2
        dropped = registry.counter("preprocess_rows_total", outcome="dropped")
        filled = registry.counter("preprocess_rows_total", outcome="filled")
        assert (report.n_rows_dropped, report.n_rows_filled) == (1, 1)
        assert (dropped.value, filled.value) == (2, 2)
