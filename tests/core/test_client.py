"""Unit tests for the client-side streaming predictor.

The key property: for any drive, feeding its raw daily readings through
``ClientPredictor.observe`` reproduces exactly the probabilities the
batch pipeline computes for the same rows.
"""

import numpy as np
import pytest

from repro.core import MFPA, MFPAConfig
from repro.core.client import NO_DAY, ClientPredictor, parse_readings
from repro.telemetry.dataset import B_COLUMNS, W_COLUMNS
from repro.telemetry.smart import SMART_COLUMNS


@pytest.fixture(scope="module")
def fitted(small_fleet):
    model = MFPA(MFPAConfig())
    model.fit(small_fleet, train_end_day=240)
    return model


def _raw_readings(model, serial):
    """Reconstruct the raw daily readings a client collector would emit."""
    rows = model.dataset_.drive_rows(serial)
    readings = []
    for i in range(rows["day"].size):
        reading = {"firmware": rows["firmware"][i]}
        for column in SMART_COLUMNS:
            reading[column] = float(rows[column][i])
        for column in (*W_COLUMNS, *B_COLUMNS):
            reading[column] = float(rows[column][i])
        readings.append((int(rows["day"][i]), reading))
    return readings


class TestEquivalenceWithBatch:
    def test_probabilities_match_batch_pipeline(self, fitted):
        serial = int(fitted.dataset_.failed_serials()[0])
        base = fitted.dataset_._row_slices()[serial].start
        n = fitted.dataset_.drive_rows(serial)["day"].size
        batch = fitted.predict_proba_rows(base + np.arange(n))

        predictor = ClientPredictor.from_model(fitted)
        streaming = [
            predictor.observe(serial, day, reading)
            for day, reading in _raw_readings(fitted, serial)
        ]
        np.testing.assert_allclose(streaming, batch, atol=1e-12)

    def test_equivalence_with_history_stacking(self, small_fleet):
        config = MFPAConfig(
            feature_columns=(
                "s14_media_errors",
                "s15_error_log_entries",
                "cum_w161_fs_io_error",
            ),
            history_length=3,
        )
        model = MFPA(config)
        model.fit(small_fleet, train_end_day=240)
        serial = int(model.dataset_.healthy_serials()[0])
        base = model.dataset_._row_slices()[serial].start
        n = model.dataset_.drive_rows(serial)["day"].size
        batch = model.predict_proba_rows(base + np.arange(n))

        predictor = ClientPredictor.from_model(model)
        streaming = [
            predictor.observe(serial, day, reading)
            for day, reading in _raw_readings(model, serial)
        ]
        np.testing.assert_allclose(streaming, batch, atol=1e-12)


class TestStreamingBehaviour:
    def test_out_of_order_rejected(self, fitted):
        predictor = ClientPredictor.from_model(fitted)
        serial = int(fitted.dataset_.serials[0])
        readings = _raw_readings(fitted, serial)
        predictor.observe(serial, *readings[1])
        with pytest.raises(ValueError, match="out-of-order"):
            predictor.observe(serial, *readings[0])

    def test_missing_field_rejected(self, fitted):
        predictor = ClientPredictor.from_model(fitted)
        with pytest.raises(KeyError):
            predictor.observe(1, 0, {"firmware": "I_F_1"})

    def test_failed_observe_leaves_state_retryable(self, fitted):
        """Regression: a rejected reading must not half-mutate the drive.

        Previously the cumulative W/B counters and ``last_day`` were
        updated *before* ``_feature_vector`` could raise, so retrying
        with the corrected reading double-counted events and tripped the
        out-of-order check."""
        serial = int(fitted.dataset_.serials[0])
        readings = _raw_readings(fitted, serial)
        day, good = readings[0]

        predictor = ClientPredictor.from_model(fitted)
        broken = dict(good)
        del broken[SMART_COLUMNS[0]]
        with pytest.raises(KeyError):
            predictor.observe(serial, day, broken)

        # The same day must still be accepted (last_day untouched) and
        # produce exactly what a fresh predictor produces (cumulative
        # counters untouched).
        retried = predictor.observe(serial, day, good)
        fresh = ClientPredictor.from_model(fitted)
        assert retried == fresh.observe(serial, day, good)

    def test_failed_observe_does_not_double_count_events(self, fitted):
        serial = int(fitted.dataset_.serials[0])
        readings = _raw_readings(fitted, serial)
        day0, good0 = readings[0]
        day1, good1 = readings[1]

        predictor = ClientPredictor.from_model(fitted)
        predictor.observe(serial, day0, good0)
        broken = dict(good1)
        del broken["firmware"]
        with pytest.raises(KeyError):
            predictor.observe(serial, day1, broken)
        retried = predictor.observe(serial, day1, good1)

        fresh = ClientPredictor.from_model(fitted)
        fresh.observe(serial, day0, good0)
        assert retried == fresh.observe(serial, day1, good1)

    def test_alarm_uses_threshold(self, fitted):
        predictor = ClientPredictor.from_model(fitted)
        serial = int(fitted.dataset_.failed_serials()[0])
        readings = _raw_readings(fitted, serial)
        alarmed, probability = predictor.alarm(serial, *readings[-1])
        assert alarmed == (probability >= predictor.threshold)

    def test_faulty_drive_eventually_alarms(self, fitted):
        predictor = ClientPredictor.from_model(fitted)
        # Find a faulty drive whose failure the batch model detects.
        for serial in fitted.dataset_.failed_serials():
            readings = _raw_readings(fitted, int(serial))
            probabilities = [
                predictor.observe(int(serial), day, reading)
                for day, reading in readings
            ]
            if max(probabilities) >= 0.5:
                assert probabilities[-1] >= probabilities[0] - 0.2
                return
        pytest.fail("no faulty drive raised an alarm")

    def test_forget_clears_state(self, fitted):
        predictor = ClientPredictor.from_model(fitted)
        serial = int(fitted.dataset_.serials[0])
        readings = _raw_readings(fitted, serial)
        predictor.observe(serial, *readings[0])
        assert predictor.n_tracked_drives == 1
        predictor.forget(serial)
        assert predictor.n_tracked_drives == 0
        # After forgetting, the old day is acceptable again.
        predictor.observe(serial, *readings[0])

    def test_unfitted_model_rejected(self):
        with pytest.raises(RuntimeError):
            ClientPredictor.from_model(MFPA())

    def test_prediction_latency_is_client_grade(self, fitted):
        import time

        predictor = ClientPredictor.from_model(fitted)
        serial = int(fitted.dataset_.serials[0])
        readings = _raw_readings(fitted, serial)
        # Warm up, then time a single observation.
        predictor.observe(serial, *readings[0])
        started = time.perf_counter()
        predictor.observe(serial, *readings[1])
        elapsed = time.perf_counter() - started
        # The paper claims microsecond-level client prediction; our
        # numpy forest clears single-digit milliseconds comfortably.
        assert elapsed < 0.05


@pytest.fixture(scope="module")
def stacked(small_fleet):
    """A three-step history model that also reads firmware."""
    model = MFPA(MFPAConfig(
        feature_columns=(
            "s2_temperature",
            "s14_media_errors",
            "firmware_code",
            "cum_w161_fs_io_error",
        ),
        history_length=3,
    ))
    model.fit(small_fleet, train_end_day=240)
    return model


def _random_batches(model, rng, n_drives=6, n_days=12):
    """Day-ordered readings of a few drives, cut into random batches and
    damaged at random: dropped columns, dropped firmware, unseen
    firmware, non-finite values and repeated days."""
    serials = rng.choice(model.dataset_.serials, size=n_drives, replace=False)
    queue = sorted(
        (day, int(serial), reading)
        for serial in serials
        for day, reading in _raw_readings(model, int(serial))[:n_days]
    )
    stream = []
    for day, serial, reading in queue:
        reading = dict(reading)
        roll = rng.random()
        if roll < 0.1:
            del reading["s2_temperature"]
        elif roll < 0.2:
            del reading["firmware"]
        elif roll < 0.25:
            reading["firmware"] = "NOT_A_FW"
        elif roll < 0.3:
            reading["w161_fs_io_error"] = np.nan
        elif roll < 0.35:
            reading["s14_media_errors"] = np.inf
        stream.append((serial, day, reading))
        if rng.random() < 0.05:
            stream.append((serial, day, reading))  # duplicate delivery
    cuts = np.sort(rng.choice(np.arange(1, len(stream)), size=8, replace=False))
    return [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]


class TestBatchIngest:
    @pytest.mark.parametrize("model_name", ["fitted", "stacked"])
    @pytest.mark.parametrize("seed", range(4))
    def test_batch_equals_one_at_a_time(self, request, model_name, seed):
        model = request.getfixturevalue(model_name)
        batched = ClientPredictor.from_model(model, on_missing="impute")
        single = ClientPredictor.from_model(model, on_missing="impute")
        rng = np.random.default_rng(seed)
        batches = _random_batches(model, rng)
        assert any(len({r[0] for r in batch}) < len(batch) for batch in batches)
        n_rejected = 0
        for batch in batches:
            serials, days, readings = zip(*batch)
            rows, rejections = batched.ingest(serials, days, readings)
            expected_rows, expected_rejections = [], {}
            for position, reading in enumerate(batch):
                row, rejection = single.ingest(*([x] for x in reading))
                expected_rows.extend(row)
                if rejection:
                    expected_rejections[position] = type(rejection[0])
            assert {k: type(v) for k, v in rejections.items()} == expected_rejections
            np.testing.assert_array_equal(
                rows, np.reshape(expected_rows, rows.shape)
            )
            assert batched.snapshot() == single.snapshot()
            n_rejected += len(rejections)
        assert n_rejected > 0

    def test_rejection_leaves_only_its_own_drive_untouched(self, fitted):
        predictor = ClientPredictor.from_model(fitted, on_missing="impute")
        a, b = (int(s) for s in fitted.dataset_.serials[:2])
        (day0, a0), (day1, a1) = _raw_readings(fitted, a)[:2]
        (_, b0), (_, b1) = _raw_readings(fitted, b)[:2]
        predictor.ingest([a, b], [day0, day0], [a0, b0])
        before = predictor.snapshot()["drives"]

        rows, rejections = predictor.ingest(
            [a, b], [day1, day1], [{**a1, "firmware": "NOT_A_FW"}, b1]
        )
        assert list(rejections) == [0] and len(rows) == 1
        after = predictor.snapshot()["drives"]
        assert after[str(a)] == before[str(a)]
        assert after[str(b)]["last_day"] == day1
        # the corrected reading is accepted on retry
        rows, rejections = predictor.ingest([a], [day1], [a1])
        assert not rejections and len(rows) == 1

    def test_unseen_drive_rejected_twice_in_one_batch(self, fitted):
        """Regression: a drive new to the predictor whose every reading in
        the batch was rejected used to raise ``KeyError`` (its serial was
        released twice)."""
        predictor = ClientPredictor.from_model(fitted)
        bad = {"firmware": "I_F_1"}  # strict mode: columns missing
        rows, rejections = predictor.ingest([5, 5], [1, 2], [bad, bad])
        assert len(rows) == 0
        assert sorted(rejections) == [0, 1]
        assert all(isinstance(e, KeyError) for e in rejections.values())
        assert predictor.n_tracked_drives == 0

    def test_malformed_serial_or_day_rejects_only_its_reading(self, fitted):
        serial = int(fitted.dataset_.serials[0])
        (day0, r0), (day1, r1) = _raw_readings(fitted, serial)[:2]
        predictor = ClientPredictor.from_model(fitted)
        rows, rejections = predictor.ingest(
            ["x", serial, serial], [day0, day0 + 0.5, float(day1)], [r0, r0, r1]
        )
        assert sorted(rejections) == [0, 1] and len(rows) == 1
        assert predictor.snapshot()["drives"][str(serial)]["last_day"] == day1

    def test_readings_of_one_drive_applied_in_day_order(self, stacked):
        serial = int(stacked.dataset_.serials[0])
        readings = _raw_readings(stacked, serial)[:4]
        ordered = ClientPredictor.from_model(stacked)
        expected, _ = ordered.ingest(
            [serial] * 4, [d for d, _ in readings], [r for _, r in readings]
        )
        shuffled = ClientPredictor.from_model(stacked)
        order = [2, 0, 3, 1]
        rows, rejections = shuffled.ingest(
            [serial] * 4,
            [readings[i][0] for i in order],
            [readings[i][1] for i in order],
        )
        assert not rejections
        np.testing.assert_array_equal(rows, expected[order])
        assert shuffled.snapshot() == ordered.snapshot()

    def test_pickle_rebuilds_the_column_plan(self, stacked):
        import pickle

        serial = int(stacked.dataset_.serials[0])
        readings = _raw_readings(stacked, serial)
        predictor = ClientPredictor.from_model(stacked)
        for day, reading in readings[:3]:
            predictor.observe(serial, day, reading)
        restored = pickle.loads(pickle.dumps(predictor))
        assert restored.snapshot() == predictor.snapshot()
        day, reading = readings[3]
        assert restored.observe(serial, day, reading) == predictor.observe(
            serial, day, reading
        )


class TestNonFiniteValues:
    def test_nan_event_count_does_not_poison_the_counter(self, fitted):
        """Regression: one NaN daily W count used to make the drive's
        cumulative counter NaN forever, without flagging degradation."""
        predictor = ClientPredictor.from_model(fitted, on_missing="impute")
        serial = int(fitted.dataset_.serials[0])
        readings = _raw_readings(fitted, serial)[:3]
        (day0, r0), (day1, r1), (day2, r2) = readings
        predictor.observe(serial, day0, r0)
        predictor.observe(serial, day1, {**r1, "w11_controller_error": np.nan})
        assert predictor.last_prediction_degraded
        assert "w11_controller_error" in predictor.last_missing_columns
        predictor.observe(serial, day2, r2)
        assert not predictor.last_prediction_degraded
        counter = predictor.snapshot()["drives"][str(serial)]["cumulative_events"][
            "cum_w11_controller_error"
        ]
        assert counter == r0["w11_controller_error"] + r2["w11_controller_error"]
        assert predictor.n_degraded_predictions(serial) == 1

    def test_nan_raw_value_imputes_last_known(self, fitted):
        serial = int(fitted.dataset_.serials[0])
        (day0, r0), (day1, r1) = _raw_readings(fitted, serial)[:2]
        predictor = ClientPredictor.from_model(fitted, on_missing="impute")
        predictor.observe(serial, day0, r0)
        poisoned = predictor.observe(serial, day1, {**r1, "s2_temperature": np.nan})
        assert predictor.last_missing_columns == ("s2_temperature",)
        reference = ClientPredictor.from_model(fitted, on_missing="impute")
        reference.observe(serial, day0, r0)
        assert poisoned == reference.observe(
            serial, day1, {**r1, "s2_temperature": r0["s2_temperature"]}
        )

    def test_strict_mode_rejects_non_finite_values(self, fitted):
        serial = int(fitted.dataset_.serials[0])
        day, reading = _raw_readings(fitted, serial)[0]
        predictor = ClientPredictor.from_model(fitted)
        for column in ("s2_temperature", "w11_controller_error"):
            with pytest.raises(ValueError, match="non-finite"):
                predictor.observe(serial, day, {**reading, column: np.inf})
        assert predictor.n_tracked_drives == 0


def test_parse_readings_refuses_sequence_cells_and_zeroes_bad_serials():
    batch = parse_readings(
        [1, "x"], [3, 4.5], [{"s2_temperature": [40]}, {"s2_temperature": [41]}]
    )
    assert batch.non_numeric.tolist() == [[True], [True]]
    assert np.isnan(batch.values).all()
    assert batch.anonymous.tolist() == [False, True]
    assert batch.serials.tolist() == [1, 0]
    assert batch.days.tolist() == [3, NO_DAY]
